"""Allocation replay simulator and its cost metrics.

Replays a test split of utilization windows against an allocation policy
and scores the outcome on the two failure modes the paper's §I names:
"idle resources due to over-allocation of resources and degraded
workloads performance due to under-allocation of resources".
The excess/slack arithmetic is :func:`repro.cluster.replay.excess_stats`,
shared with the scheduling replay and the closed-loop cluster simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.replay import excess_stats
from .allocator import Allocator

__all__ = ["AllocationReport", "simulate_allocation"]


@dataclass(frozen=True)
class AllocationReport:
    """Operational cost of one policy over one trace segment."""

    policy: str
    n_intervals: int
    #: mean reserved-but-unused capacity (normalized cores) — waste
    mean_overprovision: float
    #: fraction of intervals where demand exceeded the reservation — QoS
    violation_rate: float
    #: mean unmet demand in violating intervals (severity)
    mean_violation_depth: float
    #: mean total reservation (the bill)
    mean_reservation: float

    def cost(self, violation_penalty: float = 10.0) -> float:
        """Scalar cost: waste + penalized violations.

        The penalty encodes that an SLO breach is far more expensive than
        idle capacity; 10x is a conservative industry-style weighting.
        """
        return (
            self.mean_overprovision
            + violation_penalty * self.violation_rate * max(self.mean_violation_depth, 1e-9)
        )


def simulate_allocation(
    allocator: Allocator,
    windows: np.ndarray,
    future: np.ndarray,
) -> AllocationReport:
    """Replay ``allocator`` over aligned (window, next-step-truth) pairs.

    Parameters
    ----------
    windows:
        ``(N, window, features)`` normalized utilization histories.
    future:
        ``(N,)`` realized next-step utilization in [0, 1].
    """
    windows = np.asarray(windows, float)
    future = np.asarray(future, float).reshape(-1)
    if windows.ndim != 3 or len(windows) != len(future):
        raise ValueError(
            f"windows must be (N, w, f) aligned with future (N,), got "
            f"{windows.shape} and {future.shape}"
        )
    if len(future) == 0:
        raise ValueError("empty simulation segment")

    reservations = np.asarray(allocator.reserve(windows, future), float)
    if reservations.shape != future.shape:
        raise ValueError(
            f"policy returned shape {reservations.shape}, expected {future.shape}"
        )

    stats = excess_stats(demand=future, supply=reservations)

    return AllocationReport(
        policy=allocator.name,
        n_intervals=stats.n_samples,
        mean_overprovision=stats.mean_slack,
        violation_rate=stats.rate,
        mean_violation_depth=stats.mean_depth,
        mean_reservation=float(reservations.mean()),
    )
