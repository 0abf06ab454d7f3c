"""Replay a placement against the jobs' actual usage.

For each time step, each machine's load is the sum of its hosted jobs'
actual usage. The report scores the trade-off the paper's §II describes:
fewer machines (higher utilization) versus overload intervals where
co-located demand exceeds capacity (the interference/QoS risk). The
overload/utilization arithmetic is :func:`repro.cluster.replay.excess_stats`,
shared with the allocation replay and the closed-loop cluster simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.replay import excess_stats
from .jobs import Job
from .scheduler import Scheduler

__all__ = ["ScheduleReport", "simulate_schedule"]


@dataclass(frozen=True)
class ScheduleReport:
    """Outcome of replaying one policy's placement."""

    policy: str
    n_jobs: int
    n_machines: int
    #: mean machine utilization (used / capacity) over the replay
    mean_utilization: float
    #: fraction of (machine, step) samples where demand exceeded capacity
    overload_rate: float
    #: mean excess demand during overloaded samples
    mean_overload_depth: float
    #: peak load observed on any machine
    peak_load: float

    def efficiency(self) -> float:
        """Jobs per machine — the headline consolidation metric."""
        return self.n_jobs / max(self.n_machines, 1)


def simulate_schedule(
    scheduler: Scheduler,
    jobs: list[Job],
    capacity: float = 1.0,
) -> ScheduleReport:
    """Place ``jobs`` and replay their actual usage on the placement."""
    if not jobs:
        raise ValueError("no jobs to schedule")
    durations = {j.duration for j in jobs}
    if len(durations) != 1:
        raise ValueError(f"jobs must share a duration for replay, got {sorted(durations)}")
    duration = durations.pop()

    assignment = scheduler.place(jobs, capacity=capacity)
    n_machines = max(assignment.values()) + 1

    load = np.zeros((n_machines, duration))
    for job in jobs:
        load[assignment[job.job_id]] += job.usage

    stats = excess_stats(demand=load, supply=capacity)

    return ScheduleReport(
        policy=scheduler.name,
        n_jobs=len(jobs),
        n_machines=n_machines,
        mean_utilization=stats.mean_served / capacity,
        overload_rate=stats.rate,
        mean_overload_depth=stats.mean_depth,
        peak_load=stats.peak_demand,
    )
