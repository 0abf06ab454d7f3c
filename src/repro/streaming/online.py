"""Online prediction service for one stream, record by record.

Prequential protocol: for each arriving record the predictor first emits
a forecast for it from the previous state (test), then absorbs the record
(train). Refits happen every ``refit_interval`` records and whenever the
Page-Hinkley detector fires on the absolute-error stream.

:class:`OnlinePredictor` is a thin per-record adapter over a one-stream
:class:`~repro.streaming.fleet.FleetPredictor`, the single serving core:
the gate, ring buffer, supervised refits with fallback, output guard,
statistics, observability and checkpoint format are all the fleet's.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..obs.registry import MetricRegistry
from .drift import PageHinkley
from .fleet import FleetPredictor, PredictionRecord, _FleetStats
from .resilience import FleetGate, GatePolicy, HealthStatus, SupervisorPolicy

__all__ = ["OnlinePredictor"]


class OnlinePredictor:
    """Serve one-step-ahead predictions over a live indicator stream.

    Parameters are :class:`~repro.streaming.fleet.FleetPredictor`'s
    (without the fleet-only ones) and mean the same for one stream.
    Statistics and gate counters are the fleet's ``(1,)`` arrays
    (``stats.n_predictions[0]``, ``gate.n_quarantined[0]``); the serving
    metrics are the ``serving_fleet_*`` instruments and the
    ``serving.fleet_tick`` / ``serving.fleet_run`` spans.

    A record that cannot be read as ``features`` numbers (wrong arity,
    unparseable) enters as an all-NaN row: it is quarantined as
    ``"empty"``, never raises, and reports ``actual`` = NaN.
    """

    def __init__(
        self,
        forecaster_name: str = "xgboost",
        forecaster_kwargs: dict[str, Any] | None = None,
        window: int = 12,
        buffer_capacity: int = 600,
        refit_interval: int = 100,
        min_fit_size: int | None = None,
        target_col: int = 0,
        features: int = 1,
        detector: PageHinkley | None = None,
        serve_dtype: np.dtype | type = np.float64,
        gate_policy: GatePolicy | None = None,
        supervisor_policy: SupervisorPolicy | None = None,
        fallback_forecaster: str = "persistence",
        fallback_kwargs: dict[str, Any] | None = None,
        error_history: int = 512,
        refit_fault_hook: Callable[[], None] | None = None,
        registry: MetricRegistry | None = None,
        span_sample: int = 8,
    ) -> None:
        self.fleet = FleetPredictor(
            1,
            forecaster_name,
            forecaster_kwargs,
            window=window,
            buffer_capacity=buffer_capacity,
            refit_interval=refit_interval,
            min_fit_size=min_fit_size,
            target_col=target_col,
            features=features,
            detector=detector,
            serve_dtype=serve_dtype,
            gate_policy=gate_policy,
            supervisor_policy=supervisor_policy,
            fallback_forecaster=fallback_forecaster,
            fallback_kwargs=fallback_kwargs,
            error_history=error_history,
            refit_fault_hook=refit_fault_hook,
            registry=registry,
            span_sample=span_sample,
        )

    @property
    def stats(self) -> _FleetStats:
        return self.fleet.stats

    @property
    def gate(self) -> FleetGate:
        return self.fleet.gate

    @property
    def health(self) -> HealthStatus:
        return self.fleet.health

    def process(self, record: Any) -> PredictionRecord:
        """Prequential step: gate ``record``, predict its target, absorb it."""
        features = self.fleet.buffer.features
        try:
            row = np.asarray(record, float).reshape(1, features)
        except (TypeError, ValueError):
            row = np.full((1, features), np.nan)
        return self.fleet.process_tick(row).record(0)

    def run(self, records: np.ndarray) -> list[PredictionRecord]:
        """Process a ``(T[, features])`` batch of records (replay a trace)."""
        ticks = np.asarray(records, float).reshape(len(records), 1, self.fleet.buffer.features)
        return [tick.record(0) for tick in self.fleet.run(ticks)]

    def save(self, path: str | Path) -> None:
        """Checkpoint the full serving state atomically (fleet format)."""
        self.fleet.save(path)

    @classmethod
    def restore(cls, path: str | Path, **overrides: Any) -> "OnlinePredictor":
        """Rebuild a predictor from a one-stream fleet checkpoint.

        ``overrides`` patch process-local constructor arguments that are
        not persisted (``refit_fault_hook``, ``registry``, ...). Any other
        artifact kind — including the retired ``'online_predictor'``
        format — raises :class:`~repro.streaming.checkpoint.CheckpointError`.
        """
        predictor = cls.__new__(cls)
        predictor.fleet = FleetPredictor.restore(path, n_streams=1, **overrides)
        return predictor
