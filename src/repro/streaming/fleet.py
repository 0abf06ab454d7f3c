"""Fleet-scale micro-batched serving: one model forward for N streams.

The paper's setting is a cluster: thousands of containers/machines all
sampled on the same 10 s clock. At that scale per-record Python
overhead — not the model — dominates serving cost (cf. esDNN and the
pruned-GRU online predictor in PAPERS.md, which both frame cloud-scale
prediction as a per-host inference-cost problem).

:class:`FleetPredictor` is the one serving core. It multiplexes N
independent streams over shared model state and processes one *tick*
(one record per stream) at a time:

* the whole ``(N, F)`` tick is gated at once by a vectorized
  :class:`~repro.streaming.resilience.FleetGate` (per-stream Welford
  moments, verdicts and counters);
* per-stream histories live in one
  :class:`~repro.streaming.buffer.MatrixRingBuffer` — a tick appends
  with one fancy-indexed write, and the due windows of all streams
  gather into a single ``(B, window, F)`` batch;
* prediction is **micro-batched**: one supervised ``model.predict``
  call (under the nn substrate's no-grad inference path) serves every
  due stream, and the results scatter back into per-stream statistics,
  health and drift state;
* refits are **coalesced and staggered**: streams share one forecaster
  fitted on windows pooled from a bounded, round-robin sample of stream
  buffers, so a refit costs O(sample) instead of O(N) and a drift storm
  across the fleet cannot stall serving;
* with ``refit_mode="async"`` the pooled fit itself leaves the serving
  path: an :class:`~repro.streaming.refit.AsyncRefitEngine` fits a fresh
  model on a background worker and the serving thread adopts it at the
  start of a later tick by **atomic weight swap** — the tick that
  triggers a refit only pools and submits, so refit ticks stop paying
  the fit cost. Every tick carries the live ``model_version`` and obs
  tracks staleness, refit lag and swap counts;
* the whole fleet checkpoints to one crash-safe artifact via
  :mod:`repro.streaming.checkpoint`.

**Exactness contract:** with ``n_streams=1`` every emitted record —
prediction, error, health, gate verdict — is bit-identical to the
per-record scalar predictor this module replaced, including after a
checkpoint/restore mid-stream (asserted against a frozen golden fixture
in ``tests/streaming/test_fleet.py``).
:class:`~repro.streaming.online.OnlinePredictor` is exactly that
one-stream fleet, fed record by record. With N > 1 the semantics
deliberately generalize: the refit clock is fleet-global (a tick in
which at least one stream absorbed advances it), the model is shared,
and a tick is a uniformly shaped matrix (absent streams are all-NaN
rows, quarantined as ``"empty"``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..models.base import Forecaster, create_forecaster
from ..obs import trace
from ..obs.registry import Gauge as MetricGauge
from ..obs.registry import Histogram as MetricHistogram
from ..obs.registry import MetricRegistry, get_registry, is_enabled, log_buckets
from .buffer import MatrixRingBuffer
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .drift import PageHinkley
from .refit import AsyncRefitEngine, RefitTask
from .resilience import (
    GATE_QUARANTINE,
    GatePolicy,
    HealthStatus,
    FleetGate,
    Supervisor,
    SupervisorPolicy,
)

__all__ = ["FleetPredictor", "FleetTick", "PredictionRecord", "TickColumns"]

#: numeric encoding of :class:`HealthStatus` (health gauge, ``FleetTick.health``)
_HEALTH_LEVEL = {
    HealthStatus.HEALTHY: 0,
    HealthStatus.DEGRADED: 1,
    HealthStatus.FALLBACK: 2,
    HealthStatus.RECOVERING: 3,
}
#: health-gauge level -> HealthStatus (inverse of _HEALTH_LEVEL)
_HEALTH_BY_LEVEL = {level: status for status, level in _HEALTH_LEVEL.items()}
#: gate action code -> the ``gated`` field of :class:`PredictionRecord`
_GATED_BY_ACTION = (None, "imputed", "quarantined")


@dataclass(frozen=True)
class PredictionRecord:
    """One stream's prequential step outcome (the scalar view of a tick row)."""

    step: int
    prediction: float | None  # None while warming up or when quarantined
    actual: float
    error: float | None
    refit: bool
    drift: bool
    health: HealthStatus = HealthStatus.HEALTHY
    #: gate verdict for this record: None (clean), "imputed" or "quarantined"
    gated: str | None = None


@dataclass(frozen=True)
class FleetTick:
    """Columnar outcome of one fleet tick (all N streams at once).

    The serving hot path never materializes per-stream objects — arrays
    in, arrays out. :meth:`record` / :meth:`records` convert to
    :class:`PredictionRecord` for consumers (and the parity tests) that
    want the scalar view.
    """

    step: int
    predictions: np.ndarray  #: (N,) float — NaN where no prediction was served
    actuals: np.ndarray  #: (N,) float — gated target values (raw if quarantined)
    errors: np.ndarray  #: (N,) float — NaN where no prediction was served
    refit: bool  #: the serving model changed this tick (in-line refit or async swap)
    drift: np.ndarray  #: (N,) bool — stream's drift detector fired this tick
    health: np.ndarray  #: (N,) uint8 — 0 healthy / 1 degraded / 2 fallback / 3 recovering (sharded)
    gated: np.ndarray  #: (N,) int8 — gate action codes (accept/impute/quarantine)
    #: primary-model version that served this tick (0 = no model yet;
    #: sharded fleets report the minimum across live shards)
    model_version: int = 0

    @property
    def n_streams(self) -> int:
        return len(self.predictions)

    @property
    def served(self) -> np.ndarray:
        """Mask of streams that received a prediction this tick."""
        return np.isfinite(self.predictions)

    def record(self, stream: int) -> PredictionRecord:
        """Materialize one stream's scalar :class:`PredictionRecord`."""
        pred = self.predictions[stream]
        err = self.errors[stream]
        return PredictionRecord(
            step=self.step,
            prediction=float(pred) if np.isfinite(pred) else None,
            actual=float(self.actuals[stream]),
            error=float(err) if np.isfinite(err) else None,
            refit=self.refit,
            drift=bool(self.drift[stream]),
            health=_HEALTH_BY_LEVEL[int(self.health[stream])],
            gated=_GATED_BY_ACTION[int(self.gated[stream])],
        )

    def records(self) -> list[PredictionRecord]:
        return [self.record(i) for i in range(self.n_streams)]


@dataclass
class TickColumns:
    """Mutable columnar staging area for composing one :class:`FleetTick`.

    The sharded coordinator harvests live rows out of a shared-memory
    bank, then overlays the rows of shards that could not serve —
    quarantined shards go NaN, recovering shards hold their last served
    prediction — and finishes into an immutable :class:`FleetTick`. The
    overlay arithmetic lives here so the barrier and pipelined fan-in
    paths compose ticks through literally the same code.
    """

    predictions: np.ndarray
    actuals: np.ndarray
    errors: np.ndarray
    drift: np.ndarray
    health: np.ndarray
    gated: np.ndarray

    @classmethod
    def harvest(
        cls,
        predictions: np.ndarray,
        actuals: np.ndarray,
        errors: np.ndarray,
        drift: np.ndarray,
        health: np.ndarray,
        gated: np.ndarray,
    ) -> "TickColumns":
        """Copy the six columnar outputs out of (possibly shared) storage."""
        return cls(
            predictions=np.array(predictions),
            actuals=np.array(actuals),
            errors=np.array(errors),
            drift=np.array(drift),
            health=np.array(health),
            gated=np.array(gated),
        )

    def quarantine_rows(
        self, sl: slice, raw_target: np.ndarray, *, health_level: int, gate_action: int
    ) -> None:
        """Rows of a durably-dead shard: NaN predictions, raw actuals."""
        self.predictions[sl] = np.nan
        self.errors[sl] = np.nan
        self.actuals[sl] = raw_target
        self.drift[sl] = False
        self.health[sl] = health_level
        self.gated[sl] = gate_action

    def hold_rows(
        self,
        sl: slice,
        raw_target: np.ndarray,
        held: np.ndarray,
        *,
        health_level: int,
        gate_action: int,
    ) -> None:
        """Rows of a recovering shard: serve the held last prediction."""
        self.predictions[sl] = held
        self.actuals[sl] = raw_target
        self.errors[sl] = np.abs(held - raw_target)
        self.drift[sl] = False
        self.health[sl] = health_level
        self.gated[sl] = gate_action

    def finish(self, step: int, refit: bool, model_version: int) -> FleetTick:
        return FleetTick(
            step=step,
            predictions=self.predictions,
            actuals=self.actuals,
            errors=self.errors,
            refit=refit,
            drift=self.drift,
            health=self.health,
            gated=self.gated,
            model_version=model_version,
        )


class _FleetPageHinkley:
    """Page-Hinkley drift test vectorized across N error streams.

    Elementwise identical arithmetic to
    :class:`~repro.streaming.drift.PageHinkley`, state held as ``(N,)``
    arrays; only streams selected by the update mask advance.
    """

    def __init__(
        self, streams: int, delta: float, threshold: float, min_instances: int
    ) -> None:
        self.delta = delta
        self.threshold = threshold
        self.min_instances = min_instances
        self.streams = streams
        self.n_seen = np.zeros(streams, dtype=np.int64)
        self.drift_detected = np.zeros(streams, dtype=bool)
        self._mean = np.zeros(streams)
        self._cumulative = np.zeros(streams)
        self._minimum = np.zeros(streams)

    @classmethod
    def from_prototype(cls, proto: PageHinkley, streams: int) -> "_FleetPageHinkley":
        return cls(streams, proto.delta, proto.threshold, proto.min_instances)

    def update(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Advance masked streams by one observation; return the fired mask."""
        fired = np.zeros(self.streams, dtype=bool)
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return fired
        v = values[idx]
        self.n_seen[idx] += 1
        self._mean[idx] += (v - self._mean[idx]) / self.n_seen[idx]
        self._cumulative[idx] += v - self._mean[idx] - self.delta
        self._minimum[idx] = np.minimum(self._minimum[idx], self._cumulative[idx])
        fired[idx] = (self.n_seen[idx] >= self.min_instances) & (
            self._cumulative[idx] - self._minimum[idx] > self.threshold
        )
        self.drift_detected |= fired
        return fired

    def reset(self, mask: np.ndarray) -> None:
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return
        self.n_seen[idx] = 0
        self.drift_detected[idx] = False
        self._mean[idx] = 0.0
        self._cumulative[idx] = 0.0
        self._minimum[idx] = 0.0

    def state_dict(self) -> dict:
        return {
            "n_seen": self.n_seen.copy(),
            "drift_detected": self.drift_detected.copy(),
            "mean": self._mean.copy(),
            "cumulative": self._cumulative.copy(),
            "minimum": self._minimum.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.n_seen[...] = state["n_seen"]
        self.drift_detected[...] = state["drift_detected"]
        self._mean[...] = state["mean"]
        self._cumulative[...] = state["cumulative"]
        self._minimum[...] = state["minimum"]


class _FleetStats:
    """Per-stream serving statistics as ``(N,)`` arrays + fleet totals."""

    _ARRAYS = (
        "n_predictions",
        "n_drifts",
        "n_predict_failures",
        "n_fallback_predictions",
        "n_fallback_predict_failures",
        "n_clamped_predictions",
    )

    def __init__(self, streams: int, error_history: int = 512) -> None:
        self.streams = streams
        self.error_history = error_history
        self.n_predictions = np.zeros(streams, dtype=np.int64)
        self.sum_abs_error = np.zeros(streams)
        self.sum_sq_error = np.zeros(streams)
        self.n_drifts = np.zeros(streams, dtype=np.int64)
        self.n_predict_failures = np.zeros(streams, dtype=np.int64)
        self.n_fallback_predictions = np.zeros(streams, dtype=np.int64)
        self.n_fallback_predict_failures = np.zeros(streams, dtype=np.int64)
        self.n_clamped_predictions = np.zeros(streams, dtype=np.int64)
        #: fleet-wide (the model is shared, so refits are not per-stream)
        self.n_refits = 0
        self.n_refit_failures = 0
        #: async mode: refit triggers that found a background fit in flight
        self.n_refits_deferred = 0
        #: fallback forecaster fits that raised (the fallback stays unset)
        self.n_fallback_fit_failures = 0
        #: running fleet totals mirrored at the mutation sites so the
        #: per-tick obs wrapper reads O(1) ints instead of summing the
        #: per-stream arrays (4 O(N) scans/tick — the N=1 bench killer)
        self.total_fallback_predictions = 0
        self.total_clamped_predictions = 0
        self.errors = MatrixRingBuffer(streams, error_history, 1)

    @property
    def mae(self) -> np.ndarray:
        """Per-stream online MAE."""
        return self.sum_abs_error / np.maximum(self.n_predictions, 1)

    @property
    def mse(self) -> np.ndarray:
        """Per-stream online MSE."""
        return self.sum_sq_error / np.maximum(self.n_predictions, 1)

    @property
    def fleet_mae(self) -> float:
        """MAE over every prediction the fleet served."""
        return float(self.sum_abs_error.sum() / max(self.n_predictions.sum(), 1))

    def recent_errors(self, stream: int) -> np.ndarray:
        """The retained error history of one stream, oldest first."""
        return self.errors.view(stream)[:, 0]

    def error_quantiles(self, tau: float, min_count: int = 1) -> np.ndarray:
        """Per-stream ``tau``-quantile of the retained |error| history.

        One vectorized nanquantile over the whole fleet's error ring;
        NaN for streams that have scored fewer than ``min_count``
        predictions — a tail quantile of a handful of (possibly lucky)
        errors is an uncalibrated band, and consumers treat NaN as
        "fall back to your fixed margin". This is the empirical residual
        band that risk-aware consumers (the cluster autoscaler's quantile
        policy) reserve on top of a point forecast.
        """
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        out = np.full(self.streams, np.nan)
        idx = np.flatnonzero(self.errors.sizes >= min_count)
        if idx.size:
            retained = self.errors.filled_matrix()[idx, :, 0]
            out[idx] = np.nanquantile(retained, tau, axis=1)
        return out

    def state_dict(self) -> dict:
        state = {name: getattr(self, name).copy() for name in self._ARRAYS}
        state["sum_abs_error"] = self.sum_abs_error.copy()
        state["sum_sq_error"] = self.sum_sq_error.copy()
        state["n_refits"] = self.n_refits
        state["n_refit_failures"] = self.n_refit_failures
        state["n_refits_deferred"] = self.n_refits_deferred
        state["n_fallback_fit_failures"] = self.n_fallback_fit_failures
        state["errors"] = self.errors.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        for name in self._ARRAYS:
            getattr(self, name)[...] = state[name]
        self.sum_abs_error[...] = state["sum_abs_error"]
        self.sum_sq_error[...] = state["sum_sq_error"]
        self.n_refits = int(state["n_refits"])
        self.n_refit_failures = int(state["n_refit_failures"])
        self.n_refits_deferred = int(state.get("n_refits_deferred", 0))
        self.n_fallback_fit_failures = int(state.get("n_fallback_fit_failures", 0))
        self.total_fallback_predictions = int(self.n_fallback_predictions.sum())
        self.total_clamped_predictions = int(self.n_clamped_predictions.sum())
        self.errors.load_state_dict(state["errors"])


class FleetPredictor:
    """Serve one-step-ahead predictions for N streams per shared forward.

    Parameters
    ----------
    n_streams:
        Number of multiplexed streams; each tick carries one record per
        stream as an ``(n_streams, features)`` matrix (or ``(n_streams,)``
        when ``features == 1``). A stream with nothing to report this
        tick is an all-NaN row.
    forecaster_name, forecaster_kwargs:
        Registered forecaster (re)fitted on pooled buffer windows. Cheap
        refittable models (``xgboost``, ``holt``, ``arima``) suit the
        online setting; deep models work but pay seconds per refit.
    window:
        Input window length fed to the forecaster.
    buffer_capacity:
        Per-stream history kept for refits.
    refit_interval:
        Scheduled refit period (in ticks); drift can trigger earlier.
    min_fit_size:
        Records a stream must hold before the first fit (default
        ``3 * window``).
    target_col, features:
        Prediction target column and record width.
    detector:
        A :class:`~repro.streaming.drift.PageHinkley` *prototype* over
        absolute errors; its parameters are applied to every stream's
        vectorized detector state.
    serve_dtype:
        Dtype of the preallocated inference batch (e.g. ``np.float32``
        to serve in single precision; default float64).
    gate_policy:
        Input-gate behaviour (imputation / outlier screening); the gate
        is always on — it is what keeps one NaN record from silently
        poisoning every later training window.
    supervisor_policy:
        Retry/backoff/budget envelope for refits (predictions reuse it
        with retries disabled — retrying a deterministic forward pass
        cannot help).
    fallback_forecaster, fallback_kwargs:
        Registered forecaster served when the primary is unusable
        (never fitted, or ``fallback_after`` consecutive refit
        failures). Must be cheap and hard to break: ``"persistence"``
        (default), ``"mean"`` or ``"holt"``.
    error_history:
        Per-stream retained error-ring length (always bounded).
    refit_fault_hook:
        Test/chaos hook invoked at the start of every refit attempt;
        raising from it simulates a refit crash (see
        :class:`~repro.streaming.faults.FaultInjector.refit_fault`).
    registry:
        :class:`~repro.obs.MetricRegistry` receiving the ``serving_fleet_*``
        instruments plus the gate and supervisor ones. ``None`` uses the
        process-global registry. Optional telemetry respects
        :func:`repro.obs.set_enabled`; the gate/supervisor counts are
        serving state and always record.
    span_sample:
        Open a ``serving.fleet_tick`` trace span on every
        ``span_sample``-th tick (default 8). The latency histogram still
        sees every tick.
    refit_streams:
        How many stream buffers contribute windows to one shared-model
        (re)fit. Sampling is round-robin across refits, so successive
        refits stagger through the fleet instead of re-reading the same
        histories; fit cost is O(refit_streams), never O(N).
    max_fit_windows:
        Hard cap on the pooled training-set size per refit (the most
        recent windows win) — the per-tick refit budget that keeps a
        drift storm from stalling serving.
    refit_mode:
        ``"sync"`` (default: pooled refits run in-line with the
        triggering tick) or ``"async"``: the trigger
        tick only pools windows and submits them to a background
        :class:`~repro.streaming.refit.AsyncRefitEngine`; the fitted
        model is adopted by atomic swap at the start of a later tick,
        so no tick ever blocks on a fit. One refit is in flight at a
        time — triggers that land while the worker is busy are deferred
        to the next tick (counted in
        ``serving_fleet_refits_deferred_total``), so the effective
        cadence degrades gracefully to ``max(refit_interval, fit_time)``.
    refit_backend:
        Async worker flavor: ``"thread"`` (default — numpy kernels
        release the GIL, so the fit overlaps serving on multicore) or
        ``"process"`` (a persistent spawned process: full isolation at
        the cost of one task/model pickle per refit).
    warm_start:
        Async mode only: ship the current model's weights with each
        task so models implementing :meth:`Forecaster.warm_fit` resume
        training instead of refitting from scratch (the worker resumes
        a *copy*; the live model is never touched off-thread).
    warm_epochs:
        Epoch budget for warm-started resumes (``None`` = the model's
        default, a quarter of its cold budget).
    """

    def __init__(
        self,
        n_streams: int,
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
        refit_streams: int = 8,
        max_fit_windows: int = 4096,
        refit_mode: str = "sync",
        refit_backend: str = "thread",
        warm_start: bool = False,
        warm_epochs: int | None = None,
    ) -> None:
        if n_streams < 1:
            raise ValueError(f"n_streams must be >= 1, got {n_streams}")
        if span_sample < 1:
            raise ValueError(f"span_sample must be >= 1, got {span_sample}")
        if buffer_capacity < window + 2:
            raise ValueError(
                f"buffer_capacity ({buffer_capacity}) must exceed window+1 ({window + 1})"
            )
        if refit_interval < 1:
            raise ValueError(f"refit_interval must be >= 1, got {refit_interval}")
        if refit_streams < 1 or max_fit_windows < 1:
            raise ValueError("refit_streams and max_fit_windows must be >= 1")
        if refit_mode not in ("sync", "async"):
            raise ValueError(f"refit_mode must be 'sync' or 'async', got {refit_mode!r}")
        if refit_backend not in ("thread", "process"):
            raise ValueError(
                f"refit_backend must be 'thread' or 'process', got {refit_backend!r}"
            )
        if warm_epochs is not None and warm_epochs < 1:
            raise ValueError(f"warm_epochs must be >= 1, got {warm_epochs}")
        if detector is not None and type(detector) is not PageHinkley:
            raise TypeError(
                "FleetPredictor vectorizes PageHinkley detector state; "
                f"got {type(detector).__name__} (pass a PageHinkley with the "
                "delta/threshold/min_instances you need)"
            )
        self.n_streams = n_streams
        self.forecaster_name = forecaster_name
        self.forecaster_kwargs = dict(forecaster_kwargs or {})
        self.forecaster_kwargs.setdefault("target_col", target_col)
        self.window = window
        self.refit_interval = refit_interval
        self.min_fit_size = min_fit_size if min_fit_size is not None else 3 * window
        self.target_col = target_col
        self.refit_streams = refit_streams
        self.max_fit_windows = max_fit_windows
        self.buffer = MatrixRingBuffer(n_streams, buffer_capacity, features)
        proto = detector if detector is not None else PageHinkley()
        self._detector_params = {
            "delta": proto.delta,
            "threshold": proto.threshold,
            "min_instances": proto.min_instances,
        }
        self.detector = _FleetPageHinkley.from_prototype(proto, n_streams)
        obs_registry = get_registry(registry)
        self.gate = FleetGate(n_streams, features, gate_policy, registry=obs_registry)
        self.refit_supervisor = Supervisor(supervisor_policy, duty="refit", registry=obs_registry)
        # predictions: same budget envelope, but no retries (a forward pass
        # is deterministic, so retrying it cannot help)
        predict_policy = supervisor_policy or SupervisorPolicy()
        self.predict_supervisor = Supervisor(
            SupervisorPolicy(
                max_retries=0,
                backoff_base=0.0,
                time_budget=predict_policy.time_budget,
                fallback_after=predict_policy.fallback_after,
            ),
            duty="predict",
            registry=obs_registry,
        )
        # fleet telemetry: tick latency, forward batch size, throughput
        self._h_latency = MetricHistogram(
            "serving_fleet_tick_seconds",
            "per-tick fleet serving latency (all streams)",
            buckets=log_buckets(1e-6, 10.0),
        )
        self._h_batch = MetricHistogram(
            "serving_fleet_batch_size",
            "streams served per micro-batched model forward",
            buckets=log_buckets(1.0, 65536.0),
        )
        self._g_throughput = MetricGauge(
            "serving_fleet_records_per_sec", "instantaneous fleet serving throughput"
        )
        self._g_health = MetricGauge(
            "serving_fleet_health_state", "0=healthy 1=degraded 2=fallback"
        )
        self._obs_counters = {
            name: obs_registry.counter(f"serving_fleet_{name}_total", help)
            for name, help in (
                ("records", "records offered to the fleet"),
                ("predictions", "predictions served"),
                ("refits", "successful shared-model refits"),
                ("refit_failures", "terminally failed shared-model refits"),
                ("drift_events", "per-stream drift detector firings"),
                ("fallback_predictions", "predictions served by the fallback"),
                ("fallback_fit_failures", "fallback forecaster fits that raised"),
                ("clamped_predictions", "predictions clamped into the plausibility band"),
                ("async_swaps", "background fits adopted by atomic weight swap"),
                ("refits_deferred", "refit triggers deferred: a background fit was in flight"),
            )
        }
        # async-refit telemetry: live version, staleness, submit->swap lag,
        # off-path fit cost (these make the swap protocol observable)
        self._g_version = MetricGauge(
            "serving_fleet_model_version", "live shared-model version (0 = no model yet)"
        )
        self._g_staleness = MetricGauge(
            "serving_fleet_model_staleness_ticks",
            "ticks elapsed since the live model's training pool was drawn",
        )
        self._h_refit_lag = MetricHistogram(
            "serving_fleet_refit_lag_ticks",
            "ticks between refit submission and the adopting weight swap",
            buckets=log_buckets(1.0, 4096.0),
        )
        self._h_fit_seconds = MetricHistogram(
            "serving_fleet_refit_fit_seconds",
            "background fit duration (spent off the serving path)",
            buckets=log_buckets(1e-4, 600.0),
        )
        for inst in (
            self._h_latency,
            self._h_batch,
            self._g_throughput,
            self._g_health,
            self._g_version,
            self._g_staleness,
            self._h_refit_lag,
            self._h_fit_seconds,
        ):
            obs_registry.register(inst)
        self._last_health_level: int | None = None
        self._span_sample = span_sample
        self._span_tick = 0
        self.fallback_forecaster = fallback_forecaster
        self.fallback_kwargs = dict(fallback_kwargs or {})
        self.fallback_kwargs.setdefault("target_col", target_col)
        self.refit_fault_hook = refit_fault_hook
        self.model: Forecaster | None = None
        self.fallback_model: Forecaster | None = None
        self.on_fallback = False
        self.error_history = error_history
        self.stats = _FleetStats(n_streams, error_history)
        self.refit_mode = refit_mode
        self.refit_backend = refit_backend
        self.warm_start = bool(warm_start)
        self.warm_epochs = warm_epochs
        #: bumps on every adopted primary model (in-line refit or async swap)
        self.model_version = 0
        #: fleet step whose pooled windows trained the live model (-1 = none)
        self._model_step = -1
        # the engine spawns its worker lazily on first submit, so sync-mode
        # fleets (and async ones that never refit) pay nothing here
        self.refit_engine: AsyncRefitEngine | None = (
            AsyncRefitEngine(refit_backend) if refit_mode == "async" else None
        )
        self._step = 0
        self._since_refit = 0
        self._refit_cursor = 0
        self._serve_dtype = np.dtype(serve_dtype)
        # preallocated (n_streams, window, features) inference batch —
        # each tick's due windows gather into its leading rows in place
        self._batch = np.empty((n_streams, window, features), dtype=self._serve_dtype)
        self._last_batch_size = 0
        self._last_n_served = 0

    # -- health ---------------------------------------------------------------

    @property
    def health(self) -> HealthStatus:
        """Current fleet-wide serving health (per-stream fallback overrides)."""
        if self.on_fallback:
            return HealthStatus.FALLBACK
        if (
            self.refit_supervisor.consecutive_failures > 0
            or self.predict_supervisor.consecutive_failures > 0
        ):
            return HealthStatus.DEGRADED
        return HealthStatus.HEALTHY

    # -- internals -------------------------------------------------------------

    def _fit_pool(self) -> tuple[np.ndarray, np.ndarray]:
        """Training windows pooled from a staggered sample of stream buffers.

        Round-robin over the streams with enough history: each refit
        starts where the previous one stopped, so over successive refits
        the shared model sees the whole fleet while any single refit
        reads at most ``refit_streams`` buffers / ``max_fit_windows``
        windows.
        """
        from ..data.windowing import make_windows

        sizes = self.buffer.sizes
        viable = np.flatnonzero(sizes >= self.window + 1)
        if viable.size == 0:
            # too little history to fit: raise, and let the supervisor count it
            raise ValueError(
                f"no stream holds the >= {self.window + 1} records needed "
                "to build a training window"
            )
        k = min(int(viable.size), self.refit_streams)
        start = self._refit_cursor % viable.size
        pick = viable[(start + np.arange(k)) % viable.size]
        self._refit_cursor += k
        xs, ys = [], []
        budget = self.max_fit_windows
        for s in pick:
            data = self.buffer.view(int(s))
            x, y = make_windows(data, data[:, self.target_col], self.window, horizon=1)
            if len(x) > budget:
                x, y = x[-budget:], y[-budget:]
            xs.append(x)
            ys.append(y)
            budget -= len(x)
            if budget <= 0:
                break
        if len(xs) == 1:
            return xs[0], ys[0]
        return np.concatenate(xs), np.concatenate(ys)

    def _fit_fallback(self) -> None:
        """Fit the fallback forecaster on the pool (guarded, never raises)."""
        try:
            x, y = self._fit_pool()
            model = create_forecaster(self.fallback_forecaster, **self.fallback_kwargs)
            model.fit(x, y)
            self.fallback_model = model
        except Exception:  # noqa: BLE001 — last line of defence stays up, counted
            self.stats.n_fallback_fit_failures += 1
            self._obs_counters["fallback_fit_failures"].inc()

    def _refit(self) -> bool:
        """Supervised shared-model refit; on terminal failure degrade."""

        def attempt() -> Forecaster:
            if self.refit_fault_hook is not None:
                self.refit_fault_hook()
            x, y = self._fit_pool()
            model = create_forecaster(self.forecaster_name, **self.forecaster_kwargs)
            model.fit(x, y)
            return model

        # the clock resets when the attempt *starts*, not after it returns:
        # anything escaping the supervisor (it only catches Exception, so a
        # BaseException from the fit propagates) must not leave the
        # ``scheduled`` trigger armed, or every subsequent tick re-fires a
        # refit — async mode resets at submission for the same reason
        self._since_refit = 0
        ok, model = self.refit_supervisor.run(attempt)
        if ok:
            self.model = model
            self.model_version += 1
            self._model_step = self._step
            self.on_fallback = False
            self.stats.n_refits += 1
            return True
        self.stats.n_refit_failures += 1
        if self.model is None or self.refit_supervisor.should_fall_back:
            self._fit_fallback()
            if self.fallback_model is not None:
                self.on_fallback = True
        return False

    def _schedule_refit(self) -> bool:
        """Async-mode refit trigger: pool windows, submit to the engine.

        Returns ``True`` iff an attempt *started* (task submitted, or
        pooling/fault-hook failed and was counted) — mirroring what one
        supervised in-line attempt would have done to the clock, the
        failure streak and the drift detector. A busy engine defers the
        trigger instead, *without* resetting the refit clock, so it
        re-arms next tick and the effective cadence degrades to
        ``max(refit_interval, fit_time)``.
        """
        engine = self.refit_engine
        assert engine is not None
        if engine.busy:
            self.stats.n_refits_deferred += 1
            self._obs_counters["refits_deferred"].inc()
            return False
        self._since_refit = 0  # attempt starts now — same clock as sync mode
        try:
            if self.refit_fault_hook is not None:
                self.refit_fault_hook()
            x, y = self._fit_pool()
        except Exception as exc:  # noqa: BLE001 — mirror the supervised attempt
            self.refit_supervisor.record(False, f"{type(exc).__name__}: {exc}")
            self.stats.n_refit_failures += 1
            if self.model is None or self.refit_supervisor.should_fall_back:
                self._fit_fallback()
                if self.fallback_model is not None:
                    self.on_fallback = True
            return True
        warm = None
        if (
            self.warm_start
            and self.model is not None
            and getattr(self.model, "supports_warm_fit", False)
        ):
            warm = self.model.to_bytes()
        engine.submit(
            RefitTask(
                self.forecaster_name,
                dict(self.forecaster_kwargs),
                x,
                y,
                warm_state=warm,
                warm_epochs=self.warm_epochs,
                step=self._step,
            )
        )
        return True

    def _poll_async_refit(self) -> bool:
        """Adopt a finished background fit; ``True`` iff the model swapped.

        The swap is one reference assignment of a fully fitted model the
        serving thread has never seen — readers observe the old model or
        the new one, never a torn mix. Failures land with the same
        bookkeeping as a failed in-line refit.
        """
        engine = self.refit_engine
        assert engine is not None
        outcome = engine.poll()
        if outcome is None:
            return False
        if outcome.ok:
            self.refit_supervisor.record(True)
            self.model = outcome.model
            self.model_version += 1
            self._model_step = outcome.task.step
            self.on_fallback = False
            self.stats.n_refits += 1
            self._obs_counters["async_swaps"].inc()
            self._h_refit_lag.observe(float(self._step - outcome.task.step))
            self._h_fit_seconds.observe(outcome.fit_seconds)
            return True
        self.refit_supervisor.record(False, outcome.error)
        self.stats.n_refit_failures += 1
        if self.model is None or self.refit_supervisor.should_fall_back:
            self._fit_fallback()
            if self.fallback_model is not None:
                self.on_fallback = True
        return False

    def _sanitize(
        self, predictions: np.ndarray, served: np.ndarray, used_fallback: np.ndarray
    ) -> None:
        """Vectorized output guard over the streams that were just served.

        Non-finite forecasts are dropped and counted — as predict
        failures, or as fallback predict failures when the fallback made
        them (such a row is unserved, so it is no fallback prediction and
        carries the fleet's health). Finite forecasts are clamped into
        each stream's plausibility band.
        """
        vals = predictions[served]
        bad = ~np.isfinite(vals)
        if bad.any():
            rows = served[bad]
            predictions[rows] = np.nan
            by_fallback = used_fallback[rows]
            self.stats.n_predict_failures[rows[~by_fallback]] += 1
            self.stats.n_fallback_predict_failures[rows[by_fallback]] += 1
            used_fallback[rows] = False
        sigma = self.gate.policy.prediction_sigma
        if sigma is None:
            return
        lo, hi, armed = self.gate.band(sigma)
        vals = predictions[served]
        lo_t = lo[served, self.target_col]
        hi_t = hi[served, self.target_col]
        wild = armed[served] & np.isfinite(vals) & ((vals < lo_t) | (vals > hi_t))
        if wild.any():
            self.stats.n_clamped_predictions[served[wild]] += 1
            self.stats.total_clamped_predictions += int(np.count_nonzero(wild))
            predictions[served[wild]] = np.clip(
                vals[wild], lo_t[wild], hi_t[wild]
            )

    # -- API -------------------------------------------------------------------

    def process_tick(self, tick: np.ndarray) -> FleetTick:
        """One fleet step: gate, micro-batch predict, absorb, maybe refit.

        ``tick`` is ``(n_streams, features)`` (or ``(n_streams,)`` for
        univariate fleets) — one record per stream, NaN rows for absent
        streams. When observability is enabled the tick's latency,
        forward batch size and instantaneous throughput land in the
        fleet instruments, and every ``span_sample``-th tick runs inside
        a ``serving.fleet_tick`` trace span.
        """
        if not is_enabled():
            return self._process_tick_inner(tick)
        st = self.stats
        b_refits = st.n_refits
        b_refit_failures = st.n_refit_failures
        b_fallback = st.total_fallback_predictions
        b_clamped = st.total_clamped_predictions
        t0 = time.perf_counter()
        self._span_tick += 1
        if self._span_tick >= self._span_sample:
            self._span_tick = 0
            with trace.span("serving.fleet_tick") as sp:
                result = self._process_tick_inner(tick)
                sp.add("streams", self.n_streams)
        else:
            result = self._process_tick_inner(tick)
        elapsed = time.perf_counter() - t0
        self._h_latency.observe(elapsed)
        self._h_batch.observe(self._last_batch_size)
        if elapsed > 0:
            self._g_throughput.set(self.n_streams / elapsed)
        counters = self._obs_counters
        counters["records"].inc(self.n_streams)
        n_served = self._last_n_served
        if n_served:
            counters["predictions"].inc(n_served)
        level = _HEALTH_LEVEL[self.health]
        if level != self._last_health_level:
            self._last_health_level = level
            self._g_health.set(level)
        self._g_version.set(float(self.model_version))
        self._g_staleness.set(
            float(self._step - self._model_step) if self.model is not None else 0.0
        )
        if st.n_refits != b_refits:
            counters["refits"].inc(st.n_refits - b_refits)
        if st.n_refit_failures != b_refit_failures:
            counters["refit_failures"].inc(st.n_refit_failures - b_refit_failures)
        n_drift = int(result.drift.sum())
        if n_drift:
            counters["drift_events"].inc(n_drift)
        fallback = st.total_fallback_predictions - b_fallback
        if fallback:
            counters["fallback_predictions"].inc(fallback)
        clamped = st.total_clamped_predictions - b_clamped
        if clamped:
            counters["clamped_predictions"].inc(clamped)
        return result

    def _process_tick_inner(self, tick: np.ndarray) -> FleetTick:
        arr = np.asarray(tick, float)
        if arr.ndim == 1 and self.buffer.features == 1:
            arr = arr[:, None]
        if arr.shape != (self.n_streams, self.buffer.features):
            raise ValueError(
                f"expected tick of shape ({self.n_streams}, {self.buffer.features}), "
                f"got {arr.shape}"
            )
        st = self.stats
        # async mode: adopt a finished background fit *before* predicting, so
        # the freshest completed model serves this tick — with a fit that
        # lands within one tick gap this is exactly the sync schedule (model
        # fitted at trigger tick k serves tick k+1), which is what the
        # paced-parity tests assert
        swapped = False
        if self.refit_engine is not None:
            swapped = self._poll_async_refit()
        gated = self.gate.check_tick(arr)
        accepted = gated.actions != GATE_QUARANTINE
        # quarantined rows report their *raw* target (possibly NaN), accepted
        # rows the repaired one
        actuals = np.where(accepted, gated.records[:, self.target_col], arr[:, self.target_col])

        # -- micro-batched prediction (prequential: before absorbing the tick)
        predictions = np.full(self.n_streams, np.nan)
        used_fallback = np.zeros(self.n_streams, dtype=bool)
        self._last_batch_size = 0
        due = accepted & (self.buffer.sizes >= self.window)
        serving = self.fallback_model if self.on_fallback else self.model
        if serving is not None and due.any():
            idx = np.flatnonzero(due)
            self._last_batch_size = int(idx.size)
            batch = self.buffer.last_windows(idx, self.window, out=self._batch[: idx.size])

            def attempt() -> np.ndarray:
                return np.asarray(serving.predict(batch), float)[:, 0].copy()

            ok, values = self.predict_supervisor.run(attempt)
            fresh: np.ndarray | None = None
            if ok:
                predictions[idx] = values
                used_fallback[idx] = self.on_fallback
                fresh = idx
            else:
                st.n_predict_failures[idx] += 1
                # primary forward blew up: serve the tick from the fallback
                if not self.on_fallback:
                    if self.fallback_model is None:
                        self._fit_fallback()
                    if self.fallback_model is not None:
                        try:
                            values = np.asarray(
                                self.fallback_model.predict(batch), float
                            )[:, 0].copy()
                            predictions[idx] = values
                            used_fallback[idx] = True
                            fresh = idx
                        except Exception:  # noqa: BLE001 — the tick is lost, but counted
                            st.n_fallback_predict_failures[idx] += 1
            if fresh is not None:
                self._sanitize(predictions, fresh, used_fallback)
        if used_fallback.any():
            st.n_fallback_predictions[used_fallback] += 1
            st.total_fallback_predictions += int(np.count_nonzero(used_fallback))

        # -- score + drift (only streams that actually got a prediction)
        have = np.isfinite(predictions)
        self._last_n_served = int(np.count_nonzero(have))
        errors = np.full(self.n_streams, np.nan)
        if self._last_n_served:
            err = np.abs(predictions[have] - actuals[have])
            errors[have] = err
            st.n_predictions[have] += 1
            st.sum_abs_error[have] += err
            st.sum_sq_error[have] += err**2
            st.errors.append_tick(errors[:, None], mask=have)
        fired = self.detector.update(errors, have)
        st.n_drifts[fired] += 1

        # -- absorb + refit clock (a fully quarantined tick changes nothing)
        self.buffer.append_tick(gated.records, mask=accepted)
        self._step += 1
        refit = swapped
        if accepted.any():
            self._since_refit += 1
            sizes = self.buffer.sizes
            ready = sizes >= max(self.min_fit_size, self.window + 2)
            needs_fit = (
                self.model is None
                and bool(ready.any())
                and (
                    self.refit_supervisor.consecutive_failures == 0
                    or self._since_refit >= self.refit_interval
                )
            )
            scheduled = self.model is not None and self._since_refit >= self.refit_interval
            drift_ready = fired & (sizes >= self.min_fit_size)
            if needs_fit or scheduled or bool(drift_ready.any()):
                if self.refit_engine is not None:
                    if self._schedule_refit():
                        self.detector.reset(fired)
                else:
                    refit = self._refit()
                    self.detector.reset(fired)

        health = np.full(self.n_streams, _HEALTH_LEVEL[self.health], dtype=np.uint8)
        health[used_fallback] = _HEALTH_LEVEL[HealthStatus.FALLBACK]
        return FleetTick(
            step=self._step - 1,
            predictions=predictions,
            actuals=actuals,
            errors=errors,
            refit=refit,
            drift=fired,
            health=health,
            gated=gated.actions,
            model_version=self.model_version,
        )

    def run(self, ticks: np.ndarray) -> list[FleetTick]:
        """Process a ``(T, n_streams[, features])`` tick matrix sequentially."""
        ticks = np.asarray(ticks, float)
        if ticks.ndim == 2 and self.buffer.features == 1:
            ticks = ticks[:, :, None]
        with trace.span("serving.fleet_run") as sp:
            out = [self.process_tick(t) for t in ticks]
            sp.add("ticks", len(out))
            sp.add("records", len(out) * self.n_streams)
        return out

    # -- checkpoint / restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Full fleet serving state: enough to resume every stream bit-for-bit."""
        return {
            "config": {
                "n_streams": self.n_streams,
                "forecaster_name": self.forecaster_name,
                "forecaster_kwargs": dict(self.forecaster_kwargs),
                "window": self.window,
                "buffer_capacity": self.buffer.capacity,
                "refit_interval": self.refit_interval,
                "min_fit_size": self.min_fit_size,
                "target_col": self.target_col,
                "features": self.buffer.features,
                "serve_dtype": self._serve_dtype.str,
                "detector_params": dict(self._detector_params),
                "gate_policy": self.gate.policy,
                "supervisor_policy": self.refit_supervisor.policy,
                "fallback_forecaster": self.fallback_forecaster,
                "fallback_kwargs": dict(self.fallback_kwargs),
                "error_history": self.error_history,
                "refit_streams": self.refit_streams,
                "max_fit_windows": self.max_fit_windows,
                "refit_mode": self.refit_mode,
                "refit_backend": self.refit_backend,
                "warm_start": self.warm_start,
                "warm_epochs": self.warm_epochs,
            },
            "step": self._step,
            "since_refit": self._since_refit,
            "refit_cursor": self._refit_cursor,
            "model_version": self.model_version,
            "model_step": self._model_step,
            # an in-flight (or finished-but-unadopted) background fit is
            # persisted as its *task*: restore resubmits it, so the fit it
            # would have produced still lands — restore-then-replay equals
            # the uninterrupted run (fits are seeded and deterministic)
            "pending_refit": (
                None
                if self.refit_engine is None
                or (task := self.refit_engine.pending_task()) is None
                else task.state_dict()
            ),
            "on_fallback": self.on_fallback,
            "buffer": self.buffer.state_dict(),
            "detector": self.detector.state_dict(),
            "gate": self.gate.state_dict(),
            "refit_supervisor": self.refit_supervisor.state_dict(),
            "predict_supervisor": self.predict_supervisor.state_dict(),
            "stats": self.stats.state_dict(),
            "model": None if self.model is None else self.model.to_bytes(),
            "fallback_model": (
                None if self.fallback_model is None else self.fallback_model.to_bytes()
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Adopt a :meth:`state_dict`; the predictor must match its config."""
        cfg = state["config"]
        if (
            cfg["n_streams"] != self.n_streams
            or cfg["window"] != self.window
            or cfg["features"] != self.buffer.features
            or cfg["buffer_capacity"] != self.buffer.capacity
            or cfg["forecaster_name"] != self.forecaster_name
        ):
            raise CheckpointError(
                "checkpoint config mismatch: "
                f"saved (streams={cfg['n_streams']}, forecaster={cfg['forecaster_name']}, "
                f"window={cfg['window']}, features={cfg['features']}, "
                f"capacity={cfg['buffer_capacity']}) vs live "
                f"(streams={self.n_streams}, forecaster={self.forecaster_name}, "
                f"window={self.window}, features={self.buffer.features}, "
                f"capacity={self.buffer.capacity})"
            )
        self._step = int(state["step"])
        self._since_refit = int(state["since_refit"])
        self._refit_cursor = int(state["refit_cursor"])
        self.model_version = int(state.get("model_version", 0))
        self._model_step = int(state.get("model_step", -1))
        self.on_fallback = bool(state["on_fallback"])
        self.buffer.load_state_dict(state["buffer"])
        self.detector.load_state_dict(state["detector"])
        self.gate.load_state_dict(state["gate"])
        self.refit_supervisor.load_state_dict(state["refit_supervisor"])
        self.predict_supervisor.load_state_dict(state["predict_supervisor"])
        self.stats.load_state_dict(state["stats"])
        self.model = None if state["model"] is None else Forecaster.from_bytes(state["model"])
        self.fallback_model = (
            None
            if state["fallback_model"] is None
            else Forecaster.from_bytes(state["fallback_model"])
        )
        pending = state.get("pending_refit")
        if pending is not None and self.refit_engine is not None:
            # deterministic resume: re-run the interrupted fit on the same
            # pooled windows (a busy engine drops it — the restored refit
            # clock reschedules with fresh data, also deterministically)
            self.refit_engine.submit(RefitTask.from_state(pending))

    def close(self) -> None:
        """Release the background refit worker (no-op in sync mode).

        Safe to call repeatedly; an in-flight fit is abandoned (its task
        is recoverable from the last checkpoint). Sync-mode fleets have
        nothing to release, so existing callers need not change.
        """
        if self.refit_engine is not None:
            self.refit_engine.close()

    def save(self, path: str | Path) -> None:
        """Checkpoint the full fleet state atomically (crash-safe)."""
        write_checkpoint(path, {"kind": "fleet_predictor", "state": self.state_dict()})

    @classmethod
    def restore(cls, path: str | Path, **overrides: Any) -> "FleetPredictor":
        """Rebuild a fleet from a checkpoint and resume every stream."""
        artifact = read_checkpoint(path)
        kind = artifact.get("kind") if isinstance(artifact, dict) else None
        if kind != "fleet_predictor":
            raise CheckpointError(
                f"{path} holds a {kind!r} checkpoint, not a 'fleet_predictor' one"
            )
        state = artifact["state"]
        cfg = dict(state["config"])
        cfg["serve_dtype"] = np.dtype(cfg["serve_dtype"])
        params = cfg.pop("detector_params")
        cfg["detector"] = PageHinkley(**params)
        cfg.update(overrides)
        predictor = cls(**cfg)
        predictor.load_state_dict(state)
        return predictor
