"""Serving resilience: input gating, supervised execution, health states.

The paper's own data is "partially incomplete or has outliers due to
network anomalies, system interruption etc." (§III-A) — and a live
monitoring stream is strictly worse than an archived trace. This module
gives :class:`~repro.streaming.fleet.FleetPredictor` the pieces it
needs to survive that reality:

* :class:`FleetGate` — validates every incoming tick *before* it can
  reach the ring buffer. All-NaN rows are quarantined; partially
  missing or outlying cells are imputed from per-stream, per-feature
  running statistics. Every decision is counted, so data loss is a
  visible metric instead of silent poison.
* :class:`Supervisor` — runs refits (and predictions) inside a
  try/retry envelope with exponential backoff and a wall-time budget,
  tracking consecutive failures so the predictor knows when to degrade
  to its fallback forecaster.
* :class:`HealthStatus` — the health signal stamped on every served row
  (:class:`~repro.streaming.fleet.PredictionRecord` in the scalar view).
"""

from __future__ import annotations

import enum
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from ..obs.registry import Counter as MetricCounter
from ..obs.registry import Gauge as MetricGauge
from ..obs.registry import MetricRegistry, get_registry

__all__ = [
    "HealthStatus",
    "GatePolicy",
    "FleetGate",
    "FleetGateResult",
    "SupervisorPolicy",
    "Supervisor",
]

T = TypeVar("T")


class HealthStatus(str, enum.Enum):
    """Serving health emitted with every prediction record.

    ``HEALTHY``  — the primary forecaster is fitted and serving.
    ``DEGRADED`` — the primary still serves but recent refits or
    predictions failed (the supervisor is retrying).
    ``FALLBACK`` — predictions come from the registered fallback
    forecaster because the primary is unusable.
    ``RECOVERING`` — sharded serving only: the stream's shard worker is
    down but supervised recovery (respawn + checkpoint restore) is in
    progress; rows hold the last served prediction instead of NaN.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FALLBACK = "fallback"
    RECOVERING = "recovering"


# ---------------------------------------------------------------------------
# input gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GatePolicy:
    """How the input gate treats suspect records.

    Parameters
    ----------
    impute:
        Repair strategy for partially missing records: ``"last"`` fills
        NaN cells with the most recent accepted value for that feature,
        ``"mean"`` with its running mean, ``"drop"`` quarantines any
        record containing a non-finite cell.
    outlier_sigma:
        If set, cells further than ``outlier_sigma`` running standard
        deviations from their feature's running mean are treated per
        ``outlier_action``. ``None`` disables outlier screening.
    outlier_action:
        ``"clamp"`` pulls the offending cell back to the band edge,
        ``"quarantine"`` drops the whole record.
    min_history:
        Accepted records required before outlier screening arms (the
        running moments are meaningless earlier).
    prediction_sigma:
        Output-side guard: served predictions are clamped into
        ``mean ± prediction_sigma * std`` of the gated stream (a model
        extrapolating a corrupted window can forecast far outside any
        value the stream has ever taken). ``None`` disables clamping.
    """

    impute: str = "last"
    outlier_sigma: float | None = None
    outlier_action: str = "clamp"
    min_history: int = 20
    prediction_sigma: float | None = 6.0

    def __post_init__(self) -> None:
        if self.impute not in ("last", "mean", "drop"):
            raise ValueError(f"impute must be 'last', 'mean' or 'drop', got {self.impute!r}")
        if self.outlier_action not in ("clamp", "quarantine"):
            raise ValueError(
                f"outlier_action must be 'clamp' or 'quarantine', got {self.outlier_action!r}"
            )
        if self.outlier_sigma is not None and self.outlier_sigma <= 0:
            raise ValueError(f"outlier_sigma must be positive, got {self.outlier_sigma}")
        if self.prediction_sigma is not None and self.prediction_sigma <= 0:
            raise ValueError(f"prediction_sigma must be positive, got {self.prediction_sigma}")
        if self.min_history < 2:
            raise ValueError(f"min_history must be >= 2, got {self.min_history}")


#: integer encodings used by :class:`FleetGateResult` (hot-path friendly)
GATE_ACCEPT, GATE_IMPUTE, GATE_QUARANTINE = 0, 1, 2
#: reason codes -> the defect-class names in the counters and tallies
GATE_REASONS = (None, "missing", "outlier", "empty", "no_history")
_R_NONE, _R_MISSING, _R_OUTLIER, _R_EMPTY, _R_NO_HISTORY = range(5)


@dataclass(frozen=True)
class FleetGateResult:
    """Columnar outcome of gating one ``(streams, features)`` tick.

    ``actions`` holds :data:`GATE_ACCEPT` / :data:`GATE_IMPUTE` /
    :data:`GATE_QUARANTINE` per stream, ``reasons`` indexes into
    :data:`GATE_REASONS`, and ``records`` is the repaired tick matrix
    (rows of quarantined streams keep their raw values — callers must
    not absorb them).
    """

    actions: np.ndarray  # (N,) int8
    records: np.ndarray  # (N, F) float
    reasons: np.ndarray  # (N,) int8

    @property
    def accepted(self) -> np.ndarray:
        return self.actions != GATE_QUARANTINE


class FleetGate:
    """Validate, repair or quarantine one record per stream, all at once.

    Runs the NaN / empty-record / imputation / Welford-band checks on a
    whole ``(streams, features)`` tick while keeping *per-stream* running
    moments (over accepted data only, so corrupt records cannot skew the
    statistics used to judge later ones), verdict counters and reason
    tallies. A tick is a uniformly shaped float matrix: a stream with no
    data this tick is an all-NaN row, which quarantines as ``"empty"``,
    and malformed per-stream payloads (wrong arity, unparseable) must be
    mapped to NaN rows by whatever assembles the tick.

    Every decision also counts into :mod:`repro.obs` instruments
    registered with ``registry`` (default: the process-global registry).
    These counts are serving state (checkpointed, asserted on), so they
    record regardless of the :func:`repro.obs.set_enabled` switch.
    """

    def __init__(
        self,
        streams: int,
        features: int,
        policy: GatePolicy | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        if streams < 1 or features < 1:
            raise ValueError(f"streams and features must be >= 1, got {streams}, {features}")
        self.streams = streams
        self.features = features
        self.policy = policy or GatePolicy()
        self._registry = get_registry(registry)
        self._c_seen = MetricCounter(
            "serving_gate_seen_total", "records offered to the input gate"
        )
        self._c_actions = {
            action: MetricCounter(
                "serving_gate_records_total",
                "gate verdicts by action",
                {"action": action},
            )
            for action in ("accept", "impute", "quarantine")
        }
        self._c_reasons: dict[str, MetricCounter] = {}
        for inst in (self._c_seen, *self._c_actions.values()):
            self._registry.register(inst)
        # per-stream verdict counters (checkpointed serving state)
        self._n_seen = np.zeros(streams, dtype=np.int64)
        self._n_accepted = np.zeros(streams, dtype=np.int64)
        self._n_imputed = np.zeros(streams, dtype=np.int64)
        self._n_quarantined = np.zeros(streams, dtype=np.int64)
        self._reason_counts = np.zeros((len(GATE_REASONS), streams), dtype=np.int64)
        # per-stream running moments over accepted data (Welford)
        self._last = np.full((streams, features), np.nan)
        self._count = np.zeros(streams, dtype=np.int64)
        self._mean = np.zeros((streams, features))
        self._m2 = np.zeros((streams, features))

    # -- counter views ----------------------------------------------------------

    @property
    def n_seen(self) -> np.ndarray:
        return self._n_seen.copy()

    @property
    def n_accepted(self) -> np.ndarray:
        return self._n_accepted.copy()

    @property
    def n_imputed(self) -> np.ndarray:
        return self._n_imputed.copy()

    @property
    def n_quarantined(self) -> np.ndarray:
        return self._n_quarantined.copy()

    def reasons(self, stream: int | None = None) -> Counter[str]:
        """Defect counts for one stream (or the whole fleet)."""
        counts = (
            self._reason_counts.sum(axis=1)
            if stream is None
            else self._reason_counts[:, stream]
        )
        return Counter(
            {
                name: int(c)
                for name, c in zip(GATE_REASONS, counts)
                if name is not None and c
            }
        )

    # -- internals -------------------------------------------------------------

    def _obs_reason(self, reason: str, amount: int) -> None:
        counter = self._c_reasons.get(reason)
        if counter is None:
            counter = MetricCounter(
                "serving_gate_reasons_total", "gate defect classes", {"reason": reason}
            )
            self._registry.register(counter)
            self._c_reasons[reason] = counter
        counter.inc(amount)

    def _absorb_rows(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Welford update for ``rows`` (bool mask) with per-stream ``values``."""
        idx = np.flatnonzero(rows)
        if idx.size == 0:
            return
        vals = values[idx]
        self._last[idx] = vals
        self._count[idx] += 1
        delta = vals - self._mean[idx]
        new_mean = self._mean[idx] + delta / self._count[idx][:, None]
        self._mean[idx] = new_mean
        self._m2[idx] += delta * (vals - new_mean)

    def _running_std(self) -> np.ndarray:
        std = np.zeros((self.streams, self.features))
        ok = self._count >= 2
        if ok.any():
            std[ok] = np.sqrt(self._m2[ok] / (self._count[ok, None] - 1))
        return std

    def band(self, sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-stream ``(lo, hi, armed)`` plausibility bands.

        ``lo``/``hi`` are ``(streams, features)``; rows where ``armed``
        is False have not seen ``min_history`` accepted records yet and
        must not be used.
        """
        armed = self._count >= self.policy.min_history
        std = self._running_std()
        return self._mean - sigma * std, self._mean + sigma * std, armed

    # -- API -------------------------------------------------------------------

    def check_tick(self, tick: np.ndarray) -> FleetGateResult:
        """Gate one ``(streams, features)`` tick; all streams at once."""
        arr = np.asarray(tick, float)
        if arr.shape != (self.streams, self.features):
            raise ValueError(
                f"expected tick of shape ({self.streams}, {self.features}), got {arr.shape}"
            )
        n = self.streams
        self._n_seen += 1
        self._c_seen.inc(n)

        actions = np.zeros(n, dtype=np.int8)
        reasons = np.zeros(n, dtype=np.int8)
        repaired = arr.copy()
        finite = np.isfinite(arr)
        row_finite = finite.all(axis=1)

        empty = ~finite.any(axis=1)
        quarantined = empty.copy()
        reasons[empty] = _R_EMPTY

        missing_rows = ~row_finite & ~empty
        if missing_rows.any():
            if self.policy.impute == "drop":
                quarantined |= missing_rows
                reasons[missing_rows] = _R_MISSING
            else:
                if self.policy.impute == "last":
                    fill = self._last
                    usable = np.isfinite(self._last)
                else:
                    fill = self._mean
                    usable = np.broadcast_to((self._count > 0)[:, None], finite.shape)
                # a missing cell with no history to impute from
                no_hist = missing_rows & ~np.where(finite, True, usable).all(axis=1)
                quarantined |= no_hist
                reasons[no_hist] = _R_NO_HISTORY
                fixable = missing_rows & ~no_hist
                cells = ~finite & fixable[:, None]
                repaired[cells] = fill[cells]
                reasons[fixable] = _R_MISSING

        if self.policy.outlier_sigma is not None:
            armed = ~quarantined & (self._count >= self.policy.min_history)
            if armed.any():
                std = self._running_std()
                band = self.policy.outlier_sigma * std
                wild = armed[:, None] & (std > 0) & (np.abs(repaired - self._mean) > band)
                wild_rows = wild.any(axis=1)
                if wild_rows.any():
                    clamped = np.where(
                        wild,
                        self._mean + np.sign(repaired - self._mean) * band,
                        repaired,
                    )
                    if self.policy.outlier_action == "quarantine":
                        # the record is dropped, but the *clamped* value still
                        # feeds the running moments: a genuine regime shift keeps
                        # pulling the band toward itself (bounded influence) and
                        # gets re-admitted, while an impulse fault barely moves it
                        self._absorb_rows(wild_rows, clamped)
                        quarantined |= wild_rows
                        reasons[wild_rows] = _R_OUTLIER
                    else:
                        repaired = np.where(wild_rows[:, None], clamped, repaired)
                        reasons[wild_rows & (reasons == _R_NONE)] = _R_OUTLIER

        accepted = ~quarantined
        self._absorb_rows(accepted, repaired)
        imputed = accepted & (reasons != _R_NONE)
        clean = accepted & (reasons == _R_NONE)
        actions[imputed] = GATE_IMPUTE
        actions[quarantined] = GATE_QUARANTINE

        self._n_accepted += clean
        self._n_imputed += imputed
        self._n_quarantined += quarantined
        counted = np.flatnonzero(reasons != _R_NONE)
        if counted.size:
            np.add.at(self._reason_counts, (reasons[counted], counted), 1)
        n_clean, n_imp, n_quar = int(clean.sum()), int(imputed.sum()), int(quarantined.sum())
        if n_clean:
            self._c_actions["accept"].inc(n_clean)
        if n_imp:
            self._c_actions["impute"].inc(n_imp)
        if n_quar:
            self._c_actions["quarantine"].inc(n_quar)
        if n_imp or n_quar:
            for code, name in enumerate(GATE_REASONS):
                if name is None:
                    continue
                amount = int((reasons == code).sum())
                if amount:
                    self._obs_reason(name, amount)
        return FleetGateResult(actions=actions, records=repaired, reasons=reasons)

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "n_seen": self._n_seen.copy(),
            "n_accepted": self._n_accepted.copy(),
            "n_imputed": self._n_imputed.copy(),
            "n_quarantined": self._n_quarantined.copy(),
            "reason_counts": self._reason_counts.copy(),
            "last": self._last.copy(),
            "count": self._count.copy(),
            "mean": self._mean.copy(),
            "m2": self._m2.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        self._n_seen[...] = state["n_seen"]
        self._n_accepted[...] = state["n_accepted"]
        self._n_imputed[...] = state["n_imputed"]
        self._n_quarantined[...] = state["n_quarantined"]
        self._reason_counts[...] = state["reason_counts"]
        self._last[...] = state["last"]
        self._count[...] = state["count"]
        self._mean[...] = state["mean"]
        self._m2[...] = state["m2"]


# ---------------------------------------------------------------------------
# supervised execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/backoff/budget envelope for supervised calls.

    ``max_retries`` extra attempts follow a failed call, separated by
    ``backoff_base * backoff_factor**attempt`` seconds (capped at
    ``backoff_max``; a base of 0 disables sleeping, which tests use).
    ``time_budget`` is a wall-clock allowance spanning all attempts of
    one call: once exhausted no further retries are made, and a call
    that succeeds over budget is counted in ``n_budget_exceeded``.
    After ``fallback_after`` consecutive failed calls the owner should
    switch to its fallback forecaster (:meth:`Supervisor.should_fall_back`).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    time_budget: float | None = None
    fallback_after: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ValueError("backoff parameters must be non-negative (factor >= 1)")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError(f"time_budget must be positive, got {self.time_budget}")
        if self.fallback_after < 1:
            raise ValueError(f"fallback_after must be >= 1, got {self.fallback_after}")


class Supervisor:
    """Execute callables under the failure-isolation policy.

    One instance supervises one duty (the predictor keeps separate
    instances for refits and predictions, so a flaky refit path does not
    mask a healthy serving path). Exceptions never escape
    :meth:`run` — the caller gets ``(ok, result)`` and decides how to
    degrade.

    Call/retry/failure counts live in :mod:`repro.obs` instruments
    labelled by ``duty`` and registered with ``registry`` (default: the
    process-global one); the historical ``n_calls``/``total_retries``/
    ``total_failures``/``n_budget_exceeded``/``consecutive_failures``
    attributes remain as exact per-instance views.
    """

    def __init__(
        self,
        policy: SupervisorPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        duty: str = "call",
        registry: MetricRegistry | None = None,
    ) -> None:
        self.policy = policy or SupervisorPolicy()
        self._sleep = sleep
        self.duty = duty
        labels = {"duty": duty}
        self._c_calls = MetricCounter(
            "serving_supervisor_calls_total", "supervised calls", labels
        )
        self._c_failures = MetricCounter(
            "serving_supervisor_failures_total", "terminally failed supervised calls", labels
        )
        self._c_retries = MetricCounter(
            "serving_supervisor_retries_total", "retry attempts after failures", labels
        )
        self._c_budget = MetricCounter(
            "serving_supervisor_budget_exceeded_total",
            "successful calls that overran the time budget",
            labels,
        )
        self._g_consecutive = MetricGauge(
            "serving_supervisor_consecutive_failures", "current failure streak", labels
        )
        reg = get_registry(registry)
        for inst in (
            self._c_calls,
            self._c_failures,
            self._c_retries,
            self._c_budget,
            self._g_consecutive,
        ):
            reg.register(inst)
        self.last_error: str | None = None

    # -- counter views ----------------------------------------------------------

    @property
    def n_calls(self) -> int:
        return int(self._c_calls.value)

    @property
    def total_failures(self) -> int:
        return int(self._c_failures.value)

    @property
    def total_retries(self) -> int:
        return int(self._c_retries.value)

    @property
    def n_budget_exceeded(self) -> int:
        return int(self._c_budget.value)

    @property
    def consecutive_failures(self) -> int:
        return int(self._g_consecutive.value)

    @property
    def should_fall_back(self) -> bool:
        return self.consecutive_failures >= self.policy.fallback_after

    def run(self, fn: Callable[[], T]) -> tuple[bool, T | None]:
        """Call ``fn`` with retries; return ``(True, result)`` or ``(False, None)``."""
        self._c_calls.inc()
        start = time.perf_counter()
        attempt = 0
        while True:
            try:
                result = fn()
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                self.last_error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                out_of_budget = (
                    self.policy.time_budget is not None and elapsed >= self.policy.time_budget
                )
                if attempt >= self.policy.max_retries or out_of_budget:
                    self._g_consecutive.inc()
                    self._c_failures.inc()
                    return False, None
                delay = min(
                    self.policy.backoff_base * self.policy.backoff_factor**attempt,
                    self.policy.backoff_max,
                )
                if delay > 0:
                    self._sleep(delay)
                attempt += 1
                self._c_retries.inc()
            else:
                elapsed = time.perf_counter() - start
                if self.policy.time_budget is not None and elapsed > self.policy.time_budget:
                    self._c_budget.inc()
                self._g_consecutive.set(0)
                return True, result

    def record(self, ok: bool, error: str | None = None) -> None:
        """Count one externally executed attempt (the async refit path).

        The async refit engine runs the fit off the serving thread with
        no in-line retries; the owner reports the adopted outcome here,
        so the failure-streak/health/fallback semantics stay identical
        to a supervised in-line :meth:`run`.
        """
        self._c_calls.inc()
        if ok:
            self._g_consecutive.set(0)
        else:
            self.last_error = error
            self._g_consecutive.inc()
            self._c_failures.inc()

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "consecutive_failures": self.consecutive_failures,
            "total_failures": self.total_failures,
            "total_retries": self.total_retries,
            "n_calls": self.n_calls,
            "n_budget_exceeded": self.n_budget_exceeded,
            "last_error": self.last_error,
        }

    def load_state_dict(self, state: dict) -> None:
        self._g_consecutive.set(int(state["consecutive_failures"]))
        self._c_failures.restore(int(state["total_failures"]))
        self._c_retries.restore(int(state["total_retries"]))
        self._c_calls.restore(int(state["n_calls"]))
        self._c_budget.restore(int(state["n_budget_exceeded"]))
        self.last_error = state["last_error"]
