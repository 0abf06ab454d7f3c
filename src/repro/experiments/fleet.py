"""Fleet serving throughput: one N-stream fleet vs N one-stream predictors.

The paper's deployment target is a cluster sampled on one clock —
thousands of per-container streams all due a forecast at the same tick.
This harness measures what that costs both ways:

* **scalar** — one :class:`~repro.streaming.online.OnlinePredictor` (a
  one-stream fleet fed record by record) per stream, the per-tick
  serving loop repeated N times per tick;
* **fleet** — one :class:`~repro.streaming.fleet.FleetPredictor`
  multiplexing all N streams: vectorized gate, matrix ring buffer, one
  micro-batched model forward per tick, coalesced staggered refits.

Both sides serve the same synthetic fleet trace (per-stream diurnal
phase/level/noise plus a sprinkle of NaN faults), so records/sec is an
apples-to-apples number. At ``n_streams=1`` the two are bit-identical
by construction; the harness verifies that too (``parity_n1``) so the
throughput table can't drift away from correctness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..obs.registry import MetricRegistry
from ..streaming.fleet import FleetPredictor
from ..streaming.online import OnlinePredictor
from .config import ExperimentProfile, get_profile

__all__ = [
    "FleetScaleResult",
    "FleetResult",
    "run_fleet",
    "make_fleet_streams",
    "ShardScaleResult",
    "ShardScalingResult",
    "run_shard_scaling",
]


@dataclass
class FleetScaleResult:
    """Throughput comparison at one fleet size."""

    n_streams: int
    ticks: int
    fleet_seconds: float
    scalar_seconds: float
    fleet_records_per_sec: float
    scalar_records_per_sec: float
    speedup: float
    fleet_mae: float
    scalar_mae: float
    fleet_refits: int
    scalar_refits: int
    n_quarantined: int


@dataclass
class FleetResult:
    """Fleet-vs-scalar serving comparison across fleet sizes."""

    model: str
    window: int
    ticks: int
    parity_n1: bool  #: N=1 records bit-identical between fleet and scalar
    per_scale: list[FleetScaleResult] = field(default_factory=list)

    def result_at(self, n_streams: int) -> FleetScaleResult:
        for r in self.per_scale:
            if r.n_streams == n_streams:
                return r
        raise KeyError(
            f"no result at n_streams={n_streams}; "
            f"have {[r.n_streams for r in self.per_scale]}"
        )

    def speedup_at(self, n_streams: int) -> float:
        return self.result_at(n_streams).speedup

    @property
    def crossover_n(self) -> int | None:
        """Smallest measured fleet size where the fleet beats N scalars.

        Below this N the per-tick fixed cost of the vectorized path
        outweighs the batching win and N independent scalar predictors
        are faster; ``None`` if no measured size reached speedup >= 1.
        """
        for r in sorted(self.per_scale, key=lambda r: r.n_streams):
            if r.speedup >= 1.0:
                return r.n_streams
        return None


def make_fleet_streams(
    n_streams: int, ticks: int, seed: int, nan_rate: float = 0.01
) -> np.ndarray:
    """Synthetic ``(ticks, n_streams)`` fleet trace in one vectorized shot.

    Each stream is a diurnal sinusoid with its own level, amplitude,
    phase and noise (the paper's high-dynamic container mix), with
    ``nan_rate`` of cells knocked out so the gate's fault handling stays
    on the measured hot path.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(ticks, dtype=float)[:, None]
    level = rng.uniform(0.3, 0.6, n_streams)
    amp = rng.uniform(0.05, 0.2, n_streams)
    phase = rng.uniform(0.0, 2 * np.pi, n_streams)
    period = rng.uniform(18.0, 30.0, n_streams)
    x = level + amp * np.sin(2 * np.pi * t / period + phase)
    x += rng.normal(0.0, 0.01, x.shape)
    if nan_rate > 0:
        x[rng.random(x.shape) < nan_rate] = np.nan
    # never corrupt the opening tick: every stream starts with a finite record
    x[0] = level + amp * np.sin(phase)
    return x


def _records_parity(fleet_ticks, scalar_records) -> bool:
    """NaN-aware equality of every emitted record field at N=1."""

    def feq(a, b):
        if a is None or b is None:
            return a is None and b is None
        return a == b or (np.isnan(a) and np.isnan(b))

    for tick, rec in zip(fleet_ticks, scalar_records):
        frec = tick.record(0)
        if not (
            frec.step == rec.step
            and feq(frec.prediction, rec.prediction)
            and feq(frec.actual, rec.actual)
            and feq(frec.error, rec.error)
            and frec.refit == rec.refit
            and frec.drift == rec.drift
            and frec.health == rec.health
            and frec.gated == rec.gated
        ):
            return False
    return True


def run_fleet(
    profile: str | ExperimentProfile = "quick",
    model: str = "holt",
    model_kwargs: dict | None = None,
    n_list: tuple[int, ...] = (1, 64, 1024),
    refit_interval: int = 64,
    nan_rate: float = 0.01,
) -> FleetResult:
    """Serve the same fleet trace both ways at each size in ``n_list``."""
    prof = get_profile(profile) if isinstance(profile, str) else profile
    ticks = int(max(64, min(160, prof.n_steps // 8)))
    window = prof.window
    common = dict(
        forecaster_kwargs=dict(model_kwargs or {}),
        window=window,
        buffer_capacity=2 * refit_interval + window,
        refit_interval=refit_interval,
        min_fit_size=3 * window,
    )

    result = FleetResult(model=model, window=window, ticks=ticks, parity_n1=True)
    for n_streams in n_list:
        streams = make_fleet_streams(n_streams, ticks, prof.seed, nan_rate)

        # fleet: one predictor, one micro-batched forward per tick
        fleet = FleetPredictor(
            n_streams, model, registry=MetricRegistry(), **common
        )
        t0 = time.perf_counter()
        fleet_out = fleet.run(streams)
        fleet_seconds = time.perf_counter() - t0

        # scalar: N independent predictors sharing one private registry
        scalar_registry = MetricRegistry()
        predictors = [
            OnlinePredictor(model, registry=scalar_registry, **common)
            for _ in range(n_streams)
        ]
        scalar_records = [[] for _ in range(n_streams)]
        t0 = time.perf_counter()
        for row in streams:
            for i, predictor in enumerate(predictors):
                scalar_records[i].append(predictor.process(row[i : i + 1]))
        scalar_seconds = time.perf_counter() - t0

        if n_streams == 1:
            result.parity_n1 = _records_parity(fleet_out, scalar_records[0])

        total = ticks * n_streams
        scalar_mae = float(
            np.sum([p.stats.sum_abs_error for p in predictors])
            / max(np.sum([p.stats.n_predictions for p in predictors]), 1)
        )
        result.per_scale.append(
            FleetScaleResult(
                n_streams=n_streams,
                ticks=ticks,
                fleet_seconds=fleet_seconds,
                scalar_seconds=scalar_seconds,
                fleet_records_per_sec=total / max(fleet_seconds, 1e-9),
                scalar_records_per_sec=total / max(scalar_seconds, 1e-9),
                speedup=scalar_seconds / max(fleet_seconds, 1e-9),
                fleet_mae=fleet.stats.fleet_mae,
                scalar_mae=scalar_mae,
                fleet_refits=fleet.stats.n_refits,
                scalar_refits=int(np.sum([p.stats.n_refits for p in predictors])),
                n_quarantined=int(fleet.gate.n_quarantined.sum()),
            )
        )
    return result


@dataclass
class ShardScaleResult:
    """Throughput at one shard count for a fixed fleet size.

    Each shard count is served twice: once behind the historical
    lock-step barrier and once through the two-deep tick pipeline
    (``pipeline=True``); the ``pipeline_*`` fields record the second
    pass. ``pipeline_parity`` asserts the overlap changed no served bit.
    """

    shards: int
    seconds: float
    records_per_sec: float
    speedup_vs_single: float  #: vs the single-process FleetPredictor
    worker_failures: int
    pipeline_seconds: float = 0.0
    pipeline_records_per_sec: float = 0.0
    pipeline_speedup: float = 0.0  #: pipelined vs barrier at the same shard count
    pipeline_parity: bool = True  #: pipelined ticks bit-identical to barrier


@dataclass
class ShardScalingResult:
    """Records/sec vs shard count for one fleet (single process = 1.0x)."""

    model: str
    n_streams: int
    ticks: int
    single_seconds: float
    single_records_per_sec: float
    parity_shard1: bool  #: shards=1 output bit-identical to FleetPredictor
    per_shards: list[ShardScaleResult] = field(default_factory=list)

    def result_at(self, shards: int) -> ShardScaleResult:
        for r in self.per_shards:
            if r.shards == shards:
                return r
        raise KeyError(
            f"no result at shards={shards}; have {[r.shards for r in self.per_shards]}"
        )


def _ticks_parity(a, b) -> bool:
    """Bit-exact equality of two FleetTick sequences (NaN == NaN)."""
    for x, y in zip(a, b):
        if x.step != y.step or x.refit != y.refit:
            return False
        if x.model_version != y.model_version:
            return False
        for fld in ("predictions", "actuals", "errors", "drift", "health", "gated"):
            if not np.array_equal(getattr(x, fld), getattr(y, fld), equal_nan=True):
                return False
    return len(a) == len(b)


def run_shard_scaling(
    profile: str | ExperimentProfile = "quick",
    model: str = "holt",
    model_kwargs: dict | None = None,
    n_streams: int = 4096,
    shards_list: tuple[int, ...] = (1, 2, 4),
    refit_interval: int = 64,
    nan_rate: float = 0.01,
    ticks: int | None = None,
) -> ShardScalingResult:
    """Serve one fleet trace single-process and at each shard count.

    The single-process :class:`FleetPredictor` sets the 1.0x baseline;
    ``shards=1`` additionally verifies bit-parity of every emitted tick
    against it (the sharded path is the same computation moved behind a
    process boundary, so any divergence is a bug, not noise).
    """
    prof = get_profile(profile) if isinstance(profile, str) else profile
    if ticks is None:
        ticks = int(max(48, min(96, prof.n_steps // 10)))
    window = prof.window
    common = dict(
        forecaster_kwargs=dict(model_kwargs or {}),
        window=window,
        buffer_capacity=2 * refit_interval + window,
        refit_interval=refit_interval,
        min_fit_size=3 * window,
    )
    streams = make_fleet_streams(n_streams, ticks, prof.seed, nan_rate)
    total = ticks * n_streams

    single = FleetPredictor(n_streams, model, registry=MetricRegistry(), **common)
    t0 = time.perf_counter()
    single_out = single.run(streams)
    single_seconds = time.perf_counter() - t0

    result = ShardScalingResult(
        model=model,
        n_streams=n_streams,
        ticks=ticks,
        single_seconds=single_seconds,
        single_records_per_sec=total / max(single_seconds, 1e-9),
        parity_shard1=True,
    )
    # deferred: repro.streaming.shard <-> repro.experiments import cycle
    from ..streaming.shard import ShardedFleetPredictor

    for shards in shards_list:
        if shards > n_streams:
            continue
        sharded = ShardedFleetPredictor(
            n_streams, shards, forecaster_name=model, registry=MetricRegistry(), **common
        )
        try:
            t0 = time.perf_counter()
            sharded_out = sharded.run(streams)
            seconds = time.perf_counter() - t0
            failures = sharded.worker_failures
            if shards == 1:
                result.parity_shard1 = _ticks_parity(single_out, sharded_out)
        finally:
            sharded.close(collect_metrics=False)
        # second pass at the same shard count through the two-deep tick
        # pipeline: composition of tick t overlaps shard compute of t+1
        pipelined = ShardedFleetPredictor(
            n_streams,
            shards,
            pipeline=True,
            forecaster_name=model,
            registry=MetricRegistry(),
            **common,
        )
        try:
            t0 = time.perf_counter()
            pipelined_out = pipelined.run(streams)
            pipeline_seconds = time.perf_counter() - t0
            pipeline_parity = _ticks_parity(sharded_out, pipelined_out)
        finally:
            pipelined.close(collect_metrics=False)
        result.per_shards.append(
            ShardScaleResult(
                shards=shards,
                seconds=seconds,
                records_per_sec=total / max(seconds, 1e-9),
                speedup_vs_single=single_seconds / max(seconds, 1e-9),
                worker_failures=failures,
                pipeline_seconds=pipeline_seconds,
                pipeline_records_per_sec=total / max(pipeline_seconds, 1e-9),
                pipeline_speedup=seconds / max(pipeline_seconds, 1e-9),
                pipeline_parity=pipeline_parity,
            )
        )
    return result
