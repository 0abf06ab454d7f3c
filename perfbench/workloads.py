"""The benchmark's workloads, as plain data.

Both the driver (``run.py``) and the measured pass (``passes.py``) read
these. Every input is generated from the
``--seed`` the benchmark is given; the sizes below are fixed, so one
seed always yields the same inputs and the same outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FleetWorkload:
    """A fleet trace from ``make_fleet_streams`` served tick by tick.

    ``shards == 0`` serves it in process with one ``FleetPredictor``;
    ``shards > 0`` through a ``ShardedFleetPredictor`` in barrier mode
    (``process_tick``). Refits are always in-line (``refit_mode="sync"``)
    so outputs are deterministic.
    """

    name: str
    streams: int
    model: str
    #: ticks served before the timer starts: they fill the ring buffers
    #: (``buffer_capacity``) and complete the first model fit
    warmup_ticks: int
    #: ticks timed per repeat; at least MIN_SERVE_TICKS of them without a refit
    timed_ticks: int
    refit_interval: int
    shards: int = 0
    model_kwargs: dict = field(default_factory=dict)
    refit_streams: int = 8
    max_fit_windows: int = 4096
    #: PageHinkley threshold, out of reach: the detector runs on every tick
    #: but never triggers a refit, so refits follow ``refit_interval`` and
    #: every seed does the same work (at 5.0 one mlp seed still refit 61
    #: times where the others refit 5 to 7 times)
    drift_threshold: float = 1e9
    window: int = 12
    buffer_capacity: int = 140
    min_fit_size: int = 36
    nan_rate: float = 0.01


WORKLOADS: dict[str, FleetWorkload] = {
    w.name: w
    for w in (
        FleetWorkload(
            "fleet-n64-holt",
            streams=64,
            model="holt",
            warmup_ticks=150,
            timed_ticks=1200,
            refit_interval=200,
        ),
        FleetWorkload(
            "fleet-n4096-mlp",
            streams=4096,
            model="mlp",
            warmup_ticks=150,
            timed_ticks=2000,
            refit_interval=400,
            model_kwargs={"epochs": 10, "batch_size": 64},
            max_fit_windows=1024,
        ),
        FleetWorkload(
            "shard2-n4096-holt",
            streams=4096,
            model="holt",
            warmup_ticks=150,
            timed_ticks=2000,
            refit_interval=200,
            shards=2,
        ),
    )
}

#: serve ticks a repeat needs, so that ten of them lie beyond the p99
MIN_SERVE_TICKS = 1000
#: ticks that ran an in-line refit, for the refit_stall_ms median
MIN_REFIT_TICKS = 5
