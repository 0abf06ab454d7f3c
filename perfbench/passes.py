"""One measured pass of a workload, in a fresh process started by ``run.py``.

Protocol on standard output, one JSON document per line:

* ``ready {...}`` once the server is built and warmed up. The driver
  reads this line to time set-up from outside (process start, ``import
  repro``, construction, shard worker spawn, warm-up). The pass reports
  the seconds it spent generating inputs and timing the reference loop,
  which the driver takes out, and the reference loop's time at both ends
  of set-up, by which the driver scales it.
* ``result {...}`` after the timed phase has been repeated for as long
  as ``--seconds`` (counted from the start of this process) allows: per
  repeat, the per-tick latencies, the outputs the driver compares across
  repeats and check verdicts; then peak RSS and, with ``--trace 1``,
  per-layer span totals over all repeats.

Before every repeat after the first, the server is reset, outside the
timer, to the state it had after warm-up, so each repeat serves the same
ticks from the same state and does the same work.

The driver sets the BLAS thread variables before starting this process,
so numpy here and every shard worker it spawns run single-threaded BLAS.
"""

from __future__ import annotations

import time

# --seconds counts from here, so it includes the imports set-up pays for
STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from benchmarks._machine import machine_info  # noqa: E402
from repro.experiments.fleet import make_fleet_streams  # noqa: E402
from repro.models.base import FORECASTER_REGISTRY  # noqa: E402
from repro.obs.registry import MetricRegistry  # noqa: E402
from repro.streaming import FleetPredictor, PageHinkley, ShardedFleetPredictor  # noqa: E402
from repro.streaming.checkpoint import read_checkpoint  # noqa: E402

from calibrate import reference_loop, reference_us  # noqa: E402
from spans import SpanTracer  # noqa: E402
from workloads import WORKLOADS, FleetWorkload  # noqa: E402

#: reference loops timed at each end of set-up (about 7 ms each)
SETUP_REFERENCE_LOOPS = 200
#: FleetTick columns compared bit for bit against the reference fleets
TICK_FIELDS = ("predictions", "actuals", "errors", "drift", "health", "gated")


def emit(tag: str, payload: dict) -> None:
    print(tag, json.dumps(payload), flush=True)


def blas_threads() -> int | None:
    """Threads of the OpenBLAS pool numpy loaded, or None if it is not found."""
    with open("/proc/self/maps") as maps:
        libs = {ln.split()[-1] for ln in maps if "openblas" in ln and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def wrap_fleet(tracer: SpanTracer, fleet: FleetPredictor) -> None:
    """Spans around the fleet layers' public entry points."""
    tracer.wrap(fleet, "process_tick", "fleet")
    tracer.wrap(fleet.gate, "check_tick", "resilience.gate")
    tracer.wrap(fleet.detector, "update", "drift.update")
    tracer.wrap(fleet.buffer, "last_windows", "buffer.gather")
    tracer.wrap(fleet.buffer, "append_tick", "buffer.append")
    # on the class: every refit builds a new model object
    model_cls = FORECASTER_REGISTRY[fleet.forecaster_name]
    tracer.wrap(model_cls, "predict", "models.predict", units=lambda _m, x: len(x))
    tracer.wrap(model_cls, "fit", "models.fit", units=lambda _m, x, *a, **k: len(x))


class FleetPass:
    """Serve a fleet trace through a FleetPredictor or a sharded fleet."""

    def __init__(self, spec: FleetWorkload, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        #: shard parity verdict, checked once per pass outside the timer
        self.parity: bool | None = None
        self.fleet_kwargs = dict(
            forecaster_name=spec.model,
            forecaster_kwargs=dict(spec.model_kwargs),
            window=spec.window,
            buffer_capacity=spec.buffer_capacity,
            refit_interval=spec.refit_interval,
            min_fit_size=spec.min_fit_size,
            refit_streams=spec.refit_streams,
            max_fit_windows=spec.max_fit_windows,
            detector=PageHinkley(threshold=spec.drift_threshold),
        )

    def generate(self) -> None:
        spec = self.spec
        self.ticks = make_fleet_streams(
            spec.streams, spec.warmup_ticks + spec.timed_ticks, self.seed, spec.nan_rate
        )

    def setup(self) -> None:
        spec = self.spec
        if spec.shards:
            self.server = ShardedFleetPredictor(
                spec.streams, spec.shards, registry=MetricRegistry(), **self.fleet_kwargs
            )
        else:
            self.server = FleetPredictor(
                spec.streams, registry=MetricRegistry(), **self.fleet_kwargs
            )
        self.warm = [self.server.process_tick(row) for row in self.ticks[: spec.warmup_ticks]]
        if spec.shards:
            # the shards' state lives in the workers; take it through a checkpoint
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
                self.server.save(Path(tmp) / "warm.ckpt")
                self.snapshot = read_checkpoint(Path(tmp) / "warm.ckpt")["state"]
        else:
            self.snapshot = self.server.state_dict()

    def reset(self) -> None:
        """Return the server to its state right after warm-up."""
        if self.spec.shards:
            self.server.load_state(self.snapshot)
        else:
            self.server.load_state_dict(self.snapshot)

    def counters(self) -> dict[str, int]:
        """Fleet-wide counters, read through public APIs."""
        if self.spec.shards:
            st = self.server.stats()
            return {
                "refits": st["n_refits"],
                "refit_failures": st["n_refit_failures"],
                "drift_fires": st["n_drifts"],
                "quarantined": st["n_quarantined"],
                "predictions": st["n_predictions"],
                "worker_failures": st["worker_failures"],
            }
        fleet = self.server
        return {
            "refits": fleet.stats.n_refits,
            "refit_failures": fleet.stats.n_refit_failures,
            "drift_fires": int(fleet.stats.n_drifts.sum()),
            "quarantined": int(fleet.gate.n_quarantined.sum()),
            "predictions": int(fleet.stats.n_predictions.sum()),
            "worker_failures": 0,
        }

    def instrument(self, tracer: SpanTracer) -> None:
        if self.spec.shards:
            # the fleet layers run inside the workers, out of reach from here
            tracer.wrap(self.server, "process_tick", "shard")
            tracer.wrap(self.server, "submit_tick", "shard.submit")
            tracer.wrap(self.server, "collect_tick", "shard.collect")
        else:
            wrap_fleet(tracer, self.server)

    def measure(self) -> dict:
        before = self.counters()
        server = self.server
        tick_ms: list[float] = []
        reference: list[float] = []
        refit: list[bool] = []
        digest = hashlib.sha256()
        offered = served = bad_ticks = 0
        busy = 0.0
        for row in self.ticks[self.spec.warmup_ticks :]:
            # the host's speed right now, untimed as far as the tick goes
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            out = server.process_tick(row)
            elapsed = time.perf_counter() - t1
            busy += elapsed
            tick_ms.append(elapsed * 1e3)
            reference.append((t1 - t0) * 1e6)
            refit.append(out.refit)
            have = np.isfinite(out.predictions)
            offered += out.n_streams
            served += int(np.count_nonzero(have))
            # a served prediction is finite and scored against its actual
            if np.isinf(out.predictions).any() or not np.array_equal(
                out.errors[have], np.abs(out.predictions[have] - out.actuals[have])
            ):
                bad_ticks += 1
            digest.update(out.predictions.tobytes())
            digest.update(out.errors.tobytes())
        self.rss_mb = peak_rss_mb() + sum(
            peak_rss_mb(p.pid) for p in multiprocessing.active_children()
        )
        after = self.counters()
        delta = {k: after[k] - before[k] for k in after}
        checks = {
            "model_fitted_in_warmup": self.warm[-1].model_version > 0,
            "no_refit_failures": after["refit_failures"] == 0,
            "no_worker_failures": after["worker_failures"] == 0,
        }
        if self.spec.shards:
            mae = self.server.stats()["fleet_mae"]
            if self.parity is None:
                self.parity = self._shard_parity()
            checks["shard_parity_with_fleet"] = self.parity
        else:
            mae = self.server.stats.fleet_mae
        return {
            "tick_ms": tick_ms,
            "reference_us": reference,
            "refit": refit,
            "records": offered,
            "busy_s": busy,
            "bad_ticks": bad_ticks,
            "outputs": {
                "mae": mae,
                "served_frac": served / offered,
                "refit_ticks": sum(refit),
                "digest": digest.hexdigest(),
            },
            "counts": {
                "fleet.refits": delta["refits"],
                "drift.fires": delta["drift_fires"],
                "resilience.quarantined": delta["quarantined"],
                "shard.worker_failures": delta["worker_failures"],
            },
            "checks": checks,
        }

    def _shard_parity(self) -> bool:
        """Each shard's warm-up rows equal a FleetPredictor serving those streams."""
        bounds = self.server.boundaries
        warm = self.ticks[: self.spec.warmup_ticks]
        refs = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            fleet = FleetPredictor(hi - lo, registry=MetricRegistry(), **self.fleet_kwargs)
            refs.append((slice(lo, hi), [fleet.process_tick(row[lo:hi]) for row in warm]))
        for step, got in enumerate(self.warm):
            want = [(sl, outs[step]) for sl, outs in refs]
            if got.refit != any(ref.refit for _, ref in want):
                return False
            if got.model_version != min(ref.model_version for _, ref in want):
                return False
            for sl, ref in want:
                for name in TICK_FIELDS:
                    if not np.array_equal(
                        getattr(got, name)[sl], getattr(ref, name), equal_nan=True
                    ):
                        return False
        return True

    def close(self) -> None:
        if self.spec.shards:
            self.server.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    runner = FleetPass(WORKLOADS[args.workload], args.seed)
    # set-up is scaled by the host's speed at both of its ends; the driver
    # takes the time spent here and on input generation out of set-up
    t0 = time.perf_counter()
    reference = [reference_us(SETUP_REFERENCE_LOOPS)]
    runner.generate()
    excluded_s = time.perf_counter() - t0
    tracer = SpanTracer() if args.trace else None
    repeats = []
    try:
        runner.setup()
        t0 = time.perf_counter()
        reference.append(reference_us(SETUP_REFERENCE_LOOPS))
        excluded_s += time.perf_counter() - t0
        emit("ready", {"excluded_s": excluded_s, "reference_us": reference})
        if tracer is not None:
            runner.instrument(tracer)
        while True:
            t0 = time.perf_counter()
            repeats.append(runner.measure())
            # repeat again while at least half a repeat like the last fits
            now = time.perf_counter()
            if now - STARTED + (now - t0) / 2 > args.seconds:
                break
            runner.reset()
    finally:
        runner.close()
    result = {"repeats": repeats, "rss_mb": runner.rss_mb}
    result["machine"] = {
        **machine_info(),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["trace"] = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "units": dict(tracer.units),
            "root_s": tracer.root_s,
        }
    emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
