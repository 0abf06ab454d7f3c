"""Serving benchmark: one workload, several fresh-process passes, one JSON result.

    python3 perfbench/run.py --workload fleet-n4096-mlp --seed 1 --seconds 36 --trace 0

Run from the repository root. Each pass is a new ``passes.py`` process,
so set-up is measured the way a restarted serving process pays it; in
it the workload's timed phase runs several times from the same warmed-up
state. The ``--seconds`` of a run are shared out over three passes. Then
it prints:

* one line of detail: machine stamp (usable cores, BLAS threads, numpy
  version), the host's speed, the raw (unscaled) timings, sample
  counts, the outputs every repeat must reproduce exactly, and each
  check's verdict;
* as the last line, ``{"correct", "attempted", "failed", "metrics"}``:
  the end-to-end metrics with ``--trace 0``, the per-layer ones with
  ``--trace 1``.

Timings are reported at reference speed (see ``calibrate.py``): each
tick is scaled by the reference loop timed next to it, and set-up by the
reference loop timed at its ends. A tick's latency is then the lower
quartile of its repeats; every repeat serves the same ticks with the
same work.
With ``--trace 1`` the middle pass is traced; the per-layer numbers come
from it and ``trace.overhead_frac`` compares it with the others. See
README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Before anything imports numpy: a single-threaded BLAS pool here, and in
# every process started from here (passes and their shard workers).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from calibrate import REFERENCE_US  # noqa: E402
from workloads import MIN_REFIT_TICKS, MIN_SERVE_TICKS, WORKLOADS  # noqa: E402

#: files outside the benchmark's directory that it needs
REQUIRED = ("src/repro/__init__.py", "benchmarks/_machine.py")
#: fresh-process passes per run, each a set-up sample; with --trace 1 the
#: middle one is traced
PASSES = 3
#: wall-clock budget for all passes of one run (the run must end in 180 s)
BUDGET_S = 150.0
#: consecutive ticks scaled by the median of their reference times
SCALE_BLOCK = 20

END_TO_END = {
    "throughput_rps": "records/s",
    "tick_p50_ms": "ms",
    "tick_p99_ms": "ms",
    "refit_stall_ms": "ms",
    "served_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: per-layer metric -> span name whose self time it reports, per tick
LAYER_MS = {
    "resilience.gate_ms": "resilience.gate",
    "drift.update_ms": "drift.update",
    "fleet.self_ms": "fleet",
    "buffer.gather_ms": "buffer.gather",
    "buffer.append_ms": "buffer.append",
    "models.predict_ms": "models.predict",
    "models.fit_ms": "models.fit",
    "shard.submit_ms": "shard.submit",
    "shard.collect_ms": "shard.collect",
    "shard.self_ms": "shard",
}
#: per-layer counts a pass reads from the program's public counters
LAYER_COUNTS = (
    "resilience.quarantined",
    "drift.fires",
    "fleet.refits",
    "shard.worker_failures",
)


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, traced: bool, seconds: float, deadline: float) -> dict:
    """Start one pass of about ``seconds``, time its set-up from outside."""
    cmd = [
        sys.executable,
        str(HERE / "passes.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--seconds", repr(seconds),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready.startswith("ready ") or proc.returncode != 0:
        raise PassFailed(f"pass exited with {proc.returncode} ({workload}, seed {seed})")
    lines = [ln for ln in rest.splitlines() if ln.startswith("result ")]
    if not lines:
        raise PassFailed(f"pass printed no result ({workload}, seed {seed})")
    result = json.loads(lines[-1][len("result "):])
    ready = json.loads(ready[len("ready "):])
    result["setup_raw_s"] = t_ready - t0 - ready["excluded_s"]
    result["setup_s"] = result["setup_raw_s"] / host_speed(ready["reference_us"])
    result["wall_s"] = time.perf_counter() - t0
    result["traced"] = traced
    return result


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def throughput(rep: dict) -> float:
    return rep["records"] / rep["busy_s"]


def host_speed(reference_us: list[float]) -> float:
    """How much slower than reference speed the host ran (1.0 = as fast)."""
    return statistics.median(reference_us) / REFERENCE_US


def at_reference_speed(rep: dict) -> list[float]:
    """A repeat's tick times, each block scaled by the host's speed in it."""
    ms, ref = rep["tick_ms"], rep["reference_us"]
    out: list[float] = []
    for lo in range(0, len(ms), SCALE_BLOCK):
        speed = host_speed(ref[lo : lo + SCALE_BLOCK])
        out.extend(t / speed for t in ms[lo : lo + SCALE_BLOCK])
    return out


def lower_quartile(repeats: tuple[float, ...]) -> float:
    """The lower quartile of one tick's repeats (of 3, the fastest).

    A run has at least two untraced passes of at least one repeat each.
    """
    return statistics.quantiles(repeats, n=4)[0]


def tick_samples(reps: list[dict], scaled: bool = True) -> dict:
    """Each tick's time over its repeats, split into serve and refit ticks.

    Every repeat serves the same ticks from the same state and does the
    same work on them (the outputs are bit-identical), so one tick's
    repeats differ only by the host. ``scaled`` takes the host's speed
    out first; what is left (a context switch, a page fault, a probe
    that ran slow) only ever adds time, so a tick's time is the lower
    quartile of its repeats.
    """
    refit = reps[0]["refit"]
    times = [at_reference_speed(r) if scaled else r["tick_ms"] for r in reps]
    per_tick = [lower_quartile(repeats) for repeats in zip(*times)]
    return {
        "all_ms": per_tick,
        "serve_ms": [ms for ms, r in zip(per_tick, refit) if not r],
        "refit_ms": [ms for ms, r in zip(per_tick, refit) if r],
    }


def checks(passes: list[dict], reps: list[dict]) -> dict[str, bool]:
    """Every verdict of the run; a False one fails it."""
    out: dict[str, bool] = {}
    for key in reps[0]["checks"]:
        out[key] = all(r["checks"][key] for r in reps)
    first = reps[0]
    for key in ("outputs", "counts", "refit"):
        out[f"{key}_identical_across_repeats"] = all(r[key] == first[key] for r in reps)
    out["served_predictions_finite"] = all(r["bad_ticks"] == 0 for r in reps)
    out["blas_pinned"] = all(p["machine"]["blas_threads"] in (1, None) for p in passes)
    traced = [p["trace"] for p in passes if p["traced"]]
    if traced:
        # self times of all spans add up to the outermost spans' time
        out["trace_self_times_add_up"] = all(
            abs(sum(t["self_s"].values()) - t["root_s"]) <= 1e-9 * max(t["root_s"], 1.0)
            for t in traced
        )
        out["trace_work_identical_across_passes"] = all(
            (t["calls"], t["units"]) == (traced[0]["calls"], traced[0]["units"])
            for t in traced
        )
    return out


def timings(passes: list[dict], ticks: dict, setup: str) -> dict[str, float]:
    first = passes[0]["repeats"][0]
    return {
        "throughput_rps": first["records"] / (sum(ticks["all_ms"]) / 1e3),
        "tick_p50_ms": percentile(ticks["serve_ms"], 50),
        "tick_p99_ms": percentile(ticks["serve_ms"], 99),
        "refit_stall_ms": statistics.median(ticks["refit_ms"]),
        "setup_s": statistics.median(p[setup] for p in passes),
    }


def end_to_end(passes: list[dict], ticks: dict) -> dict[str, float]:
    first = passes[0]["repeats"][0]
    return {
        **timings(passes, ticks, "setup_s"),
        "served_frac": first["outputs"]["served_frac"],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, tuple[float, str]]:
    traced = [p for p in passes if p["traced"]]
    plain = [r for p in passes if not p["traced"] for r in p["repeats"]]

    def per_tick_ms(p: dict, seconds: float) -> float:
        ticks = sum(len(r["tick_ms"]) for r in p["repeats"])
        return seconds / ticks * 1e3

    first = traced[0]["trace"]
    repeats = len(traced[0]["repeats"])
    metrics: dict[str, tuple[float, str]] = {
        name: (
            statistics.median(per_tick_ms(p, p["trace"]["self_s"].get(span, 0.0)) for p in traced),
            "ms",
        )
        for name, span in LAYER_MS.items()
    }
    for name in LAYER_COUNTS:
        metrics[name] = (traced[0]["repeats"][0]["counts"].get(name, 0), "count")
    # counts per repeat, like the layer counts above
    metrics["models.predict_rows"] = (first["units"].get("models.predict", 0) // repeats, "count")
    metrics["models.fit_calls"] = (first["calls"].get("models.fit", 0) // repeats, "count")
    metrics["models.fit_windows"] = (first["units"].get("models.fit", 0) // repeats, "count")
    metrics["trace.tick_ms"] = (
        statistics.median(per_tick_ms(p, p["trace"]["root_s"]) for p in traced),
        "ms",
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(map(throughput, plain))
        / statistics.median(throughput(r) for p in traced for r in p["repeats"])
        - 1.0,
        "ratio",
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"perfbench: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + BUDGET_S
    passes: list[dict] = []
    try:
        # the run's seconds are shared out evenly over the passes left
        for i in range(PASSES):
            traced = bool(args.trace) and i % 2 == 1
            seconds = (args.seconds - (time.perf_counter() - start)) / (PASSES - i)
            passes.append(run_pass(args.workload, args.seed, traced, seconds, deadline))
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reps = [r for p in passes for r in p["repeats"]]
    verdicts = checks(passes, reps)
    plain = [p for p in passes if not p["traced"]]
    plain_reps = [r for p in plain for r in p["repeats"]]
    ticks = tick_samples(plain_reps)
    # a run cut short by the time budget lacks the samples its metrics need
    verdicts["sample_floors_met"] = (
        len(ticks["refit_ms"]) >= MIN_REFIT_TICKS
        and len(ticks["serve_ms"]) >= MIN_SERVE_TICKS
    )
    attempted = sum(len(r["tick_ms"]) for r in reps)
    failed = sum(r["bad_ticks"] for r in reps) + sum(not ok for ok in verdicts.values())
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in per_layer(passes).items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value in end_to_end(passes, ticks).items()
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": passes[0]["machine"],
        "passes": len(passes),
        "traced_passes": len(passes) - len(plain),
        "repeats": len(reps),
        # median over the run of the reference loop's time / REFERENCE_US
        "host_speed": host_speed([us for r in plain_reps for us in r["reference_us"]]),
        # the timings unscaled, as the clock read them
        "raw": timings(plain, tick_samples(plain_reps, scaled=False), "setup_raw_s"),
        # distinct ticks behind each metric, each summarising `repeats_per_tick` repeats
        "samples": {
            "tick_p50_ms": len(ticks["serve_ms"]),
            "tick_p99_ms": len(ticks["serve_ms"]),
            "refit_stall_ms": len(ticks["refit_ms"]),
            "throughput_rps": len(ticks["all_ms"]),
            "repeats_per_tick": sum(len(p["repeats"]) for p in plain),
            "setup_s": len(passes),
            "peak_rss_mb": len(passes),
        },
        "wall_s": time.perf_counter() - start,
        "timed_s": sum(r["busy_s"] for r in reps),
        "outputs": reps[0]["outputs"],
        "checks": verdicts,
    }
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
