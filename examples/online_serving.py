"""Real-time prediction serving with drift refits, faults and restarts.

The paper's §V-C: "further apply the model to the real-time resource
usage prediction". This example replays a container stream that mutates
mid-way through an OnlinePredictor — but through the *hostile* version
of that stream the paper describes in §III-A: records are dropped,
NaN'd, duplicated and spiked by a FaultInjector, and refits randomly
crash. The resilient serving loop quarantines the poison, retries the
refits, and keeps serving; half-way through we checkpoint the predictor,
throw it away, and resume from the artifact as a restarted process
would.

Run:  python examples/online_serving.py
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.analysis.reporting import format_table, render_ascii_series
from repro.streaming import (
    FaultConfig,
    FaultInjector,
    GatePolicy,
    OnlinePredictor,
    PageHinkley,
    SupervisorPolicy,
)
from repro.traces import ClusterTraceGenerator, TraceConfig


def make_predictor(refit_fault_hook=None) -> OnlinePredictor:
    return OnlinePredictor(
        "holt",
        window=12,
        buffer_capacity=400,
        refit_interval=120,
        min_fit_size=60,
        detector=PageHinkley(threshold=0.25, min_instances=30),
        gate_policy=GatePolicy(outlier_sigma=4.0, outlier_action="quarantine"),
        supervisor_policy=SupervisorPolicy(max_retries=2, backoff_base=0.0),
        refit_fault_hook=refit_fault_hook,
    )


def main() -> None:
    gen = ClusterTraceGenerator(TraceConfig(n_steps=900, seed=31))
    entity = gen.generate_entity(
        "mutation", entity_id="c_live", low=0.3, high=0.7, jump_at=0.55, noise=0.03,
        preview_rate=0.0,  # the high regime is genuinely unseen until the jump
    )
    stream = entity.cpu / 100.0
    print("incoming stream (CPU fraction), mutation near sample 495:")
    print(render_ascii_series(stream, label="demand"))

    # damage the stream the way a real monitoring pipeline would
    injector = FaultInjector(
        FaultConfig(
            drop_rate=0.02, nan_row_rate=0.02, duplicate_rate=0.01,
            outlier_rate=0.02, refit_failure_rate=0.3, seed=7,
        )
    )
    faulted = list(injector.stream(stream[:, None]))
    half = len(faulted) // 2

    predictor = make_predictor(refit_fault_hook=injector.refit_fault)
    t0 = time.perf_counter()
    results = [predictor.process(r) for r in faulted[:half]]

    # --- simulated crash: checkpoint, drop the object, restore -------------
    ckpt = os.path.join(tempfile.gettempdir(), "online_serving.ckpt")
    predictor.save(ckpt)
    del predictor
    restored = OnlinePredictor.restore(ckpt, refit_fault_hook=injector.refit_fault)
    results += [restored.process(r) for r in faulted[half:]]
    elapsed = time.perf_counter() - t0
    os.unlink(ckpt)

    drifts = [r.step for r in results if r.drift]
    preds = np.array([r.prediction if r.prediction is not None else np.nan
                      for r in results])
    print("\nserved predictions (gaps = warmup/quarantine):")
    print(render_ascii_series(preds[~np.isnan(preds)], label="predicted"))

    # the predictor is a one-stream fleet: per-stream stats are (1,) arrays
    stats, gate = restored.stats, restored.gate
    rows = [
        ["records emitted (after faults)", len(results)],
        ["predictions served", int(stats.n_predictions[0])],
        ["online (prequential) MAE", f"{stats.mae[0]:.4f}"],
        ["refits / refit failures", f"{stats.n_refits} / {stats.n_refit_failures}"],
        ["drift events", str(drifts)],
        ["quarantined / imputed records", f"{gate.n_quarantined[0]} / {gate.n_imputed[0]}"],
        ["quarantine reasons", dict(gate.reasons(0))],
        ["injected faults", injector.counts],
        ["final health", restored.health.value],
        ["throughput", f"{len(results) / elapsed:,.0f} records/s"],
    ]
    print("\n" + format_table(["metric", "value"], rows, title="Resilient serving summary"))
    print("\nThe checkpoint/restore in the middle is invisible in the metrics: "
          "the restored process carries the buffer, model, drift detector and "
          "counters forward bit-for-bit. Note the drift event right after the "
          "mutation, and that every injected fault shows up in a counter "
          "instead of a stack trace.")


if __name__ == "__main__":
    main()
