"""End-to-end wiring: trainer, serving, nn caches, and runner emit metrics."""

import numpy as np
import pytest

from repro.nn.layers import Linear, Sequential, Tanh
from repro.nn.losses import MSELoss
from repro.nn.optim import Adam
from repro.obs import trace
from repro.obs.registry import MetricRegistry
from repro.streaming import OnlinePredictor
from repro.training.trainer import Trainer


def _series(reg, name, **labels):
    want = tuple(sorted((k, str(v)) for k, v in labels.items()))
    for s in reg.collect():
        if s["name"] == name and (not want or s["labels"] == want):
            return s
    return None


def _stream(n=200, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 0.5 + 0.3 * np.sin(2 * np.pi * t / 50) + rng.normal(0, 0.02, n)


class TestTrainerWiring:
    @pytest.fixture
    def fitted(self, rng):
        reg = MetricRegistry()
        model = Sequential(Linear(2, 4, rng=rng), Tanh(), Linear(4, 1, rng=rng))
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.05), MSELoss(),
            grad_clip_norm=5.0, rng=rng, registry=reg,
        )
        x = rng.random((64, 2))
        y = (x @ np.array([0.5, -0.3]))[:, None]
        trace.default_tracer().clear()
        trainer.fit(x, y, x, y, epochs=3, batch_size=16)
        return reg

    def test_counters_and_histograms(self, fitted):
        assert _series(fitted, "training_epochs_total")["value"] == 3.0
        # 64 samples / batch 16 = 4 batches per epoch
        assert _series(fitted, "training_batches_total")["value"] == 12.0
        assert _series(fitted, "training_batch_seconds")["count"] == 12
        assert _series(fitted, "training_epoch_seconds")["count"] == 3

    def test_gauges(self, fitted):
        for name in ("training_loss", "training_val_loss", "training_grad_norm"):
            s = _series(fitted, name)
            assert s is not None and np.isfinite(s["value"])
        assert _series(fitted, "training_throughput_samples_per_sec")["value"] > 0

    def test_span_tree(self, fitted):
        root = trace.default_tracer().last
        assert root.name == "train.fit"
        assert root.counters["epochs"] == 3
        epochs = root.find("train.epoch")
        assert len(epochs) == 3
        assert all(sp.counters["batches"] == 4 for sp in epochs)
        # batch spans are off by default
        assert root.find("train.batch") == []

    def test_batch_spans_opt_in(self, rng):
        reg = MetricRegistry()
        model = Sequential(Linear(2, 4, rng=rng), Linear(4, 1, rng=rng))
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.05), MSELoss(),
            rng=rng, registry=reg, batch_spans=True,
        )
        x = rng.random((32, 2))
        y = x[:, :1]
        trace.default_tracer().clear()
        trainer.fit(x, y, epochs=1, batch_size=16)
        assert len(trace.default_tracer().last.find("train.batch")) == 2


class TestServingWiring:
    def test_latency_histogram_and_health(self):
        reg = MetricRegistry()
        pred = OnlinePredictor(
            "holt", window=8, buffer_capacity=150, refit_interval=50,
            min_fit_size=30, registry=reg,
        )
        n = 200
        pred.run(_stream(n))
        # the predictor is a one-stream fleet: one tick per record
        lat = _series(reg, "serving_fleet_tick_seconds")
        assert lat["count"] == n
        assert _series(reg, "serving_fleet_health_state")["value"] == 0.0
        assert _series(reg, "serving_fleet_records_total")["value"] == float(n)
        assert _series(reg, "serving_fleet_predictions_total")["value"] == float(
            pred.stats.n_predictions[0]
        )
        assert _series(reg, "serving_fleet_refits_total")["value"] == float(
            pred.stats.n_refits
        )
        # the retired per-record series are not exported any more
        names = {s["name"] for s in reg.collect()}
        assert not names & {"serving_process_seconds", "serving_health_state",
                            "serving_predictions_total", "serving_refits_total"}

    def test_gate_and_supervisor_counters_registered(self):
        reg = MetricRegistry()
        pred = OnlinePredictor(
            "holt", window=8, buffer_capacity=150, refit_interval=50,
            min_fit_size=30, registry=reg,
        )
        stream = _stream(120)
        stream[40] = np.nan
        pred.run(stream)
        assert _series(reg, "serving_gate_seen_total")["value"] == 120.0
        assert _series(reg, "serving_gate_records_total", action="quarantine")["value"] == 1.0
        assert _series(reg, "serving_gate_reasons_total", reason="empty")["value"] == 1.0
        retries = _series(reg, "serving_supervisor_calls_total", duty="refit")
        assert retries is not None and retries["value"] >= 1.0
        # registry counters agree with the gate's attribute views
        assert pred.gate.n_quarantined[0] == 1

    def test_serving_spans(self):
        pred = OnlinePredictor(
            "holt", window=8, buffer_capacity=100, refit_interval=40,
            min_fit_size=20, registry=MetricRegistry(), span_sample=1,
        )
        trace.default_tracer().clear()
        pred.run(_stream(60))
        root = trace.default_tracer().last
        assert root.name == "serving.fleet_run"
        assert root.counters["records"] == 60
        assert len(root.find("serving.fleet_tick")) == 60

    def test_serving_spans_sampled_by_default(self):
        pred = OnlinePredictor(
            "holt", window=8, buffer_capacity=100, refit_interval=40,
            min_fit_size=20, registry=MetricRegistry(),
        )
        trace.default_tracer().clear()
        pred.run(_stream(64))
        root = trace.default_tracer().last
        # 1-in-8 span sampling, but the histogram saw every record
        assert len(root.find("serving.fleet_tick")) == 8
        with pytest.raises(ValueError, match="span_sample"):
            OnlinePredictor("holt", window=8, buffer_capacity=100, span_sample=0)


class TestPlanCacheWiring:
    def test_plan_metrics_collected(self):
        from repro.nn._plans import plan_cache_stats, register_plan_metrics

        reg = MetricRegistry()
        register_plan_metrics(reg)
        names = {s["name"] for s in reg.collect()}
        assert "nn_plan_cache_hits_total" in names
        assert "nn_plan_cache_misses_total" in names
        assert "nn_plan_cache_size" in names
        stats = plan_cache_stats()
        assert set(stats) == {"gather_indices", "gather_indices_flat", "einsum_path"}
        hits = _series(reg, "nn_plan_cache_hits_total", cache="gather_indices")
        assert hits["value"] == float(stats["gather_indices"]["hits"])


class TestRunnerMetricsOut:
    def test_metrics_out_writes_prometheus_snapshot(self, tmp_path, monkeypatch):
        from repro.experiments import runner
        from repro.obs.registry import default_registry

        def fake(profile, ctx):
            default_registry().counter("runner_marker_total").inc()

        monkeypatch.setattr(runner, "_RUNNERS", {"fig1": fake})
        out = tmp_path / "m.prom"
        assert runner.main(["-e", "fig1", "-p", "quick", "--no-cache",
                            "--metrics-out", str(out)]) == 0
        text = out.read_text()
        assert "runner_marker_total" in text
        assert "# TYPE runner_marker_total counter" in text
