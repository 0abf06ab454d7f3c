"""Fleet serving: N=1 bit-parity with a frozen scalar oracle, multi-stream semantics.

The load-bearing guarantee of ``repro.streaming.fleet`` is that the
vectorized path is not an approximation: with one stream, every record —
prediction, error, health, gate verdict, refit/drift flags — plus the
final statistics and gate counters are bit-identical to the per-record
scalar predictor and per-stream scalar input gate the fleet replaced,
including across a checkpoint/restore mid-stream. On top of that,
per-stream isolation (one stream's faults never touch a neighbour's
history) and fleet-wide checkpointing are covered here.

The scalar oracle survives as the golden fixture ``data/scalar_golden.npz``,
generated once at commit c14922f8329be96c1266c4a2c8666cf75c157004 (the
last commit with the scalar classes) by this recipe, with
``np.savez_compressed``:

* ``stream_seed7`` / ``stream_seed11``: 320 records of a sinusoid
  (``50 + 10 sin(2 pi t / 24)`` + N(0, 1.5) noise, +20 from t=220) with
  5 NaNs and 5 sixfold spikes at ``rng.choice(arange(10, 320), 10)``,
  drawn from ``np.random.default_rng(seed)``;
* ``pred_{holt,mean,persistence}_*``: the scalar ``OnlinePredictor``
  (window=8, buffer_capacity=120, refit_interval=40, min_fit_size=24)
  with the three forecaster/gate-policy pairs of
  :class:`TestSingleStreamBitParity`, fed ``stream_seed7`` one record at
  a time; ``pred_ckpt_*``: holt over ``stream_seed11``, saved and
  restored from its own checkpoint after record 150. Per record: step,
  prediction and error (NaN for None), actual, refit, drift, health level
  (0 healthy .. 3 recovering) and gate verdict (0 clean, 1 imputed,
  2 quarantined); at the end: the integer stats named in ``stat_names``,
  ``sum_abs_error`` / ``sum_sq_error``, the gate counters (seen,
  accepted, imputed, quarantined) and the reason tallies named in
  ``reason_names``;
* ``gate_ticks``: 200 ticks x 5 streams x 2 features of N(10, 2) from
  ``default_rng(17)``, 3% of cells NaN, 2% of rows scaled by 9;
  ``gate{k}_*``: five scalar ``InputGate`` instances (one per stream)
  under the k-th policy of :class:`TestFleetGateParity`: per-tick
  actions, repaired records (NaN when quarantined), final
  accepted/imputed/quarantined counts, reason tallies and the Welford
  ``mean`` / ``m2`` moments.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.models.base import Forecaster
from repro.obs.registry import MetricRegistry
from repro.streaming import (
    FleetPredictor,
    HealthStatus,
    MatrixRingBuffer,
    OnlinePredictor,
    SupervisorPolicy,
)
from repro.streaming.checkpoint import CheckpointError
from repro.streaming.drift import PageHinkley
from repro.streaming.resilience import (
    GATE_QUARANTINE,
    FleetGate,
    GatePolicy,
)

GOLDEN = np.load(Path(__file__).parent / "data" / "scalar_golden.npz")


def _tick_columns(ticks):
    """Stream 0 of each tick, as the fixture's per-record columns."""
    return {
        "step": np.array([t.step for t in ticks]),
        "prediction": np.array([t.predictions[0] for t in ticks]),
        "actual": np.array([t.actuals[0] for t in ticks]),
        "error": np.array([t.errors[0] for t in ticks]),
        "refit": np.array([t.refit for t in ticks]),
        "drift": np.array([t.drift[0] for t in ticks]),
        "health": np.array([t.health[0] for t in ticks]),
        "gated": np.array([t.gated[0] for t in ticks]),
    }


def _assert_matches_golden(prefix, columns, fleet):
    """Exact (no-tolerance) equality with the frozen scalar run."""
    for name, got in columns.items():
        np.testing.assert_array_equal(got, GOLDEN[prefix + name], err_msg=name)
    st = fleet.stats
    stats = [int(np.sum(getattr(st, name))) for name in GOLDEN["stat_names"]]
    np.testing.assert_array_equal(stats, GOLDEN[prefix + "stats"])
    assert st.sum_abs_error[0] == GOLDEN[prefix + "sum_abs_error"]
    assert st.sum_sq_error[0] == GOLDEN[prefix + "sum_sq_error"]
    gate = fleet.gate
    counts = [gate.n_seen[0], gate.n_accepted[0], gate.n_imputed[0], gate.n_quarantined[0]]
    np.testing.assert_array_equal(counts, GOLDEN[prefix + "gate_counts"])
    reasons = gate.reasons(0)
    np.testing.assert_array_equal(
        [reasons[name] for name in GOLDEN["reason_names"]], GOLDEN[prefix + "gate_reasons"]
    )


_COMMON = dict(
    window=8,
    buffer_capacity=120,
    refit_interval=40,
    min_fit_size=24,
)


class TestSingleStreamBitParity:
    @pytest.mark.parametrize(
        "forecaster,policy",
        [
            ("holt", None),
            (
                "mean",
                GatePolicy(
                    impute="mean",
                    outlier_action="clamp",
                    outlier_sigma=3.0,
                    prediction_sigma=2.5,
                ),
            ),
            ("persistence", GatePolicy(impute="drop")),
        ],
    )
    def test_corrupt_stream_records_identical(self, forecaster, policy):
        fleet = FleetPredictor(1, forecaster, gate_policy=policy, **_COMMON)
        fticks = [fleet.process_tick(np.array([[v]])) for v in GOLDEN["stream_seed7"]]
        _assert_matches_golden(f"pred_{forecaster}_", _tick_columns(fticks), fleet)

    def test_checkpoint_restore_midstream_stays_identical(self, tmp_path):
        fleet = FleetPredictor(1, "holt", detector=PageHinkley(), **_COMMON)
        fticks = []
        for i, v in enumerate(GOLDEN["stream_seed11"]):
            fticks.append(fleet.process_tick(np.array([[v]])))
            if i == 150:
                fleet.save(tmp_path / "fleet.ckpt")
                fleet = FleetPredictor.restore(tmp_path / "fleet.ckpt")
        _assert_matches_golden("pred_ckpt_", _tick_columns(fticks), fleet)

    def test_online_predictor_records_match_golden(self):
        """The per-record adapter emits the same records as the fleet."""
        pred = OnlinePredictor("holt", **_COMMON)
        recs = pred.run(GOLDEN["stream_seed7"])
        nan = float("nan")
        columns = {
            "step": np.array([r.step for r in recs]),
            "prediction": np.array([nan if r.prediction is None else r.prediction for r in recs]),
            "actual": np.array([r.actual for r in recs]),
            "error": np.array([nan if r.error is None else r.error for r in recs]),
            "refit": np.array([r.refit for r in recs]),
            "drift": np.array([r.drift for r in recs]),
            "gated": np.array([{None: 0, "imputed": 1, "quarantined": 2}[r.gated] for r in recs]),
        }
        assert all(r.health is HealthStatus.HEALTHY for r in recs)
        assert not GOLDEN["pred_holt_health"].any()
        _assert_matches_golden("pred_holt_", columns, pred.fleet)


class TestMultiStream:
    def test_per_stream_fault_isolation(self):
        """A NaN row quarantines its own stream; neighbours keep serving."""
        rng = np.random.default_rng(3)
        ticks = rng.normal(0.5, 0.05, (120, 4))
        ticks[60, 1] = np.nan  # stream 1 misses one tick
        fleet = FleetPredictor(4, "mean", **_COMMON)
        out = fleet.run(ticks)
        hit = out[60]
        assert hit.gated[1] == GATE_QUARANTINE
        assert not np.isfinite(hit.predictions[1])
        assert hit.served[[0, 2, 3]].all()
        # the quarantined record never entered stream 1's history
        assert int(fleet.buffer.sizes[1]) == len(ticks) - 1
        assert int(fleet.gate.n_quarantined.sum()) == 1
        # every other stream served every post-warmup tick
        assert int(fleet.stats.n_predictions[0]) > 90

    def test_shared_model_serves_all_streams_per_tick(self):
        rng = np.random.default_rng(5)
        ticks = rng.normal(0.5, 0.05, (80, 16))
        # quiet detector: only the initial fit + the scheduled refit fire
        fleet = FleetPredictor(
            16, "holt", detector=PageHinkley(threshold=1e9), **_COMMON
        )
        out = fleet.run(ticks)
        # once fitted, a tick serves the whole fleet from one forward
        assert out[-1].served.all()
        # refits are coalesced fleet-wide: first fit at min_fit_size=24,
        # one scheduled refit 40 absorbing ticks later — never per stream
        assert fleet.stats.n_refits == 2
        assert sum(t.refit for t in out) == 2

    def test_fleet_checkpoint_roundtrip_multi_stream(self, tmp_path):
        rng = np.random.default_rng(9)
        ticks = rng.normal(0.5, 0.08, (140, 6))
        ticks[rng.random(ticks.shape) < 0.01] = np.nan
        ticks[0] = 0.5

        solo = FleetPredictor(6, "holt", **_COMMON)
        solo_out = solo.run(ticks)

        fleet = FleetPredictor(6, "holt", **_COMMON)
        resumed_out = fleet.run(ticks[:70])
        fleet.save(tmp_path / "fleet.ckpt")
        restored = FleetPredictor.restore(tmp_path / "fleet.ckpt")
        resumed_out += restored.run(ticks[70:])

        for a, b in zip(solo_out, resumed_out):
            np.testing.assert_array_equal(a.predictions, b.predictions)
            np.testing.assert_array_equal(a.errors, b.errors)
            np.testing.assert_array_equal(a.health, b.health)
            np.testing.assert_array_equal(a.gated, b.gated)
            assert a.refit == b.refit
        np.testing.assert_array_equal(
            solo.buffer.state_dict()["data"], restored.buffer.state_dict()["data"]
        )

    def test_restore_rejects_mismatched_config(self, tmp_path):
        fleet = FleetPredictor(3, "mean", **_COMMON)
        fleet.run(np.full((20, 3), 0.5))
        fleet.save(tmp_path / "fleet.ckpt")
        with pytest.raises(CheckpointError, match="mismatch"):
            FleetPredictor.restore(tmp_path / "fleet.ckpt", n_streams=4)

    def test_records_materialize_per_stream(self):
        fleet = FleetPredictor(3, "mean", **_COMMON)
        out = fleet.run(np.full((40, 3), 0.5) + np.arange(3) * 0.1)
        recs = out[-1].records()
        assert len(recs) == 3
        assert all(r.step == 39 for r in recs)
        assert recs[2].actual == pytest.approx(0.7)


class TestValidation:
    def test_constructor_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="n_streams"):
            FleetPredictor(0, "mean")
        with pytest.raises(TypeError, match="PageHinkley"):

            class Custom(PageHinkley):
                pass

            FleetPredictor(2, "mean", detector=Custom())

    def test_tick_shape_enforced(self):
        fleet = FleetPredictor(3, "mean", **_COMMON)
        with pytest.raises(ValueError, match="expected tick"):
            fleet.process_tick(np.zeros((2, 1)))


_GATE_POLICIES = [
    None,
    GatePolicy(impute="mean", outlier_action="clamp", outlier_sigma=3.0),
    GatePolicy(impute="last", outlier_action="quarantine", outlier_sigma=2.5),
    GatePolicy(impute="drop"),
]


class TestFleetGateParity:
    @pytest.mark.parametrize("policy", _GATE_POLICIES)
    def test_tick_verdicts_match_scalar_gates(self, policy):
        """check_tick == the frozen per-stream scalar gates, exactly."""
        prefix = f"gate{_GATE_POLICIES.index(policy)}_"
        ticks = GOLDEN["gate_ticks"]
        streams, features = ticks.shape[1:]
        fleet = FleetGate(streams, features, policy)
        actions = np.empty(ticks.shape[:2], dtype=np.int8)
        records = np.empty(ticks.shape)
        for t, tick in enumerate(ticks):
            res = fleet.check_tick(tick)
            actions[t] = res.actions
            records[t] = np.where(res.accepted[:, None], res.records, np.nan)
        np.testing.assert_array_equal(actions, GOLDEN[prefix + "actions"])
        np.testing.assert_array_equal(records, GOLDEN[prefix + "records"])
        counts = np.stack([fleet.n_accepted, fleet.n_imputed, fleet.n_quarantined], axis=1)
        np.testing.assert_array_equal(counts, GOLDEN[prefix + "counts"])
        reasons = [[fleet.reasons(i)[r] for r in GOLDEN["reason_names"]] for i in range(streams)]
        np.testing.assert_array_equal(reasons, GOLDEN[prefix + "reasons"])
        state = fleet.state_dict()
        np.testing.assert_array_equal(state["mean"], GOLDEN[prefix + "mean"])
        np.testing.assert_array_equal(state["m2"], GOLDEN[prefix + "m2"])


class _ExplodingForecaster(Forecaster):
    """Fits fine, always blows up at predict time."""

    name = "exploding"

    def fit(self, x, y, x_val=None, y_val=None):
        self.fitted = True
        return self

    def predict(self, x):
        raise RuntimeError("boom")


class _NaNForecaster(Forecaster):
    """Fits fine, always forecasts NaN."""

    name = "nan_forecaster"

    def fit(self, x, y, x_val=None, y_val=None):
        self.fitted = True
        return self

    def predict(self, x):
        return np.full((len(x), 1), np.nan)


class _UnfittableForecaster(Forecaster):
    """Raises at fit time."""

    name = "unfittable"

    def fit(self, x, y, x_val=None, y_val=None):
        raise RuntimeError("cannot fit")

    def predict(self, x):  # pragma: no cover - never fitted
        raise AssertionError("unreachable")


@pytest.fixture
def registered(monkeypatch):
    """Register test forecasters by name for the duration of one test."""
    from repro.models.base import FORECASTER_REGISTRY

    return lambda cls: monkeypatch.setitem(FORECASTER_REGISTRY, cls.name, cls)


class TestFallbackPredictFailures:
    """The fallback path counts its own failures."""

    @staticmethod
    def _break(predictor):
        predictor.model = _ExplodingForecaster()
        predictor.fallback_model = _ExplodingForecaster()
        return predictor

    def test_scalar_counts_double_failure(self):
        predictor = OnlinePredictor("mean", **_COMMON)
        predictor.run(np.full(40, 0.5))
        self._break(predictor.fleet)
        before = int(predictor.stats.n_fallback_predict_failures[0])
        rec = predictor.process(np.array([0.5]))
        assert rec.prediction is None
        assert predictor.stats.n_fallback_predict_failures[0] == before + 1
        assert predictor.stats.n_predict_failures[0] >= 1
        # the counter survives a checkpoint roundtrip
        state = predictor.stats.state_dict()
        assert state["n_fallback_predict_failures"][0] == before + 1

    def test_fleet_counts_double_failure_per_stream(self):
        predictor = FleetPredictor(2, "mean", **_COMMON)
        predictor.run(np.full((40, 2), 0.5))
        self._break(predictor)
        tick = predictor.process_tick(np.array([[0.5], [0.5]]))
        assert not tick.served.any()
        np.testing.assert_array_equal(
            predictor.stats.n_fallback_predict_failures, [1, 1]
        )

    def test_nan_fallback_forecast_is_a_fallback_failure(self, registered):
        """A dropped non-finite fallback forecast is not a served fallback one."""
        registered(_ExplodingForecaster)
        registered(_NaNForecaster)
        n = 200
        predictor = FleetPredictor(
            2, "exploding", fallback_forecaster="nan_forecaster", **_COMMON
        )
        out = predictor.run(np.full((n, 2), 0.5) + np.arange(2) * 0.1)
        st = predictor.stats
        assert not any(t.served.any() for t in out)
        np.testing.assert_array_equal(st.n_fallback_predictions, [0, 0])
        assert st.total_fallback_predictions == 0
        # every due row: one primary failure, one fallback failure, no double count
        due = st.n_predict_failures
        assert (due > 0).all()
        np.testing.assert_array_equal(st.n_fallback_predict_failures, due)
        # unserved rows carry the fleet's health, never FALLBACK
        fallback = 2
        assert not any((t.health == fallback).any() for t in out)


class TestFallbackFitFailures:
    """A fallback that cannot be fitted is counted, persisted and exported."""

    def _failing_fleet(self, registered, **kwargs):
        registered(_UnfittableForecaster)
        return FleetPredictor(
            2,
            "holt",
            fallback_forecaster="unfittable",
            supervisor_policy=SupervisorPolicy(max_retries=0, backoff_base=0.0),
            refit_fault_hook=_always_fail,
            **kwargs,
            **_COMMON,
        )

    def test_counted_persisted_and_exported(self, registered):
        registry = MetricRegistry()
        fleet = self._failing_fleet(registered, registry=registry)
        fleet.run(np.full((60, 2), 0.5))
        n = fleet.stats.n_fallback_fit_failures
        # every failed primary refit tried (and failed) to fit the fallback
        assert n == fleet.stats.n_refit_failures > 0
        assert fleet.fallback_model is None and not fleet.on_fallback
        series = [
            s["value"]
            for s in registry.snapshot()["series"]
            if s["name"] == "serving_fleet_fallback_fit_failures_total"
        ]
        assert series == [float(n)]
        state = fleet.state_dict()
        assert state["stats"]["n_fallback_fit_failures"] == n
        clone = self._failing_fleet(registered, registry=MetricRegistry())
        clone.load_state_dict(state)
        assert clone.stats.n_fallback_fit_failures == n

    def test_older_checkpoints_load_as_zero(self, registered):
        fleet = self._failing_fleet(registered, registry=MetricRegistry())
        fleet.run(np.full((60, 2), 0.5))
        state = fleet.state_dict()
        del state["stats"]["n_fallback_fit_failures"]
        fleet.load_state_dict(state)
        assert fleet.stats.n_fallback_fit_failures == 0


def _always_fail():
    raise RuntimeError("injected")


class TestMatrixRingBufferEdges:
    def test_last_windows_requires_enough_history(self):
        buf = MatrixRingBuffer(2, 8, 1)
        buf.append_tick(np.ones((2, 1)), mask=np.array([True, False]))
        with pytest.raises(ValueError, match="records"):
            buf.last_windows(np.array([1]), 1)
        np.testing.assert_array_equal(buf.last_windows(np.array([0]), 1),
                                      np.ones((1, 1, 1)))

    def test_out_buffer_receives_gather_with_cast(self):
        buf = MatrixRingBuffer(3, 4, 2)
        for k in range(6):
            buf.append_tick(np.full((3, 2), float(k)))
        out = np.empty((2, 3, 2), dtype=np.float32)
        got = buf.last_windows(np.array([0, 2]), 3, out=out)
        assert got is out
        np.testing.assert_array_equal(out[0, :, 0], [3.0, 4.0, 5.0])

    def test_state_roundtrip(self):
        buf = MatrixRingBuffer(2, 3, 1)
        for k in range(5):
            buf.append_tick(np.full((2, 1), float(k)),
                            mask=np.array([True, k % 2 == 0]))
        clone = MatrixRingBuffer(2, 3, 1)
        clone.load_state_dict(buf.state_dict())
        np.testing.assert_array_equal(clone.view(0), buf.view(0))
        np.testing.assert_array_equal(clone.view(1), buf.view(1))
        bad = MatrixRingBuffer(2, 4, 1)
        with pytest.raises(ValueError, match="mismatch"):
            bad.load_state_dict(buf.state_dict())


class TestErrorQuantiles:
    """Per-stream residual bands — the cluster autoscaler's calibration feed."""

    def _stats(self):
        from repro.streaming.fleet import _FleetStats

        stats = _FleetStats(streams=3, error_history=64)
        # stream 0 gets 20 scored errors, stream 1 gets 3, stream 2 none
        for k in range(20):
            mask = np.array([True, k < 3, False])
            stats.errors.append_tick(np.full((3, 1), float(k)), mask=mask)
        return stats

    def test_min_count_gates_uncalibrated_streams(self):
        stats = self._stats()
        q = stats.error_quantiles(0.5, min_count=10)
        assert np.isfinite(q[0]) and np.isnan(q[1]) and np.isnan(q[2])
        q_all = stats.error_quantiles(0.5, min_count=1)
        assert np.isfinite(q_all[:2]).all() and np.isnan(q_all[2])

    def test_quantile_value_matches_numpy(self):
        stats = self._stats()
        q = stats.error_quantiles(0.9, min_count=10)
        assert q[0] == pytest.approx(np.quantile(np.arange(20.0), 0.9))

    def test_validation(self):
        stats = self._stats()
        with pytest.raises(ValueError, match="tau"):
            stats.error_quantiles(1.0)
        with pytest.raises(ValueError, match="min_count"):
            stats.error_quantiles(0.5, min_count=0)
