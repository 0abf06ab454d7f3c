"""Input gate, supervisor, fallback and health-status behaviour."""

import numpy as np
import pytest

from repro.streaming import (
    FleetGate,
    GatePolicy,
    HealthStatus,
    OnlinePredictor,
    Supervisor,
    SupervisorPolicy,
)
from repro.streaming.resilience import GATE_REASONS

_ACTIONS = ("accept", "impute", "quarantine")


def _stream(n=400, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 0.5 + 0.3 * np.sin(2 * np.pi * t / 50) + rng.normal(0, 0.02, n)


def _check(gate, record):
    """Gate one record as a one-stream tick -> ``(action, record, reason)``."""
    res = gate.check_tick(np.asarray(record, float)[None, :])
    return _ACTIONS[res.actions[0]], res.records[0], GATE_REASONS[res.reasons[0]]


class TestInputGate:
    """The input gate's per-record verdicts, on a one-stream FleetGate."""

    def test_clean_records_pass_untouched(self):
        gate = FleetGate(1, 2)
        rec = np.array([0.5, 0.7])
        action, record, _ = _check(gate, rec)
        assert action == "accept"
        np.testing.assert_array_equal(record, rec)
        assert gate.n_accepted[0] == 1 and gate.n_quarantined[0] == 0

    def test_all_nan_row_quarantined(self):
        gate = FleetGate(1, 2)
        _check(gate, [0.5, 0.7])
        action, _, reason = _check(gate, [np.nan, np.nan])
        assert action == "quarantine" and reason == "empty"
        assert gate.reasons(0)["empty"] == 1

    def test_partial_nan_imputed_from_last(self):
        gate = FleetGate(1, 2, GatePolicy(impute="last"))
        _check(gate, [0.5, 0.7])
        action, record, reason = _check(gate, [np.nan, 0.8])
        assert action == "impute" and reason == "missing"
        np.testing.assert_allclose(record, [0.5, 0.8])
        assert gate.n_imputed[0] == 1

    def test_partial_nan_imputed_from_mean(self):
        gate = FleetGate(1, 1, GatePolicy(impute="mean"))
        for v in (0.2, 0.4):
            _check(gate, [v])
        action, _, _ = _check(gate, [np.nan])
        assert action == "quarantine"  # univariate all-NaN row is empty
        gate2 = FleetGate(1, 2, GatePolicy(impute="mean"))
        _check(gate2, [0.2, 1.0])
        _check(gate2, [0.4, 1.0])
        action2, record2, _ = _check(gate2, [np.nan, 1.0])
        assert action2 == "impute"
        np.testing.assert_allclose(record2, [0.3, 1.0])

    def test_drop_policy_quarantines_missing(self):
        gate = FleetGate(1, 2, GatePolicy(impute="drop"))
        _check(gate, [0.5, 0.7])
        assert _check(gate, [np.nan, 0.8])[0] == "quarantine"

    def test_no_history_quarantines(self):
        gate = FleetGate(1, 2, GatePolicy(impute="last"))
        assert _check(gate, [np.nan, 0.8])[0] == "quarantine"
        assert gate.reasons(0)["no_history"] == 1

    def test_wrong_arity_quarantined_not_raised(self):
        """Malformed records reach the gate as all-NaN rows via the predictor."""
        pred = OnlinePredictor("mean", window=4, buffer_capacity=20, features=2)
        for record in (np.zeros(3), "garbage", None):
            rec = pred.process(record)
            assert rec.gated == "quarantined"
            assert np.isnan(rec.actual)
        assert pred.gate.n_quarantined[0] == 3
        assert pred.gate.reasons(0) == {"empty": 3}

    def test_outlier_quarantine_stays_adaptive(self):
        """Quarantined spikes must not freeze the running band (regime shifts
        would otherwise be quarantined forever)."""
        gate = FleetGate(1, 1, GatePolicy(outlier_sigma=4.0, outlier_action="quarantine"))
        rng = np.random.default_rng(0)
        for v in 0.5 + rng.normal(0, 0.05, 100):
            _check(gate, [v])
        assert _check(gate, [50.0])[0] == "quarantine"
        assert gate.reasons(0)["outlier"] == 1
        # a persistent (legitimate) shift is re-admitted once the band adapts
        admitted = [_check(gate, [2.0 + e])[0] for e in rng.normal(0, 0.05, 200)]
        assert "accept" in admitted

    def test_outlier_clamp_bounds_value(self):
        gate = FleetGate(1, 1, GatePolicy(outlier_sigma=3.0, outlier_action="clamp"))
        rng = np.random.default_rng(1)
        for v in 0.5 + rng.normal(0, 0.05, 100):
            _check(gate, [v])
        action, record, reason = _check(gate, [100.0])
        assert action == "impute" and reason == "outlier"
        assert record[0] < 1.5

    def test_state_roundtrip(self):
        gate = FleetGate(1, 2, GatePolicy(outlier_sigma=4.0))
        rng = np.random.default_rng(2)
        for _ in range(50):
            _check(gate, rng.random(2))
        _check(gate, [np.nan, 0.5])
        clone = FleetGate(1, 2, GatePolicy(outlier_sigma=4.0))
        clone.load_state_dict(gate.state_dict())
        rec = np.array([0.4, 0.6])
        assert _check(clone, rec)[0] == _check(gate, rec)[0]
        assert clone.n_imputed[0] == gate.n_imputed[0]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            GatePolicy(impute="bogus")
        with pytest.raises(ValueError):
            GatePolicy(outlier_sigma=-1.0)
        with pytest.raises(ValueError):
            GatePolicy(outlier_action="explode")
        with pytest.raises(ValueError):
            GatePolicy(prediction_sigma=0.0)


class TestSupervisor:
    def test_success_passthrough(self):
        sup = Supervisor(SupervisorPolicy(backoff_base=0.0))
        ok, value = sup.run(lambda: 42)
        assert ok and value == 42
        assert sup.consecutive_failures == 0

    def test_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("boom")
            return "ok"

        sup = Supervisor(SupervisorPolicy(max_retries=3, backoff_base=0.0))
        ok, value = sup.run(flaky)
        assert ok and value == "ok"
        assert calls["n"] == 3
        assert sup.total_retries == 2
        assert sup.consecutive_failures == 0

    def test_exhausted_retries_fail_without_raising(self):
        def always():
            raise ValueError("nope")

        sup = Supervisor(SupervisorPolicy(max_retries=1, backoff_base=0.0, fallback_after=2))
        assert sup.run(always) == (False, None)
        assert not sup.should_fall_back
        assert sup.run(always) == (False, None)
        assert sup.should_fall_back
        assert "nope" in sup.last_error

    def test_backoff_sequence(self):
        delays = []
        sup = Supervisor(
            SupervisorPolicy(max_retries=3, backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3),
            sleep=delays.append,
        )
        sup.run(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        assert delays == [0.1, 0.2, 0.3]  # exponential, capped

    def test_time_budget_stops_retries(self):
        calls = {"n": 0}

        def slow_fail():
            calls["n"] += 1
            import time

            time.sleep(0.02)
            raise RuntimeError("slow")

        sup = Supervisor(SupervisorPolicy(max_retries=50, backoff_base=0.0, time_budget=0.01))
        ok, _ = sup.run(slow_fail)
        assert not ok
        assert calls["n"] < 5  # budget cut the retry loop short

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(time_budget=0.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(fallback_after=0)


class TestNaNPoisoning:
    """Regression: one NaN record used to silently poison every later window."""

    def test_nan_records_are_counted_not_absorbed(self):
        stream = _stream(300)
        dirty = stream.copy()
        dirty[120:130] = np.nan
        pred = OnlinePredictor(
            "holt", window=8, buffer_capacity=200, refit_interval=50, min_fit_size=30
        )
        results = pred.run(dirty)
        # the run completes, MAE stays finite, and the poison is visible
        assert np.isfinite(pred.stats.mae)
        assert pred.stats.mae < 0.1
        assert pred.gate.n_quarantined == 10
        quarantined = [r for r in results if r.gated == "quarantined"]
        assert len(quarantined) == 10
        assert all(r.prediction is None for r in quarantined)
        # no NaN ever reached the rolling buffer
        assert np.isfinite(pred.fleet.buffer.view(0)).all()

    def test_nan_cell_imputed_in_multivariate_stream(self):
        base = _stream(200)
        records = np.column_stack([base, base])
        records[100, 1] = np.nan  # non-target cell lost
        pred = OnlinePredictor(
            "holt", window=8, buffer_capacity=150, refit_interval=60, min_fit_size=40,
            features=2,
        )
        results = pred.run(records)
        assert pred.gate.n_imputed == 1
        assert results[100].gated == "imputed"
        assert np.isfinite(pred.fleet.buffer.view(0)).all()


class TestFallbackAndHealth:
    def test_refit_failure_degrades_then_falls_back(self):
        pred = OnlinePredictor(
            "holt", window=6, buffer_capacity=200, refit_interval=30, min_fit_size=20,
            supervisor_policy=SupervisorPolicy(
                max_retries=0, backoff_base=0.0, fallback_after=1
            ),
            refit_fault_hook=self._always_fail,
        )
        results = pred.run(_stream(200))
        # primary never fits -> fallback serves everything past warmup
        assert pred.fleet.model is None
        assert pred.fleet.on_fallback
        assert pred.health is HealthStatus.FALLBACK
        assert pred.stats.n_refit_failures >= 1
        served = [r for r in results if r.prediction is not None]
        assert served, "fallback must keep serving predictions"
        assert all(r.health is HealthStatus.FALLBACK for r in served)
        assert np.isfinite(pred.stats.mae)

    @staticmethod
    def _always_fail():
        raise RuntimeError("injected")

    def test_recovery_after_transient_failures(self):
        state = {"n": 0}

        def fail_first_two():
            state["n"] += 1
            if state["n"] <= 2:
                raise RuntimeError("transient")

        pred = OnlinePredictor(
            "holt", window=6, buffer_capacity=200, refit_interval=30, min_fit_size=20,
            supervisor_policy=SupervisorPolicy(max_retries=0, backoff_base=0.0, fallback_after=5),
            refit_fault_hook=fail_first_two,
        )
        results = pred.run(_stream(300))
        assert pred.fleet.model is not None
        assert pred.health is HealthStatus.HEALTHY
        assert results[-1].health is HealthStatus.HEALTHY
        assert pred.stats.n_refit_failures == 2
        assert pred.stats.n_refits >= 1

    def test_healthy_run_has_healthy_records(self):
        pred = OnlinePredictor(
            "holt", window=8, buffer_capacity=200, refit_interval=50, min_fit_size=30
        )
        results = pred.run(_stream(150))
        assert all(r.health is HealthStatus.HEALTHY for r in results)

    def test_prediction_clamped_into_plausible_band(self):
        # constant stream, then ask a model that would extrapolate wildly:
        # force it by handing the fallback a spiked window via drift model
        pred = OnlinePredictor(
            "holt", window=6, buffer_capacity=120, refit_interval=40, min_fit_size=20,
            gate_policy=GatePolicy(prediction_sigma=3.0),
        )
        rng = np.random.default_rng(5)
        stream = np.concatenate([
            0.5 + rng.normal(0, 0.01, 100),
            [0.52, 5.0, 9.0],  # a runaway ramp holt will extrapolate
        ])
        pred.run(stream)
        # whatever the model wanted to emit, served values stayed in-band
        errors_ok = all(e < 20 for e in pred.stats.recent_errors(0))
        assert errors_ok
        assert pred.stats.n_clamped_predictions >= 1


class TestBoundedErrorHistory:
    def test_errors_bounded_by_default(self):
        pred = OnlinePredictor(
            "holt", window=6, buffer_capacity=150, refit_interval=60, min_fit_size=20,
            error_history=64,
        )
        pred.run(_stream(400))
        assert len(pred.stats.recent_errors(0)) == 64
        assert pred.stats.n_predictions[0] > 300  # aggregate stats keep counting
