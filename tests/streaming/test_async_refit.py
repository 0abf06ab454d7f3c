"""Async background refits: engine semantics, atomic swap, paced parity.

The load-bearing guarantees of ``repro.streaming.refit`` (ISSUE 9):

* the engine runs **one fit at a time** off the serving path — submit
  while busy is rejected (the caller's refit clock re-arms), failures
  come back as outcomes, never as serving-path exceptions;
* :class:`ModelSlot` publication is atomic — a reader on another thread
  sees a complete ``(version, model, step)`` triple, never a torn mix
  (hypothesis hammers this);
* under the paced schedule (the fit completes within the production
  tick gap) async serving is prediction-bit-identical to sync;
* free-running, a slow fit never blocks a tick;
* a checkpoint taken with a refit in flight restores deterministically:
  restore-then-replay equals the uninterrupted run;
* the refit clock resets when an attempt *starts* in every mode, so a
  ``BaseException`` escaping the fit cannot arm a refit storm
  (regression test for the ``_since_refit`` bug).
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.windowing import make_windows
from repro.models.base import (
    FORECASTER_REGISTRY,
    Forecaster,
    register_forecaster,
)
from repro.streaming import (
    AsyncRefitEngine,
    FleetPredictor,
    ModelSlot,
    OnlinePredictor,
    RefitTask,
    ShardedFleetPredictor,
)
from repro.streaming.drift import PageHinkley

#: quiet detector + small-but-real fleet config: scheduled refits fire,
#: drift never does, so refit activity is fully deterministic
_COMMON = dict(
    window=8,
    buffer_capacity=160,
    refit_interval=24,
    min_fit_size=24,
)


def _task(name="mean", n=40, seed=0, **kwargs) -> RefitTask:
    rng = np.random.default_rng(seed)
    series = rng.normal(0.5, 0.1, (n, 1))
    x, y = make_windows(series, series[:, 0], window=6)
    return RefitTask(name, dict(kwargs), x, y, step=7)


def _streams(ticks, n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(ticks, dtype=float)[:, None]
    return 0.5 + 0.1 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.02, (ticks, n))


@pytest.fixture
def slow_forecaster():
    """A registered forecaster whose fit takes a deliberate 50 ms."""

    @register_forecaster("_slow_mean_test")
    class SlowMean(Forecaster):
        def __init__(self, target_col=0, fit_sleep=0.05):
            super().__init__()
            self.target_col = target_col
            self.fit_sleep = fit_sleep
            self._mean = 0.0

        def fit(self, x, y, x_val=None, y_val=None):
            time.sleep(self.fit_sleep)
            self._mean = float(np.mean(y))
            self.fitted = True
            return self

        def predict(self, x):
            x = np.asarray(x)
            return np.full((len(x), 1), self._mean)

    yield "_slow_mean_test"
    FORECASTER_REGISTRY.pop("_slow_mean_test", None)


class TestEngine:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            AsyncRefitEngine("fibers")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_submit_fit_poll_roundtrip(self, backend):
        with AsyncRefitEngine(backend) as engine:
            task = _task()
            assert engine.submit(task)
            assert engine.wait(timeout=30.0)
            outcome = engine.poll()
            assert outcome is not None and outcome.ok
            assert outcome.task.step == 7
            assert outcome.fit_seconds >= 0.0
            pred = outcome.model.predict(task.x)
            assert np.isfinite(pred).all()
            # exactly one outcome per submit; nothing pending afterwards
            assert engine.poll() is None
            assert engine.pending_task() is None

    def test_busy_submit_rejected_until_outcome_consumed(self, slow_forecaster):
        with AsyncRefitEngine("thread") as engine:
            first = _task(slow_forecaster, fit_sleep=0.2)
            assert engine.submit(first)
            assert engine.busy
            # in flight -> rejected; the pending task is still the first
            assert not engine.submit(_task())
            assert engine.pending_task() is first
            assert engine.wait(timeout=30.0)
            # finished but unpolled still counts as pending (checkpointable)
            assert engine.pending_task() is first
            assert not engine.submit(_task())
            assert engine.poll().ok
            assert engine.submit(_task())

    def test_fit_failure_becomes_outcome_not_exception(self):
        with AsyncRefitEngine("thread") as engine:
            task = _task("_no_such_forecaster_")
            assert engine.submit(task)
            # the failed task stays pending until the caller adopts it
            assert engine.wait(timeout=30.0)
            assert engine.pending_task() is task
            outcome = engine.poll()
            assert not outcome.ok and outcome.model is None
            assert "unknown forecaster" in outcome.error

    def test_wait_timeout_returns_false(self, slow_forecaster):
        with AsyncRefitEngine("thread") as engine:
            assert engine.submit(_task(slow_forecaster, fit_sleep=0.3))
            assert not engine.wait(timeout=0.01)
            assert engine.wait(timeout=30.0)

    def test_close_is_idempotent_and_submit_after_close_raises(self):
        engine = AsyncRefitEngine("thread")
        engine.submit(_task())
        engine.wait(timeout=30.0)
        engine.close()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(_task())

    def test_task_checkpoint_roundtrip(self):
        task = _task("mean", seed=3)
        clone = RefitTask.from_state(task.state_dict())
        assert clone.forecaster_name == task.forecaster_name
        assert clone.step == task.step
        np.testing.assert_array_equal(clone.x, task.x)
        np.testing.assert_array_equal(clone.y, task.y)
        # the checkpoint payload copies the arrays, it does not alias them
        assert clone.x is not task.x


class _MarkedModel:
    """Stand-in model: every weight array carries its version marker."""

    def __init__(self, version: int, n_arrays: int):
        self.arrays = [np.full(16, float(version)) for _ in range(n_arrays)]


class TestModelSlotAtomicSwap:
    @settings(max_examples=20, deadline=None)
    @given(
        n_publishes=st.integers(min_value=2, max_value=40),
        n_arrays=st.integers(min_value=1, max_value=4),
    )
    def test_reader_never_sees_torn_model(self, n_publishes, n_arrays):
        """A racing reader sees complete (version, model, step) triples only.

        Every published model is built *before* publication with all its
        arrays stamped with the version number; a torn swap would show a
        version/marker mismatch, mixed markers across arrays, or a
        version moving backwards.
        """
        slot = ModelSlot()
        stop = threading.Event()
        violations: list[str] = []

        def reader():
            last_version = 0
            while not stop.is_set():
                version, model, step = slot.read()
                if version < last_version:
                    violations.append(f"version went backwards: {version}")
                last_version = version
                if model is None:
                    if version != 0:
                        violations.append("versioned cell with no model")
                    continue
                markers = {float(a[0]) for a in model.arrays}
                markers |= {float(v) for a in model.arrays for v in a}
                if markers != {float(version)}:
                    violations.append(f"torn model at version {version}: {markers}")
                if step != version:
                    violations.append(f"step {step} != version {version}")

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            for k in range(1, n_publishes + 1):
                assert slot.publish(_MarkedModel(k, n_arrays), step=k) == k
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not violations, violations[:5]
        version, model, step = slot.read()
        assert version == n_publishes and step == n_publishes
        assert float(model.arrays[0][0]) == float(n_publishes)


def _run_paced(predictor, streams):
    """Serve every tick, letting any background fit land between ticks."""
    out = []
    for row in streams:
        out.append(predictor.process_tick(row))
        if predictor.refit_engine is not None:
            assert predictor.refit_engine.wait(timeout=60.0)
    return out


class TestPacedParity:
    """Paced async must be prediction-bit-identical to sync serving."""

    def test_async_matches_sync_bit_for_bit(self):
        streams = _streams(130, 6)
        sync = FleetPredictor(
            6, "mlp", forecaster_kwargs={"epochs": 2, "seed": 0},
            detector=PageHinkley(threshold=1e9), **_COMMON,
        )
        asyn = FleetPredictor(
            6, "mlp", forecaster_kwargs={"epochs": 2, "seed": 0},
            detector=PageHinkley(threshold=1e9), refit_mode="async", **_COMMON,
        )
        try:
            sync_out = _run_paced(sync, streams)
            async_out = _run_paced(asyn, streams)
            for a, b in zip(sync_out, async_out):
                np.testing.assert_array_equal(a.predictions, b.predictions)
                np.testing.assert_array_equal(a.errors, b.errors)
                np.testing.assert_array_equal(a.health, b.health)
            assert sync.stats.fleet_mae == asyn.stats.fleet_mae
            assert sync.stats.n_refits == asyn.stats.n_refits > 0
            assert sync.model_version == asyn.model_version
            # same fits, adopted one tick later: sync marks the in-line
            # refit tick, async marks the swap tick right after it
            sync_ticks = [t.step for t in sync_out if t.refit]
            async_ticks = [t.step for t in async_out if t.refit]
            assert async_ticks == [s + 1 for s in sync_ticks]
        finally:
            sync.close()
            asyn.close()

    def test_model_version_monotone_and_staleness_anchored(self):
        streams = _streams(130, 4)
        fleet = FleetPredictor(
            4, "mean", detector=PageHinkley(threshold=1e9),
            refit_mode="async", **_COMMON,
        )
        try:
            out = _run_paced(fleet, streams)
            versions = [t.model_version for t in out]
            assert versions == sorted(versions)
            assert versions[-1] == fleet.model_version > 0
            # the staleness anchor tracks the pool's submission step
            assert 0 <= fleet._step - fleet._model_step <= _COMMON["refit_interval"] + 1
        finally:
            fleet.close()


class TestNeverBlocks:
    def test_slow_fit_never_stalls_a_tick(self, slow_forecaster):
        """Free-running: ticks stay orders of magnitude under the fit cost."""
        fit_sleep = 0.08
        streams = _streams(150, 4, seed=5)
        fleet = FleetPredictor(
            4, slow_forecaster, forecaster_kwargs={"fit_sleep": fit_sleep},
            detector=PageHinkley(threshold=1e9), refit_mode="async",
            refit_interval=10, window=8, buffer_capacity=160, min_fit_size=16,
        )
        latencies = []
        try:
            for row in streams:
                t0 = time.perf_counter()
                fleet.process_tick(row)
                latencies.append(time.perf_counter() - t0)
                time.sleep(0.002)  # tick gap, off the measured path
            assert fleet.model_version >= 1  # fits landed and were adopted
            assert fleet.stats.n_refits >= 1
            # triggers that fired mid-fit were deferred, not queued/blocked
            assert fleet.stats.n_refits_deferred >= 1
            assert max(latencies) < fit_sleep / 2, (
                f"a tick stalled {max(latencies) * 1e3:.1f} ms against a "
                f"{fit_sleep * 1e3:.0f} ms fit"
            )
        finally:
            fleet.close()


class TestCheckpointMidFlight:
    def test_restore_with_inflight_refit_replays_identically(self, tmp_path):
        """Snapshot taken while a fit is in flight; resume == uninterrupted."""
        streams = _streams(130, 5, seed=9)
        kwargs = dict(
            forecaster_kwargs={"epochs": 2, "seed": 0},
            detector=PageHinkley(threshold=1e9), refit_mode="async",
        )
        solo = FleetPredictor(5, "mlp", **{**kwargs, **_COMMON})
        solo_out = _run_paced(solo, streams)
        solo.close()

        fleet = FleetPredictor(5, "mlp", **{**kwargs, **_COMMON})
        out = []
        interrupted = False
        path = tmp_path / "fleet.ckpt"
        for row in streams:
            out.append(fleet.process_tick(row))
            if not interrupted and fleet.refit_engine.pending_task() is not None:
                # a refit is in flight right now: checkpoint, kill, restore
                fleet.save(path)
                fleet.close()
                fleet = FleetPredictor.restore(path)
                interrupted = True
            assert fleet.refit_engine.wait(timeout=60.0)
        assert interrupted, "no tick ever had a refit in flight"
        try:
            for a, b in zip(solo_out, out):
                np.testing.assert_array_equal(a.predictions, b.predictions)
                np.testing.assert_array_equal(a.errors, b.errors)
                assert a.refit == b.refit
                assert a.model_version == b.model_version
            assert fleet.stats.fleet_mae == solo.stats.fleet_mae
            assert fleet.model_version == solo.model_version
        finally:
            fleet.close()

    def test_pending_task_persisted_and_resubmitted(self, tmp_path, slow_forecaster):
        streams = _streams(60, 3, seed=2)
        fleet = FleetPredictor(
            3, slow_forecaster, forecaster_kwargs={"fit_sleep": 0.3},
            detector=PageHinkley(threshold=1e9), refit_mode="async",
            window=8, buffer_capacity=120, refit_interval=20, min_fit_size=16,
        )
        try:
            for row in streams:
                fleet.process_tick(row)
                if fleet.refit_engine.pending_task() is not None:
                    break
            task = fleet.refit_engine.pending_task()
            assert task is not None
            state = fleet.state_dict()
            assert state["pending_refit"] is not None
            assert state["pending_refit"]["step"] == task.step
        finally:
            fleet.close()
        restored = FleetPredictor(
            3, slow_forecaster,
            detector=PageHinkley(threshold=1e9), refit_mode="async",
            window=8, buffer_capacity=120, refit_interval=20, min_fit_size=16,
        )
        try:
            restored.load_state_dict(state)
            # the interrupted fit was resubmitted and completes
            assert restored.refit_engine.pending_task() is not None
            assert restored.refit_engine.wait(timeout=30.0)
        finally:
            restored.close()


class _Boom(BaseException):
    """Escapes the refit supervisor (which only catches Exception)."""


class TestRefitClockRegression:
    """`_since_refit` resets when the attempt STARTS, in every mode.

    Before the fix, a BaseException escaping the fit left the clock
    unreset, so the ``scheduled`` trigger re-fired a refit on every
    subsequent tick — a refit storm exactly when the system was already
    in trouble.
    """

    @staticmethod
    def _arm(predictor):
        fired = {"n": 0}

        def hook():
            fired["n"] += 1
            raise _Boom("operator interrupt mid-refit")

        predictor.refit_fault_hook = hook
        return fired

    def _check_no_storm(self, predictor, tick_fn, interval):
        fired = self._arm(predictor)
        with pytest.raises(_Boom):
            for _ in range(interval + 2):
                tick_fn()
        assert fired["n"] == 1
        assert predictor._since_refit == 0  # clock reset at attempt start
        predictor.refit_fault_hook = None
        calls = predictor.refit_supervisor.n_calls
        # the next attempt is a full interval away, not next tick
        for _ in range(interval - 2):
            tick_fn()
        assert predictor.refit_supervisor.n_calls == calls
        for _ in range(4):
            tick_fn()
        assert predictor.refit_supervisor.n_calls > calls

    def test_sync_fleet(self):
        fleet = FleetPredictor(
            2, "mean", detector=PageHinkley(threshold=1e9), **_COMMON
        )
        rows = iter(_streams(400, 2))
        fleet.run(_streams(40, 2, seed=1))  # warm up: model fitted
        assert fleet.model is not None
        self._check_no_storm(
            fleet, lambda: fleet.process_tick(next(rows)), _COMMON["refit_interval"]
        )

    def test_async_fleet(self):
        fleet = FleetPredictor(
            2, "mean", detector=PageHinkley(threshold=1e9),
            refit_mode="async", **_COMMON,
        )
        rows = iter(_streams(400, 2))
        try:
            _run_paced(fleet, _streams(40, 2, seed=1))
            assert fleet.model is not None

            def tick():
                fleet.process_tick(next(rows))
                fleet.refit_engine.wait(timeout=60.0)

            self._check_no_storm(fleet, tick, _COMMON["refit_interval"])
        finally:
            fleet.close()

    def test_scalar_predictor(self):
        predictor = OnlinePredictor(
            "mean", detector=PageHinkley(threshold=1e9), **_COMMON
        )
        rows = iter(_streams(400, 1))
        predictor.run(_streams(40, 1, seed=1)[:, 0])
        assert predictor.fleet.model is not None
        self._check_no_storm(
            predictor.fleet,
            lambda: predictor.process(next(rows)),
            _COMMON["refit_interval"],
        )


class TestShardedAsync:
    def test_fleet_kwargs_carry_async_mode_per_shard(self):
        """Each shard runs its own async engine; versions compose as min."""
        streams = _streams(120, 4, seed=3)
        fleet = ShardedFleetPredictor(
            4, shards=2, forecaster_name="mean", refit_mode="async",
            window=8, buffer_capacity=160, refit_interval=16, min_fit_size=16,
        )
        try:
            out = [fleet.process_tick(row) for row in streams]
            versions = [t.model_version for t in out]
            assert versions[-1] >= 1  # every shard swapped at least once
            assert versions == sorted(versions)  # min over shards is monotone
            assert out[-1].served.all()
        finally:
            fleet.close()
