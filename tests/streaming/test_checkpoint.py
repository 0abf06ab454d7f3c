"""Checkpoint artifact integrity plus the end-to-end resilience test.

The acceptance criterion for resilient serving: replay a corrupted
trace through an OnlinePredictor, kill it and restore from a checkpoint
mid-stream, and assert (a) no unhandled exception, (b) post-restore
predictions match the uninterrupted run, (c) MAE degrades gracefully as
the corruption rate rises.
"""

import numpy as np
import pytest

from repro.streaming import (
    CheckpointError,
    FaultConfig,
    FaultInjector,
    FleetPredictor,
    GatePolicy,
    OnlinePredictor,
    SupervisorPolicy,
    read_checkpoint,
    write_checkpoint,
)


def _stream(n=600, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 0.5 + 0.25 * np.sin(2 * np.pi * t / 60) + rng.normal(0, 0.02, n)


def _predictor(**overrides):
    kwargs = dict(
        forecaster_name="holt",
        window=8,
        buffer_capacity=150,
        refit_interval=40,
        min_fit_size=30,
    )
    kwargs.update(overrides)
    return OnlinePredictor(**kwargs)


class TestArtifact:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "state.ckpt"
        state = {"a": 1, "arr": np.arange(5.0)}
        write_checkpoint(path, state)
        loaded = read_checkpoint(path)
        assert loaded["a"] == 1
        np.testing.assert_array_equal(loaded["arr"], np.arange(5.0))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "nope.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMYFMT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        path.write_bytes(b"RPTCNC")
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        write_checkpoint(path, {"x": list(range(1000))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_corrupt_payload_detected_by_digest(self, tmp_path):
        path = tmp_path / "flip.ckpt"
        write_checkpoint(path, {"x": list(range(1000))})
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # flip a bit inside the pickle payload
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="integrity"):
            read_checkpoint(path)

    def test_no_partial_file_on_failed_write(self, tmp_path):
        path = tmp_path / "atomic.ckpt"
        write_checkpoint(path, {"v": 1})

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("cannot pickle")

        with pytest.raises(RuntimeError):
            write_checkpoint(path, {"v": Unpicklable()})
        # the old artifact survives intact and no temp litter remains
        assert read_checkpoint(path)["v"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["atomic.ckpt"]


class TestPredictorRestore:
    def test_restore_resumes_bit_for_bit(self, tmp_path):
        stream = _stream(600)
        half = 300

        uninterrupted = _predictor()
        expected = uninterrupted.run(stream)

        first = _predictor()
        for rec in stream[:half]:
            first.process(rec)
        path = tmp_path / "mid.ckpt"
        first.save(path)
        del first

        restored = OnlinePredictor.restore(path)
        resumed = [restored.process(rec) for rec in stream[half:]]

        assert len(resumed) == len(expected) - half
        for got, want in zip(resumed, expected[half:]):
            assert got.step == want.step
            assert got.refit == want.refit and got.drift == want.drift
            if want.prediction is None:
                assert got.prediction is None
            else:
                assert got.prediction == want.prediction  # exact, not approx
        assert restored.stats.mae == uninterrupted.stats.mae
        assert restored.stats.n_refits == uninterrupted.stats.n_refits

    def test_restore_rejects_wrong_config(self, tmp_path):
        pred = _predictor()
        pred.run(_stream(200))
        path = tmp_path / "p.ckpt"
        pred.save(path)
        with pytest.raises(CheckpointError, match="window"):
            OnlinePredictor.restore(path, window=16)

    def test_restore_rejects_foreign_artifact(self, tmp_path):
        path = tmp_path / "other.ckpt"
        write_checkpoint(path, {"kind": "something_else", "state": {}})
        with pytest.raises(CheckpointError, match="something_else"):
            OnlinePredictor.restore(path)

    def test_restore_rejects_retired_scalar_format(self, tmp_path):
        """Checkpoints of the old per-record scalar predictor are refused by name."""
        path = tmp_path / "scalar.ckpt"
        write_checkpoint(path, {"kind": "online_predictor", "state": {"config": {}}})
        with pytest.raises(CheckpointError, match="'online_predictor'"):
            OnlinePredictor.restore(path)

    def test_restore_rejects_multi_stream_fleet(self, tmp_path):
        fleet = FleetPredictor(3, "holt", window=8, buffer_capacity=150)
        fleet.save(tmp_path / "fleet.ckpt")
        with pytest.raises(CheckpointError, match="mismatch"):
            OnlinePredictor.restore(tmp_path / "fleet.ckpt")

    def test_checkpoint_is_a_one_stream_fleet(self, tmp_path):
        pred = _predictor()
        pred.run(_stream(120))
        pred.save(tmp_path / "p.ckpt")
        fleet = FleetPredictor.restore(tmp_path / "p.ckpt")
        assert fleet.n_streams == 1
        assert fleet.stats.n_predictions[0] == pred.stats.n_predictions[0]

    def test_save_overwrites_atomically(self, tmp_path):
        pred = _predictor()
        pred.run(_stream(150))
        path = tmp_path / "p.ckpt"
        pred.save(path)
        pred.run(_stream(50, seed=1))
        pred.save(path)  # second save replaces the first in place
        restored = OnlinePredictor.restore(path)
        assert restored.stats.n_predictions == pred.stats.n_predictions


class TestEndToEndResilience:
    """The acceptance test: corrupted trace + mid-stream kill/restore."""

    LEVEL = 0.08

    def _faulted(self, stream, seed=21):
        cfg = FaultConfig.at_level(self.LEVEL, refit_failure_rate=0.3, seed=seed)
        inj = FaultInjector(cfg)
        return inj, [np.array(r, copy=True) for r in inj.stream(stream[:, None])]

    def _resilient(self, hook):
        return _predictor(
            gate_policy=GatePolicy(
                outlier_sigma=4.0, outlier_action="quarantine", prediction_sigma=3.0
            ),
            supervisor_policy=SupervisorPolicy(max_retries=1, backoff_base=0.0),
            refit_fault_hook=hook,
        )

    def test_corrupted_stream_with_kill_and_restore(self, tmp_path):
        stream = _stream(600)

        # reference: the same faulted stream, served without interruption
        ref_inj, faulted = self._faulted(stream)
        reference = self._resilient(ref_inj.refit_fault)
        # (a) completes with no unhandled exception
        expected = [reference.process(r) for r in faulted]

        # crashed run: same faults, killed at the midpoint, restored
        run_inj, faulted2 = self._faulted(stream)
        half = len(faulted2) // 2
        victim = self._resilient(run_inj.refit_fault)
        for rec in faulted2[:half]:
            victim.process(rec)
        path = tmp_path / "crash.ckpt"
        victim.save(path)
        del victim  # the "kill"

        survivor = OnlinePredictor.restore(path, refit_fault_hook=run_inj.refit_fault)
        resumed = [survivor.process(r) for r in faulted2[half:]]

        # (b) post-restore predictions match the uninterrupted run exactly
        for got, want in zip(resumed, expected[half:]):
            assert got.prediction == want.prediction
            assert got.health == want.health
            assert got.gated == want.gated
        assert survivor.stats.mae == reference.stats.mae
        assert survivor.gate.n_quarantined == reference.gate.n_quarantined

        # (c) MAE vs the clean signal is bounded despite the corruption
        clean_errors = [
            abs(rec.prediction - stream[src])
            for rec, src in zip(expected, ref_inj.emitted_from)
            if rec.prediction is not None
        ]
        assert clean_errors
        assert np.isfinite(clean_errors).all()
        mae_vs_clean = float(np.mean(clean_errors))

        clean_pred = _predictor()
        clean_pred.run(stream)
        assert mae_vs_clean < 10 * clean_pred.stats.mae

    def test_degradation_is_monotone_bounded_in_aggregate(self):
        """MAE vs clean truth stays bounded as corruption rises (reported
        via the resilience experiment harness)."""
        from repro.experiments import run_resilience

        res = run_resilience("quick", levels=(0.0, 0.05, 0.2))
        assert res.baseline_mae > 0
        for r in res.per_level:
            assert np.isfinite(r.mae_vs_clean)
            assert 0.0 < r.availability <= 1.0
        assert res.is_bounded(8.0)
        # availability cannot collapse even at the harshest level
        assert res.per_level[-1].availability > 0.5
