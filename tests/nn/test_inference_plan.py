"""Compiled inference plans: parity with the eager forward, buffers, staleness.

:func:`repro.nn.compile_inference` traces a module's eval-mode forward
into a flat kernel list that :meth:`NeuralForecaster.predict` serves
through. These tests pin the plan to the eager forward bit-for-bit for
every registered neural forecaster, on a full, a partial and a one-row
batch; check that the plan never rides along in a pickle and never
outlives the weights it was compiled from; and pin the shared ReLU
kernel to the ``np.where`` form it replaced.
"""

from __future__ import annotations

import inspect
import pickle

import numpy as np
import pytest

from repro.data.windowing import make_windows
from repro.models import FORECASTER_REGISTRY, create_forecaster
from repro.models.base import NeuralForecaster
from repro.nn import (
    InferencePlan,
    Linear,
    Module,
    Tensor,
    TraceError,
    compile_inference,
    dtype_policy,
    kernels,
    no_grad,
)
from repro.streaming import FleetPredictor

_FAST = {"epochs": 1, "seed": 0, "channels": (4, 4)}

#: every neural forecaster in the registry, plus the net inside the hybrid
NEURAL = sorted(
    name for name, cls in FORECASTER_REGISTRY.items() if issubclass(cls, NeuralForecaster)
) + ["hybrid_arima_nn"]


def _windows(n=90, window=12, features=2, seed=5):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    target = 0.5 + 0.2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.02, n)
    feats = np.column_stack(
        [target] + [np.roll(target, k + 1) + rng.normal(0, 0.02, n) for k in range(features - 1)]
    )
    return make_windows(feats, target, window, horizon=1)


def _fitted(name: str, x, y):
    if name == "hybrid_arima_nn":
        model = create_forecaster(name, order=(1, 0, 0), nn_kwargs=dict(_FAST))
    else:
        params = inspect.signature(FORECASTER_REGISTRY[name].__init__).parameters
        model = create_forecaster(name, **{k: v for k, v in _FAST.items() if k in params})
    return model.fit(x, y)


def _neural(model) -> NeuralForecaster:
    return model.nn if hasattr(model, "nn") else model


def _eager(module: Module, x: np.ndarray) -> np.ndarray:
    module.eval()
    with no_grad():
        return module(Tensor(x)).data


class TestEveryNeuralForecasterCompiles:
    def test_registry_coverage(self):
        assert {"mlp", "gru", "gru_pruned", "lstm", "bilstm", "cnn_lstm", "seq2seq", "tcn",
                "rptcn", "quantile_rptcn", "transformer"} <= set(NEURAL)

    @pytest.mark.parametrize("name", NEURAL)
    def test_plan_is_bit_identical_to_eager(self, name):
        x, y = _windows()
        net = _neural(_fitted(name, x[:60], y[:60])).model
        plan = compile_inference(net, max_batch=16, row_shape=x.shape[1:])
        assert isinstance(plan, InferencePlan)
        batch = x[60:76]
        for rows in (16, 5, 1):  # full, smaller than max_batch, one row
            got = plan(batch[:rows])
            np.testing.assert_array_equal(got, _eager(net, batch[:rows]), err_msg=name)
            assert got.flags.owndata  # a fresh array, not a plan buffer

    @pytest.mark.parametrize("name", NEURAL)
    def test_predict_serves_the_eager_forward(self, name):
        x, y = _windows()
        model = _fitted(name, x[:60], y[:60])
        fc = _neural(model)
        batch = x[60:73]
        got = fc.predict(batch)
        assert fc._plan is not None and fc._plan.max_batch == 16
        np.testing.assert_array_equal(got, _eager(fc.model, batch))


class TestPlanMechanics:
    def test_float32_module_stays_float32(self):
        x, y = _windows()
        net = _fitted("rptcn", x[:60], y[:60]).model
        net.to_dtype(np.float32)
        plan = compile_inference(net, max_batch=8, row_shape=x.shape[1:])
        got = plan(x[:8])
        assert plan.dtype == np.float32 and got.dtype == np.float32
        with dtype_policy(np.float32):
            np.testing.assert_array_equal(got, _eager(net, x[:8]))

    def test_compile_restores_train_flags(self):
        net = _fitted("mlp", *_windows()).model
        net.train()
        compile_inference(net, max_batch=4, row_shape=(12, 2))
        assert all(m.training for m in net.modules())

    def test_linear_relu_runs_in_place(self):
        net = _fitted("mlp", *_windows()).model
        plan = compile_inference(net, max_batch=4, row_shape=(12, 2))
        # input view, (linear, relu) x 2, head: each relu reuses its linear's buffer
        assert len(plan) == 6 and plan.n_buffers == 3

    def test_batch_limits(self):
        net = Linear(3, 2, rng=np.random.default_rng(0))
        plan = compile_inference(net, max_batch=4, row_shape=(3,))
        assert plan(np.empty((0, 3))).shape == (0, 2)
        with pytest.raises(ValueError, match="max_batch"):
            plan(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="rows"):
            plan(np.zeros((2, 4)))

    def test_raw_data_in_forward_fails_to_compile(self):
        class Leaky(Module):
            def forward(self, x):
                return Tensor(np.tanh(x.data)) + x  # bypasses the traced ops

        with pytest.raises(TraceError, match="constant differs"):
            compile_inference(Leaky(), max_batch=4, row_shape=(3,))

    def test_batch_off_axis_zero_fails_to_compile(self):
        class Transposed(Module):
            def forward(self, x):
                return x.transpose(1, 0).tanh()

        with pytest.raises(TraceError, match="batch-major"):
            compile_inference(Transposed(), max_batch=4, row_shape=(3,))

    def test_untraceable_op_fails_to_compile(self):
        from repro.nn import functional as F

        class Pooled(Module):
            def forward(self, x):
                return F.max_pool1d(x, 2)

        with pytest.raises(TraceError, match="kernel"):
            compile_inference(Pooled(), max_batch=4, row_shape=(2, 6))


class TestPlanIsNeverSerializedOrStale:
    def test_plan_refuses_to_pickle(self):
        plan = compile_inference(Linear(3, 1, rng=np.random.default_rng(0)), 2, (3,))
        with pytest.raises(TypeError, match="process-local"):
            pickle.dumps(plan)

    def test_checkpoint_bytes_unchanged_by_serving(self):
        x, y = _windows()
        model = create_forecaster("mlp", epochs=2, seed=0).fit(x, y)
        before = model.to_bytes()
        model.predict(x[:9])
        assert model._plan is not None
        assert model.to_bytes() == before
        restored = type(model).from_bytes(before)
        assert restored._plan is None
        np.testing.assert_array_equal(restored.predict(x[:9]), model.predict(x[:9]))

    @pytest.mark.parametrize("name", ["mlp", "gru_pruned"])
    def test_warm_fit_drops_the_plan(self, name):
        x, y = _windows()
        x2, y2 = _windows(seed=6)
        model = create_forecaster(name, epochs=2, seed=0).fit(x, y)
        stale = model.predict(x2[:8])
        model.warm_fit(x2, y2, epochs=2)
        fresh = model.predict(x2[:8])
        np.testing.assert_array_equal(fresh, _eager(model.model, x2[:8]))
        assert not np.array_equal(fresh, stale)

    def test_restored_fleet_recompiles_and_serves_identically(self, tmp_path):
        rng = np.random.default_rng(11)
        ticks = 0.5 + 0.1 * rng.standard_normal((80, 16, 2)).cumsum(axis=0) / 10
        kwargs = dict(
            forecaster_name="mlp", window=6, features=2, buffer_capacity=40,
            refit_interval=30, min_fit_size=12,
            forecaster_kwargs={"epochs": 2, "seed": 0},
        )
        fleet = FleetPredictor(16, **kwargs)
        for t in ticks[:50]:
            fleet.process_tick(t)
        assert fleet.model is not None and fleet.model._plan is not None
        model_bytes = fleet.model.to_bytes()
        fleet.save(tmp_path / "fleet.ckpt")
        assert fleet.state_dict()["model"] == model_bytes
        resumed = FleetPredictor.restore(tmp_path / "fleet.ckpt")
        assert resumed.model._plan is None
        for t in ticks[50:]:
            a, b = fleet.process_tick(t), resumed.process_tick(t)
            np.testing.assert_array_equal(a.predictions, b.predictions)
        assert resumed.model._plan is not None


class TestSharedReluKernel:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_where(self, dtype):
        rng = np.random.default_rng(0)
        edge = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-320, -1e-320, 5.0, -5.0]
        # every length up to a few SIMD widths: numpy's vector body and its
        # scalar remainder disagree on the sign fmax gives a -0.0
        cases = [np.resize(edge, n) for n in range(1, 34)]
        cases += [np.full(n, -0.0) for n in range(1, 34)]
        cases.append(np.concatenate([edge, rng.standard_normal(997) * 100]))
        for x in (c.astype(dtype) for c in cases):
            ref = np.where(x > 0, x, 0.0).astype(dtype)
            with dtype_policy(dtype):
                eager = Tensor(x).relu().data
            inplace = x.copy()
            kernels.relu(inplace, out=inplace)
            for got in (kernels.relu(x), kernels.relu(x, out=np.empty_like(x)), eager, inplace):
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, ref)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))

    def test_backward_mask_unchanged(self):
        x = Tensor(np.array([-1.0, -0.0, 0.0, 2.0, np.nan]), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0, 0.0])
