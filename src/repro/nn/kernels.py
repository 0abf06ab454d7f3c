"""Forward kernels shared by eager :mod:`repro.nn` ops and inference plans.

Each kernel is the one home of an op's forward arithmetic. An eager op
(a :class:`~repro.nn.tensor.Tensor` method or a :mod:`repro.nn.functional`
function) computes its output by calling the kernel, and a compiled
:class:`~repro.nn.plan.InferencePlan` replays the very same kernel on
its preallocated buffers, so the two can never drift apart numerically.

Kernels take raw ``np.ndarray`` operands, keyword-only static arguments,
and — unless marked otherwise — an ``out=`` array that receives the
result (numpy ufuncs such as ``np.add`` follow the same convention and
serve as kernels directly). ``plan_kind`` marks the kinds a plan treats
differently:

- ``"elementwise"``: an ``out=`` kernel that may write over its own
  input (numpy's elementwise ufuncs are this kind too);
- ``"view"``: the result is a view of the first operand (reshape,
  transpose, basic indexing) — it costs nothing and owns no buffer;
- ``"alloc"``: the result is a fresh array on every call (sigmoid,
  reductions, advanced indexing, padding).

Every kernel keeps the batch on axis 0: a plan runs one traced op list
over any number of rows.
"""

from __future__ import annotations

import numpy as np

from . import _plans

__all__ = [
    "relu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "clip",
    "power",
    "where",
    "row_zeros",
    "reduce_sum",
    "reduce_max",
    "reshape",
    "transpose",
    "getitem",
    "gather",
    "pad",
    "concatenate",
    "stack",
    "linear",
    "im2col",
    "conv_gemm",
    "conv1d",
    "lstm_input_gates",
    "lstm_step",
    "lstm",
]


def _kind(kind: str):
    def mark(fn):
        fn.plan_kind = kind
        return fn

    return mark


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


@_kind("elementwise")
def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Branch-free ``max(x, 0)``, bit-identical to ``np.where(x > 0, x, 0.0)``.

    ``np.fmax`` maps NaN to 0 (it prefers the non-NaN operand) and may keep
    a ``-0.0``; adding ``+0.0`` turns ``-0.0`` into ``+0.0`` and leaves every
    other value unchanged. Two streaming passes that can run in place,
    instead of a compare, a select and their temporaries.
    """
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


@_kind("alloc")
def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic.

    ``e = exp(-|x|)`` never overflows; the result is ``1/(1+e)`` where
    ``x >= 0`` and ``e/(1+e)`` elsewhere — the exact piecewise-stable
    expressions, selected by ``np.where`` rather than fancy indexing
    (masked ``out=`` divides measured slower at every size served).
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Max-shifted softmax along ``axis``."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=out)


def log_softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """``log(softmax(x))`` via the max-shifted log-sum-exp."""
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return np.subtract(shifted, lse, out=out)


def clip(x: np.ndarray, lo: float, hi: float, out: np.ndarray | None = None) -> np.ndarray:
    return np.clip(x, lo, hi, out=out)


@_kind("alloc")
def power(x: np.ndarray, exponent: float) -> np.ndarray:
    # ``**`` keeps numpy's exact fast paths (square, sqrt, reciprocal)
    return x**exponent


@_kind("alloc")
def where(cond: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(cond, a, b)


@_kind("alloc")
def row_zeros(like: np.ndarray, tail: tuple[int, ...]) -> np.ndarray:
    """Zeros with ``like``'s leading (batch) dimension — recurrent state."""
    return np.zeros((like.shape[0],) + tail, dtype=like.dtype)


# ---------------------------------------------------------------------------
# reductions (allocate: their result layout follows numpy's own choice)
# ---------------------------------------------------------------------------


@_kind("alloc")
def reduce_sum(x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    return x.sum(axis=axis, keepdims=keepdims)


@_kind("alloc")
def reduce_max(x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    return x.max(axis=axis, keepdims=keepdims)


# ---------------------------------------------------------------------------
# shape and selection
# ---------------------------------------------------------------------------


@_kind("view")
def reshape(x: np.ndarray, tail: tuple[int, ...]) -> np.ndarray:
    """Reshape keeping the batch axis: ``tail`` is the shape after axis 0."""
    return x.reshape((-1,) + tail)


@_kind("view")
def transpose(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    return x.transpose(axes)


@_kind("view")
def getitem(x: np.ndarray, index) -> np.ndarray:
    """Basic indexing (ints, slices) — a view."""
    return x[index]


@_kind("alloc")
def gather(x: np.ndarray, index) -> np.ndarray:
    """Advanced indexing (index arrays) — a copy."""
    return x[index]


@_kind("alloc")
def pad(x: np.ndarray, pad_width) -> np.ndarray:
    return np.pad(x, pad_width)


def concatenate(*arrays: np.ndarray, axis: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    return np.concatenate(arrays, axis=axis, out=out)


def stack(*arrays: np.ndarray, axis: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    return np.stack(arrays, axis=axis, out=out)


# ---------------------------------------------------------------------------
# affine and convolution
# ---------------------------------------------------------------------------


def linear(
    x: np.ndarray,
    w_t: np.ndarray,
    b: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``x @ w_t + b`` — one GEMM, bias added in place (paper eq. 6).

    ``w_t`` is the transposed weight as the layer stores it (a transposed
    view): BLAS picks its kernel by operand layout, and a C-contiguous copy
    of ``w.T`` rounds differently on small batches, so plans keep this
    layout too.
    """
    out = np.matmul(x, w_t, out=out)
    if b is not None:
        out += b
    return out


def im2col(
    x: np.ndarray, pad_l: int, pad_r: int, kernel_size: int, dilation: int, stride: int
) -> np.ndarray:
    """Zero-pad ``(N, C, L)`` and gather the ``(N, C*K, L_out)`` GEMM columns.

    ``np.take`` with the raveled, memoized index keeps the gather
    C-contiguous, so the reshape to the GEMM layout is a free view.
    """
    n, c_in, length = x.shape
    if pad_l or pad_r:
        # np.pad's generality costs ~4x a zeros-plus-slice-assign here
        padded = np.zeros((n, c_in, length + pad_l + pad_r), dtype=x.dtype)
        padded[:, :, pad_l : pad_l + length] = x
        x = padded
    flat_idx, l_out = _plans.gather_indices_flat(x.shape[-1], kernel_size, dilation, stride)
    return np.take(x, flat_idx, axis=2).reshape(n, c_in * kernel_size, l_out)


def conv_gemm(
    w2: np.ndarray, cols2: np.ndarray, b: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """``(C_out, C_in*K) @ (N, C_in*K, L_out)`` plus bias: the conv arithmetic."""
    out = np.matmul(w2, cols2, out=out)
    if b is not None:
        out += b[None, :, None]
    return out


def conv1d(
    x: np.ndarray,
    w2: np.ndarray,
    b: np.ndarray | None = None,
    *,
    pad_l: int,
    pad_r: int,
    kernel_size: int,
    dilation: int,
    stride: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Inference 1-D convolution: :func:`im2col` then :func:`conv_gemm`."""
    cols2 = im2col(x, pad_l, pad_r, kernel_size, dilation, stride)
    return conv_gemm(w2, cols2, b, out=out)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


def lstm_input_gates(x: np.ndarray, w_ih_t: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Input projection of all four gates for all ``T`` steps: one GEMM."""
    n, t, _ = x.shape
    gates = x.reshape(n * t, -1) @ w_ih_t
    gates += bias
    return gates.reshape(n, t, -1)


def lstm_step(
    gates_x: np.ndarray, h: np.ndarray, c: np.ndarray, w_hh_t: np.ndarray
) -> tuple[np.ndarray, ...]:
    """One LSTM step from the step's input gates; layout ``[i, f, g, o]``.

    Returns ``(i, f, g, o, c_next, tanh(c_next), h_next)`` — the training
    path stashes the activations for BPTT, inference keeps the state.
    """
    hs = w_hh_t.shape[0]
    g_all = gates_x + h @ w_hh_t
    i_f = sigmoid(g_all[:, : 2 * hs])
    i, f = i_f[:, :hs], i_f[:, hs:]
    g = np.tanh(g_all[:, 2 * hs : 3 * hs])
    o = sigmoid(g_all[:, 3 * hs :])
    c = f * c + i * g
    tc = np.tanh(c)
    return i, f, g, o, c, tc, o * tc


def lstm(
    x: np.ndarray,
    w_ih_t: np.ndarray,
    w_hh_t: np.ndarray,
    bias: np.ndarray,
    h0: np.ndarray | None = None,
    c0: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Inference LSTM over ``(N, T, F)``: the hidden sequence ``(N, T, H)``."""
    n, t, _ = x.shape
    hs = w_hh_t.shape[0]
    gates_x = lstm_input_gates(x, w_ih_t, bias)
    h = h0 if h0 is not None else np.zeros((n, hs), dtype=x.dtype)
    c = c0 if c0 is not None else np.zeros((n, hs), dtype=x.dtype)
    if out is None:
        out = np.empty((n, t, hs), dtype=x.dtype)
    for step in range(t):
        *_, c, _, h = lstm_step(gates_x[:, step], h, c, w_hh_t)
        out[:, step] = h
    return out
