"""Stateless differentiable operations used by :mod:`repro.nn` layers.

The heavy ops here are :func:`conv1d` and :func:`lstm`. The convolution is
an explicit im2col gather (a memoized strided index array from
:mod:`repro.nn._plans`) followed by a single batched GEMM; the input
gradient is a loop-free col2im fold (one strided-view accumulation per
kernel tap) rather than an ``np.add.at`` scatter. The LSTM is a fused
sequence kernel: one gate matmul over the whole ``(N, T, C)`` input, a
NumPy-only recurrent loop, and a hand-written BPTT backward — no per-step
Tensor allocation.

The forward arithmetic of every op lives in :mod:`repro.nn.kernels`.
When autograd is off (or no parent requires grad), :func:`linear`,
:func:`conv1d` and :func:`lstm` call their inference kernel and return a
constant Tensor — the same kernel a compiled
:class:`~repro.nn.plan.InferencePlan` replays on its own buffers.
"""

from __future__ import annotations

import numpy as np

from . import _plans
from . import kernels as K
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "conv1d",
    "lstm",
    "softmax",
    "log_softmax",
    "dropout",
    "spatial_dropout1d",
    "linear",
    "max_pool1d",
    "avg_pool1d",
]


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _gather_indices(length: int, kernel_size: int, dilation: int, stride: int) -> np.ndarray:
    """Index matrix ``idx[k, t] = t * stride + k * dilation`` for im2col."""
    return _plans.gather_indices(length, kernel_size, dilation, stride)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int | tuple[int, int] = 0,
    dilation: int = 1,
) -> Tensor:
    """1-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x: ``(N, C_in, L)`` input.
    weight: ``(C_out, C_in, K)`` filters.
    bias: optional ``(C_out,)``.
    padding: symmetric amount, or an explicit ``(left, right)`` pair —
        causal convolutions pad only on the left.
    """
    if isinstance(padding, tuple):
        pad_l, pad_r = padding
    else:
        pad_l = pad_r = int(padding)

    n, c_in, length = x.shape
    c_out, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {c_in_w}")

    # the contraction "oik,nikt->not" as a batched GEMM over the im2col
    # columns, which beats even a path-cached einsum (einsum re-parses its
    # subscripts on every call)
    w2 = weight.data.reshape(c_out, c_in * k)
    b = None if bias is None else bias.data
    requires = is_grad_enabled() and (
        x.requires_grad
        or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    if not requires:
        static = dict(pad_l=pad_l, pad_r=pad_r, kernel_size=k, dilation=dilation, stride=stride)
        out = K.conv1d(x.data, w2, b, **static)
        return Tensor._from_op(out, (), None, K.conv1d, (x, w2, b), **static)

    cols2 = K.im2col(x.data, pad_l, pad_r, k, dilation, stride)
    out = K.conv_gemm(w2, cols2, b)  # (N, C_out, L_out)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            gw = np.matmul(grad, cols2.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(gw.reshape(c_out, c_in, k))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            gcols = np.matmul(w2.T, grad).reshape(n, c_in, k, -1)
            gxp = _plans.fold_cols(gcols, length + pad_l + pad_r, stride, dilation)
            if pad_l or pad_r:
                gxp = gxp[:, :, pad_l : pad_l + length]
            x._accumulate(gxp)

    return Tensor._from_op(out, parents, backward)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def max_pool1d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling over the last axis of a ``(N, C, L)`` tensor."""
    stride = stride or kernel_size
    idx = _gather_indices(x.shape[-1], kernel_size, 1, stride)
    windows = x.data[:, :, idx]  # (N, C, K, L_out)
    out = windows.max(axis=2)
    argmax = windows.argmax(axis=2)  # (N, C, L_out)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        n, c, l_out = grad.shape
        src_pos = idx[argmax, np.arange(l_out)[None, None, :]]  # (N, C, L_out)
        ni = np.arange(n)[:, None, None]
        ci = np.arange(c)[None, :, None]
        np.add.at(gx, (ni, ci, src_pos), grad)
        x._accumulate(gx)

    return Tensor._from_op(out, (x,), backward)


def avg_pool1d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling over the last axis of a ``(N, C, L)`` tensor."""
    stride = stride or kernel_size
    idx = _gather_indices(x.shape[-1], kernel_size, 1, stride)
    out = x.data[:, :, idx].mean(axis=2)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        g = np.repeat(grad[:, :, None, :] / kernel_size, kernel_size, axis=2)
        np.add.at(gx, (slice(None), slice(None), idx), g)
        x._accumulate(gx)

    return Tensor._from_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# normalized exponentials
# ---------------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    out = K.softmax(x.data, axis=axis)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # J^T g = s * (g - sum(g * s))
            dot = (grad * out).sum(axis=axis, keepdims=True)
            x._accumulate(out * (grad - dot))

    return Tensor._from_op(out, (x,), backward, K.softmax, axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed stably."""
    out = K.log_softmax(x.data, axis=axis)
    soft = np.exp(out)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._from_op(out, (x,), backward, K.log_softmax, axis=axis)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scale kept activations by ``1/(1-p)`` at train time."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def spatial_dropout1d(
    x: Tensor, p: float, rng: np.random.Generator, training: bool = True
) -> Tensor:
    """Channel dropout for ``(N, C, L)`` tensors (drops whole feature maps).

    TCN residual blocks use this form of regularization (Bai et al. 2018);
    zeroing entire channels preserves temporal autocorrelation within each
    retained channel.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    n, c = x.shape[0], x.shape[1]
    mask = (rng.random((n, c, 1)) >= p) / (1.0 - p)
    return x * Tensor(mask)


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` — the paper's eq. (6)."""
    if not (
        is_grad_enabled()
        and (
            x.requires_grad
            or weight.requires_grad
            or (bias is not None and bias.requires_grad)
        )
    ):
        # inference kernel: one GEMM, no transpose node, no graph wiring
        w_t = weight.data.T
        b = None if bias is None else bias.data
        return Tensor._from_op(K.linear(x.data, w_t, b), (), None, K.linear, (x, w_t, b))
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


# ---------------------------------------------------------------------------
# fused LSTM sequence kernel
# ---------------------------------------------------------------------------


def lstm(
    x: Tensor,
    w_ih: Tensor,
    w_hh: Tensor,
    bias: Tensor,
    state: tuple[Tensor, Tensor] | None = None,
) -> Tensor:
    """Fused single-layer LSTM over a ``(N, T, F)`` sequence.

    The input projection for all four gates and all ``T`` steps is one
    GEMM; the recurrent loop then runs on raw NumPy arrays (no per-step
    Tensor allocation, no autograd chain of length ``T``), and backward is
    a hand-written BPTT sweep over stashed gate activations. Gate layout
    matches :class:`~repro.nn.layers.recurrent.LSTMCell`: ``[i, f, g, o]``.

    Returns the hidden sequence ``(N, T, H)``. ``state`` is an optional
    ``(h_0, c_0)`` pair of ``(N, H)`` Tensors; gradients flow back into it.
    """
    n, t, _ = x.shape
    h_size = w_hh.shape[-1]
    xp = x.data
    wih_t, whh_t = w_ih.data.T, w_hh.data.T

    if state is not None:
        h0, c0 = Tensor.ensure(state[0]), Tensor.ensure(state[1])
        h_prev0, c_prev0 = h0.data, c0.data
    else:
        h0 = c0 = None
        h_prev0 = np.zeros((n, h_size), dtype=xp.dtype)
        c_prev0 = np.zeros((n, h_size), dtype=xp.dtype)

    parents = [x, w_ih, w_hh, bias] + ([h0, c0] if h0 is not None else [])
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    if not requires:
        # inference kernel: nothing stashed, nothing wired
        out = K.lstm(xp, wih_t, whh_t, bias.data, h_prev0, c_prev0)
        return Tensor._from_op(out, (), None, K.lstm, (x, wih_t, whh_t, bias, h0, c0))

    # training path: stash post-activation gates and cell states for BPTT
    gates_x = K.lstm_input_gates(xp, wih_t, bias.data)
    hs = np.empty((n, t, h_size), dtype=xp.dtype)
    h, c = h_prev0, c_prev0
    ia = np.empty((n, t, h_size), dtype=xp.dtype)
    fa = np.empty_like(ia)
    ga = np.empty_like(ia)
    oa = np.empty_like(ia)
    ca = np.empty_like(ia)
    tca = np.empty_like(ia)
    for step in range(t):
        i, f, g, o, c, tc, h = K.lstm_step(gates_x[:, step], h, c, whh_t)
        ia[:, step], fa[:, step], ga[:, step], oa[:, step] = i, f, g, o
        ca[:, step], tca[:, step] = c, tc
        hs[:, step] = h

    def backward(grad: np.ndarray) -> None:
        dgates = np.empty((n, t, 4 * h_size), dtype=grad.dtype)
        dh_next = np.zeros((n, h_size), dtype=grad.dtype)
        dc_next = np.zeros((n, h_size), dtype=grad.dtype)
        whh = w_hh.data
        for step in range(t - 1, -1, -1):
            i, f, g, o = ia[:, step], fa[:, step], ga[:, step], oa[:, step]
            tc = tca[:, step]
            c_prev = ca[:, step - 1] if step > 0 else c_prev0
            dh = grad[:, step] + dh_next
            dc = dc_next + dh * o * (1.0 - tc * tc)
            dg_step = dgates[:, step]
            dg_step[:, :h_size] = dc * g * i * (1.0 - i)
            dg_step[:, h_size : 2 * h_size] = dc * c_prev * f * (1.0 - f)
            dg_step[:, 2 * h_size : 3 * h_size] = dc * i * (1.0 - g * g)
            dg_step[:, 3 * h_size :] = dh * tc * o * (1.0 - o)
            dh_next = dg_step @ whh
            dc_next = dc * f
        flat = dgates.reshape(n * t, 4 * h_size)
        if w_ih.requires_grad:
            w_ih._accumulate(flat.T @ xp.reshape(n * t, -1))
        if w_hh.requires_grad:
            hp = np.empty_like(hs)
            hp[:, 0] = h_prev0
            hp[:, 1:] = hs[:, :-1]
            w_hh._accumulate(flat.T @ hp.reshape(n * t, h_size))
        if bias.requires_grad:
            bias._accumulate(flat.sum(axis=0))
        if x.requires_grad:
            x._accumulate((flat @ w_ih.data).reshape(n, t, -1))
        if h0 is not None and h0.requires_grad:
            h0._accumulate(dh_next)
        if c0 is not None and c0.requires_grad:
            c0._accumulate(dc_next)

    return Tensor._from_op(hs, parents, backward)
