"""Compiled inference plans: a traced forward replayed over preallocated buffers.

:func:`compile_inference` runs one eval-mode, no-grad forward of a module
under a recorder. Every :class:`~repro.nn.tensor.Tensor` op reports the
kernel it computed its output with (:mod:`repro.nn.kernels`, or a numpy
ufunc), its operands and its static arguments. Values that depend on the
input are *live*; everything else — parameters, and ops over parameters
only such as a weight-norm reparameterization or ``weight.T`` — is a
*constant*, evaluated once at trace time and copied into the plan in the
layout the eager op read it in. The result is a flat list of kernel
calls with no ``Module.__call__``, no per-op ``Tensor`` and no mode
toggling left in it.

The forward is traced twice, over 2 and over 3 rows of random input, and
the two recordings must agree: the same kernels with the same static
arguments, constants identical, and every live value ``r * rows`` long on
axis 0 with the same trailing shape. That proves the op list is
batch-major, so one plan serves any batch of up to ``max_batch`` rows; a
forward that computes on raw ``.data`` outside the traced ops, or moves
the batch off axis 0, fails to compile instead of serving a wrong plan.

Buffers: every kernel that takes ``out=`` writes into a buffer of
``r * max_batch`` rows, allocated once when the plan is built and reused
across ops whose lifetimes do not overlap; a call uses the leading
``r * n`` rows. An elementwise kernel whose input dies at that op writes
over the input's buffer (a linear layer's ReLU runs in place). View
kernels (reshape, transpose, slicing) alias those buffers, and ``alloc``
kernels (sigmoid, reductions, advanced indexing) allocate per call. The plan owns its buffers; ``__call__`` returns a
fresh copy of the output, so callers never see a buffer the next call
overwrites. A plan is not re-entrant — one caller at a time.

The plan is a snapshot of the weights at compile time: whoever changes
them (a fit, a warm start, ``load_state_dict``) must drop the plan and
compile again. Plans are process-local and refuse to pickle.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from . import tensor as _tensor
from .module import Module
from .tensor import Tensor, dtype_policy, get_default_dtype, no_grad

__all__ = ["InferencePlan", "TraceError", "compile_inference"]

#: the two batch sizes a forward is traced at
_TRACE_ROWS = (2, 3)


class TraceError(RuntimeError):
    """The module's forward cannot be compiled into a batch-major plan."""


def _kind(kernel: Callable) -> str:
    if isinstance(kernel, np.ufunc):
        # gufuncs (matmul) have a core signature; the rest are elementwise
        return "out" if kernel.signature else "elementwise"
    return getattr(kernel, "plan_kind", "out")


def _same(a, b) -> bool:
    """Structural equality over static arguments (tuples, slices, arrays)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and _same_array(a, b)
    if isinstance(a, (tuple, list)):
        return (
            isinstance(b, (tuple, list))
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return bool(np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"))


class _Recorder:
    """One traced forward: live values by identity, constants by value."""

    def __init__(self, x: Tensor) -> None:
        self.thread = threading.get_ident()  # ops of other threads are not ours
        self.slot: dict[int, int] = {id(x): 0}
        self.keep: list[Tensor] = [x]  # keeps ids unique while tracing
        self.ops: list[tuple] = []

    def record(self, kernel, operands, static, out: Tensor) -> None:
        if threading.get_ident() != self.thread:
            return
        refs = []
        live = False
        for op in operands:
            if isinstance(op, Tensor) and id(op) in self.slot:
                refs.append(self.slot[id(op)])
                live = True
            else:
                refs.append(op.data if isinstance(op, Tensor) else op)
        if not live:
            return  # constant folding: ``out`` is itself a constant
        if kernel is None:
            raise TraceError("an op without an inference kernel ran on a live value")
        self.slot[id(out)] = len(self.keep)
        self.keep.append(out)
        self.ops.append((kernel, refs, static))

    def shape(self, slot: int) -> tuple[np.dtype, tuple[int, ...]]:
        data = self.keep[slot].data
        return data.dtype, data.shape


def _trace(module: Module, rows: int, row_shape: tuple[int, ...], dtype) -> tuple:
    rng = np.random.default_rng(rows)
    x = Tensor(rng.standard_normal((rows,) + row_shape).astype(dtype))
    recorder = _Recorder(x)
    _tensor._TRACER = recorder
    try:
        y = module(x)
    finally:
        _tensor._TRACER = None
    if not isinstance(y, Tensor) or id(y) not in recorder.slot:
        raise TraceError("the forward's output does not depend on its input")
    return recorder, recorder.slot[id(y)]


def _const_key(value) -> tuple:
    """Identity of a constant's memory, so views of one weight share a slot."""
    info = value.__array_interface__
    return (info["data"][0], value.shape, value.strides, value.dtype.str)


class InferencePlan:
    """A traced forward as a flat kernel list over preallocated buffers.

    Build with :func:`compile_inference`; call with a ``(n, *row_shape)``
    batch, ``n <= max_batch``.
    """

    def __init__(
        self,
        steps: list[tuple],
        env: list,
        output: int,
        out_tail: tuple[int, ...],
        row_shape: tuple[int, ...],
        dtype: np.dtype,
        max_batch: int,
        n_buffers: int,
    ) -> None:
        self._steps = steps
        self._env = env
        self._n_live = len(steps) + 1
        self._no_values = [None] * self._n_live
        self._output = output
        self.out_tail = out_tail
        self.row_shape = row_shape
        self.dtype = dtype
        self.max_batch = max_batch
        #: distinct preallocated activation buffers
        self.n_buffers = n_buffers

    def __len__(self) -> int:
        """Kernel calls per forward."""
        return len(self._steps)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != self.row_shape:
            raise ValueError(f"plan rows are {self.row_shape}, got batch of shape {x.shape}")
        n = len(x)
        if n > self.max_batch:
            raise ValueError(f"batch of {n} rows exceeds the plan's max_batch={self.max_batch}")
        if n == 0:
            return np.empty((0,) + self.out_tail, dtype=self.dtype)
        env = self._env
        env[0] = x
        for kernel, ins, static, slot, buf, rows in self._steps:
            args = [env[i] for i in ins]
            if buf is None:
                env[slot] = kernel(*args, **static)
            else:
                env[slot] = kernel(*args, out=buf[: rows * n], **static)
        out = np.array(env[self._output])
        # drop this call's values (the caller's batch, per-call arrays);
        # the constants after them stay
        env[: self._n_live] = self._no_values
        return out

    def __reduce__(self):
        raise TypeError("an InferencePlan is process-local; compile it again instead")


def _build(traces, max_batch: int, row_shape, dtype) -> InferencePlan:
    (ra, out_a), (rb, out_b) = traces
    pa, pb = _TRACE_ROWS
    if len(ra.ops) != len(rb.ops) or out_a != out_b:
        raise TraceError("the forward records different op lists at different batch sizes")

    # live values: rows-per-batch-row factor, trailing shape, dtype
    layout: list[tuple[int, tuple, np.dtype]] = []
    for slot in range(len(ra.keep)):
        (dta, sa), (dtb, sb) = ra.shape(slot), rb.shape(slot)
        if dta != dtb or not sa or sa[1:] != sb[1:] or sa[0] % pa or sa[0] // pa * pb != sb[0]:
            raise TraceError(
                f"live value {slot} is not batch-major: {sa} at {pa} rows, {sb} at {pb} rows"
            )
        layout.append((sa[0] // pa, sa[1:], dta))
    r_out, out_tail, _ = layout[out_a]
    if r_out != 1:
        raise TraceError(f"the output has {r_out} rows per input row")

    env: list = [None] * len(layout)
    const_slot: dict[tuple, int] = {}
    ops = []
    for (kernel, refs, static), (kernel_b, refs_b, static_b) in zip(ra.ops, rb.ops):
        if kernel is not kernel_b or static.keys() != static_b.keys() or not all(
            _same(static[k], static_b[k]) for k in static
        ):
            raise TraceError(f"{getattr(kernel, '__name__', kernel)} changes with the batch")
        ins = []
        for ref, ref_b in zip(refs, refs_b):
            if isinstance(ref, int):
                if ref != ref_b:
                    raise TraceError("the dataflow changes with the batch")
                ins.append(ref)
                continue
            if ref is None:
                same = ref_b is None
            else:
                same = isinstance(ref_b, np.ndarray) and _same_array(np.asarray(ref), ref_b)
            if not same:
                raise TraceError(
                    "a constant differs between traces: the forward computes on raw "
                    "input data outside the traced ops, or sizes state from the batch "
                    "(use Tensor.row_zeros)"
                )
            key = ("none",) if ref is None else _const_key(np.asarray(ref))
            if key not in const_slot:
                const_slot[key] = len(env)
                # copied in the layout the eager op read (order="K" keeps a
                # transposed weight transposed: BLAS picks its kernel by layout)
                env.append(None if ref is None else np.array(ref, order="K", copy=True))
            ins.append(const_slot[key])
        ops.append((kernel, ins, static))

    # buffer planning: a value's storage is its own buffer (``out`` kernels)
    # or, for a view, the storage of the array it views
    n_live = len(layout)
    last_use = [-1] * n_live
    for s, (_, ins, _) in enumerate(ops):
        for i in ins:
            if i < n_live:
                last_use[i] = s
    last_use[out_a] = len(ops)
    root = list(range(n_live))
    for s, (kernel, ins, _) in enumerate(ops):
        if _kind(kernel) == "view":
            root[s + 1] = root[ins[0]]
    root_end = [-1] * n_live
    for slot in range(n_live):
        root_end[root[slot]] = max(root_end[root[slot]], last_use[slot])

    buffers: list[np.ndarray] = []
    free: dict[tuple, list[int]] = {}
    holder: dict[int, int] = {}  # root slot -> buffer index
    steps = []
    for s, (kernel, ins, static) in enumerate(ops):
        slot = s + 1
        rows, tail, dt = layout[slot]
        kind = _kind(kernel)
        buf = None
        if kind in ("out", "elementwise"):
            key = (rows, tail, dt)
            dying = [
                i for i in ins
                if kind == "elementwise" and i in holder and root_end[i] == s
                and layout[i] == layout[slot]
            ]
            if dying:
                b = holder.pop(dying[0])
            elif free.get(key):
                b = free[key].pop()
            else:
                b = len(buffers)
                buffers.append(np.empty((rows * max_batch,) + tail, dtype=dt))
            holder[slot] = b
            buf = buffers[b]
        steps.append((kernel, ins, static, slot, buf, rows))
        # release after assigning, so an output never aliases its inputs
        for r in [r for r in holder if root_end[r] <= s]:
            b = holder.pop(r)
            free.setdefault((layout[r][0], layout[r][1], layout[r][2]), []).append(b)
    return InferencePlan(
        steps, env, out_a, out_tail, tuple(row_shape), dtype, max_batch, len(buffers)
    )


def compile_inference(
    module: Module, max_batch: int, row_shape: tuple[int, ...]
) -> InferencePlan:
    """Trace ``module``'s eval-mode forward into an :class:`InferencePlan`.

    ``row_shape`` is the shape of one input row (for a forecaster,
    ``(window, features)``); the plan serves batches of up to
    ``max_batch`` such rows. The plan computes in the dtype of the
    module's parameters and is bit-identical to
    ``module.eval()`` + ``no_grad()`` eager output on the same batch under
    that dtype. The module's train/eval flags are restored afterwards.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    row_shape = tuple(int(d) for d in row_shape)
    first = next(module.parameters(), None)
    dtype = first.data.dtype if first is not None else get_default_dtype()
    modes = [(m, m.training) for m in module.modules()]
    module.eval()
    try:
        with no_grad(), dtype_policy(dtype):
            traces = [_trace(module, rows, row_shape, dtype) for rows in _TRACE_ROWS]
    finally:
        for m, mode in modes:
            object.__setattr__(m, "training", mode)
    return _build(traces, max_batch, row_shape, np.dtype(dtype))
