"""Recurrent layers (LSTM / GRU) with backprop-through-time via autograd.

These power the paper's LSTM and CNN-LSTM baselines. The LSTM sequence
layer runs on the fused kernel in :func:`repro.nn.functional.lstm`: one
gate GEMM over the whole ``(N, T, C)`` input, a NumPy-only recurrent loop,
and a hand-written BPTT backward — no per-step Tensor allocation. The
cells remain available for explicit single-step (online/stateful) use and
as the stepwise reference the parity tests check the fused kernel against.
"""

from __future__ import annotations

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["LSTMCell", "LSTM", "GRUCell", "GRU"]


class LSTMCell(Module):
    """Single LSTM step.

    Gate layout in the stacked weight matrices is ``[i, f, g, o]``
    (input, forget, cell candidate, output). The forget-gate bias is
    initialized to 1, the standard trick for gradient flow early in
    training (Jozefowicz et al. 2015).
    """

    def __init__(
        self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.glorot_uniform((4 * hidden_size, input_size), rng))
        self.w_hh = Parameter(init.orthogonal((4 * hidden_size, hidden_size), rng))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Parameter(bias)

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, Tensor]:
        h_size = self.hidden_size
        if state is None:
            h = c = Tensor.row_zeros(x, h_size)
        else:
            h, c = state

        gates = x @ self.w_ih.T + h @ self.w_hh.T + self.bias
        i = gates[:, 0:h_size].sigmoid()
        f = gates[:, h_size : 2 * h_size].sigmoid()
        g = gates[:, 2 * h_size : 3 * h_size].tanh()
        o = gates[:, 3 * h_size : 4 * h_size].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next

    def __repr__(self) -> str:  # pragma: no cover
        return f"LSTMCell({self.input_size}, {self.hidden_size})"


class LSTM(Module):
    """Multi-layer LSTM over ``(N, T, F)`` sequences.

    Returns the full hidden sequence ``(N, T, H)`` of the top layer; use
    ``outputs[:, -1]`` for a sequence-to-one head. Each layer is one call
    into the fused sequence kernel.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        from .container import ModuleList

        self.cells = ModuleList(
            LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng)
            for layer in range(num_layers)
        )

    def forward(
        self, x: Tensor, state: list[tuple[Tensor, Tensor]] | None = None
    ) -> Tensor:
        states: list[tuple[Tensor, Tensor] | None]
        states = list(state) if state is not None else [None] * self.num_layers
        out = x
        for li, cell in enumerate(self.cells):
            out = F.lstm(out, cell.w_ih, cell.w_hh, cell.bias, state=states[li])
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"LSTM({self.input_size}, {self.hidden_size}, layers={self.num_layers})"


class GRUCell(Module):
    """Single GRU step; gate layout is ``[r, z, n]`` (reset, update, new)."""

    def __init__(
        self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.glorot_uniform((3 * hidden_size, input_size), rng))
        self.w_hh = Parameter(init.orthogonal((3 * hidden_size, hidden_size), rng))
        self.b_ih = Parameter(init.zeros((3 * hidden_size,)))
        self.b_hh = Parameter(init.zeros((3 * hidden_size,)))

    def _step(self, gi: Tensor, h: Tensor) -> Tensor:
        """Recurrent half of the step, given the precomputed input projection."""
        hs = self.hidden_size
        gh = h @ self.w_hh.T + self.b_hh
        r = (gi[:, 0:hs] + gh[:, 0:hs]).sigmoid()
        z = (gi[:, hs : 2 * hs] + gh[:, hs : 2 * hs]).sigmoid()
        new = (gi[:, 2 * hs : 3 * hs] + r * gh[:, 2 * hs : 3 * hs]).tanh()
        return (1.0 - z) * new + z * h

    def forward(self, x: Tensor, h: Tensor | None = None) -> Tensor:
        if h is None:
            h = Tensor.row_zeros(x, self.hidden_size)
        gi = x @ self.w_ih.T + self.b_ih
        return self._step(gi, h)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GRUCell({self.input_size}, {self.hidden_size})"


class GRU(Module):
    """Multi-layer GRU over ``(N, T, F)`` sequences; returns ``(N, T, H)``.

    The input projection ``x @ W_ih.T + b_ih`` for all steps of a layer is
    hoisted out of the time loop into one GEMM; only the reset/update
    recurrence steps through time.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        from .container import ModuleList

        self.cells = ModuleList(
            GRUCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng)
            for layer in range(num_layers)
        )

    def forward(self, x: Tensor) -> Tensor:
        n, t, _ = x.shape
        out = x
        for cell in self.cells:
            hs = cell.hidden_size
            gi_seq = (
                out.reshape(n * t, out.shape[-1]) @ cell.w_ih.T + cell.b_ih
            ).reshape(n, t, 3 * hs)
            h = Tensor.row_zeros(out, hs)
            outputs = []
            for step in range(t):
                h = cell._step(gi_seq[:, step, :], h)
                outputs.append(h)
            out = Tensor.stack(outputs, axis=1)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"GRU({self.input_size}, {self.hidden_size}, layers={self.num_layers})"
