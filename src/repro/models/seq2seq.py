"""Encoder-decoder (seq2seq) forecaster with Bahdanau attention.

Multi-step forecasting done the sequence-to-sequence way: an LSTM encoder
summarizes the window; an LSTM decoder emits one step at a time, at each
step attending over the encoder states (Bahdanau et al. 2015 — the
attention family the paper cites in §III-D). Compared with the direct
multi-output heads of the other forecasters, the decoder is
*autoregressive* across the horizon — the standard alternative strategy
for the paper's "long-term" regime.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers.attention import BahdanauAttention
from ..nn.layers.linear import Linear
from ..nn.layers.recurrent import LSTMCell
from ..nn.module import Module
from ..nn.tensor import Tensor
from .base import NeuralForecaster, register_forecaster

__all__ = ["Seq2SeqForecaster"]


class _Seq2SeqNet(Module):
    def __init__(
        self,
        features: int,
        hidden: int,
        horizon: int,
        target_col: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        from ..nn.layers.recurrent import LSTM as LSTMLayer

        self.encoder = LSTMLayer(features, hidden, rng=rng)
        self.decoder_cell = LSTMCell(1 + hidden, hidden, rng=rng)
        self.attention = BahdanauAttention(hidden, hidden, hidden=hidden, rng=rng)
        self.out = Linear(hidden, 1, rng=rng)
        self.horizon = horizon
        self.target_col = target_col

    def forward(self, x: Tensor) -> Tensor:
        states = self.encoder(x)  # (N, T, H)
        h = states[:, -1, :]
        c = Tensor.row_zeros(h, h.shape[1])
        # the decoder is primed with the window's last target value
        prev = x[:, -1, self.target_col : self.target_col + 1]

        outputs = []
        for _ in range(self.horizon):
            context = self.attention(states, h)  # (N, H)
            dec_in = Tensor.concatenate([prev, context], axis=1)
            h, c = self.decoder_cell(dec_in, (h, c))
            prev = self.out(h)  # (N, 1)
            outputs.append(prev)
        return Tensor.concatenate(outputs, axis=1)


@register_forecaster("seq2seq")
class Seq2SeqForecaster(NeuralForecaster):
    def __init__(
        self,
        horizon: int = 1,
        target_col: int = 0,
        hidden: int = 24,
        **train_kwargs,
    ) -> None:
        super().__init__(horizon=horizon, target_col=target_col, **train_kwargs)
        self.hidden = hidden

    def build(self, window: int, features: int, rng: np.random.Generator) -> Module:
        return _Seq2SeqNet(features, self.hidden, self.horizon, self.target_col, rng)
