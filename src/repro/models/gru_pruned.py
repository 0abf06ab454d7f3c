"""Magnitude-pruned compact GRU for the online serving path.

"Efficient Online Prediction of Host Workloads Using Pruned GRU Nets"
(PAPERS.md) reports large online-prediction speedups at negligible
accuracy cost from pruning recurrent nets. This variant targets the
fleet's background refit loop: a *compact* GRU (small hidden state)
trained dense, then magnitude-pruned to a target sparsity and briefly
fine-tuned with the pruning masks re-applied after every epoch, so the
zeroed weights stay zero while the survivors adapt.

The masks are part of the model: :meth:`warm_fit` resumes (Adam moments
and all, via :class:`NeuralForecaster`) and re-clamps the masks each
epoch, so an async warm-start refit keeps the sparsity structure instead
of silently densifying — which is what makes the warm path cheap enough
to run every refit interval.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module
from .base import NeuralForecaster, register_forecaster
from .gru import _GRUNet

__all__ = ["PrunedGRUForecaster"]


@register_forecaster("gru_pruned")
class PrunedGRUForecaster(NeuralForecaster):
    """Compact GRU, magnitude-pruned after training, masks kept on resume.

    ``sparsity`` is the fraction of each weight *matrix* zeroed (biases
    stay dense — they are O(hidden) and pruning them mostly hurts);
    ``finetune_epochs`` masked epochs follow the prune to recover the
    accuracy the cut took.
    """

    def __init__(
        self,
        horizon: int = 1,
        target_col: int = 0,
        hidden: int = 16,
        layers: int = 1,
        dropout: float = 0.0,
        sparsity: float = 0.5,
        finetune_epochs: int = 2,
        epochs: int = 30,
        **train_kwargs,
    ) -> None:
        if not 0.0 <= sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
        if finetune_epochs < 0:
            raise ValueError(f"finetune_epochs must be >= 0, got {finetune_epochs}")
        super().__init__(
            horizon=horizon, target_col=target_col, epochs=epochs, **train_kwargs
        )
        self.hidden = hidden
        self.layers = layers
        self.dropout = dropout
        self.sparsity = sparsity
        self.finetune_epochs = finetune_epochs
        self._masks: dict[str, np.ndarray] = {}

    def build(self, window: int, features: int, rng: np.random.Generator) -> Module:
        return _GRUNet(features, self.hidden, self.layers, self.horizon, self.dropout, rng)

    # -- pruning ---------------------------------------------------------------

    def _prune(self) -> None:
        """Zero the smallest-|w| entries of every weight matrix in place."""
        assert self.model is not None
        self._masks = {}
        if self.sparsity == 0.0:
            return
        for name, param in self.model.named_parameters():
            w = param.data
            if w.ndim < 2:
                continue
            k = int(self.sparsity * w.size)
            if k < 1:
                continue
            flat = np.abs(w).ravel()
            # the k-th smallest magnitude is the cut; strict > keeps exactly
            # the survivors (ties below the cut all go — deterministic)
            cut = np.partition(flat, k - 1)[k - 1]
            mask = np.abs(w) > cut
            w *= mask
            self._masks[name] = mask

    def _apply_masks(self) -> None:
        """Re-clamp pruned weights to zero (after every fine-tune epoch)."""
        assert self.model is not None
        if not self._masks:
            return
        for name, param in self.model.named_parameters():
            mask = self._masks.get(name)
            if mask is not None:
                param.data *= mask

    def _masked_epochs(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_val: np.ndarray | None,
        y_val: np.ndarray | None,
        epochs: int,
    ) -> None:
        """Train epoch-by-epoch, re-applying the masks after each step."""
        assert self.trainer is not None
        for _ in range(epochs):
            history = self.trainer.fit(
                x, y, x_val, y_val, epochs=1, batch_size=self.batch_size
            )
            self._apply_masks()
            if self.history is not None:
                self.history.train_loss.extend(history.train_loss)
                self.history.val_loss.extend(history.val_loss)
                self.history.epochs_run += history.epochs_run

    @property
    def sparsity_achieved(self) -> float:
        """Fraction of zeroed entries across the pruned weight matrices."""
        self._check_fitted()
        if not self._masks:
            return 0.0
        zeros = sum(int(m.size - m.sum()) for m in self._masks.values())
        total = sum(int(m.size) for m in self._masks.values())
        return zeros / max(total, 1)

    # -- training --------------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
    ) -> "PrunedGRUForecaster":
        super().fit(x, y, x_val, y_val)
        self._prune()
        if self._masks and self.finetune_epochs:
            self._masked_epochs(x, y, x_val, y_val, self.finetune_epochs)
        return self

    def warm_fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        epochs: int | None = None,
    ) -> "PrunedGRUForecaster":
        if (
            self.model is None
            or self.trainer is None
            or not self.fitted
            or getattr(self, "_fit_shape", None) != tuple(np.asarray(x).shape[1:])
        ):
            return self.fit(x, y, x_val, y_val)
        self._check_xy(x, y)
        self._plan = None
        budget = int(epochs) if epochs is not None else max(1, self.epochs // 4)
        self._masked_epochs(x, y, x_val, y_val, budget)
        return self
