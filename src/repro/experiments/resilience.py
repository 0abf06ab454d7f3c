"""Serving resilience under stream corruption: degradation-vs-fault-rate.

The offline robustness harness (:mod:`.robustness`) asks whether the
*accuracy claims* survive seed variation; this one asks whether the
*serving system* survives the paper's fault model live. A clean stream
is replayed through :class:`~repro.streaming.online.OnlinePredictor`
behind a :class:`~repro.streaming.faults.FaultInjector` at increasing
severity (NaN cells/rows, drops, duplicates, outliers, injected refit
crashes), and two curves come out:

* **MAE vs corruption rate**, scored against the *clean* ground truth
  (the injector's per-record provenance realigns predictions across
  drops and duplicates), so the number measures real degradation rather
  than agreement with corrupted observations;
* **availability** — the fraction of post-warmup records that received
  a prediction despite quarantines and failures.

A resilient serving layer degrades gracefully: MAE grows with the fault
level but stays bounded, availability stays high, and no fault level
crashes the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..streaming.faults import FaultConfig, FaultInjector
from ..streaming.online import OnlinePredictor
from ..streaming.resilience import GatePolicy, SupervisorPolicy
from ..traces.generator import ClusterTraceGenerator, TraceConfig
from .config import ExperimentProfile, get_profile

__all__ = ["ResilienceLevelResult", "ResilienceResult", "run_resilience"]


@dataclass
class ResilienceLevelResult:
    """Serving outcome at one fault level."""

    level: float
    mae_vs_clean: float
    availability: float
    n_emitted: int
    n_served: int
    n_quarantined: int
    n_imputed: int
    n_refit_failures: int
    n_fallback_predictions: int
    injected: dict[str, int] = field(default_factory=dict)


@dataclass
class ResilienceResult:
    """Degradation curve across fault levels for one forecaster."""

    model: str
    levels: tuple[float, ...]
    per_level: list[ResilienceLevelResult] = field(default_factory=list)

    @property
    def baseline_mae(self) -> float:
        return self.per_level[0].mae_vs_clean

    def degradation(self, level: float) -> float:
        """MAE at ``level`` relative to the clean-stream baseline."""
        for r in self.per_level:
            if r.level == level:
                return r.mae_vs_clean / max(self.baseline_mae, 1e-12)
        raise KeyError(f"no result at level {level}; have {self.levels}")

    def is_bounded(self, factor: float) -> bool:
        """True if no level's MAE exceeds ``factor`` x the clean baseline."""
        return all(r.mae_vs_clean <= factor * self.baseline_mae for r in self.per_level)


def run_resilience(
    profile: str | ExperimentProfile = "quick",
    model: str = "holt",
    model_kwargs: dict | None = None,
    levels: tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.2),
    refit_failure_rate: float = 0.2,
    refit_interval: int = 60,
) -> ResilienceResult:
    """Replay one container stream at each fault level; score vs clean truth."""
    prof = get_profile(profile) if isinstance(profile, str) else profile
    gen = ClusterTraceGenerator(TraceConfig(n_steps=prof.n_steps, seed=prof.seed))
    entity = gen.generate_entity(
        "mutation", entity_id="c_resilience", low=0.3, high=0.7, jump_at=0.55, noise=0.03
    )
    clean = entity.cpu / 100.0

    result = ResilienceResult(model=model, levels=tuple(levels))
    for level in levels:
        injector = FaultInjector(
            FaultConfig.at_level(
                level, refit_failure_rate=refit_failure_rate if level > 0 else 0.0,
                seed=prof.seed,
            )
        )
        predictor = OnlinePredictor(
            model,
            forecaster_kwargs=dict(model_kwargs or {}),
            window=prof.window,
            buffer_capacity=min(400, prof.n_steps),
            refit_interval=refit_interval,
            min_fit_size=5 * prof.window,
            # outlier screening on: impulse faults are quarantined instead of
            # entering the buffer (and, via the window, the served forecasts)
            gate_policy=GatePolicy(
                impute="last",
                outlier_sigma=4.0,
                outlier_action="quarantine",
                prediction_sigma=3.0,
            ),
            supervisor_policy=SupervisorPolicy(max_retries=1, backoff_base=0.0),
            refit_fault_hook=injector.refit_fault,
        )
        records = [predictor.process(r) for r in injector.stream(clean[:, None])]

        # score against the clean source value each emitted record came from
        abs_errors = [
            abs(rec.prediction - clean[src])
            for rec, src in zip(records, injector.emitted_from)
            if rec.prediction is not None
        ]
        served = [i for i, rec in enumerate(records) if rec.prediction is not None]
        warmup = served[0] if served else len(records)
        post_warmup = max(len(records) - warmup, 1)

        result.per_level.append(
            ResilienceLevelResult(
                level=level,
                mae_vs_clean=float(np.mean(abs_errors)) if abs_errors else float("nan"),
                availability=len(served) / post_warmup,
                n_emitted=len(records),
                n_served=len(served),
                n_quarantined=int(predictor.gate.n_quarantined[0]),
                n_imputed=int(predictor.gate.n_imputed[0]),
                n_refit_failures=predictor.stats.n_refit_failures,
                n_fallback_predictions=int(predictor.stats.n_fallback_predictions[0]),
                injected=dict(injector.counts),
            )
        )
    return result
