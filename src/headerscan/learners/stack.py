"""Stacked ensemble: base decision values feed a logistic meta-learner.

Meta-features are produced out-of-fold so the meta-learner never sees a
base decision value computed by a model that trained on that row: each
base's column holds its evaluation.kfold_cv held-out values, on 5 folds
seeded by the meta spec. The pipeline's stacks instead reuse the grid
search's held-out columns, and score the test with meta_decision_values
on their bases' test columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Model, ModelSpec, check_training_inputs, validate_spec
from .linear import LogRegModel, train_logreg

__all__ = ["StackModel", "fit_stack_meta", "train_stack"]

_STACK_FOLDS = 5


@dataclass
class StackModel:
    spec: ModelSpec          # algorithm "stack"; hyperparameters empty
    bases: list[Model]       # refit on all of X, in base_specs order
    meta: LogRegModel
    converged: bool = True
    schema_fingerprint: str | None = None

    def meta_features(self, X: np.ndarray) -> np.ndarray:
        cols = [m.decision_values(X) for m in self.bases]
        return np.column_stack(cols)

    def meta_decision_values(self, meta_X: np.ndarray) -> np.ndarray:
        """Decision values from meta-features: one column of base
        decision values per base, in base order."""
        return self.meta.probabilities(meta_X) - 0.5

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return self.meta_decision_values(self.meta_features(X))


def _checked_meta(n_bases: int, meta_spec: ModelSpec) -> ModelSpec:
    if n_bases < 2:
        raise ValueError("stacking needs at least 2 base specs")
    if meta_spec.algorithm != "logreg":
        raise ValueError("meta-learner must be logreg")
    return validate_spec(meta_spec)


def fit_stack_meta(bases: list, meta_X: np.ndarray, y: np.ndarray,
                   meta_spec: ModelSpec,
                   schema_fingerprint: str | None = None) -> StackModel:
    """Fit the logistic meta-learner on out-of-fold base decision values
    (one column per base, in base order) over bases already refit on
    all rows."""
    meta_spec = _checked_meta(len(bases), meta_spec)
    check_training_inputs(meta_X, y)
    meta = train_logreg(meta_spec, meta_X, y)
    stack_spec = ModelSpec("stack", {}, meta_spec.seed)
    return StackModel(stack_spec, list(bases), meta, meta.converged, schema_fingerprint)


def train_stack(base_specs: list[ModelSpec], meta_spec: ModelSpec,
                X: np.ndarray, y: np.ndarray,
                schema_fingerprint: str | None = None) -> StackModel:
    from ..evaluation import kfold_cv
    from . import train

    _checked_meta(len(base_specs), meta_spec)
    meta_X = np.column_stack([
        kfold_cv(spec, X, y, _STACK_FOLDS, meta_spec.seed).oof_values
        for spec in base_specs])
    bases = [train(spec, X, y) for spec in base_specs]
    return fit_stack_meta(bases, meta_X, y, meta_spec, schema_fingerprint)
