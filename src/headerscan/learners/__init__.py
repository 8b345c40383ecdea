"""From-scratch learners on numpy, all driven by a single ModelSpec.

Decision-value convention: every binary model emits decision values
where >= 0 reads anomalous (probability minus 0.5 for probabilistic
models, the margin for the SVM, vote fraction minus 0.5 for forest and
kNN). The one-class SVM is the inverse: >= 0 reads inlier (ham).
"""

from __future__ import annotations

import numpy as np

from .base import (ALGORITHMS, ConvergenceError, ModelSpec, Score, derive_seed,
                   rng_for, stratified_fold_ids, validate_spec)
from .bayes import GaussianNBModel, train_gaussian_nb
from .boosting import (AdaBoostModel, GradBoostModel, train_adaboost, train_grad_boost,
                       train_grad_boosts)
from .bundle import (Bundle, bundle_bytes, load_bundle, model_from_doc,
                     model_to_doc, save_bundle)
from .forest import RandomForestModel, train_random_forest
from .linear import LinearSVMModel, LogRegModel, train_linear_svm, train_logreg
from .mlp import MLPModel, loss_and_grad, train_mlp, train_mlps
from .neighbors import KNNModel, train_knn
from .ocsvm import KKTAudit, OneClassSVMModel, train_one_class_svms
from .stack import StackModel, fit_stack_meta, out_of_fold, train_stack
from .tree import DecisionTreeModel, train_decision_tree

__all__ = [
    "ALGORITHMS", "ModelSpec", "Score", "ConvergenceError",
    "derive_seed", "rng_for", "stratified_fold_ids", "validate_spec",
    "train", "train_many", "train_one_class", "train_one_class_many", "train_stack",
    "out_of_fold", "fit_stack_meta",
    "predict", "predict_one_class", "decision_values", "check_fingerprint",
    "default_grid", "DEFAULT_GRIDS",
    "Bundle", "save_bundle", "load_bundle", "bundle_bytes",
    "model_to_doc", "model_from_doc",
    "LogRegModel", "LinearSVMModel", "DecisionTreeModel", "RandomForestModel",
    "GradBoostModel", "AdaBoostModel", "GaussianNBModel", "KNNModel",
    "MLPModel", "OneClassSVMModel", "StackModel", "KKTAudit", "loss_and_grad",
]

_TRAINERS = {
    "logreg": train_logreg,
    "linear_svm": train_linear_svm,
    "decision_tree": train_decision_tree,
    "random_forest": train_random_forest,
    "grad_boost": train_grad_boost,
    "gaussian_nb": train_gaussian_nb,
    "knn": train_knn,
    "mlp": train_mlp,
    "adaboost": train_adaboost,
}

# learners whose batched body fits one model per (spec, row set) together
_BATCH_TRAINERS = {"grad_boost": train_grad_boosts, "mlp": train_mlps}


def train(spec: ModelSpec, X: np.ndarray, y: np.ndarray,
          schema_fingerprint: str | None = None):
    """Train a binary model. Use train_one_class for the one-class SVM
    and train_stack for stacking."""
    spec = validate_spec(spec)
    if spec.algorithm not in _TRAINERS:
        raise ValueError(f"{spec.algorithm} is not a binary train() algorithm")
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    return _TRAINERS[spec.algorithm](spec, X, y, schema_fingerprint)


def train_many(specs: list[ModelSpec], X: np.ndarray, y: np.ndarray, row_sets: list,
               schema_fingerprint: str | None = None) -> list:
    """One binary model per (spec, ascending row set), in order: model i
    is the one train(specs[i], X[row_sets[i]], y[row_sets[i]]) gives.
    The specs share an algorithm with a batched trainer (grad_boost or
    mlp) and its hyperparameters, and all the models fit together."""
    specs = [validate_spec(spec) for spec in specs]
    if specs[0].algorithm not in _BATCH_TRAINERS:
        raise ValueError(f"{specs[0].algorithm} has no batched trainer")
    if any((spec.algorithm, spec.hyperparameters)
           != (specs[0].algorithm, specs[0].hyperparameters) for spec in specs):
        raise ValueError("models trained together share algorithm and hyperparameters")
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    return _BATCH_TRAINERS[specs[0].algorithm](specs, X, y, row_sets, schema_fingerprint)


def train_one_class(spec: ModelSpec, X: np.ndarray,
                    schema_fingerprint: str | None = None):
    return train_one_class_many([spec], X, schema_fingerprint)[0]


def train_one_class_many(specs: list[ModelSpec], X: np.ndarray,
                         schema_fingerprint: str | None = None) -> list:
    """One one-class SVM per spec on the same X, in spec order; each is
    the model train_one_class gives, but the kernel work is shared."""
    specs = [validate_spec(spec) for spec in specs]
    if any(spec.algorithm != "one_class_svm" for spec in specs):
        raise ValueError("train_one_class only accepts one_class_svm specs")
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    return train_one_class_svms(specs, X, schema_fingerprint)


def decision_values(model, X: np.ndarray) -> np.ndarray:
    """Score a 2-D matrix; a NaN or Inf entry raises ValueError."""
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.isfinite(X).all():
        raise ValueError("NaN or Inf in feature matrix")
    return model.decision_values(X)


def check_fingerprint(model, fingerprint: str | None) -> None:
    """Refuse a schema fingerprint other than the model's; None passes."""
    if (fingerprint is not None and model.schema_fingerprint is not None
            and fingerprint != model.schema_fingerprint):
        raise ValueError("feature schema fingerprint does not match the model")


def predict(model, x: np.ndarray, fingerprint: str | None = None) -> Score:
    """Score one standardized feature vector with a binary model."""
    check_fingerprint(model, fingerprint)
    dv = float(decision_values(model, np.asarray(x, dtype=np.float64)[None, :])[0])
    return Score(decision_value=dv, is_anomalous=dv >= 0.0)


def predict_one_class(model, x: np.ndarray, fingerprint: str | None = None) -> Score:
    """Score one vector with the one-class SVM: Inlier iff >= 0."""
    check_fingerprint(model, fingerprint)
    dv = float(decision_values(model, np.asarray(x, dtype=np.float64)[None, :])[0])
    return Score(decision_value=dv, is_anomalous=dv < 0.0)


DEFAULT_GRIDS: dict[str, dict] = {
    "logreg": {"lam": [1e-4, 1e-3, 1e-2]},
    "linear_svm": {"C": [0.1, 1.0, 10.0]},
    "decision_tree": {},
    "random_forest": {"n_trees": [100], "max_depth": [None, 20]},
    "gaussian_nb": {},
    "knn": {"k": [1, 3, 5, 7]},
    "mlp": {"hidden": [16, 64], "lr": [0.01]},
    "grad_boost": {"n_trees": [100], "learning_rate": [0.1]},
    "adaboost": {"rounds": [100]},
    "one_class_svm": {"nu": [0.05, 0.1, 0.2], "gamma": [0.1, 0.5, "auto"]},
}


def default_grid(algorithm: str) -> dict:
    """Hyperparameter grid searched when the config does not override.
    The one-class gamma "auto" stands for 1/d; the pipeline resolves it
    once the feature count is known."""
    if algorithm not in DEFAULT_GRIDS:
        raise ValueError(f"no default grid for {algorithm}")
    return {k: list(v) for k, v in DEFAULT_GRIDS[algorithm].items()}
