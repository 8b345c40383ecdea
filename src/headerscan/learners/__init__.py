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
from .boosting import AdaBoostModel, GradBoostModel, train_adaboost, train_grad_boost
from .bundle import (Bundle, bundle_bytes, load_bundle, model_from_doc,
                     model_to_doc, save_bundle)
from .forest import RandomForestModel, train_random_forest
from .linear import LinearSVMModel, LogRegModel, train_linear_svm, train_logreg
from .mlp import MLPModel, loss_and_grad, train_mlp
from .neighbors import KNNModel, train_knn
from .ocsvm import KKTAudit, OneClassSVMModel, train_one_class_svm
from .stack import StackModel, fit_stack_meta, out_of_fold, train_stack
from .tree import DecisionTreeModel, train_decision_tree

__all__ = [
    "ALGORITHMS", "ModelSpec", "Score", "ConvergenceError",
    "derive_seed", "rng_for", "stratified_fold_ids", "validate_spec",
    "train", "train_one_class", "train_stack", "out_of_fold", "fit_stack_meta",
    "predict", "predict_one_class", "decision_values",
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


def train_one_class(spec: ModelSpec, X: np.ndarray,
                    schema_fingerprint: str | None = None):
    spec = validate_spec(spec)
    if spec.algorithm != "one_class_svm":
        raise ValueError("train_one_class only accepts one_class_svm specs")
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    return train_one_class_svm(spec, X, schema_fingerprint)


def decision_values(model, X: np.ndarray) -> np.ndarray:
    """Score a 2-D matrix; a NaN or Inf entry raises ValueError."""
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.isfinite(X).all():
        raise ValueError("NaN or Inf in feature matrix")
    return model.decision_values(X)


def _check_fingerprint(model, fingerprint):
    if (fingerprint is not None and model.schema_fingerprint is not None
            and fingerprint != model.schema_fingerprint):
        raise ValueError("feature schema fingerprint does not match the model")


def predict(model, x: np.ndarray, fingerprint: str | None = None) -> Score:
    """Score one standardized feature vector with a binary model."""
    _check_fingerprint(model, fingerprint)
    dv = float(decision_values(model, np.asarray(x, dtype=np.float64)[None, :])[0])
    return Score(decision_value=dv, is_anomalous=dv >= 0.0)


def predict_one_class(model, x: np.ndarray, fingerprint: str | None = None) -> Score:
    """Score one vector with the one-class SVM: Inlier iff >= 0."""
    _check_fingerprint(model, fingerprint)
    dv = float(decision_values(model, np.asarray(x, dtype=np.float64)[None, :])[0])
    return Score(decision_value=dv, is_anomalous=dv < 0.0)


DEFAULT_GRIDS: dict[str, dict] = {
    "logreg": {"lam": [1e-4, 1e-3, 1e-2]},
    "linear_svm": {"C": [0.1, 1.0, 10.0]},
    "decision_tree": {},
    "random_forest": {"n_trees": [100], "max_depth": [None, 20]},
    "gaussian_nb": {},
    "knn": {"k": [1, 3, 5, 7]},
    "mlp": {"hidden": [16, 64], "lr": [0.01, 0.001]},
    "grad_boost": {"n_trees": [100], "learning_rate": [0.1]},
    "adaboost": {"rounds": [100]},
}


def default_grid(algorithm: str, n_features: int | None = None) -> dict:
    """Hyperparameter grid searched when the config does not override.
    The one-class grid needs the feature count for its gamma = 1/d cell."""
    if algorithm == "one_class_svm":
        gammas = [0.1, 0.5]
        if n_features:
            g = 1.0 / n_features
            if g not in gammas:
                gammas.append(g)
        return {"nu": [0.05, 0.1, 0.2], "gamma": gammas}
    if algorithm not in DEFAULT_GRIDS:
        raise ValueError(f"no default grid for {algorithm}")
    return {k: list(v) for k, v in DEFAULT_GRIDS[algorithm].items()}
