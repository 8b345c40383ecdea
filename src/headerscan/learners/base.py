"""Shared learner plumbing: specs, scores, seed derivation, validation."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ALGORITHMS",
    "ModelSpec",
    "Score",
    "ConvergenceError",
    "derive_seed",
    "rng_for",
    "validate_spec",
    "check_training_inputs",
    "stratified_fold_ids",
]

ALGORITHMS = (
    "logreg",
    "linear_svm",
    "decision_tree",
    "random_forest",
    "grad_boost",
    "gaussian_nb",
    "knn",
    "mlp",
    "adaboost",
    "stack",
    "one_class_svm",
)


@dataclass(frozen=True)
class ModelSpec:
    algorithm: str
    hyperparameters: dict
    seed: int


@dataclass(frozen=True)
class Score:
    """decision_value >= 0 means anomalous for every binary model; for the
    one-class SVM the sign convention is inverted (>= 0 means inlier) and
    is_anomalous carries the verdict."""

    decision_value: float
    is_anomalous: bool


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def derive_seed(seed: int, *tags) -> int:
    """Stable 63-bit sub-seed from a master seed and a tag path."""
    text = "/".join([str(seed), *[str(t) for t in tags]])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def rng_for(seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *tags))


def _positive(value) -> bool:
    return isinstance(value, (int, float)) and value > 0


def _depth_ok(value) -> bool:
    return value is None or (isinstance(value, int) and value >= 1)


# name -> (default, validator, description of the constraint)
_HYPER_DOMAINS: dict[str, dict] = {
    "logreg": {
        "lam": (1e-3, lambda v: isinstance(v, (int, float)) and v >= 0, ">= 0"),
    },
    "linear_svm": {
        "C": (1.0, _positive, "> 0"),
    },
    "decision_tree": {
        "max_depth": (None, _depth_ok, ">= 1 or None"),
        "min_samples_leaf": (1, lambda v: isinstance(v, int) and v >= 1, ">= 1"),
    },
    "random_forest": {
        "n_trees": (100, lambda v: isinstance(v, int) and v >= 1, ">= 1"),
        "max_depth": (None, _depth_ok, ">= 1 or None"),
        "min_samples_leaf": (1, lambda v: isinstance(v, int) and v >= 1, ">= 1"),
        "max_features": ("sqrt", lambda v: v in ("sqrt", "all"), "sqrt|all"),
    },
    "grad_boost": {
        "n_trees": (100, lambda v: isinstance(v, int) and v >= 1, ">= 1"),
        "learning_rate": (0.1, _positive, "> 0"),
        "max_depth": (3, lambda v: isinstance(v, int) and 1 <= v <= 3, "1..3"),
    },
    "gaussian_nb": {},
    "knn": {
        "k": (5, lambda v: isinstance(v, int) and v >= 1, ">= 1"),
    },
    "mlp": {
        "hidden": (16, lambda v: isinstance(v, int) and v >= 1, ">= 1"),
        "lr": (0.01, _positive, "> 0"),
        "epochs": (100, lambda v: isinstance(v, int) and v >= 1, ">= 1"),
        "batch_size": (32, lambda v: isinstance(v, int) and v >= 1, ">= 1"),
    },
    "adaboost": {
        "rounds": (100, lambda v: isinstance(v, int) and v >= 1, ">= 1"),
    },
    "stack": {},
    "one_class_svm": {
        "nu": (0.1, lambda v: isinstance(v, (int, float)) and 0 < v <= 1, "in (0, 1]"),
        "gamma": (0.5, _positive, "> 0"),
        "tol": (1e-3, _positive, "> 0"),
        "max_iter": (None, lambda v: v is None or (isinstance(v, int) and v >= 1), ">= 1 or None"),
    },
}


def validate_spec(spec: ModelSpec) -> ModelSpec:
    """Fill hyperparameter defaults and reject out-of-domain values."""
    if spec.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {spec.algorithm!r}")
    domains = _HYPER_DOMAINS[spec.algorithm]
    unknown = set(spec.hyperparameters) - set(domains)
    if unknown:
        raise ValueError(f"{spec.algorithm}: unknown hyperparameters {sorted(unknown)}")
    merged = {}
    for name, (default, check, doc) in domains.items():
        value = spec.hyperparameters.get(name, default)
        if not check(value):
            raise ValueError(f"{spec.algorithm}.{name}={value!r} outside domain ({doc})")
        merged[name] = value
    return ModelSpec(spec.algorithm, merged, int(spec.seed))


def check_training_inputs(X: np.ndarray, y: np.ndarray | None = None) -> None:
    if X.size == 0:
        raise ValueError("empty training matrix")
    if not np.isfinite(X).all():
        raise ValueError("NaN or Inf in training matrix")
    if y is not None:
        values = set(np.unique(y).tolist())
        if not values <= {0, 1}:
            raise ValueError(f"labels must be 0 (ham) or 1 (anomalous), got {values}")
        if len(values) < 2:
            raise ValueError("training labels are single-class")


def stratified_fold_ids(y: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Fold assignment 0..k-1, stratified per class, sizes within 1."""
    y = np.asarray(y)
    ids = np.empty(len(y), dtype=np.int64)
    rng = np.random.default_rng(seed)
    # round-robin offset carried across classes keeps fold sizes level
    offset = 0
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for j, row in enumerate(idx):
            ids[row] = (offset + j) % k
        offset += len(idx)
    return ids
