"""Shared learner plumbing: specs, scores, seed derivation, validation."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ALGORITHMS",
    "ModelSpec",
    "Model",
    "Score",
    "ConvergenceError",
    "derive_seed",
    "fold_spec",
    "rng_for",
    "validate_spec",
    "check_hyperparameters",
    "check_training_inputs",
    "stratified_fold_ids",
]

@dataclass(frozen=True)
class ModelSpec:
    algorithm: str
    hyperparameters: dict
    seed: int


@runtime_checkable
class Model(Protocol):
    """A trained model: the bundle envelope's fields and a scorer."""

    spec: ModelSpec
    converged: bool
    schema_fingerprint: str | None

    def decision_values(self, X: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class Score:
    """One vector's score from predict or predict_one_class. decision_value
    >= 0 means anomalous for every binary model and inlier for the
    one-class SVM; is_anomalous carries the verdict."""

    decision_value: float
    is_anomalous: bool


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(message, residual)  # so a pickled copy keeps both
        self.residual = residual

    def __str__(self) -> str:
        return f"{self.args[0]} (residual {self.residual:.3e})"


def derive_seed(seed: int, *tags) -> int:
    """Stable 63-bit sub-seed from a master seed and a tag path."""
    text = "/".join([str(seed), *[str(t) for t in tags]])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def fold_spec(spec: ModelSpec, fold: int) -> ModelSpec:
    """spec, reseeded for the model trained without fold `fold`."""
    return ModelSpec(spec.algorithm, spec.hyperparameters, derive_seed(spec.seed, "fold", fold))


def rng_for(seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *tags))


def _real(value) -> bool:
    """An int or a finite float; a bool is no number here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) < float("inf"))


def _positive(value) -> bool:
    return _real(value) and value > 0


def _count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# name -> (default, validator, description of the constraint); solver
# settings are constants of their learner's module, not hyperparameters
_HYPER_DOMAINS: dict[str, dict] = {
    "logreg": {
        "lam": (1e-3, lambda v: _real(v) and v >= 0, ">= 0"),
    },
    "linear_svm": {
        "C": (1.0, _positive, "> 0"),
    },
    "decision_tree": {
        "max_depth": (None, lambda v: v is None or _count(v), ">= 1 or None"),
        "min_samples_leaf": (1, _count, ">= 1"),
    },
    "random_forest": {
        "n_trees": (100, _count, ">= 1"),
        "max_depth": (None, lambda v: v is None or _count(v), ">= 1 or None"),
        "min_samples_leaf": (1, _count, ">= 1"),
        "max_features": ("sqrt", lambda v: v in ("sqrt", "all"), "sqrt|all"),
    },
    "grad_boost": {
        "n_trees": (100, _count, ">= 1"),
        "learning_rate": (0.1, _positive, "> 0"),
        "max_depth": (3, lambda v: _count(v) and v <= 3, "1..3"),
    },
    "gaussian_nb": {},
    "knn": {
        "k": (5, _count, ">= 1"),
    },
    "mlp": {
        "hidden": (16, _count, ">= 1"),
        "lr": (0.01, _positive, "> 0"),
    },
    "adaboost": {
        "rounds": (100, _count, ">= 1"),
    },
    "stack": {},
    "one_class_svm": {
        "nu": (0.1, lambda v: _real(v) and 0 < v <= 1, "in (0, 1]"),
        "gamma": (0.5, _positive, "> 0"),
    },
}


ALGORITHMS = tuple(_HYPER_DOMAINS)


def validate_spec(spec: ModelSpec) -> ModelSpec:
    """Fill hyperparameter defaults and reject out-of-domain values."""
    if spec.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {spec.algorithm!r}")
    defaults = {name: default for name, (default, _, _) in _HYPER_DOMAINS[spec.algorithm].items()}
    spec = ModelSpec(spec.algorithm, defaults | spec.hyperparameters, int(spec.seed))
    check_hyperparameters(spec)
    return spec


def check_hyperparameters(spec: ModelSpec) -> None:
    """Raise ValueError unless spec holds every hyperparameter of its
    algorithm, each in its domain, and no other."""
    hp, domains = spec.hyperparameters, _HYPER_DOMAINS[spec.algorithm]
    unknown = set(hp) - set(domains)
    if unknown:
        raise ValueError(f"{spec.algorithm}: unknown hyperparameters {sorted(unknown)}")
    for name, (_, check, doc) in domains.items():
        if name not in hp:
            raise ValueError(f"{spec.algorithm}.{name} is missing")
        if not check(hp[name]):
            raise ValueError(f"{spec.algorithm}.{name}={hp[name]!r} outside domain ({doc})")


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
        ids[idx] = (offset + np.arange(len(idx))) % k
        offset += len(idx)
    return ids
