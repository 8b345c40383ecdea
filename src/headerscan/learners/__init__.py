"""From-scratch learners on numpy, all driven by a single ModelSpec.

train_grid is the one entry point that fits models: a cells x folds
table of specs of one algorithm, each cell one set of hyperparameters
and each fold one row set. The table's shape is what a learner may
share: grad_boost and the MLP fit a cell's folds together, the
one-class SVM a fold's cells; the other learners fit one model at a
time. train and train_one_class are its 1 x 1 grids over all rows;
held_out fits a whole grid's fold models in one call and scores their
held-out rows, which is every held-out value there is: the k-fold and
one-class reports of grid search and the stacks' meta-features.
train_grid checks every row set before it fits any model and sets
each model's schema fingerprint, so the trainers only fit.

Decision-value convention: every binary model emits decision values
where >= 0 reads anomalous (probability minus 0.5 for probabilistic
models, the decision tree's leaf included, the margin for the SVM, vote
fraction minus 0.5 for forest and kNN, and AdaBoost's alpha-weighted
vote over the sum of its alphas, in [-1, 1]). The one-class SVM is the
inverse: >= 0 reads inlier (ham).
"""

from __future__ import annotations

import numpy as np

from .base import (ALGORITHMS, ConvergenceError, ModelSpec, Score, check_training_inputs,
                   derive_seed, fold_spec, rng_for, stratified_fold_ids, validate_spec)
from .bayes import GaussianNBModel, train_gaussian_nb
from .boosting import AdaBoostModel, GradBoostModel, train_adaboost, train_grad_boosts
from .bundle import (Bundle, bundle_bytes, load_bundle, model_from_doc,
                     model_to_doc, save_bundle)
from .forest import RandomForestModel, train_random_forest
from .linear import LinearSVMModel, LogRegModel, train_linear_svm, train_logreg
from .mlp import MLPModel, loss_and_grad, train_mlps
from .neighbors import KNNModel, train_knn
from .ocsvm import KKTAudit, OneClassSVMModel, train_one_class_svms
from .stack import StackModel, fit_stack_meta, train_stack
from .tree import DecisionTreeModel, train_decision_tree

__all__ = [
    "ALGORITHMS", "ModelSpec", "Score", "ConvergenceError",
    "derive_seed", "rng_for", "stratified_fold_ids", "validate_spec",
    "train", "train_one_class", "train_grid", "held_out", "train_stack",
    "fit_stack_meta",
    "predict", "predict_one_class", "decision_values", "check_fingerprint",
    "default_grid", "DEFAULT_GRIDS",
    "Bundle", "save_bundle", "load_bundle", "bundle_bytes",
    "model_to_doc", "model_from_doc",
    "LogRegModel", "LinearSVMModel", "DecisionTreeModel", "RandomForestModel",
    "GradBoostModel", "AdaBoostModel", "GaussianNBModel", "KNNModel",
    "MLPModel", "OneClassSVMModel", "StackModel", "KKTAudit", "loss_and_grad",
]

# learners fitted one model per spec; grad_boost, the MLP and the
# one-class SVM fit a grid row or column together in train_grid
_TRAINERS = {
    "logreg": train_logreg,
    "linear_svm": train_linear_svm,
    "decision_tree": train_decision_tree,
    "random_forest": train_random_forest,
    "gaussian_nb": train_gaussian_nb,
    "knn": train_knn,
    "adaboost": train_adaboost,
}


def train(spec: ModelSpec, X: np.ndarray, y: np.ndarray,
          schema_fingerprint: str | None = None):
    """Train a binary model on all of X. Use train_one_class for the
    one-class SVM and train_stack for stacking."""
    return next(train_grid([[spec]], X, y, [np.arange(len(X))], schema_fingerprint))[2]


def train_one_class(spec: ModelSpec, X: np.ndarray,
                    schema_fingerprint: str | None = None):
    """Train a one-class SVM on all of X."""
    return next(train_grid([[spec]], X, None, [np.arange(len(X))], schema_fingerprint))[2]


def train_grid(specs: list[list[ModelSpec]], X: np.ndarray, y: np.ndarray | None,
               row_sets: list, schema_fingerprint: str | None = None):
    """Fit a cells x folds table of specs of one algorithm, yielding
    (c, f, model): specs[c][f] trained on X[row_sets[f]], y[row_sets[f]]
    (y is None for the one-class SVM), each model byte for byte the one
    its spec gets alone, stamped with schema_fingerprint. A cell's specs
    share their hyperparameters and row sets are strictly ascending;
    every row set is checked before any model is fitted.

    The one-class SVM fits each fold's cells together, sharing the
    fold's kernel work, and yields fold by fold, cell by cell. The
    others yield cell by cell, fold by fold: grad_boost and the MLP fit
    each cell's folds together, the rest fit one model per yield."""
    specs = [[validate_spec(spec) for spec in cell] for cell in specs]
    algorithm = specs[0][0].algorithm
    for cell in specs:
        if len(cell) != len(row_sets):
            raise ValueError("every cell needs one spec per row set")
        if any(spec.algorithm != algorithm for spec in cell):
            raise ValueError("a grid trains one algorithm")
        if any(spec.hyperparameters != cell[0].hyperparameters for spec in cell):
            raise ValueError("a cell's specs share their hyperparameters")
    if (algorithm == "one_class_svm") != (y is None):
        raise ValueError("one_class_svm, and only it, trains without labels")
    if algorithm == "stack":
        raise ValueError("stacks train with train_stack")
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if y is not None:
        y = np.asarray(y, dtype=np.int64)
    for rows in row_sets:
        check_training_inputs(_take(X, rows), None if y is None else _take(y, rows))
    for c, f, model in _fit(specs, X, y, row_sets):
        model.schema_fingerprint = schema_fingerprint
        yield c, f, model


def _fit(specs, X, y, row_sets):
    """train_grid's yields, from inputs it has checked."""
    if y is None:
        for f, rows in enumerate(row_sets):
            models = train_one_class_svms([cell[f] for cell in specs], _take(X, rows))
            yield from ((c, f, model) for c, model in enumerate(models))
        return
    batched = {"grad_boost": train_grad_boosts, "mlp": train_mlps}.get(specs[0][0].algorithm)
    for c, cell in enumerate(specs):
        if batched is None:
            models = (_TRAINERS[spec.algorithm](spec, _take(X, rows), _take(y, rows))
                      for spec, rows in zip(cell, row_sets))
        else:
            models = batched(cell, X, y, row_sets)
        yield from ((c, f, model) for f, model in enumerate(models))


def held_out(specs: list[ModelSpec], X: np.ndarray, y: np.ndarray | None,
             row_sets: list, held: list) -> list:
    """Held-out decision values of a grid of one algorithm's cells:
    out[c][f][b] = decision_values(model, X[held[f][b]]) for the model
    fold_spec(specs[c], f) trained on X[row_sets[f]], y[row_sets[f]],
    all from one cells x folds train_grid call. Each held block is
    scored by its own call, as the bits of a row's value may depend on
    the rows scored with it (BLAS tiling); models are dropped once
    scored."""
    grid = [[fold_spec(spec, f) for f in range(len(row_sets))] for spec in specs]
    out = [[None] * len(row_sets) for _ in specs]
    for c, f, model in train_grid(grid, X, y, row_sets):
        out[c][f] = [decision_values(model, X[rows]) for rows in held[f]]
    return out


def _take(A: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A[rows]; a row set of every row gives A itself, not a copy."""
    return A if len(rows) == len(A) else A[rows]


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
    """Score one standardized feature vector: anomalous iff the decision
    value is >= 0, or < 0 for the one-class SVM (inlier iff >= 0). A
    decision value that is not finite raises ValueError: it has no
    verdict."""
    check_fingerprint(model, fingerprint)
    dv = float(decision_values(model, np.asarray(x, dtype=np.float64)[None, :])[0])
    if not np.isfinite(dv):
        raise ValueError(f"decision value is not finite: {dv!r}")
    one_class = model.spec.algorithm == "one_class_svm"
    return Score(decision_value=dv, is_anomalous=dv < 0.0 if one_class else dv >= 0.0)


def predict_one_class(model, x: np.ndarray, fingerprint: str | None = None) -> Score:
    """predict, for a one-class SVM only; other models raise ValueError."""
    if model.spec.algorithm != "one_class_svm":
        raise ValueError(f"{model.spec.algorithm} is not a one-class model")
    return predict(model, x, fingerprint)


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
