"""Splits, cross-validation, grid search, metrics, balancing,
permutation importance, and report tables.

Positive class is always the anomaly (spam or phishing). Aggregate CV
metrics come from the confusion matrix pooled across folds; AUC pools
the per-fold decision values instead, since it is not a function of
the confusion matrix. Scores are make_scores' (values, verdicts) arrays.

grid_search is the one model-selection loop of all four phases: it
scores all of a grid's cells on one fold plan, by stratified k-fold CV
or, for the one-class SVM, by one_class_cv. Either way every fold model
of the grid comes from one learners.held_out call, which fits the whole
cells x folds table in one train_grid pass; kfold_cv is the one-cell
case of the binary search.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
from dataclasses import dataclass

import numpy as np

from .learners import (ModelSpec, check_fingerprint, derive_seed, held_out,
                       rng_for, stratified_fold_ids)
from .learners.tree import TreeEnsemble

__all__ = [
    "EvalReport", "ImportanceReport", "RenderedTable",
    "make_scores", "compute_metrics", "roc_points",
    "stratified_split", "kfold_cv", "one_class_cv", "grid_search", "balance",
    "permutation_importance", "select_top_m", "render_table",
    "render_importance_table",
]

log = logging.getLogger(__name__)

METRIC_COLUMNS = ("Accuracy", "F1", "Recall", "Precision", "AUC")


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float | None
    confusion: tuple[int, int, int, int]  # tp, fp, fn, tn
    per_fold: tuple | None = None
    # kfold_cv only: every row's held-out decision value, in row order
    oof_values: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ImportanceReport:
    feature_names: tuple[str, ...]
    mean_drop: tuple[float, ...]
    std_drop: tuple[float, ...]
    repeats: int
    baseline_accuracy: float


def make_scores(decision_values, one_class: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(values, anomalous): a float64 ranking array, higher meaning more
    anomalous, and a bool verdict array, anomalous iff the value is >= 0.
    One-class values are inlier-positive: they are negated for ranking,
    and anomalous iff the raw value is < 0."""
    dv = np.asarray(decision_values, dtype=np.float64)
    if one_class:
        return -dv, dv < 0.0
    return dv, dv >= 0.0


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their group's ranks."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))
    sizes = np.diff(starts, append=len(values))
    ends = starts + sizes - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, sizes)
    return ranks


def _auc(decision_values: np.ndarray, y: np.ndarray) -> float | None:
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _midranks(decision_values)
    # Mann-Whitney: concordant pairs with ties counted half
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def compute_metrics(scores: tuple[np.ndarray, np.ndarray], y) -> EvalReport:
    dv, predicted = scores
    y = np.asarray(y, dtype=np.int64)
    if len(dv) != len(y):
        raise ValueError("scores and labels differ in length")
    actual = y == 1
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    tn = int(np.sum(~predicted & ~actual))
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return EvalReport(accuracy, precision, recall, f1, _auc(dv, y),
                      (tp, fp, fn, tn))


def roc_points(scores: tuple[np.ndarray, np.ndarray], y) -> np.ndarray:
    """(fpr, tpr) pairs of make_scores' values, sweeping the threshold
    from high to low, tied values grouped; starts at (0,0), ends at (1,1)."""
    dv, _ = scores
    y = np.asarray(y, dtype=np.int64)
    pos = y == 1
    n_pos = max(int(pos.sum()), 1)
    n_neg = max(int((~pos).sum()), 1)
    order = np.argsort(-dv, kind="stable")
    s = dv[order]
    # the last sorted row of each tie group (none when there are no rows)
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], len(s) > 0))
    tp = np.cumsum(pos[order])[ends]
    fp = ends + 1 - tp
    return np.vstack([[0.0, 0.0], np.column_stack([fp / n_neg, tp / n_pos])])


def stratified_split(y, test_fraction: float, seed: int):
    """Disjoint, exhaustive (train, test) index arrays with per-class
    test counts at round(class_count * fraction). A class that this
    leaves without a training or a test row raises ValueError."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    y = np.asarray(y, dtype=np.int64)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise ValueError("both classes must be present")
    if counts.min() < 2:
        raise ValueError("every class needs at least 2 examples")
    n_tests = [int(np.floor(count * test_fraction + 0.5)) for count in counts.tolist()]
    for cls, count, n_test in zip(classes.tolist(), counts.tolist(), n_tests):
        if not 0 < n_test < count:
            raise ValueError(f"class {cls} has {count} examples: a test fraction of {test_fraction} "
                             f"leaves it no {'test' if n_test == 0 else 'training'} row")
    rng = np.random.default_rng(derive_seed(seed, "split"))
    test_parts, train_parts = [], []
    for cls, n_test in zip(classes, n_tests):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        test_parts.append(idx[:n_test])
        train_parts.append(idx[n_test:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return train, test


def kfold_cv(spec: ModelSpec, X, y, k: int, seed: int) -> EvalReport:
    """Stratified k-fold CV on the fold plan derived from seed. Per-fold
    model seeds derive from (spec.seed, fold), so evaluation order does
    not matter."""
    return _kfold_cvs([spec], X, y, k, seed)[0]


def _kfold_cvs(specs: list[ModelSpec], X, y, k: int, seed: int) -> list[EvalReport]:
    """kfold_cv of every spec, in spec order, from one held_out call."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if k < 2:
        raise ValueError("k must be >= 2")
    _, counts = np.unique(y, return_counts=True)
    if len(counts) < 2 or counts.min() < k:
        raise ValueError(f"each class needs at least k={k} examples")
    fold_of = stratified_fold_ids(y, k, derive_seed(seed, "folds"))
    held = [fold_of == f for f in range(k)]
    reports = []
    for cell in held_out(specs, X, y, [np.flatnonzero(~h) for h in held],
                         [[h] for h in held]):
        dv = np.empty(len(y))
        for h, (values,) in zip(held, cell):
            dv[h] = values
        per_fold = tuple(compute_metrics(make_scores(values), y[h])
                         for h, (values,) in zip(held, cell))
        pooled = compute_metrics(make_scores(dv), y)
        reports.append(dataclasses.replace(pooled, per_fold=per_fold,
                                           oof_values=tuple(dv.tolist())))
    return reports


def one_class_cv(specs: list[ModelSpec], X, y, k: int,
                 seed: int) -> list[EvalReport]:
    """k-fold validation of models trained on ham (y == 0) alone: one
    report per spec, in spec order.

    Ham falls into k folds on the plan derived from seed, and the
    anomalies (y == 1) form a pool in a seeded order. Fold f trains each
    spec on the other folds' ham with seed derive_seed(spec.seed,
    "fold", f) and scores its own ham plus pool[f::k], both cut to the
    same length, so every fold is balanced like the final test. The
    fold models come from one held_out call, whose train_grid pass
    trains a fold's specs together, so they share the fold's kernel
    work, and holds one fold's models at a time. With fewer than k
    anomalies, the folds left without one are neither fitted nor
    scored."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    ham, anomalies = np.flatnonzero(y == 0), np.flatnonzero(y == 1)
    if len(ham) < 2 * k or len(anomalies) == 0:
        raise ValueError(f"one-class folds need at least {2 * k} ham rows "
                         "and one anomaly")
    fold_of = stratified_fold_ids(np.zeros(len(ham), dtype=np.int64), k,
                                  derive_seed(seed, "oc-folds"))
    pool = anomalies[rng_for(seed, "oc-valpool").permutation(len(anomalies))]
    # pool[f::k] is empty from f = len(pool) on: such folds are skipped
    folds = range(min(k, len(pool)))
    held = []
    for f in folds:
        held_ham, held_anom = ham[fold_of == f], np.sort(pool[f::k])
        m = min(len(held_ham), len(held_anom))
        held.append((held_ham[:m], held_anom[:m]))
    out = held_out(specs, X, None, [ham[fold_of != f] for f in folds], held)
    y_all = np.concatenate([np.repeat([0, 1], len(held_ham)) for held_ham, _ in held])
    return [compute_metrics(make_scores(np.concatenate([dv for fold in cell for dv in fold]),
                                        one_class=True), y_all) for cell in out]


def grid_search(algorithm: str, grid: dict, X, y, k: int, seed: int):
    """Evaluate every Cartesian-product cell, all cells on the one fold
    plan derived from seed and all cells' fold models fitted in one
    held_out call: by k-fold CV (each cell's report is its kfold_cv)
    or, for the one-class SVM, by one_class_cv.

    Cells enumerate with the first grid key slowest (dict insertion
    order). Best cell: highest pooled accuracy, then highest F1, then
    earliest enumeration. Cell seeds derive from the algorithm and the
    cell's contents, so reordering the grid cannot change any cell's
    result and two algorithms searched with one seed never share a
    model seed. An empty grid evaluates the single all-defaults cell.
    """
    keys = list(grid)
    specs = []
    for combo in itertools.product(*(grid[key] for key in keys)):
        hp = dict(zip(keys, combo))
        specs.append(ModelSpec(algorithm, hp, derive_seed(
            seed, "cell", algorithm, json.dumps(hp, sort_keys=True, default=str))))
    if algorithm == "one_class_svm":
        reports = one_class_cv(specs, X, y, k, seed)
    else:
        reports = _kfold_cvs(specs, X, y, k, seed)
    scored = list(zip(specs, reports))
    # max keeps the first of equal keys: the earliest cell wins a tie
    best_spec, _ = max(scored, key=lambda sr: (sr[1].accuracy, sr[1].f1))
    return best_spec, [(spec.hyperparameters, report) for spec, report in scored]


def balance(y, seed: int) -> np.ndarray:
    """Indices of a class-balanced subset: the majority class is
    downsampled (seeded, without replacement) to the minority count and
    the combined order is shuffled."""
    y = np.asarray(y, dtype=np.int64)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise ValueError("both classes must be present")
    floor = counts.min()
    rng = np.random.default_rng(derive_seed(seed, "balance"))
    keep = []
    for cls in classes:
        idx = np.flatnonzero(y == cls)
        if len(idx) > floor:
            idx = rng.choice(idx, size=floor, replace=False)
        keep.append(idx)
    out = np.concatenate(keep)
    rng.shuffle(out)
    return out


def permutation_importance(model, X_test, y_test, repeats: int = 10,
                           seed: int = 0,
                           feature_names: list[str] | None = None,
                           fingerprint: str | None = None) -> ImportanceReport:
    """Mean accuracy drop per feature when only that column is shuffled.

    The baseline is scored once; each (feature, repeat) pair draws its
    own generator so results do not depend on evaluation order. A tree
    model reads only the features its trees split on, so shuffling any
    other column leaves every decision value as it was: those drops are
    0.0, recorded without drawing or scoring; a tree model scores the
    other pairs in one swapped_values call.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    check_fingerprint(model, fingerprint)
    X_test = np.asarray(X_test, dtype=np.float64)
    y_test = np.asarray(y_test, dtype=np.int64)
    n, d = X_test.shape
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(d)]

    def accuracy(values):
        return float(np.mean((values >= 0.0) == (y_test == 1)))

    def swap(j, r):  # feature j, shuffled by its own generator
        rng = np.random.default_rng(derive_seed(seed, "perm", j, r))
        return j, X_test[rng.permutation(n), j]

    baseline = accuracy(model.decision_values(X_test))
    tree_model = isinstance(model, TreeEnsemble)
    read = (set(np.concatenate([tree.feature for tree in model.trees]).tolist())
            if tree_model else range(d))
    pairs = [(j, r) for j in range(d) if j in read for r in range(repeats)]
    swaps = (swap(j, r) for j, r in pairs)
    if tree_model:
        values = model.swapped_values(X_test, list(swaps))
    else:
        values = (model.decision_values(np.where(np.arange(d) == j, column[:, None], X_test))
                  for j, column in swaps)
    drops = np.zeros((d, repeats))
    for (j, r), row in zip(pairs, values):
        drops[j, r] = baseline - accuracy(row)
    mean_drop = [float(row.mean()) for row in drops]
    std_drop = [float(row.std()) for row in drops]
    return ImportanceReport(tuple(feature_names), tuple(mean_drop),
                            tuple(std_drop), repeats, baseline)


def select_top_m(report: ImportanceReport, m: int) -> list[str]:
    """Names of the m features with the largest mean drop; ties keep
    schema order. Asking for more features than exist returns all of
    them with a warning."""
    if m < 1:
        raise ValueError("m must be >= 1")
    names = list(report.feature_names)
    if m > len(names):
        log.warning("asked for top %d of %d features; returning all", m, len(names))
        return names
    order = np.argsort(-np.asarray(report.mean_drop), kind="stable")[:m]
    return [names[i] for i in order]


@dataclass(frozen=True)
class RenderedTable:
    text: str
    csv: str


def _fmt(value: float | None, scaled: bool) -> str:
    if value is None:
        return "n/a"
    return f"{value * 100.0:.4f}" if scaled else f"{value:.4f}"


def _report_cells(report: EvalReport) -> list[str]:
    return [_fmt(report.accuracy, True), _fmt(report.f1, True),
            _fmt(report.recall, True), _fmt(report.precision, True),
            _fmt(report.auc, False)]


def _layout(rows: list[list[str]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows) + "\n"


def render_table(named_reports: list[tuple[str, EvalReport]],
                 style: str) -> RenderedTable:
    """Paper-style tables: percentages at 4 decimals, AUC unscaled.

    binary and stacking styles put one model per row; oneclass
    transposes, with one metric per row and one run per column.
    """
    if style not in ("binary", "stacking", "oneclass"):
        raise ValueError(f"unknown table style {style!r}")
    if style == "oneclass":
        header = ["Metrics"] + [name for name, _ in named_reports]
        grid = [header]
        all_cells = [_report_cells(r) for _, r in named_reports]
        for i, metric in enumerate(METRIC_COLUMNS):
            grid.append([metric] + [cells[i] for cells in all_cells])
    else:
        label = "Algorithm" if style == "binary" else "Base Learners"
        grid = [[label, *METRIC_COLUMNS]]
        for name, report in named_reports:
            grid.append([name, *_report_cells(report)])
    text = _layout(grid)
    csv = "\n".join(",".join(_csv_escape(c) for c in row) for row in grid) + "\n"
    return RenderedTable(text, csv)


def _csv_escape(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_importance_table(report: ImportanceReport) -> RenderedTable:
    """Permutation importance, largest mean accuracy drop first (ties
    keep schema order). Drops are percentage points at 4 decimals."""
    order = np.argsort(-np.asarray(report.mean_drop), kind="stable")
    grid = [["Feature", "Mean Drop", "Std Dev"]]
    for i in order:
        grid.append([report.feature_names[i],
                     _fmt(report.mean_drop[i], True),
                     _fmt(report.std_drop[i], True)])
    text = _layout(grid)
    csv = "\n".join(",".join(_csv_escape(c) for c in row) for row in grid) + "\n"
    return RenderedTable(text, csv)
