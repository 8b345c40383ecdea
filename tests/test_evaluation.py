"""Metric arithmetic, CV partitions, grid search, importance, tables."""

import functools
import itertools
import json
from dataclasses import astuple

import numpy as np
import pytest

import headerscan.evaluation as evaluation
import headerscan.learners as learners
import headerscan.learners.tree as tree_module
from headerscan.corpus import Label
from headerscan.evaluation import (EvalReport, balance, compute_metrics,
                                   grid_search, kfold_cv, make_scores,
                                   one_class_cv, permutation_importance,
                                   render_table, roc_points, select_top_m,
                                   stratified_split)
from headerscan.features import apply_scaler, extract_matrix, fit_scaler, fit_schema
from headerscan.learners import (ConvergenceError, KKTAudit, ModelSpec,
                                 OneClassSVMModel, Score, derive_seed, ocsvm,
                                 rng_for, train, train_grid, train_one_class,
                                 validate_spec)
from headerscan.learners.base import check_training_inputs, stratified_fold_ids
from headerscan.learners.linear import LogRegModel
from headerscan.synthetic import generate_emails, to_records


def scores_for(pred, y):
    # decision values +/-1 matching the predicted labels
    pred = np.asarray(pred, dtype=bool)
    return (np.where(pred, 1.0, -1.0), pred), np.asarray(y)


# --- compute_metrics ------------------------------------------------------


def test_metrics_hand_fixture():
    # tp=3, fp=1, fn=2, tn=4
    pred = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    y = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
    scores, y = scores_for(pred, y)
    r = compute_metrics(scores, y)
    assert r.confusion == (3, 1, 2, 4)
    assert abs(r.accuracy - 0.7) < 1e-12
    assert abs(r.precision - 0.75) < 1e-12
    assert abs(r.recall - 0.6) < 1e-12
    assert round(r.f1, 6) == 0.666667


def test_auc_hand_fixture():
    values = np.array([0.1, 0.4, 0.35, 0.8])
    r = compute_metrics((values, values >= 0.5), [0, 0, 1, 1])
    assert abs(r.auc - 0.75) < 1e-12


def test_perfect_predictions():
    pred = [0, 0, 1, 1]
    scores, y = scores_for(pred, pred)
    r = compute_metrics(scores, y)
    assert r.accuracy == 1.0 and r.auc == 1.0 and r.f1 == 1.0


def test_single_class_has_no_auc():
    scores, y = scores_for([1, 0, 1], [1, 1, 1])
    r = compute_metrics(scores, y)
    assert r.auc is None
    assert abs(r.accuracy - 2 / 3) < 1e-12


def test_constant_anomalous_on_60_40():
    scores, y = scores_for([1] * 100, [1] * 60 + [0] * 40)
    r = compute_metrics(scores, y)
    assert abs(r.accuracy - 0.6) < 1e-12
    assert r.recall == 1.0
    assert abs(r.precision - 0.6) < 1e-12


def test_length_mismatch_rejected():
    scores, _ = scores_for([1, 0], [1, 0])
    with pytest.raises(ValueError):
        compute_metrics(scores, [1, 0, 1])


def test_auc_pair_counting_equals_trapezoid():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        y = (rng.random(n) < 0.5).astype(int)
        if y.min() == y.max():
            continue
        # quantized values force plenty of ties
        dv = np.round(rng.standard_normal(n), 1)
        scores = make_scores(dv)
        r = compute_metrics(scores, y)
        pts = roc_points(scores, y)
        fpr, tpr = pts[:, 0], pts[:, 1]
        trapezoid = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))
        assert abs(r.auc - trapezoid) < 1e-12


def reference_midranks(values: np.ndarray) -> np.ndarray:
    """evaluation._midranks as it was: a loop over the tie groups."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_midranks_match_the_group_loop():
    rng = np.random.default_rng(14)
    cases = [np.round(rng.standard_normal(500), 0),  # heavy ties
             rng.standard_normal(500),  # no ties
             np.full(37, -0.25), np.array([3.0]), np.array([]),
             np.array([0.0, -0.0, np.inf, 1.0, np.inf, -np.inf, np.nan, np.nan, 1.0])]
    cases += [rng.integers(0, k, size=n).astype(float)
              for k in (1, 2, 3, 50) for n in (2, 3, 101)]
    for values in cases:
        assert evaluation._midranks(values).tobytes() == reference_midranks(values).tobytes()


def test_roc_endpoints():
    scores = make_scores(np.array([0.3, -0.2, 0.8]))
    pts = roc_points(scores, [1, 0, 1])
    assert tuple(pts[0]) == (0.0, 0.0)
    assert tuple(pts[-1]) == (1.0, 1.0)


def reference_roc_points(scores, y):
    """evaluation.roc_points as it was: a loop over the tie groups."""
    y = np.asarray(y, dtype=np.int64)
    dv, _ = scores
    pos = y == 1
    n_pos = max(int(pos.sum()), 1)
    n_neg = max(int((~pos).sum()), 1)
    order = np.argsort(-dv, kind="stable")
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and dv[order[j + 1]] == dv[order[i]]:
            j += 1
        for idx in order[i:j + 1]:
            if pos[idx]:
                tp += 1
            else:
                fp += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j + 1
    return np.array(points)


def test_roc_points_match_the_group_loop():
    rng = np.random.default_rng(16)
    cases = [(np.array([]), np.array([], dtype=np.int64)),
             (np.full(9, 0.5), np.array([1, 0] * 4 + [1])),  # all equal
             (np.array([0.0, -0.0, 0.0, -0.0, 1.0]), np.array([1, 0, 0, 1, 1])),
             (np.array([3.0]), np.array([0]))]
    for n in rng.integers(1, 401, size=120):
        values = rng.standard_normal(n)
        if n % 3 == 0:  # heavy ties
            values = np.round(values, 0)
        elif n % 3 == 1:  # ties with signed zeros among them
            values = np.where(rng.random(n) < 0.5, np.round(values, 1),
                              rng.choice([0.0, -0.0], size=n))
        cases.append((values, rng.integers(0, 2, size=n)))
    for values, y in cases:
        for one_class in (False, True):
            scores = make_scores(values, one_class=one_class)
            got, want = roc_points(scores, y), reference_roc_points(scores, y)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_one_class_score_adapter():
    values, anomalous = make_scores(np.array([0.5, 0.0, -0.5]), one_class=True)
    assert values.dtype == np.float64 and anomalous.dtype == bool
    assert anomalous.tolist() == [False, False, True]
    assert values.tolist() == [-0.5, 0.0, 0.5]


def old_make_scores(decision_values: np.ndarray, one_class: bool = False) -> list[Score]:
    """evaluation.make_scores as it was: one Score object per row."""
    if one_class:
        return [Score(decision_value=-float(v), is_anomalous=float(v) < 0.0)
                for v in decision_values]
    return [Score(decision_value=float(v), is_anomalous=float(v) >= 0.0)
            for v in decision_values]


def old_compute_metrics(scores: list[Score], y) -> EvalReport:
    """evaluation.compute_metrics as it was, reading Score objects."""
    y = np.asarray(y, dtype=np.int64)
    if len(scores) != len(y):
        raise ValueError("scores and labels differ in length")
    predicted = np.array([s.is_anomalous for s in scores])
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
    dv = np.array([s.decision_value for s in scores])
    return EvalReport(accuracy, precision, recall, f1, evaluation._auc(dv, y),
                      (tp, fp, fn, tn))


def old_roc_points(scores: list[Score], y) -> np.ndarray:
    """evaluation.roc_points as it was, reading Score objects."""
    y = np.asarray(y, dtype=np.int64)
    dv = np.array([s.decision_value for s in scores])
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


def test_array_scores_match_the_score_objects():
    rng = np.random.default_rng(19)
    cases = [np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0]), np.array([0.0]),
             np.array([-0.0]), np.array([2.5]), np.array([-2.5])]
    for n in rng.integers(1, 301, size=160):
        values = rng.standard_normal(n)
        if n % 4 == 0:  # heavy ties
            values = np.round(values, 0)
        elif n % 4 == 1:  # ties with signed zeros among them
            values = np.where(rng.random(n) < 0.5, np.round(values, 1),
                              rng.choice([0.0, -0.0], size=n))
        elif n % 4 == 2:  # exact zeros, the one-class verdict's edge
            values = rng.choice([0.0, 0.5, -0.5], size=n)
        cases.append(values)
    for values in cases:
        n = len(values)
        for y in (rng.integers(0, 2, size=n), np.zeros(n, dtype=np.int64),
                  np.ones(n, dtype=np.int64)):
            for one_class in (False, True):
                new = make_scores(values, one_class=one_class)
                old = old_make_scores(values, one_class=one_class)
                got, want = compute_metrics(new, y), old_compute_metrics(old, y)
                assert got == want and repr(got) == repr(want)
                got, want = roc_points(new, y), old_roc_points(old, y)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    # no rows: the old verdict array was float64, so & raised TypeError;
    # now it is the zero report with no AUC
    no_rows = np.array([], dtype=np.int64)
    for one_class in (False, True):
        with pytest.raises(TypeError):
            old_compute_metrics(old_make_scores(np.array([]), one_class), no_rows)
        new = make_scores(np.array([]), one_class=one_class)
        assert compute_metrics(new, no_rows) == EvalReport(0.0, 0.0, 0.0, 0.0, None,
                                                            (0, 0, 0, 0))
        assert (roc_points(new, no_rows).tobytes()
                == old_roc_points(old_make_scores(np.array([]), one_class),
                                  no_rows).tobytes())


# --- splits ---------------------------------------------------------------


def test_split_balanced_20():
    y = np.array([0] * 10 + [1] * 10)
    train, test = stratified_split(y, 0.2, seed=1)
    assert len(test) == 4
    assert (y[test] == 0).sum() == 2 and (y[test] == 1).sum() == 2
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(20))


def test_split_75_25():
    y = np.array([0] * 75 + [1] * 25)
    _, test = stratified_split(y, 0.2, seed=2)
    assert (y[test] == 0).sum() == 15 and (y[test] == 1).sum() == 5


def test_split_is_seeded():
    y = np.array([0] * 30 + [1] * 30)
    a = stratified_split(y, 0.25, seed=9)
    b = stratified_split(y, 0.25, seed=9)
    c = stratified_split(y, 0.25, seed=10)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], c[1])


def test_split_rejects_tiny_class():
    with pytest.raises(ValueError):
        stratified_split(np.array([0, 0, 0, 1]), 0.5, seed=0)
    with pytest.raises(ValueError):
        stratified_split(np.array([0, 0, 1, 1]), 1.5, seed=0)
    with pytest.raises(ValueError):
        stratified_split(np.array([0, 0, 0, 0]), 0.5, seed=0)


def reference_split(y, test_fraction, seed):
    """stratified_split as it was, before it refused a class a side."""
    rng = np.random.default_rng(derive_seed(seed, "split"))
    test_parts, train_parts = [], []
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        n_test = int(np.floor(len(idx) * test_fraction + 0.5))
        test_parts.append(idx[:n_test])
        train_parts.append(idx[n_test:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


@pytest.mark.parametrize("y,fraction,message", [
    ([0, 0, 0, 1, 1, 1], 0.1, "class 0 has 3 examples: a test fraction of 0.1 leaves it no test row"),
    ([0] * 10 + [1, 1], 0.8, "class 1 has 2 examples: a test fraction of 0.8 leaves it no training row")])
def test_split_refuses_a_class_without_a_side(y, fraction, message):
    """A split that would leave a class out of one side raises at the
    split, naming the class, its count and the fraction; a split that
    gives every class both sides keeps the indices it always had."""
    with pytest.raises(ValueError) as refused:
        stratified_split(np.array(y), fraction, seed=0)
    assert str(refused.value) == message
    for y, fraction in [([0] * 10 + [1] * 10, 0.2), ([0] * 75 + [1] * 25, 0.1), ([0, 0, 1, 1, 1], 0.5)]:
        got, want = stratified_split(np.array(y), fraction, 4), reference_split(np.array(y), fraction, 4)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# --- k-fold ---------------------------------------------------------------


def test_fold_ids_partition_and_stratify():
    y = np.array([0] * 60 + [1] * 40)
    ids = stratified_fold_ids(y, 10, seed=3)
    sizes = np.bincount(ids, minlength=10)
    assert sizes.max() - sizes.min() <= 1
    assert sizes.sum() == 100
    for f in range(10):
        held = ids == f
        assert abs((y[held] == 1).sum() - 4) <= 1  # 40/10 per fold


def reference_fold_ids(y, k, seed):
    """stratified_fold_ids as it was: one row at a time."""
    y = np.asarray(y)
    ids = np.empty(len(y), dtype=np.int64)
    rng = np.random.default_rng(seed)
    offset = 0
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for j, row in enumerate(idx):
            ids[row] = (offset + j) % k
        offset += len(idx)
    return ids


def test_fold_ids_match_the_row_loop():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n, k = int(rng.integers(1, 300)), int(rng.integers(2, 12))
        y = rng.integers(0, int(rng.integers(1, 4)), size=n)
        seed = int(rng.integers(0, 2**63 - 1))
        got = stratified_fold_ids(y, k, seed)
        assert got.dtype == np.int64
        assert got.tobytes() == reference_fold_ids(y, k, seed).tobytes()


def blob_data(n_per=50, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-gap / 2, 1.0, (n_per, 3)),
                   rng.normal(gap / 2, 1.0, (n_per, 3))])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


def test_kfold_perfect_on_separable():
    X, y = blob_data()
    r = kfold_cv(ModelSpec("knn", {"k": 1}, 0), X, y, 10, seed=4)
    assert r.accuracy == 1.0
    assert len(r.per_fold) == 10
    assert all(f.per_fold is None for f in r.per_fold)


def test_kfold_pooled_confusion_sums_folds():
    X, y = blob_data(n_per=40, gap=1.0, seed=5)
    r = kfold_cv(ModelSpec("gaussian_nb", {}, 0), X, y, 5, seed=5)
    pooled = np.array(r.confusion)
    summed = np.sum([f.confusion for f in r.per_fold], axis=0)
    assert np.array_equal(pooled, summed)
    assert pooled.sum() == len(y)


def test_kfold_rejects_small_classes():
    X, y = blob_data(n_per=4)
    with pytest.raises(ValueError):
        kfold_cv(ModelSpec("knn", {}, 0), X, y, 5, seed=0)
    with pytest.raises(ValueError):
        kfold_cv(ModelSpec("knn", {}, 0), X, y, 1, seed=0)


def test_kfold_matches_a_plain_fold_loop():
    # one model per fold, trained on the other folds with the fold's
    # derived seed and scored on its own rows
    X, y = blob_data(n_per=40, gap=1.0, seed=8)
    spec = ModelSpec("random_forest", {"n_trees": 5}, 3)
    r = kfold_cv(spec, X, y, 4, seed=9)
    fold_of = stratified_fold_ids(y, 4, derive_seed(9, "folds"))
    dv = np.empty(len(y))
    for f in range(4):
        held = fold_of == f
        model = train(ModelSpec("random_forest", {"n_trees": 5},
                                derive_seed(3, "fold", f)), X[~held], y[~held])
        dv[held] = model.decision_values(X[held])
        assert r.per_fold[f] == compute_metrics(make_scores(dv[held]), y[held])
    assert r.oof_values == tuple(dv.tolist())
    pooled = compute_metrics(make_scores(dv), y)
    assert (r.accuracy, r.f1, r.auc, r.confusion) == (
        pooled.accuracy, pooled.f1, pooled.auc, pooled.confusion)


# --- grid search ----------------------------------------------------------


def xor_data(seed=7, n_per=25):
    rng = np.random.default_rng(seed)
    quads = [(-1, -1, 0), (1, 1, 0), (-1, 1, 1), (1, -1, 1)]
    X, y = [], []
    for cx, cy, label in quads:
        pts = rng.normal([cx * 2, cy * 2], 0.4, (n_per, 2))
        X.append(pts)
        y += [label] * n_per
    return np.vstack(X), np.array(y)


def test_grid_single_cell():
    X, y = blob_data(n_per=20)
    best, results = grid_search("knn", {"k": [3]}, X, y, 4, seed=8)
    assert best.hyperparameters == {"k": 3}
    assert len(results) == 1


def test_grid_prefers_the_working_cell():
    # depth-1 trees cannot express this layout; unbounded trees can
    X, y = xor_data()
    best, results = grid_search("decision_tree", {"max_depth": [1, None]},
                                X, y, 5, seed=9)
    assert best.hyperparameters["max_depth"] is None
    by_depth = {hp["max_depth"]: r for hp, r in results}
    assert by_depth[None].accuracy > by_depth[1].accuracy + 0.2


def test_grid_tie_takes_first_enumerated():
    X, y = blob_data(n_per=30)
    best_a, res_a = grid_search("knn", {"k": [1, 3]}, X, y, 5, seed=10)
    best_b, res_b = grid_search("knn", {"k": [3, 1]}, X, y, 5, seed=10)
    ra = {hp["k"]: r for hp, r in res_a}
    rb = {hp["k"]: r for hp, r in res_b}
    # per-cell results do not depend on enumeration order
    assert ra[1] == rb[1] and ra[3] == rb[3]
    if ra[1].accuracy == ra[3].accuracy and ra[1].f1 == ra[3].f1:
        assert best_a.hyperparameters["k"] == 1
        assert best_b.hyperparameters["k"] == 3


def test_grid_empty_runs_defaults():
    X, y = blob_data(n_per=20)
    best, results = grid_search("gaussian_nb", {}, X, y, 4, seed=11)
    assert len(results) == 1
    assert best.hyperparameters == {}


# --- one-class validation -------------------------------------------------


def one_class_data(n_ham=80, n_anom=30, gap=2.5, seed=21):
    """Ham around the origin and anomalies gap away, in row order."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 1.0, (n_ham, 3)),
                   rng.normal(gap, 1.0, (n_anom, 3))])
    return X, np.array([0] * n_ham + [1] * n_anom)


@pytest.mark.parametrize("n_anom", [30, 100])
def test_one_class_cv_folds(monkeypatch, n_anom):
    X, y = one_class_data(n_anom=n_anom)
    row_of = {row.tobytes(): i for i, row in enumerate(X)}

    def rows(M):
        return {row_of[row.tobytes()] for row in M}

    trained, scored = [], []
    real_train, real_score = learners.train_grid, learners.decision_values

    def train(specs, M, y, row_sets):
        assert len(specs) == 1
        trained.extend(rows(M[r]) for r in row_sets)
        return real_train(specs, M, y, row_sets)

    monkeypatch.setattr(learners, "train_grid", train)
    monkeypatch.setattr(learners, "decision_values",
                        lambda model, M: scored.append(rows(M)) or real_score(model, M))
    [report] = one_class_cv([ModelSpec("one_class_svm", {}, 3)], X, y, 4, seed=5)

    ham, anomalies = set(np.flatnonzero(y == 0)), set(np.flatnonzero(y == 1))
    held_ham, held_anom = scored[0::2], scored[1::2]
    assert len(trained) == len(held_ham) == len(held_anom) == 4
    for f in range(4):
        assert trained[f] <= ham  # no fold model sees an anomaly
        assert not trained[f] & held_ham[f]
        assert held_ham[f] <= ham and held_anom[f] <= anomalies
        assert len(held_ham[f]) == len(held_anom[f]) > 0
    # every anomaly slice is its own; each fold trains on all other ham
    assert len(set().union(*held_anom)) == sum(map(len, held_anom))
    for f in range(4):
        others = set().union(*(held_ham[g] for g in range(4) if g != f))
        assert others <= trained[f]
    assert sum(report.confusion) == 2 * sum(map(len, held_ham))


def test_one_class_cv_needs_2k_ham_and_an_anomaly():
    spec = ModelSpec("one_class_svm", {}, 0)
    for n_ham, n_anom in ((7, 5), (40, 0)):
        X, y = one_class_data(n_ham=n_ham, n_anom=n_anom)
        with pytest.raises(ValueError):
            one_class_cv([spec], X, y, 4, seed=0)
    X, y = one_class_data(n_ham=8, n_anom=1)
    [report] = one_class_cv([spec], X, y, 4, seed=0)
    tp, fp, fn, tn = report.confusion
    assert (tp + fn, fp + tn) == (1, 1)  # one fold scores one pair


def reference_rbf_kernel(A, B, gamma):
    d2 = (np.sum(A * A, axis=1)[:, None]
          - 2.0 * (A @ B.T)
          + np.sum(B * B, axis=1)[None, :])
    return np.exp(-gamma * np.maximum(d2, 0.0))


class ReferenceKernelRows:
    """Row access to the RBF kernel matrix; precomputed when small,
    otherwise computed on demand behind a bounded cache."""

    def __init__(self, X: np.ndarray, gamma: float):
        self.X = X
        self.gamma = gamma
        self.sq = np.sum(X * X, axis=1)
        n = len(X)
        if n <= ocsvm._FULL_KERNEL_MAX:
            self.full = reference_rbf_kernel(X, X, gamma)
        else:
            self.full = None
            self.cache: dict[int, np.ndarray] = {}
            self.cache_cap = max(64, int(2e8 // (8 * n)))

    def row(self, i: int) -> np.ndarray:
        if self.full is not None:
            return self.full[i]
        hit = self.cache.get(i)
        if hit is not None:
            return hit
        d2 = self.sq - 2.0 * (self.X @ self.X[i]) + self.sq[i]
        row = np.exp(-self.gamma * np.maximum(d2, 0.0))
        if len(self.cache) >= self.cache_cap:
            self.cache.pop(next(iter(self.cache)))
        self.cache[i] = row
        return row


def reference_train_one_class_svm(spec: ModelSpec, X: np.ndarray,
                                  schema_fingerprint: str | None = None) -> OneClassSVMModel:
    """SMO over the most-violating pair.

    Gradient g = K a is kept incrementally. The pair is i = argmin g
    over {a < C} (can grow) and j = argmax g over {a > 0} (can shrink);
    the gap g_j - g_i is the KKT violation and must fall below _TOL
    within the iteration cap, or ConvergenceError is raised. Starting
    point: the first floor(nu*n) coefficients at the box bound
    C = 1/(nu*n), the next one at the fractional remainder.
    """
    check_training_inputs(X)
    nu, gamma = spec.hyperparameters["nu"], spec.hyperparameters["gamma"]
    n = len(X)
    C = 1.0 / (nu * n)

    alpha = np.zeros(n)
    nb = int(np.floor(nu * n))
    alpha[:nb] = C
    if nb < n:
        alpha[nb] = 1.0 - nb * C

    kernel = ReferenceKernelRows(X, gamma)
    g = np.zeros(n)
    for i in np.flatnonzero(alpha > 0):
        g += alpha[i] * kernel.row(i)

    violation = np.inf
    iterations = 0
    for iterations in range(1, ocsvm._ITERS_PER_ROW * max(n, 1000) + 1):
        can_grow = alpha < C
        can_shrink = alpha > 0.0
        if not can_grow.any() or not can_shrink.any():
            violation = 0.0
            break
        i = int(np.argmin(np.where(can_grow, g, np.inf)))
        j = int(np.argmax(np.where(can_shrink, g, -np.inf)))
        violation = g[j] - g[i]
        if violation < ocsvm._TOL:
            break
        ki = kernel.row(i)
        kj = kernel.row(j)
        q = ki[i] + kj[j] - 2.0 * ki[j]
        room = min(C - alpha[i], alpha[j])
        delta = room if q <= 1e-12 else min(violation / q, room)
        if delta == C - alpha[i]:
            alpha[i] = C
        else:
            alpha[i] += delta
        if delta == alpha[j]:
            alpha[j] = 0.0
        else:
            alpha[j] -= delta
        g += delta * (ki - kj)
    else:
        raise ConvergenceError("one-class SVM did not reach the KKT tolerance",
                               residual=float(violation))

    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        rho = float(np.mean(g[free]))
    else:
        at_bound = g[alpha >= C]
        at_zero = g[alpha <= 0.0]
        lo = float(np.max(at_bound)) if len(at_bound) else float(np.min(g))
        hi = float(np.min(at_zero)) if len(at_zero) else float(np.max(g))
        rho = 0.5 * (lo + hi)

    sv = alpha > 0.0
    audit = KKTAudit(
        sum_alpha=float(np.sum(alpha)),
        max_box_overshoot=float(max(0.0, np.max(-alpha), np.max(alpha - C))),
        max_violation=float(violation),
        margin_error_fraction=float(np.mean(g - rho < -ocsvm._TOL)),
        sv_fraction=float(np.mean(sv)),
        n_iterations=iterations,
    )
    return OneClassSVMModel(spec, X[sv].copy(), alpha[sv].copy(), rho, audit,
                            True, schema_fingerprint)


def reference_train_one_class(spec, X):
    """learners.train_one_class as it was, on the copies above."""
    spec = validate_spec(spec)
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    return reference_train_one_class_svm(spec, X)


def reference_decision_values(model, X):
    """OneClassSVMModel.decision_values on reference_rbf_kernel."""
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    gamma = model.spec.hyperparameters["gamma"]
    out = np.empty(len(X))
    step = max(1, int(4_000_000 // max(len(model.support_vectors), 1)))
    for start in range(0, len(X), step):
        K = reference_rbf_kernel(X[start:start + step], model.support_vectors, gamma)
        out[start:start + step] = K @ model.alphas - model.rho
    return out


def model_bytes(model):
    """Everything a fitted one-class SVM holds, as bytes."""
    audit = [np.float64(v).tobytes() if isinstance(v, float) else v
             for v in astuple(model.audit)]
    return (model.spec.hyperparameters, model.support_vectors.shape,
            model.support_vectors.tobytes(), model.alphas.tobytes(),
            np.float64(model.rho).tobytes(), audit, model.converged)


def reference_one_class_grid(grid, Xh, Xa, k, ps, models=None):
    """The one-class phase's own cell loop from before it went through
    grid_search, cell by cell on the old solver: (best hyperparameters,
    [(hp, report)], best report). Each cell's fold models are appended
    to models, if given, as one list per cell."""
    fold_of = stratified_fold_ids(np.zeros(len(Xh), dtype=np.int64), k,
                                  derive_seed(ps, "oc-folds"))
    pool = rng_for(ps, "oc-valpool").permutation(len(Xa))
    gseed = derive_seed(ps, "grid", "one_class_svm")
    keys = list(grid)
    cells = [dict(zip(keys, combo))
             for combo in itertools.product(*(grid[key] for key in keys))]
    best_hp = None
    best_report = None
    results = []
    for hp in cells:
        cell_seed = derive_seed(gseed, "cell",
                                json.dumps(hp, sort_keys=True, default=str))
        dv_parts, y_parts, fold_models = [], [], []
        for f in range(k):
            held_ham = np.flatnonzero(fold_of == f)
            held_anom = np.sort(pool[f::k])
            m = min(len(held_ham), len(held_anom))
            held_ham, held_anom = held_ham[:m], held_anom[:m]
            spec = ModelSpec("one_class_svm", hp,
                             derive_seed(cell_seed, "fold", f))
            model = reference_train_one_class(spec, Xh[fold_of != f])
            fold_models.append(model)
            dv_parts.append(reference_decision_values(model, Xh[held_ham]))
            dv_parts.append(reference_decision_values(model, Xa[held_anom]))
            y_parts.append(np.zeros(m, dtype=np.int64))
            y_parts.append(np.ones(m, dtype=np.int64))
        report = compute_metrics(
            make_scores(np.concatenate(dv_parts), one_class=True),
            np.concatenate(y_parts))
        results.append((hp, report))
        if models is not None:
            models.append(fold_models)
        if best_report is None or (report.accuracy, report.f1) > (
                best_report.accuracy, best_report.f1):
            best_hp, best_report = hp, report
    return best_hp, results, best_report


def test_one_class_cv_fits_no_fold_without_an_anomaly(monkeypatch):
    # k = 4 and a pool of one: only fold 0 has an anomaly to score
    X, y = one_class_data(n_ham=8, n_anom=1)
    fits = []
    real_train = learners.train_grid
    monkeypatch.setattr(learners, "train_grid",
                        lambda specs, M, y, row_sets: fits.extend(
                            (len(specs), len(r)) for r in row_sets)
                        or real_train(specs, M, y, row_sets))
    [report] = one_class_cv(
        [ModelSpec("one_class_svm", {"nu": 0.1, "gamma": 0.5}, 0)], X, y, 4, seed=0)
    assert fits == [(1, 6)]
    # the old loop, which fitted all four folds, gives the same report
    _, _, want = reference_one_class_grid({"nu": [0.1], "gamma": [0.5]},
                                          X[y == 0], X[y == 1], 4, 0)
    assert report == want


@pytest.mark.parametrize("grid", [
    {"nu": [0.05, 0.1, 0.2], "gamma": [0.1, 0.5, 1 / 3]},
    # every cell calls every row anomalous: a four-way tie
    {"nu": [0.2, 0.1], "gamma": [100.0, 300.0]},
])
def test_one_class_grid_matches_the_phase_cell_loop(grid):
    X, y = one_class_data()
    ps = derive_seed(7, "phase", 3)
    best, cells = grid_search("one_class_svm", grid, X, y, 4, ps)
    want_hp, want_cells, want_report = reference_one_class_grid(
        grid, X[y == 0], X[y == 1], 4, ps)
    assert best.hyperparameters == want_hp
    assert cells == want_cells
    assert next(r for hp, r in cells if hp == want_hp) == want_report
    keys = [(r.accuracy, r.f1) for _, r in cells]
    assert len(set(keys)) < len(keys)  # the pick had a tie to break


@pytest.mark.parametrize("algorithm,grid", [
    ("knn", {"k": [1, 3]}),
    ("one_class_svm", {"nu": [0.1, 0.2], "gamma": [0.1, 0.5]}),
])
def test_grid_search_fits_a_grid_in_one_train_grid_call(monkeypatch, algorithm, grid):
    X, y = one_class_data()
    tables = []
    real_train = learners.train_grid

    def train(specs, *args):
        tables.append([[(spec.hyperparameters, spec.seed) for spec in cell]
                       for cell in specs])
        return real_train(specs, *args)

    monkeypatch.setattr(learners, "train_grid", train)
    _, cells = grid_search(algorithm, grid, X, y, 4, seed=3)
    [table] = tables  # the full cells x folds table
    assert [[hp for hp, _ in cell] for cell in table] == [[hp] * 4 for hp, _ in cells]
    assert len({seed for cell in table for _, seed in cell}) == 4 * len(cells)


@functools.lru_cache(maxsize=None)
def header_one_class_data():
    """Standardised header features of synthetic mail, duplicate rows
    included, and labels (ham is 0); read-only, as the cache shares it."""
    records = to_records(generate_emails(240, 0.5, seed=43))
    schema = fit_schema(records, k=40)
    M = extract_matrix(records, schema)
    X = apply_scaler(M, fit_scaler(M))
    y = np.array([r.label is not Label.HAM for r in records], dtype=np.int64)
    X.flags.writeable = y.flags.writeable = False
    return X, y


ONE_CLASS_GRIDS = [
    {"nu": [0.05, 0.1, 0.2], "gamma": [0.1, 0.5, 1 / 3]},
    {"nu": [0.1, 0.2], "gamma": [0.5, 0.1, 0.5]},  # a gamma listed twice
    {"gamma": [1 / 3, 0.5, 0.1], "nu": [0.2, 0.05]},  # gamma slowest, reordered
    {"nu": [0.1], "gamma": [0.5]},
]


@pytest.mark.parametrize("data", [one_class_data, header_one_class_data])
@pytest.mark.parametrize("grid", ONE_CLASS_GRIDS,
                         ids=["3x3", "gamma-twice", "gamma-first", "one-cell"])
def test_one_class_grid_trains_each_cell_as_the_old_solver(monkeypatch, grid, data):
    """Cells sharing a fold's kernel work get the bytes the old solver
    gave each cell alone: every report, and every fold model's support
    vectors, alphas, rho and audit. There is no tolerance."""
    X, y = data()
    ps = derive_seed(7, "phase", 3)
    folds = []  # one list of models, in cell order, per fold
    real_train = learners.train_grid

    def train(*args):
        for c, f, model in real_train(*args):
            folds.extend([] for _ in range(f + 1 - len(folds)))
            folds[f].append(model)
            yield c, f, model

    monkeypatch.setattr(learners, "train_grid", train)
    best, cells = grid_search("one_class_svm", grid, X, y, 4, ps)
    want_models = []  # one list of models, in fold order, per cell
    want_hp, want_cells, _ = reference_one_class_grid(
        grid, X[y == 0], X[y == 1], 4, ps, want_models)
    assert best.hyperparameters == want_hp
    assert [(hp, repr(r)) for hp, r in cells] == [
        (hp, repr(r)) for hp, r in want_cells]
    assert [[model_bytes(m) for m in cell] for cell in zip(*folds)] == [
        [model_bytes(m) for m in cell] for cell in want_models]


def test_on_demand_kernel_rows_train_each_spec_as_alone(monkeypatch):
    """Above _FULL_KERNEL_MAX rows the kernel comes row by row: specs
    of one gamma share one row cache (evicting here, at 64 rows), and
    each model is the one its spec gets alone, and the old solver."""
    rng = np.random.default_rng(23)
    X = rng.standard_normal((150, 4))
    specs = [ModelSpec("one_class_svm", {"nu": nu, "gamma": gamma}, 0)
             for gamma in (0.5, 0.1, 0.5) for nu in (0.1, 0.3)]
    built = []

    class CountedRows(ocsvm._KernelRows):
        def __init__(self, X, gamma):
            super().__init__(X, gamma)
            self.cache_cap = 64
            built.append(gamma)

    monkeypatch.setattr(ocsvm, "_FULL_KERNEL_MAX", 100)
    monkeypatch.setattr(ocsvm, "_KernelRows", CountedRows)
    together = [m for _, _, m in train_grid([[s] for s in specs], X, None,
                                            [np.arange(len(X))])]
    assert built == [0.5, 0.1]
    alone = [train_one_class(spec, X) for spec in specs]
    assert len(built) == 2 + len(specs)
    old = [reference_train_one_class(spec, X) for spec in specs]
    for m in together:
        assert m.converged and m.audit.max_violation < ocsvm._TOL
    assert [model_bytes(m) for m in together] == [model_bytes(m) for m in alone]
    assert [model_bytes(m) for m in together] == [model_bytes(m) for m in old]


class IterationCap(int):
    """An ocsvm._ITERS_PER_ROW for which the cap _ITERS_PER_ROW * max(n,
    1000) is the int itself, so that it can fall mid-run on a small X."""

    def __mul__(self, rows):
        return int(self)


def smo_pair_gaps(spec, X):
    """q = K_ii + K_jj - 2 K_ij of each step's pair of a full-kernel fit,
    read from the rows the solver asks for after its starting gradient."""
    K = ocsvm.rbf_kernel(X, X, spec.hyperparameters["gamma"])
    asked = []
    ocsvm._smo(spec, X, lambda i: asked.append(i) or K[i])
    nu, n = spec.hyperparameters["nu"], len(X)
    starts = min(n, int(np.floor(nu * n)) + (nu * n % 1 > 0))
    pairs = zip(asked[starts::2], asked[starts + 1::2])
    return [K[i, i] + K[j, j] - 2.0 * K[i, j] for i, j in pairs]


def smo_edge_data(name):
    rng = np.random.default_rng(29)
    X = rng.standard_normal((40, 3))
    if name == "nu-1":  # every coefficient starts at the box: no step
        return X, {"nu": 1.0, "gamma": 0.5}
    if name == "nu-n-integer":  # no fractional starting coefficient
        return X, {"nu": 0.25, "gamma": 0.5}
    # far from the origin, the kernel cannot tell some distinct rows
    # apart (K_ij = K_ii = K_jj = 1) though their gradients differ
    return 1e8 + X, {"nu": 0.5, "gamma": 1.0}


@pytest.mark.parametrize("full_kernel_max", [ocsvm._FULL_KERNEL_MAX, 0],
                         ids=["full-kernel", "kernel-rows"])
@pytest.mark.parametrize("name", ["nu-1", "nu-n-integer", "indistinct-rows"])
def test_smo_edge_paths_match_the_old_solver(monkeypatch, full_kernel_max, name):
    X, hp = smo_edge_data(name)
    spec = ModelSpec("one_class_svm", hp, 0)
    gaps = smo_pair_gaps(spec, X)
    if name == "nu-1":
        assert gaps == []
    elif name == "nu-n-integer":
        assert hp["nu"] * len(X) == 10 and len(gaps) > 5
    else:  # some steps go the full room to the box
        assert 0 < sum(q <= 1e-12 for q in gaps) < len(gaps)
    monkeypatch.setattr(ocsvm, "_FULL_KERNEL_MAX", full_kernel_max)
    got = train_one_class(spec, X)
    assert model_bytes(got) == model_bytes(reference_train_one_class(spec, X))
    if full_kernel_max:  # the run smo_pair_gaps watched
        assert got.audit.n_iterations == len(gaps) + 1


@pytest.mark.parametrize("full_kernel_max", [ocsvm._FULL_KERNEL_MAX, 0],
                         ids=["full-kernel", "kernel-rows"])
def test_smo_cap_mid_run_raises_the_old_residual(monkeypatch, full_kernel_max):
    X, _ = smo_edge_data("nu-n-integer")
    spec = ModelSpec("one_class_svm", {"nu": 0.1, "gamma": 5.0}, 0)
    steps = len(smo_pair_gaps(spec, X))
    assert steps > 20
    monkeypatch.setattr(ocsvm, "_FULL_KERNEL_MAX", full_kernel_max)
    monkeypatch.setattr(ocsvm, "_ITERS_PER_ROW", IterationCap(steps - 10))
    with pytest.raises(ConvergenceError) as got:
        train_one_class(spec, X)
    with pytest.raises(ConvergenceError) as want:
        reference_train_one_class(spec, X)
    assert np.float64(got.value.residual).tobytes() == np.float64(
        want.value.residual).tobytes()
    assert ocsvm._TOL <= got.value.residual < np.inf


# --- balance --------------------------------------------------------------


def test_balance_downsamples_majority():
    y = np.array([0] * 100 + [1] * 40)
    idx = balance(y, seed=12)
    assert (y[idx] == 0).sum() == 40 and (y[idx] == 1).sum() == 40
    assert len(set(idx.tolist())) == len(idx)


def test_balance_seeded_and_stable_when_balanced():
    y = np.array([0] * 20 + [1] * 20)
    a = balance(y, seed=13)
    b = balance(y, seed=13)
    assert np.array_equal(a, b)
    assert sorted(a.tolist()) == list(range(40))  # same multiset, reshuffled
    assert a.tolist() != list(range(40))


# --- permutation importance -----------------------------------------------


def test_zero_weight_feature_drops_exactly_zero():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((100, 2))
    y = (X[:, 0] > 0).astype(int)
    model = LogRegModel(spec=ModelSpec("logreg", {}, 0),
                        weights=np.array([3.0, 0.0]), bias=0.0,
                        converged=True, loss_history=np.array([]))
    rep = permutation_importance(model, X, y, repeats=5, seed=15)
    assert rep.mean_drop[1] == 0.0
    assert rep.std_drop[1] == 0.0
    assert rep.baseline_accuracy == 1.0


def test_label_feature_drop_near_half_and_noise_near_zero():
    import headerscan.learners as L

    rng = np.random.default_rng(16)
    n = 200
    y = np.array([0, 1] * (n // 2))
    X = np.column_stack([y.astype(float), rng.standard_normal(n)])
    model = L.train(ModelSpec("decision_tree", {"max_depth": 1}, 0), X, y)
    rep = permutation_importance(model, X, y, repeats=20, seed=17)
    assert abs(rep.mean_drop[0] - 0.5) < 0.05
    assert abs(rep.mean_drop[1]) < 0.02
    assert rep.repeats == 20


def reference_permutation_importance(model, X, y, repeats, seed):
    """(mean drops, std drops, baseline) from the loop that shuffled and
    scored every (feature, repeat) pair."""
    n, d = X.shape

    def accuracy(mat):
        return float(np.mean((model.decision_values(mat) >= 0.0) == (y == 1)))

    baseline = accuracy(X)
    means, stds = [], []
    for j in range(d):
        drops = np.empty(repeats)
        for r in range(repeats):
            rng = np.random.default_rng(derive_seed(seed, "perm", j, r))
            shuffled = X.copy()
            shuffled[:, j] = X[rng.permutation(n), j]
            drops[r] = baseline - accuracy(shuffled)
        means.append(float(drops.mean()))
        stds.append(float(drops.std()))
    return tuple(means), tuple(stds), baseline


@pytest.mark.parametrize("algo,hp", [("random_forest", {"n_trees": 10, "max_depth": 2}),
                                     ("random_forest", {"n_trees": 5, "max_features": "all"}),
                                     ("grad_boost", {"n_trees": 4, "max_depth": 1}),
                                     ("decision_tree", {"max_depth": 2}),
                                     ("adaboost", {"rounds": 4})])
def test_tree_models_score_only_the_features_they_read(monkeypatch, algo, hp):
    """A tree model's report is the old loop's, bit for bit, while only
    the features its trees split on are shuffled: decision_values scores
    the baseline alone, and one swapped_values call every shuffled pair,
    in (feature, repeat) order. Each pair's values are decision_values
    on its shuffled matrix, in one block of rows or a block per row."""
    rng = np.random.default_rng(19)
    X = np.round(2 * rng.standard_normal((120, 12)))
    y = (X[:, 0] + X[:, 1] + rng.standard_normal(120) > 0).astype(int)
    model = learners.train(ModelSpec(algo, hp, 3), X, y)
    read = set(np.concatenate([tree.feature for tree in model.trees]).tolist()) - {-1}
    assert 0 < len(read) < 12
    want = reference_permutation_importance(model, X, y, 3, 20)
    calls, swaps, score, swapped = [], [], model.decision_values, model.swapped_values
    model.decision_values = lambda M: calls.append(len(M)) or score(M)
    model.swapped_values = lambda M, s: swaps.append([j for j, _ in s]) or swapped(M, s)
    rep = permutation_importance(model, X, y, repeats=3, seed=20)
    assert (rep.mean_drop, rep.std_drop, rep.baseline_accuracy) == want
    assert calls == [120]
    assert swaps == [[j for j in sorted(read) for _ in range(3)]]
    assert all(rep.mean_drop[j] == 0.0 for j in range(12) if j not in read)
    pairs = [(j, X[rng.permutation(120), j]) for j in sorted(read)]
    for cells in (tree_module.SWAP_CELLS, 1):
        monkeypatch.setattr(tree_module, "SWAP_CELLS", cells)
        for (j, column), row in zip(pairs, swapped(X, pairs)):
            shuffled = X.copy()
            shuffled[:, j] = column
            assert row.tobytes() == score(shuffled).tobytes()


def test_importance_checks_fingerprint():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((20, 2))
    y = (X[:, 0] > 0).astype(int)
    model = LogRegModel(spec=ModelSpec("logreg", {}, 0),
                        weights=np.array([1.0, 0.0]), bias=0.0,
                        converged=True, loss_history=np.array([]),
                        schema_fingerprint="aaaa")
    with pytest.raises(ValueError):
        permutation_importance(model, X, y, repeats=2, seed=0, fingerprint="bbbb")


# --- top-m selection ------------------------------------------------------


def make_report(names, drops):
    from headerscan.evaluation import ImportanceReport

    return ImportanceReport(tuple(names), tuple(drops),
                            tuple(0.0 for _ in drops), 1, 1.0)


def test_select_top_m_orders_and_ties():
    rep = make_report(["a", "b", "c", "d"], [0.1, 0.4, 0.1, 0.0])
    assert select_top_m(rep, 1) == ["b"]
    assert select_top_m(rep, 3) == ["b", "a", "c"]  # tie keeps schema order
    rep0 = make_report(["a", "b", "c"], [0.0, 0.0, 0.0])
    assert select_top_m(rep0, 2) == ["a", "b"]


def test_select_top_m_overflow_warns(caplog):
    rep = make_report(["a", "b"], [0.2, 0.1])
    with caplog.at_level("WARNING"):
        assert select_top_m(rep, 5) == ["a", "b"]
    assert any("returning all" in r.message for r in caplog.records)


# --- tables ---------------------------------------------------------------


def sample_report(acc=0.996871, auc=0.9961):
    return EvalReport(acc, 0.9, 0.8, 0.85, auc, (1, 1, 1, 1))


def test_table_formats_percentages_and_auc():
    out = render_table([("Random Forest", sample_report())], "binary")
    assert "99.6871" in out.text
    assert "0.9961" in out.text
    assert "Algorithm" in out.text
    assert out.csv.splitlines()[0] == "Algorithm,Accuracy,F1,Recall,Precision,AUC"
    assert "99.6871" in out.csv


def test_table_stacking_label():
    out = render_table([("RF, kNN, SVM", sample_report())], "stacking")
    assert out.text.startswith("Base Learners")
    assert out.csv.splitlines()[1].startswith('"RF, kNN, SVM"')


def test_table_oneclass_is_transposed():
    out = render_table([("Ham and Spam", sample_report())], "oneclass")
    lines = out.text.splitlines()
    assert lines[0].startswith("Metrics")
    assert lines[1].startswith("Accuracy")
    assert lines[5].startswith("AUC")


def test_table_empty_is_header_only():
    out = render_table([], "binary")
    assert out.text.splitlines() == ["Algorithm  Accuracy  F1  Recall  Precision  AUC"]


def test_table_missing_auc_renders_na():
    r = EvalReport(1.0, 1.0, 1.0, 1.0, None, (1, 0, 0, 0))
    out = render_table([("KNN", r)], "binary")
    assert "n/a" in out.text


def test_table_rejects_unknown_style():
    with pytest.raises(ValueError):
        render_table([], "fancy")
