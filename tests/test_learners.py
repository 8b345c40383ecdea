"""Learner contracts: worked examples, invariants, and persistence."""

import ast
import functools
import itertools
import json
import math
import pathlib
import pickle
import tracemalloc
import typing
from dataclasses import astuple

import numpy as np
import pytest

import headerscan.learners as L
from headerscan.corpus import CorpusRecord, Label
from headerscan.features import apply_scaler, extract_matrix, fit_schema, fit_scaler
from headerscan.headers import parse_headers
from headerscan.learners import ModelSpec, ocsvm
from headerscan.learners import mlp as mlp_module
from headerscan.learners import tree as tree_module
from headerscan.learners.base import derive_seed
from headerscan.learners.bundle import (_parameter_fields, _registry, bundle_bytes,
                                       decode_array, encode_array,
                                       load_bundle, model_from_doc, model_to_doc,
                                       save_bundle)
from headerscan.learners.linear import LogRegModel, sigmoid
from headerscan.learners.mlp import init_params, loss_and_grad
from headerscan.learners.neighbors import train_knn
from headerscan.learners.tree import (BLOCK_ROWS, LEAF, DecisionTreeModel, TreeArrays,
                                     TreeEnsemble, leaf_ids, walk_tables)
from headerscan.learners.boosting import AdaBoostModel
from headerscan.learners.forest import RandomForestModel
from headerscan.synthetic import generate_emails, to_records


def two_blobs(n_per=40, d=5, seed=0, gap=2.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-gap / 2, 1.0, (n_per, d)),
                   rng.normal(gap / 2, 1.0, (n_per, d))])
    y = np.array([0] * n_per + [1] * n_per, dtype=np.int64)
    return X, y


def leaf_tree(prob):
    return TreeArrays(feature=np.array([LEAF]), threshold=np.zeros(1),
                      left=np.array([LEAF]), right=np.array([LEAF]),
                      value=np.array([float(prob)]))


# --- worked predictions ---------------------------------------------------


def test_knn_k1_two_points():
    m = L.train(ModelSpec("knn", {"k": 1}, 0),
                np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
    score = L.predict(m, np.array([0.9, 0.9]))
    assert score.is_anomalous


def test_gaussian_nb_symmetric_midpoint_is_half():
    # equal priors, mirrored classes: posterior at 0 is exactly 1/2
    X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    y = np.array([0, 0, 1, 1])
    m = L.train(ModelSpec("gaussian_nb", {}, 0), X, y)
    p = m.probabilities(np.array([[0.0]]))[0]
    assert p == 0.5
    assert L.predict(m, np.array([0.0])).is_anomalous  # >= 0 tie rule


@pytest.mark.parametrize("lam", [1e-4, 0.0])
def test_logreg_separable_reaches_perfect_training_accuracy(lam):
    rng = np.random.default_rng(4)
    x_ham = rng.uniform(-2.0, -0.5, 10)
    x_anom = rng.uniform(0.5, 2.0, 10)
    # threshold-search oracle: confirm a separating cut exists
    assert x_ham.max() < x_anom.min()
    X = np.concatenate([x_ham, x_anom])[:, None]
    y = np.array([0] * 10 + [1] * 10)
    m = L.train(ModelSpec("logreg", {"lam": lam}, 0), X, y)
    assert np.isfinite(m.weights).all() and np.isfinite(m.bias)
    assert np.mean((m.decision_values(X) >= 0) == (y == 1)) == 1.0


def test_logreg_sigmoid_of_two():
    m = LogRegModel(spec=ModelSpec("logreg", {}, 0), weights=np.array([2.0]),
                    bias=0.0, converged=True, loss_history=np.array([]))
    score = L.predict(m, np.array([1.0]))
    assert abs((score.decision_value + 0.5) - 1.0 / (1.0 + np.exp(-2.0))) < 1e-12
    assert round(score.decision_value + 0.5, 4) == 0.8808
    assert score.is_anomalous


def test_svm_zero_margin_reads_anomalous():
    from headerscan.learners.linear import LinearSVMModel

    m = LinearSVMModel(spec=ModelSpec("linear_svm", {}, 0),
                       weights=np.array([1.0, -1.0]), bias=0.0,
                       converged=True, loss_history=np.array([]))
    score = L.predict(m, np.array([1.0, 1.0]))
    assert score.decision_value == 0.0
    assert score.is_anomalous


def test_predict_refuses_a_decision_value_that_is_not_finite():
    """Weights that overflow on finite features read spam (+inf), ham
    (-inf) or ham (NaN); a one-class kernel sum that overflows read
    inlier. Each now raises ValueError."""
    from dataclasses import replace

    from headerscan.learners.linear import LinearSVMModel

    d = 4
    huge = LinearSVMModel(spec=ModelSpec("linear_svm", {}, 0),
                          weights=np.array([1e308, 1e308, -1e308, -1e308]), bias=0.0,
                          converged=True, loss_history=np.array([]))
    X, _ = two_blobs(n_per=10, d=d, seed=48)
    oc = L.train_one_class(ModelSpec("one_class_svm", {"gamma": 0.1}, 0), X)
    sv = np.vstack([oc.support_vectors, oc.support_vectors])
    oc = replace(oc, support_vectors=sv, alphas=np.full(len(sv), 1e308))
    cases = [(L.predict, huge, np.array([2.0, 2.0, 0.0, 0.0])),
             (L.predict, huge, np.array([-2.0, 0.0, 0.0, 0.0])),
             (L.predict, huge, np.ones(d)),
             (L.predict_one_class, oc, sv[0])]
    with np.errstate(over="ignore", invalid="ignore"):
        for score, model, x in cases:
            with pytest.raises(ValueError, match="not finite"):
                score(model, x)


def test_forest_two_of_three_votes():
    spec = ModelSpec("random_forest", {"n_trees": 3}, 0)
    m = RandomForestModel(spec, [leaf_tree(1.0), leaf_tree(0.0), leaf_tree(1.0)], [0, 1, 2])
    score = L.predict(m, np.zeros(4))
    assert abs(score.decision_value - (2.0 / 3.0 - 0.5)) < 1e-12
    assert score.is_anomalous


# --- invariants -----------------------------------------------------------


ALL_BINARY = ["logreg", "linear_svm", "decision_tree", "random_forest",
              "grad_boost", "gaussian_nb", "knn", "mlp", "adaboost"]

FAST_HP = {"random_forest": {"n_trees": 10}, "grad_boost": {"n_trees": 10},
           "adaboost": {"rounds": 10}}


@pytest.mark.parametrize("algo", ALL_BINARY)
def test_training_is_deterministic(algo):
    X, y = two_blobs(seed=2)
    spec = ModelSpec(algo, FAST_HP.get(algo, {}), 99)
    a = L.train(spec, X, y)
    b = L.train(spec, X, y)
    schema, scaler = tiny_schema_scaler()
    assert bundle_bytes(a, schema, scaler, "spam") == bundle_bytes(b, schema, scaler, "spam")


def test_one_class_training_is_deterministic():
    X, _ = two_blobs(seed=3)
    spec = ModelSpec("one_class_svm", {"nu": 0.2}, 5)
    a = L.train_one_class(spec, X)
    b = L.train_one_class(spec, X)
    schema, scaler = tiny_schema_scaler()
    assert bundle_bytes(a, schema, scaler, "spam") == bundle_bytes(b, schema, scaler, "spam")


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    eps = 1e-6
    for _ in range(3):
        X = rng.standard_normal((20, 5))
        y = (rng.random(20) < 0.5).astype(float)
        params = init_params(5, 4, rng)
        _, grads = loss_and_grad(params, X, y)
        for key in ("W1", "b1", "w2", "b2"):
            g = np.atleast_1d(np.asarray(grads[key], dtype=float))
            p = np.atleast_1d(np.asarray(params[key], dtype=float)).copy()
            flat_err = []
            for i in range(p.size):
                probe = {k: np.array(v, dtype=float, copy=True) for k, v in params.items()}
                probe_flat = np.atleast_1d(probe[key]).reshape(-1)
                probe_flat[i] += eps
                probe[key] = probe_flat.reshape(np.shape(params[key])) if key != "b2" else float(probe_flat[0])
                hi = loss_and_grad(probe, X, y)[0]
                probe_flat[i] -= 2 * eps
                probe[key] = probe_flat.reshape(np.shape(params[key])) if key != "b2" else float(probe_flat[0])
                lo = loss_and_grad(probe, X, y)[0]
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(fd), abs(g.reshape(-1)[i]), 1e-8)
                flat_err.append(abs(fd - g.reshape(-1)[i]) / denom)
            assert max(flat_err) < 1e-4


def full_batch_gradient_norm(m, X, y):
    """Largest entry of the mean cross-entropy's gradient over all rows,
    derived here apart from mlp.py."""
    z1 = X @ m.W1 + m.b1
    a1 = np.maximum(z1, 0.0)
    r = (1.0 / (1.0 + np.exp(-(a1 @ m.w2 + m.b2))) - y) / len(X)
    dz1 = np.outer(r, m.w2) * (z1 > 0.0)
    return max(np.abs(g).max() for g in (X.T @ dz1, dz1.sum(axis=0), a1.T @ r, r.sum()))


def test_mlp_converged_is_the_full_batch_gradient_test():
    X, y = two_blobs(n_per=100, d=10, seed=31)
    m = L.train(ModelSpec("mlp", {}, 1), X, y)
    assert full_batch_gradient_norm(m, X, y) >= 1e-6 and not m.converged
    # zero features and balanced labels: the gradient is exactly 0 throughout
    X0, y0 = np.zeros((4, 3)), np.array([0, 1, 0, 1])
    m = L.train(ModelSpec("mlp", {}, 1), X0, y0)
    assert full_batch_gradient_norm(m, X0, y0) < 1e-6 and m.converged


LINEAR_CASES = pytest.mark.parametrize(
    "algo,hp", [("logreg", {}), ("linear_svm", {"C": 0.1}),
                ("linear_svm", {"C": 1.0}), ("linear_svm", {"C": 10.0})],
    ids=["logreg", "svm-C0.1", "svm-C1", "svm-C10"])


@pytest.mark.parametrize("scale", [1.0, 0.05])
@LINEAR_CASES
def test_linear_loss_never_increases(algo, hp, scale):
    X, y = two_blobs(seed=5)
    X = scale * (X - X.mean(0)) / X.std(0)
    m = L.train(ModelSpec(algo, hp, 0), X, y)
    assert np.all(np.diff(m.loss_history) <= 1e-9)


@pytest.mark.parametrize("scale", [1.0, 0.05])
@LINEAR_CASES
def test_linear_reaches_stationary_point(algo, hp, scale):
    # scale 0.05 is the range of stack meta-features, [-0.5, 0.5]
    X, y = two_blobs(seed=5)
    X = scale * (X - X.mean(0)) / X.std(0)
    m = L.train(ModelSpec(algo, hp, 0), X, y)
    z = X @ m.weights + m.bias
    if algo == "logreg":
        lam = m.spec.hyperparameters["lam"]
        dz = 1.0 / (1.0 + np.exp(-z)) - y  # d(cross-entropy)/dz
    else:
        lam = 1.0 / m.spec.hyperparameters["C"]
        sign = 2.0 * y - 1.0
        dz = -2.0 * sign * np.maximum(0.0, 1.0 - sign * z)  # d(sq. hinge)/dz
    grad = np.append(X.T @ dz / len(y) + lam * m.weights, np.mean(dz))
    assert np.max(np.abs(grad)) < 1e-6
    assert m.converged


def test_knn_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((200, 6))
    y = (rng.random(200) < 0.5).astype(np.int64)
    Q = rng.standard_normal((50, 6))
    for k in (1, 3, 5):
        m = L.train(ModelSpec("knn", {"k": k}, 0), X, y)
        got = m.decision_values(Q) >= 0
        want = []
        for q in Q:
            d2 = np.sum((X - q) ** 2, axis=1)
            order = np.argsort(d2, kind="stable")[:k]
            want.append(y[order].mean() - 0.5 >= 0)
        assert np.array_equal(got, np.array(want))


def test_knn_distance_tie_prefers_lower_row():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    y = np.array([1, 0, 0])
    m = L.train(ModelSpec("knn", {"k": 1}, 0), X, y)
    # rows 0 and 1 are equidistant from the query; row 0 wins
    assert L.predict(m, np.array([1.0, 0.0])).is_anomalous


def test_gaussian_nb_matches_closed_form():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 1.0], [10.0, 8.0], [12.0, 6.0]])
    y = np.array([0, 0, 0, 1, 1])
    m = L.train(ModelSpec("gaussian_nb", {}, 0), X, y)
    q = np.array([5.0, 5.0])

    def log_joint(rows, prior):
        mu = rows.mean(0)
        var = np.maximum(rows.var(0), 1e-9)
        return (np.log(prior)
                - 0.5 * np.sum(np.log(2 * np.pi * var) + (q - mu) ** 2 / var))

    lh = log_joint(X[:3], 3 / 5)
    la = log_joint(X[3:], 2 / 5)
    want = np.exp(la) / (np.exp(la) + np.exp(lh))
    got = m.probabilities(q[None, :])[0]
    assert abs(got - want) < 1e-9


def reference_leaf_ids(tree, X):
    """Leaf index of every row, one tree at a time: the per-tree walk
    that the flat walker of tree.py replaced."""
    node = np.zeros(len(X), dtype=np.int64)
    active = tree.feature[node] != LEAF
    while active.any():
        rows = np.flatnonzero(active)
        cur = node[rows]
        goes_left = X[rows, tree.feature[cur]] <= tree.threshold[cur]
        node[rows] = np.where(goes_left, tree.left[cur], tree.right[cur])
        active[rows] = tree.feature[node[rows]] != LEAF
    return node


def reference_decision_values(m, X):
    """decision_values of a tree model, summing its trees in tree order."""
    if isinstance(m, DecisionTreeModel):
        [tree] = m.trees
        return tree.value[reference_leaf_ids(tree, X)] - 0.5
    if isinstance(m, (RandomForestModel, AdaBoostModel)):
        acc = np.zeros(len(X))
        for tree in m.trees:
            acc += tree.value[reference_leaf_ids(tree, X)]
        return acc if isinstance(m, AdaBoostModel) else acc / len(m.trees) - 0.5
    F = np.full(len(X), m.base_score)
    for tree in m.trees:
        F += m.spec.hyperparameters["learning_rate"] * tree.value[reference_leaf_ids(tree, X)]
    return sigmoid(F) - 0.5


def test_tree_memorizes_distinct_points():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((120, 4))
    y = (rng.random(120) < 0.5).astype(np.int64)
    m = L.train(ModelSpec("decision_tree", {}, 0), X, y)
    assert np.mean((m.decision_values(X) >= 0) == (y == 1)) == 1.0


def test_tree_threshold_tie_takes_lowest():
    # splits at 0.5 and 2.5 tie on impurity; the scan keeps the lower cut
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 0])
    m = L.train(ModelSpec("decision_tree", {}, 0), X, y)
    assert m.trees[0].feature[0] == 0
    assert m.trees[0].threshold[0] == 0.5


def test_tree_feature_tie_takes_lowest_index():
    rng = np.random.default_rng(9)
    col = rng.standard_normal(30)
    X = np.column_stack([col, col])  # identical columns: feature 0 must win
    y = (col > 0).astype(np.int64)
    m = L.train(ModelSpec("decision_tree", {}, 0), X, y)
    assert m.trees[0].feature[0] == 0


def test_tree_min_samples_leaf_is_respected():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((80, 3))
    y = (rng.random(80) < 0.5).astype(np.int64)
    m = L.train(ModelSpec("decision_tree", {"min_samples_leaf": 5}, 0), X, y)
    _, counts = np.unique(reference_leaf_ids(m.trees[0], X), return_counts=True)
    assert counts.min() >= 5


def test_decision_tree_routes_on_leq():
    tree = TreeArrays(feature=np.array([0, LEAF, LEAF]),
                      threshold=np.array([1.5, 0.0, 0.0]),
                      left=np.array([1, LEAF, LEAF]),
                      right=np.array([2, LEAF, LEAF]),
                      value=np.array([0.0, 0.25, 0.75]))
    m = DecisionTreeModel(ModelSpec("decision_tree", {}, 0), [tree])
    assert m.decision_values(np.array([[1.5], [1.500001]])).tolist() == [-0.25, 0.25]


def stumps(m):
    """(features, thresholds, signed weights) of an AdaBoost model's
    stumps; a weight is polarity * alpha / sum(alphas), its right leaf."""
    for t in m.trees:
        assert t.feature[1:].tolist() == [LEAF, LEAF]
        assert (t.left.tolist(), t.right.tolist()) == ([1, LEAF, LEAF], [2, LEAF, LEAF])
        assert t.value[0] == 0.0 and t.value[1] == -t.value[2]
    return tuple(np.array([getattr(t, name)[i] for t in m.trees])
                 for name, i in (("feature", 0), ("threshold", 0), ("value", 2)))


def test_adaboost_alphas_positive_and_errors_below_half():
    X, y = two_blobs(seed=11, gap=1.0)
    m = L.train(ModelSpec("adaboost", {"rounds": 25}, 0), X, y)
    _, _, weights = stumps(m)
    assert 1 <= len(weights) <= 25
    assert np.all(weights != 0)  # alpha > 0 iff weighted error < 0.5
    assert abs(np.abs(weights).sum() - 1.0) < 1e-12


def test_adaboost_separable_perfect():
    X, y = two_blobs(seed=12, gap=6.0)
    m = L.train(ModelSpec("adaboost", {"rounds": 10}, 0), X, y)
    assert np.mean((m.decision_values(X) >= 0) == (y == 1)) == 1.0


def test_adaboost_identical_columns_take_the_lower_feature():
    rng = np.random.default_rng(14)
    col = rng.standard_normal(40)
    X = np.column_stack([rng.standard_normal(40), col, col])
    m = L.train(ModelSpec("adaboost", {"rounds": 1}, 0), X, (col > 0).astype(np.int64))
    assert stumps(m)[0].tolist() == [1]


def test_adaboost_equal_error_cuts_take_the_lower_threshold():
    # cut 0.5 with polarity +1 and cut 2.5 with polarity -1 both miss
    # one row in four
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    m = L.train(ModelSpec("adaboost", {"rounds": 1}, 0), X, np.array([0, 1, 1, 0]))
    assert [a.tolist() for a in stumps(m)[1:]] == [[0.5], [1.0]]


def test_adaboost_constant_column_gives_the_constant_stump():
    X = np.full((4, 1), 2.0)
    m = L.train(ModelSpec("adaboost", {"rounds": 5}, 0), X, np.array([1, 1, 1, 0]))
    assert [a.tolist() for a in stumps(m)] == [[0], [1.0], [1.0]]


def test_adaboost_without_a_useful_stump_refuses_to_train():
    # every stump misses half the weight; a model without stumps would
    # score every row 0, which reads anomalous
    X = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="no stump"):
        L.train(ModelSpec("adaboost", {"rounds": 5}, 0), X, np.array([0, 1, 1, 0]))


def reference_stump(X, ys, w):
    """The per-feature, per-cut stump search that train_adaboost's one
    sorted scan replaced: (error, feature, threshold, polarity)."""
    n, d = X.shape
    best = None  # (err, feature, threshold, polarity)
    for f in range(d):
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        xv = xs[order]
        wy = (w * (ys > 0))[order]   # weight mass of positives
        wn = (w * (ys < 0))[order]
        total_pos = float(wy.sum())
        total_neg = float(wn.sum())
        cum_pos = np.concatenate(([0.0], np.cumsum(wy)))
        cum_neg = np.concatenate(([0.0], np.cumsum(wn)))
        # candidate boundaries: below all points, then between distinct values
        cuts = [0] + [int(i) + 1 for i in np.flatnonzero(xv[:-1] < xv[1:])]
        for pos in cuts:
            if pos == 0:
                th = float(xv[0]) - 1.0
            else:
                th = (float(xv[pos - 1]) + float(xv[pos])) / 2.0
            # polarity +1: predict +1 on the right of th
            err_plus = cum_pos[pos] + (total_neg - cum_neg[pos])
            for polarity, err in ((1.0, err_plus), (-1.0, total_pos + total_neg - err_plus)):
                if best is None or err < best[0] - 1e-15:
                    best = (float(err), f, th, polarity)
    return best


def reference_adaboost(X, y, rounds):
    """train_adaboost's rounds over reference_stump: (features,
    thresholds, polarities, alphas)."""
    ys = 2.0 * y.astype(np.float64) - 1.0
    w = np.full(len(y), 1.0 / len(y))
    stumps = []
    for _ in range(rounds):
        err, f, th, pol = reference_stump(X, ys, w)
        if err >= 0.5:
            break
        eps = max(err, 1e-12)
        alpha = 0.5 * np.log((1.0 - eps) / eps)
        w *= np.exp(-alpha * ys * np.where(X[:, f] > th, pol, -pol))
        w /= w.sum()
        stumps.append((f, th, pol, float(alpha)))
        if err <= 1e-12:
            break
    f, th, pol, alpha = zip(*stumps)
    return (np.array(f, dtype=np.int64), np.array(th), np.array(pol), np.array(alpha))


def header_matrix():
    """Standardised one-hot header features of synthetic mail, with
    mirrored columns (a binary field's =0 and =1 indicators)."""
    records = to_records(generate_emails(300, 0.5, seed=41))
    schema = fit_schema(records, k=40, one_hot=True)
    M = extract_matrix(records, schema)
    y = np.array([r.label is not Label.HAM for r in records], dtype=np.int64)
    return apply_scaler(M, fit_scaler(M)), y


def continuous_matrix():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((400, 8))
    return X, (X[:, 0] + 0.5 * rng.standard_normal(400) > 0).astype(np.int64)


def reference_stump_vote(features, thresholds, polarities, alphas, X):
    """AdaBoostModel.decision_values before its stumps became trees: the
    alpha-weighted vote as one matrix product, over the sum of alphas."""
    votes = np.where(X[:, features] > thresholds, polarities, -polarities)
    return (votes @ alphas) / float(alphas.sum())


@pytest.mark.parametrize("data", [header_matrix, continuous_matrix])
def test_adaboost_matches_the_per_cut_stump_search(data):
    """The stumps' features and thresholds are the reference search's
    bytes and their leaves its polarity * alpha / sum(alphas); the
    verdicts on the training rows and on 3,000 random rows are those of
    the old vote, and the values agree within 1e-14."""
    X, y = data()
    if data is header_matrix:
        one_hot = X > X.mean(axis=0)
        assert any((one_hot[:, a] == ~one_hot[:, b]).all() and X[:, a].std() > 0
                   for a in range(X.shape[1]) for b in range(a + 1, X.shape[1]))
    m = L.train(ModelSpec("adaboost", {"rounds": 100}, 0), X, y)
    want = reference_adaboost(X, y, 100)
    assert len(want[0]) == 100
    features, thresholds, polarities, alphas = want
    got = stumps(m)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in (
        features, thresholds, polarities * alphas / alphas.sum())]
    Q = np.vstack([X, np.random.default_rng(48).standard_normal((3000, X.shape[1]))])
    old, new = reference_stump_vote(*want, Q), m.decision_values(Q)
    assert ((new >= 0) == (old >= 0)).all()
    assert np.abs(new - old).max() <= 1e-14


def reference_best_split(X, t, rows, features, min_leaf, criterion):
    """The per-node split scan that tree.py's batched scan replaced."""
    n = len(rows)
    total = float(t.sum())
    if criterion == "gini":
        # sum over children of n_c * Gini_c / 2 = p(n_c - p)/n_c
        parent = total * (n - total) / n
    else:
        parent = float(t @ t) - total * total / n

    xs = X[np.ix_(rows, features)]
    order = np.argsort(xs, axis=0, kind="stable")
    xv = np.take_along_axis(xs, order, axis=0)
    valid, mid = xv[:-1] < xv[1:], (xv[:-1] + xv[1:]) / 2.0
    tv = t[order]
    ln = np.arange(1, n, dtype=np.float64)[:, None]
    rn = n - ln
    if min_leaf > 1:
        valid &= (ln >= min_leaf) & (rn >= min_leaf)
    if not valid.any():
        return None
    csum = np.cumsum(tv, axis=0)[:-1]
    if criterion == "gini":
        score = csum * (ln - csum) / ln + (total - csum) * (rn - (total - csum)) / rn
    else:
        csq = np.cumsum(tv * tv, axis=0)[:-1]
        sse_l = csq - csum * csum / ln
        sse_r = (float(t @ t) - csq) - (total - csum) ** 2 / rn
        score = sse_l + sse_r
    score[~valid] = np.inf
    j, p = divmod(int(np.argmin(score.T)), n - 1)
    best_score = float(score[p, j])
    if not best_score < parent - 1e-12:
        return None
    return (int(features[j]), float(mid[p, j]), best_score)


def reference_build_tree(X, target, *, criterion, max_depth, min_samples_leaf,
                         max_features=None, rng=None):
    """The one-tree, one-node-at-a-time pre-order builder that the batched
    growers replaced: the reference for trees without feature bags."""
    n, d = X.shape
    feature, threshold, left, right, value = [], [], [], [], []

    # explicit pre-order stack; (rows, depth, parent index, went left)
    stack = [(np.arange(n), 0, -1, False)]
    while stack:
        rows, depth, parent, went_left = stack.pop()
        idx = len(feature)
        if parent >= 0:
            if went_left:
                left[parent] = idx
            else:
                right[parent] = idx
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        t = target[rows]
        value.append(float(np.mean(t)))
        if max_depth is not None and depth >= max_depth:
            continue
        if len(rows) < 2 * min_samples_leaf or len(rows) < 2:
            continue
        if criterion == "gini" and (t == t[0]).all():
            continue
        if max_features is not None and max_features < d:
            cand = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            cand = np.arange(d)
        found = reference_best_split(X, t, rows, cand, min_samples_leaf, criterion)
        if found is None:
            continue
        f, th, _ = found
        mask = X[rows, f] <= th
        rows_l, rows_r = rows[mask], rows[~mask]
        if len(rows_l) == 0 or len(rows_r) == 0:
            continue
        feature[idx] = f
        threshold[idx] = th
        # right pushed first so the left subtree lays out immediately
        # after its parent, matching recursive pre-order
        stack.append((rows_r, depth + 1, idx, False))
        stack.append((rows_l, depth + 1, idx, True))
    return TreeArrays(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )


def reference_level_tree(X, target, *, max_depth, min_samples_leaf, max_features, rng):
    """A Gini tree grown one node at a time, one depth level at a time,
    with feature bags by the declared per-level rule: each level with a
    node to split draws one (nodes to split, features) block of uniform
    keys from rng, a row per node left to right, and a node's candidates
    are the max_features features with its smallest keys, ascending.
    Nodes are numbered in pre-order."""
    n, d = X.shape
    root = {"rows": np.arange(n), "split": None, "kids": ()}
    level, depth = [root], 0
    while level:
        todo = []
        for node in level:
            t = target[node["rows"]]
            node["value"] = float(np.mean(t))
            if ((max_depth is None or depth < max_depth) and len(t) >= max(2 * min_samples_leaf, 2)
                    and not (t == t[0]).all()):
                todo.append(node)
        keys = rng.random((len(todo), d)) if todo else []
        level, depth = [], depth + 1
        for node, key in zip(todo, keys):
            rows = node["rows"]
            cand = np.sort(np.argsort(key, kind="stable")[:max_features])
            found = reference_best_split(X, target[rows], rows, cand, min_samples_leaf, "gini")
            if found is None:
                continue
            f, th, _ = found
            mask = X[rows, f] <= th
            if mask.all() or not mask.any():
                continue
            node["split"] = (f, th)
            node["kids"] = ({"rows": rows[mask], "split": None, "kids": ()},
                            {"rows": rows[~mask], "split": None, "kids": ()})
            level += node["kids"]
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        node["index"] = len(order)
        order.append(node)
        stack += node["kids"][::-1]
    return TreeArrays(
        feature=np.array([node["split"][0] if node["split"] else LEAF for node in order], dtype=np.int64),
        threshold=np.array([node["split"][1] if node["split"] else 0.0 for node in order]),
        left=np.array([node["kids"][0]["index"] if node["kids"] else LEAF for node in order], dtype=np.int64),
        right=np.array([node["kids"][1]["index"] if node["kids"] else LEAF for node in order], dtype=np.int64),
        value=np.array([node["value"] for node in order]),
    )


def reference_trees(algo, hp, X, y, seed):
    """The trees of a model grown one at a time by reference_build_tree,
    in the training loops of the forest and boosting before lockstep, or
    by reference_level_tree for a forest that draws feature bags."""
    hp = L.validate_spec(ModelSpec(algo, hp, seed)).hyperparameters
    target = y.astype(np.float64)
    n, d = X.shape
    if algo == "decision_tree":
        return [reference_build_tree(X, target, criterion="gini", max_depth=hp["max_depth"],
                                     min_samples_leaf=hp["min_samples_leaf"])]
    trees = []
    if algo == "random_forest":
        mtry = max(1, int(np.sqrt(d))) if hp["max_features"] == "sqrt" else d
        for t in range(hp["n_trees"]):
            rng = np.random.default_rng(derive_seed(seed, "forest", t))
            rows = rng.integers(0, n, size=n)
            if mtry < d:
                trees.append(reference_level_tree(
                    X[rows], target[rows], max_depth=hp["max_depth"],
                    min_samples_leaf=hp["min_samples_leaf"], max_features=mtry, rng=rng))
            else:
                trees.append(reference_build_tree(
                    X[rows], target[rows], criterion="gini", max_depth=hp["max_depth"],
                    min_samples_leaf=hp["min_samples_leaf"]))
        return trees
    pbar = min(max(float(np.mean(target)), 1e-12), 1.0 - 1e-12)
    F = np.full(n, float(np.log(pbar / (1.0 - pbar))))
    for _ in range(hp["n_trees"]):
        p = sigmoid(F)
        residual = target - p
        hess = p * (1.0 - p)
        tree = reference_build_tree(X, residual, criterion="sse",
                                    max_depth=hp["max_depth"], min_samples_leaf=1)
        ids = reference_leaf_ids(tree, X)
        for leaf in np.unique(ids):
            rows = ids == leaf
            tree.value[leaf] = float(residual[rows].sum() / max(hess[rows].sum(), 1e-12))
        F += hp["learning_rate"] * tree.value[ids]
        trees.append(tree)
    return trees


GROWN = [("random_forest", {"n_trees": 20, "max_features": mf, "max_depth": depth,
                            "min_samples_leaf": leaf})
         for mf in ("sqrt", "all") for depth in (None, 1, 3) for leaf in (1, 5)]
GROWN += [("grad_boost", {"n_trees": 10}), ("decision_tree", {}),
          ("decision_tree", {"min_samples_leaf": 5})]


@functools.lru_cache(maxsize=None)
def frozen(data):
    """data() once per session, read-only, as cached results are shared."""
    arrays = data()
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def reference_tree_bytes(data, algo, hp_items):
    X, y = frozen(data)
    return [[(a.dtype, a.tobytes()) for a in astuple(t)]
            for t in reference_trees(algo, dict(hp_items), X, y, 6)]


@pytest.mark.parametrize("cells", [1, 2**40])
@pytest.mark.parametrize("data", [header_matrix, continuous_matrix])
@pytest.mark.parametrize("algo,hp", GROWN, ids=["-".join([a, *map(str, hp.values())])
                                               for a, hp in GROWN])
def test_lockstep_grower_matches_the_per_node_builder(monkeypatch, cells, data, algo, hp):
    """Byte-identical trees, all five arrays with their dtypes, whether
    every node is scanned alone or each level is one scan; a forest that
    draws feature bags against the per-level reference."""
    X, y = frozen(data)
    if data is header_matrix:
        assert max(len(np.unique(col)) for col in X.T) <= 12
    monkeypatch.setattr(tree_module, "SCAN_CELLS", cells)
    m = L.train(ModelSpec(algo, hp, 6), X, y)
    got = [[(a.dtype, a.tobytes()) for a in astuple(t)]
           for t in m.trees]
    assert got == reference_tree_bytes(data, algo, tuple(hp.items()))


@functools.lru_cache(maxsize=None)
def reference_alone_bytes(data, criterion, depth):
    """Trees grown alone by reference_build_tree on each root of
    per_tree_case, and their leaves' rows from the per-tree walk."""
    X, _ = frozen(data)
    roots, targets = per_tree_case(data, criterion)
    out = []
    for rows, t in zip(roots, targets):
        tree = reference_build_tree(X[rows], t[rows], criterion=criterion,
                                    max_depth=depth, min_samples_leaf=1)
        ids = reference_leaf_ids(tree, X[rows])
        out.append(([(a.dtype, a.tobytes()) for a in astuple(tree)],
                    {int(leaf): rows[ids == leaf].tobytes() for leaf in np.unique(ids)}))
    return out


def per_tree_case(data, criterion):
    """Four trees rooted at four folds' training rows, each with its own
    target: relabelled labels for "gini", residual-like values for "sse"."""
    _, y = frozen(data)
    rng = np.random.default_rng(24)
    fold_of = L.stratified_fold_ids(y, 4, 24)
    roots = [np.flatnonzero(fold_of != f) for f in range(4)]
    if criterion == "gini":
        flips = rng.random((4, len(y))) < np.array([0.0, 0.05, 0.1, 0.2])[:, None]
        return roots, (y ^ flips).astype(np.float64)
    return roots, y - sigmoid(rng.standard_normal((4, len(y))))


@pytest.mark.parametrize("cells", [1, 2**40])
@pytest.mark.parametrize("data", [header_matrix, continuous_matrix])
@pytest.mark.parametrize("criterion,depth", [("sse", 3), ("sse", 6), ("gini", None)])
def test_per_tree_targets_match_trees_grown_alone(monkeypatch, cells, data, criterion, depth):
    """One grower call with a target row per tree grows, byte for byte,
    the trees each root and target grow alone, and hands back each
    leaf's rows as the walk finds them."""
    X, _ = frozen(data)
    roots, targets = per_tree_case(data, criterion)
    monkeypatch.setattr(tree_module, "SCAN_CELLS", cells)
    trees, leaves = tree_module.build_tree(X, targets, roots, criterion=criterion,
                                           max_depth=depth, min_samples_leaf=1,
                                           leaf_rows=True)
    got = [([(a.dtype, a.tobytes()) for a in astuple(tree)],
            {leaf: rows.tobytes() for leaf, rows in tree_leaves})
           for tree, tree_leaves in zip(trees, leaves)]
    assert got == reference_alone_bytes(data, criterion, depth)


class _KeyBlocks:
    """A generator that records the shape of every block of keys drawn."""

    def __init__(self, seed):
        self.rng, self.shapes = np.random.default_rng(seed), []

    def random(self, shape):
        self.shapes.append(shape)
        return self.rng.random(shape)


def test_feature_bags_draw_one_key_block_per_level():
    """A planted tree: six identical columns of values 0, 1 and 2, whose
    labels are 0, 1 and 0, so the root splits at 1.5 and its left child
    at 0.5. Each of two trees draws a (1, 6) block at depth 0 and at
    depth 1 and none at depth 2, whose nodes are pure; each split is on
    the lowest feature of its bag, the two smallest keys of its row."""
    x = np.repeat([0.0, 1.0, 2.0], [6, 4, 8])
    y = (x == 1.0).astype(np.float64)
    X = np.repeat(x[:, None], 6, axis=1)
    roots = [np.arange(len(x)), np.arange(len(x))[::-1].copy()]
    rngs = [_KeyBlocks(61), _KeyBlocks(62)]
    trees = tree_module.build_tree(X, y, roots, criterion="gini", max_depth=None,
                                   min_samples_leaf=1, max_features=2, rngs=rngs)
    for tree, rows, rng, seed in zip(trees, roots, rngs, (61, 62)):
        assert rng.shapes == [(1, 6), (1, 6)]
        keys = np.random.default_rng(seed).random((2, 6))
        assert tree.threshold[tree.feature != LEAF].tolist() == [1.5, 0.5]
        assert tree.feature[tree.feature != LEAF].tolist() == np.argsort(keys, axis=1)[:, :2].min(axis=1).tolist()
        want = reference_level_tree(X[rows], y[rows], max_depth=None, min_samples_leaf=1,
                                    max_features=2, rng=np.random.default_rng(seed))
        assert [a.tobytes() for a in astuple(tree)] == [a.tobytes() for a in astuple(want)]


@pytest.mark.parametrize("data", [header_matrix, continuous_matrix])
def test_root_row_budget_leaves_the_trees_as_they_are(monkeypatch, data):
    """Trees grown one per batch and all in one batch are the same bytes:
    a sqrt forest with its feature bags, and per-tree sse targets with
    each leaf's rows."""
    X, y = frozen(data)
    roots, targets = per_tree_case(data, "sse")
    got = []
    for budget in (1, 2**40):
        monkeypatch.setattr(tree_module, "ROOT_ROWS", budget)
        forest = L.train(ModelSpec("random_forest", {"n_trees": 12}, 6), X, y)
        trees, leaves = tree_module.build_tree(X, targets, roots, criterion="sse", max_depth=4,
                                               min_samples_leaf=1, leaf_rows=True)
        got.append(([a.tobytes() for t in forest.trees + trees for a in astuple(t)],
                    [(leaf, rows.tobytes()) for tree_leaves in leaves for leaf, rows in tree_leaves]))
    assert got[0] == got[1]


def test_column_codes_sort_as_the_values():
    """Codes are ranks among a column's distinct values: a stable argsort
    of the codes is the stable argsort of the floats, on mixed +-0.0, on
    a one-valued column and on a column of 300 values (uint16 codes), and
    the table maps each code back to its value. The codes are byte for
    byte those of np.unique's inverse, column by column."""
    rng = np.random.default_rng(51)
    signed_zeros = rng.choice([-0.0, 0.0, -1.5, 2.0], size=400)
    assert {math.copysign(1.0, v) for v in signed_zeros[signed_zeros == 0.0]} == {-1.0, 1.0}
    cases = [np.column_stack([signed_zeros, np.full(400, 3.25)]),
             np.column_stack([rng.permutation(np.r_[np.arange(300), rng.integers(0, 300, 100)]) / 7.0,
                              signed_zeros])]
    assert len(np.unique(cases[1][:, 0])) > 256
    for X, dtype in zip(cases, (np.uint8, np.uint16)):
        codes, table = tree_module.column_codes(X)
        assert codes.dtype == dtype and codes.shape == X.shape and codes.flags.c_contiguous
        for j, column in enumerate(X.T):
            assert (np.argsort(codes[:, j], kind="stable")
                    == np.argsort(column, kind="stable")).all()
            values = np.unique(column)
            assert (table[j, :len(values)] == values).all()
            assert np.isnan(table[j, len(values):]).all()
            assert (table[j, codes[:, j]] == column).all()
            assert codes[:, j].tobytes() == np.unique(column, return_inverse=True)[1].astype(dtype).tobytes()


def reference_binned_split(X, t):
    """The sse split search as declared: per feature, each distinct
    value's targets summed in row order, those sums added in value
    order, the first minimum in (feature, cut) order at the midpoint of
    the two values beside it, if it beats the parent by 1e-12."""
    n, total, square = len(t), float(t.sum()), float(t @ t)
    best = (square - total * total / n - 1e-12, None, None)
    for f, column in enumerate(X.T):
        values = np.unique(column)
        csum = csq = 0.0
        ln = 0
        for low, high in zip(values[:-1], values[1:]):
            s = q = 0.0
            for v in t[column == low].tolist():
                s += v
                q += v * v
            csum, csq, ln = csum + s, csq + q, ln + int((column == low).sum())
            rn = n - ln
            score = (csq - csum * csum / ln) + ((square - csq) - (total - csum) * (total - csum) / rn)
            if score < best[0]:
                best = (score, f, (low + high) / 2.0)
    return best[1:]


def test_sse_splits_add_each_values_sum_in_value_order():
    """sse cuts score from per-value sums: on a planted case the root's
    two tied cuts (feature 0 at 0.5, feature 1 at 1.5, one partition)
    differ in their last bits, so the bins pick feature 1 where the
    sorted cumsum tied and took feature 0; on rounded random columns
    every root split is the declared rule's."""
    X = np.array([[0, 0], [0, 0], [0, 1], [0, 1], [1, 2], [1, 2], [1, 2], [1, 2]], dtype=float)
    t = np.array([0.812, -0.169, 0.543, 0.996, -0.842, 0.414, 0.806, 0.789])
    a, b, c, d = t[:4].tolist()
    assert ((a + b) + c) + d != (a + b) + (c + d)
    assert reference_best_split(X, t, np.arange(8), np.arange(2), 1, "sse")[:2] == (0, 0.5)
    assert reference_binned_split(X, t) == (1, 1.5)
    cases = [(X, t)]
    rng = np.random.default_rng(52)
    for _ in range(40):
        Xr = np.round(rng.standard_normal((60, 4)) * 1.5)
        cases.append((Xr, Xr[:, 0] * 0.1 + np.round(rng.standard_normal(60), 2)))
    for Xc, tc in cases:
        root = tree_module.build_tree(Xc, tc, [np.arange(len(tc))], criterion="sse",
                                      max_depth=1, min_samples_leaf=1)[0]
        f, th = reference_binned_split(Xc, tc)
        assert (root.feature[0], root.threshold[0]) == ((LEAF, 0.0) if f is None else (f, th))


def test_grad_boost_base_score_is_log_odds():
    X, y = two_blobs(seed=13)
    m = L.train(ModelSpec("grad_boost", {"n_trees": 5}, 0), X, y)
    p = y.mean()
    assert abs(m.base_score - np.log(p / (1 - p))) < 1e-12
    assert np.mean((m.decision_values(X) >= 0) == (y == 1)) > 0.95


def test_stack_shapes_and_perfect_bases():
    X, y = two_blobs(seed=14, gap=6.0)
    bases = [ModelSpec("random_forest", {"n_trees": 10}, 1),
             ModelSpec("knn", {"k": 3}, 1),
             ModelSpec("linear_svm", {}, 1)]
    m = L.train_stack(bases, ModelSpec("logreg", {}, 1), X, y)
    assert len(m.bases) == 3
    assert m.meta.weights.shape == (3,)
    assert np.mean((m.decision_values(X) >= 0) == (y == 1)) == 1.0


def test_stack_is_leak_free():
    # pure-noise labels: an in-sample kNN k=1 column equals the raw label,
    # so a meta-learner fit on it leans on kNN heavily; out-of-fold columns
    # carry no signal and must earn kNN a small weight. (Accuracy on the
    # training rows shows nothing: any positive kNN weight reproduces them.)
    rng = np.random.default_rng(15)
    X = rng.standard_normal((200, 4))
    y = (rng.random(200) < 0.5).astype(np.int64)
    meta_spec = ModelSpec("logreg", {}, 2)
    m = L.train_stack([ModelSpec("knn", {"k": 1}, 2), ModelSpec("gaussian_nb", {}, 2)],
                      meta_spec, X, y)
    in_sample = np.column_stack([b.decision_values(X) for b in m.bases])
    leaky = L.fit_stack_meta(m.bases, in_sample, y, meta_spec)
    assert m.meta.weights[0] < 0.25 * leaky.meta.weights[0]


def test_stack_columns_are_kfold_cvs_held_out_values():
    # one fold plan for stacks: each base's column is its kfold_cv
    # held-out values on 5 folds seeded by the meta spec, and the bases
    # are the models train gives on all rows
    from headerscan.evaluation import kfold_cv

    X, y = two_blobs(seed=17)
    specs = [ModelSpec("random_forest", {"n_trees": 5}, 1),
             ModelSpec("knn", {"k": 3}, 2), ModelSpec("linear_svm", {}, 3)]
    meta_spec = ModelSpec("logreg", {}, 4)
    m = L.train_stack(specs, meta_spec, X, y)
    meta_X = np.column_stack([kfold_cv(spec, X, y, 5, meta_spec.seed).oof_values
                              for spec in specs])
    bases = [L.train(spec, X, y) for spec in specs]
    want = L.fit_stack_meta(bases, meta_X, y, meta_spec)
    assert m.meta.weights.tobytes() == want.meta.weights.tobytes()
    assert np.float64(m.meta.bias).tobytes() == np.float64(want.meta.bias).tobytes()
    assert [model_to_doc(b) for b in m.bases] == [model_to_doc(b) for b in bases]


def test_stack_rejects_bad_meta_and_short_bases():
    X, y = two_blobs(seed=16)
    with pytest.raises(ValueError):
        L.train_stack([ModelSpec("knn", {}, 0)], ModelSpec("logreg", {}, 0), X, y)
    with pytest.raises(ValueError):
        L.train_stack([ModelSpec("knn", {}, 0), ModelSpec("gaussian_nb", {}, 0)],
                      ModelSpec("knn", {}, 0), X, y)


# --- batched fold fitting -------------------------------------------------


def reference_grad_boost(spec, X, y):
    """train_grad_boost alone on X, y, as before fold models fitted
    together: reference_trees' boosting loop."""
    pbar = min(max(float(np.mean(y)), 1e-12), 1.0 - 1e-12)
    trees = reference_trees("grad_boost", spec.hyperparameters, X, y, spec.seed)
    return L.GradBoostModel(spec, float(np.log(pbar / (1.0 - pbar))), trees, True, None)


def reference_forward(params, X):
    z1 = X @ params["W1"] + params["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params["w2"] + params["b2"]
    return z1, a1, z2


def reference_mlp_grad(params, X, y):
    n = len(X)
    z1, a1, z2 = reference_forward(params, X)
    dz2 = (sigmoid(z2) - y) / n
    dz1 = np.outer(dz2, params["w2"]) * (z1 > 0.0)
    return {"W1": X.T @ dz1, "b1": dz1.sum(axis=0), "w2": a1.T @ dz2, "b2": float(dz2.sum())}


def reference_mlp(spec, X, y):
    """train_mlp alone on X, y, as before fold models fitted together:
    one 2-D gradient step per batch."""
    hp = spec.hyperparameters
    n, d = X.shape
    params = init_params(d, hp["hidden"], L.rng_for(spec.seed, "mlp", "init"))
    shuffle_rng = L.rng_for(spec.seed, "mlp", "shuffle")
    yf = y.astype(np.float64)
    for _ in range(mlp_module._EPOCHS):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, mlp_module._BATCH):
            rows = order[start:start + mlp_module._BATCH]
            grads = reference_mlp_grad(params, X[rows], yf[rows])
            for key in params:
                params[key] = params[key] - hp["lr"] * grads[key]
    converged = max(float(np.max(np.abs(g)))
                    for g in reference_mlp_grad(params, X, yf).values()) < mlp_module._TOL
    return L.MLPModel(spec, params["W1"], params["b1"], params["w2"], float(params["b2"]),
                      converged)


def reference_fold_values(m, X):
    if isinstance(m, L.MLPModel):
        return sigmoid(reference_forward(m._params(), X)[2]) - 0.5
    return reference_decision_values(m, X)


def outlier_matrix():
    """Two separated classes with three rows in the other class's region:
    a fold that holds such rows out grows shallower trees."""
    rng = np.random.default_rng(25)
    y = (np.arange(83) % 2).astype(np.int64)
    X = rng.random((83, 3)) + 2.0 * y[:, None]
    y[:3] = 1 - y[:3]
    return X, y


def tree_depth(tree):
    depth = np.zeros(len(tree.feature), dtype=np.int64)
    for i in np.flatnonzero(tree.feature != LEAF):
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return int(depth.max())


FOLD_LEARNERS = [("grad_boost", {"n_trees": 20}), ("mlp", {"hidden": 16}),
                 ("mlp", {"hidden": 64})]


# fold sizes differ by one row: training sets of 41/42, 74/75 and 64/65
# rows, whose last batches hold 9/10, 10/11 and 0/1 rows
@pytest.mark.parametrize("n,k", [(83, 2), (83, 10), (73, 9)])
@pytest.mark.parametrize("data", [header_matrix, continuous_matrix, outlier_matrix])
@pytest.mark.parametrize("algo,hp", FOLD_LEARNERS,
                         ids=[f"{a}-{v}" for a, hp in FOLD_LEARNERS for v in hp.values()])
def test_batched_fold_fits_match_the_per_fold_loop(n, k, data, algo, hp):
    """Fold models fitted together are, byte for byte, the models the
    2-D reference trainers fit one fold at a time, and held_out's
    held-out values are theirs."""
    X, y = (a[:n] for a in frozen(data))
    spec = ModelSpec(algo, hp, 8)
    fold_of = L.stratified_fold_ids(y, k, 5)
    specs = [L.validate_spec(ModelSpec(algo, hp, derive_seed(8, "fold", f))) for f in range(k)]
    rows = [np.flatnonzero(fold_of != f) for f in range(k)]
    assert len({len(r) for r in rows}) == 2
    reference = reference_grad_boost if algo == "grad_boost" else reference_mlp
    want = [reference(s, X[r], y[r]) for s, r in zip(specs, rows)]
    got = [m for _, _, m in L.train_grid([specs], X, y, rows)]
    schema, scaler = tiny_schema_scaler()
    assert ([bundle_bytes(m, schema, scaler, "spam") for m in got]
            == [bundle_bytes(m, schema, scaler, "spam") for m in want])
    dv, got_dv = np.empty(n), np.empty(n)
    for f, m in enumerate(want):
        dv[fold_of == f] = reference_fold_values(m, X[fold_of == f])
    [cell] = L.held_out([spec], X, y, rows, [[fold_of == f] for f in range(k)])
    for f, (values,) in enumerate(cell):
        got_dv[fold_of == f] = values
    assert got_dv.tobytes() == dv.tobytes()
    if algo == "grad_boost" and data is outlier_matrix:
        assert any(len({tree_depth(m.trees[r]) for m in got}) > 1 for r in range(20))


@pytest.mark.parametrize("data", [header_matrix, continuous_matrix, outlier_matrix])
@pytest.mark.parametrize("algo,hp", FOLD_LEARNERS,
                         ids=[f"{a}-{v}" for a, hp in FOLD_LEARNERS for v in hp.values()])
def test_batched_fits_match_the_reference_at_uneven_row_set_sizes(data, algo, hp):
    """Row sets of 33, 40 and 64 rows: at batch start 32 the three MLPs
    take steps of 1, 8 and 32 rows, one per length, and on the outlier
    matrix a boosting round's trees end at different depths. Every
    model is the one its 2-D reference trainer fits alone, byte for
    byte."""
    X, y = frozen(data)
    rng = np.random.default_rng(33)
    rows = [np.sort(rng.choice(len(X), size, replace=False)) for size in (33, 40, 64)]
    specs = [L.validate_spec(ModelSpec(algo, hp, derive_seed(8, "fold", f))) for f in range(3)]
    reference = reference_grad_boost if algo == "grad_boost" else reference_mlp
    want = [reference(s, X[r], y[r]) for s, r in zip(specs, rows)]
    got = [m for _, _, m in L.train_grid([specs], X, y, rows)]
    schema, scaler = tiny_schema_scaler()
    assert ([bundle_bytes(m, schema, scaler, "spam") for m in got]
            == [bundle_bytes(m, schema, scaler, "spam") for m in want])
    if algo == "grad_boost" and data is outlier_matrix:
        assert any(len({tree_depth(m.trees[r]) for m in got}) > 1 for r in range(20))


def _single_class_fold(X, y, hp):
    """Fold 2 holds every anomalous row, so it trains on ham alone."""
    ham = np.flatnonzero(y == 0)
    fold_of = np.full(len(y), 2)
    fold_of[ham[: len(ham) // 2]], fold_of[ham[len(ham) // 2:]] = 0, 1
    return X, hp, fold_of


def _out_of_domain(X, y, hp):
    return X, {key: -1 for key in hp}, L.stratified_fold_ids(y, 3, 0)


def _nan_row(X, y, hp):
    X = X.copy()
    X[5, 0] = np.nan
    return X, hp, L.stratified_fold_ids(y, 3, 0)


REFUSALS = {"single-class": _single_class_fold, "hyperparameter": _out_of_domain,
            "nan": _nan_row}


@pytest.mark.parametrize("case", sorted(REFUSALS))
@pytest.mark.parametrize("algo,hp", [("grad_boost", {"n_trees": 3}), ("mlp", {"lr": 0.01}),
                                     ("knn", {"k": 3})])
def test_batched_fold_fits_refuse_as_the_per_fold_loop_does(case, algo, hp):
    X, y = two_blobs(seed=23)
    X, hp, fold_of = REFUSALS[case](X, y, hp)
    with pytest.raises(ValueError) as want:
        for f in range(3):
            L.train(ModelSpec(algo, hp, derive_seed(9, "fold", f)),
                    X[fold_of != f], y[fold_of != f])
    with pytest.raises(ValueError) as got:
        L.held_out([ModelSpec(algo, hp, 9)], X, y,
                   [np.flatnonzero(fold_of != f) for f in range(3)],
                   [[fold_of == f] for f in range(3)])
    assert str(got.value) == str(want.value)


# two cells per algorithm; gaussian_nb's differ by seed alone
GRID_CELLS = {
    "logreg": [{"lam": 1e-3}, {"lam": 1e-1}],
    "linear_svm": [{"C": 0.1}, {"C": 1.0}],
    "decision_tree": [{}, {"max_depth": 2}],
    "random_forest": [{"n_trees": 5}, {"n_trees": 4, "max_depth": 3}],
    "grad_boost": [{"n_trees": 5}, {"n_trees": 4, "learning_rate": 0.3}],
    "gaussian_nb": [{}, {}],
    "knn": [{"k": 1}, {"k": 3}],
    "mlp": [{"hidden": 4}, {"hidden": 8}],
    "adaboost": [{"rounds": 5}, {"rounds": 8}],
    "one_class_svm": [{"nu": 0.1}, {"nu": 0.3, "gamma": 0.2}],
}


def grid_inputs(algo):
    """A 2-cell x 3-fold table of specs and three ascending row sets of
    unequal sizes, each holding both classes."""
    X, y = two_blobs(seed=24)
    rng = np.random.default_rng(24)
    row_sets = [np.sort(rng.choice(len(X), size, replace=False)) for size in (40, 55, 71)]
    specs = [[ModelSpec(algo, hp, derive_seed(3, c, f)) for f in range(3)]
             for c, hp in enumerate(GRID_CELLS[algo])]
    return specs, X, (None if algo == "one_class_svm" else y), row_sets


@pytest.mark.parametrize("algo", sorted(GRID_CELLS))
def test_train_grid_gives_each_spec_its_model_alone(algo):
    """train_grid yields cell by cell, fold by fold (the one-class SVM
    fold by fold, cell by cell), and each model has the bundle bytes of
    its spec trained alone on its rows and carries the grid's schema
    fingerprint."""
    specs, X, y, row_sets = grid_inputs(algo)
    schema, scaler = tiny_schema_scaler()
    got = list(L.train_grid(specs, X, y, row_sets, schema.fingerprint))
    if algo == "one_class_svm":
        order = [(c, f) for f in range(3) for c in range(2)]
    else:
        order = [(c, f) for c in range(2) for f in range(3)]
    assert [(c, f) for c, f, _ in got] == order
    for c, f, model in got:
        assert model.schema_fingerprint == schema.fingerprint
        rows = row_sets[f]
        if y is None:
            alone = L.train_one_class(specs[c][f], X[rows])
        else:
            alone = L.train(specs[c][f], X[rows], y[rows])
        assert (bundle_bytes(model, schema, scaler, "spam")
                == bundle_bytes(alone, schema, scaler, "spam"))


def patch_trainer(monkeypatch, algorithm, train):
    """Put train in algorithm's row of the learner table."""
    monkeypatch.setitem(L.LEARNERS, algorithm, L.LEARNERS[algorithm]._replace(train=train))


def test_train_grid_fits_a_per_model_learner_one_yield_at_a_time(monkeypatch):
    started = []
    patch_trainer(monkeypatch, "knn", L._per_model(
        lambda spec, *args: started.append(spec) or train_knn(spec, *args)))
    specs, X, y, row_sets = grid_inputs("knn")
    models = L.train_grid(specs, X, y, row_sets)
    assert started == []
    want = [spec for cell in specs for spec in cell]
    for i, _ in enumerate(models):
        # no fit of a later fold has started when a model is yielded
        assert started == want[:i + 1]


def test_train_hands_every_row_over_without_a_copy(monkeypatch):
    seen = []
    fit_one_class = L.LEARNERS["one_class_svm"].train
    patch_trainer(monkeypatch, "knn", L._per_model(
        lambda spec, X, y: seen.append((X, y)) or train_knn(spec, X, y)))
    patch_trainer(monkeypatch, "one_class_svm",
                  lambda specs, X: seen.append((X, None)) or fit_one_class(specs, X))
    X, y = two_blobs(seed=25)
    L.train(ModelSpec("knn", {}, 0), X, y)
    L.train_one_class(ModelSpec("one_class_svm", {}, 0), X)
    (knn_X, knn_y), (one_class_X, _) = seen
    assert knn_X is X and knn_y is y and one_class_X is X


@pytest.mark.parametrize("algo", ["knn", "one_class_svm"])
def test_train_grid_checks_every_row_set_before_it_fits(monkeypatch, algo):
    """A NaN in the last row set alone raises on the first next(), with
    the message its fold raises alone, and no model has been fitted."""
    specs, X, y, row_sets = grid_inputs(algo)
    X = X.copy()
    X[np.setdiff1d(row_sets[2], np.concatenate(row_sets[:2]))[0], 1] = np.nan
    rows = row_sets[2]
    with pytest.raises(ValueError) as want:
        if y is None:
            L.train_one_class(specs[0][2], X[rows])
        else:
            L.train(specs[0][2], X[rows], y[rows])
    fits = []
    fit_one_class = L.LEARNERS["one_class_svm"].train
    patch_trainer(monkeypatch, "knn",
                  L._per_model(lambda *args: fits.append(1) or train_knn(*args)))
    patch_trainer(monkeypatch, "one_class_svm",
                  lambda *args: fits.append(1) or fit_one_class(*args))
    with pytest.raises(ValueError) as got:
        next(L.train_grid(specs, X, y, row_sets))
    assert str(got.value) == str(want.value) == "NaN or Inf in training matrix"
    assert fits == []


def test_train_grid_refuses_a_malformed_table():
    specs, X, y, row_sets = grid_inputs("knn")
    with pytest.raises(ValueError, match="one spec per row set"):
        next(L.train_grid(specs, X, y, row_sets[:2]))
    with pytest.raises(ValueError, match="one algorithm"):
        next(L.train_grid([specs[0], grid_inputs("logreg")[0][0]], X, y, row_sets))
    with pytest.raises(ValueError, match="share their hyperparameters"):
        next(L.train_grid([specs[0][:2] + specs[1][2:]], X, y, row_sets))
    with pytest.raises(ValueError, match="without labels"):
        next(L.train_grid(specs, X, None, row_sets))
    with pytest.raises(ValueError, match="without labels"):
        next(L.train_grid(grid_inputs("one_class_svm")[0], X, y, row_sets))
    with pytest.raises(ValueError, match="train_stack"):
        next(L.train_grid([[ModelSpec("stack", {}, 0)] * 3], X, y, row_sets))


# --- one-class SVM --------------------------------------------------------


def test_ocsvm_identical_points_are_inliers():
    X = np.tile([[1.0, 2.0]], (30, 1))
    m = L.train_one_class(ModelSpec("one_class_svm", {"nu": 0.3}, 0), X)
    assert not L.predict_one_class(m, np.array([1.0, 2.0])).is_anomalous


def test_ocsvm_far_point_is_outlier():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((100, 2))
    m = L.train_one_class(ModelSpec("one_class_svm", {"nu": 0.5, "gamma": 0.5}, 0), X)
    assert L.predict_one_class(m, np.array([100.0, 100.0])).is_anomalous


def test_ocsvm_nu_property_and_kkt_audit():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((100, 2))
    m = L.train_one_class(ModelSpec("one_class_svm", {"nu": 0.5, "gamma": 0.5}, 0), X)
    a = m.audit
    assert abs(a.sum_alpha - 1.0) < 1e-9
    assert a.max_box_overshoot <= 1e-12
    assert a.max_violation < 1e-3
    assert a.sv_fraction >= 0.48
    assert a.margin_error_fraction <= 0.52


def test_ocsvm_decision_zero_reads_inlier():
    X = np.tile([[0.0, 0.0]], (10, 1))
    m = L.train_one_class(ModelSpec("one_class_svm", {"nu": 0.5}, 0), X)
    dv = m.decision_values(np.array([[0.0, 0.0]]))[0]
    assert dv == 0.0
    assert not L.predict_one_class(m, np.array([0.0, 0.0])).is_anomalous


def test_predict_reads_the_verdict_rule_from_the_model():
    # a one-class value reads inlier iff >= 0 through either call, and
    # predict_one_class refuses a binary model rather than invert it
    rng = np.random.default_rng(17)
    m = L.train_one_class(ModelSpec("one_class_svm", {"nu": 0.5, "gamma": 0.5}, 0),
                          rng.standard_normal((100, 2)))
    for x, anomalous in (([100.0, 100.0], True), ([0.0, 0.0], False)):
        score = L.predict(m, np.array(x))
        assert score == L.predict_one_class(m, np.array(x))
        assert score.is_anomalous == anomalous == (score.decision_value < 0)
    binary = L.train(ModelSpec("knn", {"k": 1}, 0),
                     np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
    assert L.predict(binary, np.array([0.9, 0.9])).is_anomalous
    with pytest.raises(ValueError, match="not a one-class model"):
        L.predict_one_class(binary, np.array([0.9, 0.9]))


def test_ocsvm_nonconvergence_raises_with_residual(monkeypatch):
    rng = np.random.default_rng(19)
    X = rng.standard_normal((60, 2))
    monkeypatch.setattr(ocsvm, "_ITERS_PER_ROW", 0)
    with pytest.raises(L.ConvergenceError) as err:
        L.train_one_class(ModelSpec("one_class_svm", {"nu": 0.5}, 0), X)
    assert err.value.residual > 0
    # a forked grid worker hands its failure to the main process pickled
    copy = pickle.loads(pickle.dumps(err.value))
    assert type(copy) is L.ConvergenceError
    assert (str(copy), copy.residual) == (str(err.value), err.value.residual)
    assert str(copy).startswith("one-class SVM did not reach the KKT tolerance (residual ")


def test_convergence_error_round_trips_through_pickle():
    copy = pickle.loads(pickle.dumps(L.ConvergenceError("x", residual=0.5)))
    assert type(copy) is L.ConvergenceError
    assert (str(copy), copy.residual) == ("x (residual 5.000e-01)", 0.5)


# --- validation and errors ------------------------------------------------


def test_validate_fills_defaults_and_rejects_junk():
    spec = L.validate_spec(ModelSpec("knn", {}, 0))
    assert spec.hyperparameters["k"] == 5
    with pytest.raises(ValueError):
        L.validate_spec(ModelSpec("knn", {"k": 0}, 0))
    with pytest.raises(ValueError):
        L.validate_spec(ModelSpec("knn", {"neighbors": 3}, 0))
    with pytest.raises(ValueError):
        L.validate_spec(ModelSpec("quantum", {}, 0))
    for algo, junk in (("logreg", {"lr": 0.1}), ("logreg", {"tol": 1e-6}),
                       ("logreg", {"max_epochs": 10}),
                       ("linear_svm", {"epochs": 30}),
                       ("mlp", {"epochs": 20}), ("mlp", {"batch_size": 4}),
                       ("one_class_svm", {"tol": 1e-3}),
                       ("one_class_svm", {"max_iter": 5}),
                       # a JSON true or Infinity is no number
                       ("knn", {"k": True}), ("linear_svm", {"C": True}),
                       ("one_class_svm", {"nu": True, "gamma": True}),
                       ("one_class_svm", {"gamma": float("inf")}),
                       ("logreg", {"lam": float("nan")}),
                       ("decision_tree", {"max_depth": True})):
        with pytest.raises(ValueError):
            L.validate_spec(ModelSpec(algo, junk, 0))


def test_learner_table_has_a_row_per_algorithm():
    """The table's rows are ALGORITHMS in order, the bundle registry is
    their model classes, and every default grid cell is a valid spec,
    the one-class gamma "auto" read as 1/d; stacks have no grid."""
    assert tuple(L.LEARNERS) == L.ALGORITHMS
    assert _registry() == {algo: row.model for algo, row in L.LEARNERS.items()}
    assert _registry()["knn"] is L.KNNModel and _registry()["stack"] is L.StackModel
    for algo, row in L.LEARNERS.items():
        if algo == "stack":
            assert row.train is row.grid is None
            with pytest.raises(ValueError, match="no default grid"):
                L.default_grid(algo)
            continue
        grid = L.default_grid(algo)
        assert grid == row.grid and all(grid[k] is not row.grid[k] for k in grid)
        for cell in itertools.product(*grid.values()):
            hp = {k: 1 / 30 if v == "auto" else v for k, v in zip(grid, cell)}
            assert L.validate_spec(ModelSpec(algo, hp, 0)).hyperparameters.items() >= hp.items()
    with pytest.raises(ValueError, match="no default grid"):
        L.default_grid("quantum")


def test_train_rejects_bad_inputs():
    X, y = two_blobs(seed=20)
    with pytest.raises(ValueError):
        L.train(ModelSpec("knn", {}, 0), X, np.zeros(len(X), dtype=np.int64))
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        L.train(ModelSpec("knn", {}, 0), bad, y)
    with pytest.raises(ValueError):
        L.train(ModelSpec("one_class_svm", {}, 0), X, y)


def test_predict_checks_fingerprint():
    X, y = two_blobs(seed=21)
    m = L.train(ModelSpec("gaussian_nb", {}, 0), X, y, schema_fingerprint="abc123")
    assert L.predict(m, X[0], fingerprint="abc123").decision_value is not None
    with pytest.raises(ValueError):
        L.predict(m, X[0], fingerprint="zzz999")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scoring_rejects_non_finite_features(bad):
    X, y = two_blobs(seed=22)
    models = [L.train(ModelSpec(algo, {}, 0), X, y)
              for algo in ("decision_tree", "knn", "logreg")]
    one_class = L.train_one_class(ModelSpec("one_class_svm", {}, 0), X)
    x = X[0].copy()
    x[2] = bad
    for m in models:
        with pytest.raises(ValueError):
            L.predict(m, x)
        with pytest.raises(ValueError):
            L.decision_values(m, x[None, :])
    with pytest.raises(ValueError):
        L.predict_one_class(one_class, x)


# --- persistence ----------------------------------------------------------


RAW_A = b"From: a@one.example\r\nTo: b@two.example\r\nSubject: x\r\n\r\n"
RAW_B = b"From: c@three.example\r\nMessage-ID: <1@three.example>\r\n\r\n"


def tiny_schema_scaler():
    """A small fitted schema and scaler. load_bundle scores a row of the
    schema's width, so models bundled with them train on that width."""
    records = [
        CorpusRecord("a", parse_headers(RAW_A), Label.HAM),
        CorpusRecord("b", parse_headers(RAW_B), Label.SPAM),
    ]
    schema = fit_schema(records, k=3)
    rng = np.random.default_rng(0)
    scaler = fit_scaler(rng.standard_normal((10, len(schema.descriptors))))
    return schema, scaler


# the parameter keys each kind has always written (logreg and linear_svm
# no longer write loss_final), and those of a tree and an SMO audit
PARAMETER_KEYS = {
    "logreg": {"weights", "bias"},
    "linear_svm": {"weights", "bias"},
    "decision_tree": {"trees"},
    "random_forest": {"trees", "tree_seeds"},
    "grad_boost": {"base_score", "trees"},
    "gaussian_nb": {"log_priors", "means", "variances"},
    "knn": {"X", "y"},
    "mlp": {"W1", "b1", "w2", "b2"},
    "adaboost": {"trees"},
    "stack": {"bases", "meta"},
    "one_class_svm": {"support_vectors", "alphas", "rho", "audit"},
}
TREE_KEYS = {"feature", "threshold", "left", "right", "value"}
AUDIT_KEYS = {"sum_alpha", "max_box_overshoot", "max_violation",
              "margin_error_fraction", "sv_fraction", "n_iterations"}


def check_parameter_keys(doc):
    params = doc["parameters"]
    assert set(params) == PARAMETER_KEYS[doc["algorithm"]], doc["algorithm"]
    assert all(set(tree) == TREE_KEYS for tree in params.get("trees", []))
    if "audit" in params:
        assert set(params["audit"]) == AUDIT_KEYS
    nested = params.get("bases", []) + ([params["meta"]] if "meta" in params else [])
    for doc in nested:
        check_parameter_keys(doc)


def assert_round_trip(path, m, schema, scaler, X):
    """Bundle m and load it back: same scores, the pinned parameter keys,
    and identical bytes when saved again; a file carrying a parameter key
    the model does not declare (old linear bundles' loss_final) is
    refused."""
    save_bundle(path, m, schema, scaler, "spam")
    blob = path.read_bytes()
    loaded = load_bundle(path)
    assert loaded.positive_label == "spam"
    assert loaded.schema.fingerprint == schema.fingerprint
    assert np.array_equal(loaded.model.decision_values(X), m.decision_values(X))
    assert bundle_bytes(loaded.model, schema, scaler, "spam") == blob
    doc = json.loads(blob)
    check_parameter_keys(doc)
    doc["parameters"]["loss_final"] = 0.25
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"unknown parameters \['loss_final'\]"):
        load_bundle(path)
    return loaded


@pytest.mark.parametrize("algo", ALL_BINARY)
def test_bundle_round_trip_bit_identical(tmp_path, algo):
    schema, scaler = tiny_schema_scaler()
    X, y = two_blobs(seed=22, d=len(schema.descriptors))
    spec = ModelSpec(algo, FAST_HP.get(algo, {}), 7)
    m = L.train(spec, X, y, schema_fingerprint=schema.fingerprint)
    assert_round_trip(tmp_path / "model.json", m, schema, scaler, X)


def test_bundle_round_trip_one_class(tmp_path):
    schema, scaler = tiny_schema_scaler()
    X, _ = two_blobs(seed=23, d=len(schema.descriptors))
    m = L.train_one_class(ModelSpec("one_class_svm", {"nu": 0.2}, 7), X,
                          schema_fingerprint=schema.fingerprint)
    loaded = assert_round_trip(tmp_path / "oc.json", m, schema, scaler, X)
    assert loaded.model.audit == m.audit


def test_bundle_round_trip_stack(tmp_path):
    schema, scaler = tiny_schema_scaler()
    X, y = two_blobs(seed=24, d=len(schema.descriptors))
    m = L.train_stack([ModelSpec("knn", {"k": 3}, 1), ModelSpec("gaussian_nb", {}, 1)],
                      ModelSpec("logreg", {}, 1), X, y,
                      schema_fingerprint=schema.fingerprint)
    assert_round_trip(tmp_path / "stack.json", m, schema, scaler, X)


# solver settings that were hyperparameters, with the values every bundle
# written before they became module constants carries; no format-2
# bundle holds them, so a file that does is refused
REMOVED_KEYS = {"mlp": {"epochs": 100, "batch_size": 32},
                "one_class_svm": {"tol": 1e-3, "max_iter": None}}


@pytest.mark.parametrize("algo", sorted(REMOVED_KEYS))
def test_bundle_with_removed_solver_settings_is_refused(tmp_path, algo):
    schema, scaler = tiny_schema_scaler()
    X, y = two_blobs(seed=25, d=len(schema.descriptors))
    spec = ModelSpec(algo, {}, 7)
    if algo == "mlp":
        m = L.train(spec, X, y, schema_fingerprint=schema.fingerprint)
    else:
        m = L.train_one_class(spec, X, schema_fingerprint=schema.fingerprint)
    doc = json.loads(bundle_bytes(m, schema, scaler, "spam"))
    doc["hyperparameters"].update(REMOVED_KEYS[algo])
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_bundle(path)
    assert f"unknown hyperparameters {sorted(REMOVED_KEYS[algo])}" in str(err.value)


WALKS = [("random_forest", {"n_trees": n, "max_depth": depth, "max_features": mf,
                             "min_samples_leaf": leaf}, 60)
         for n in (1, 100) for depth in (None, 8) for mf in ("sqrt", "all")
         for leaf in (1, 5)]
# the first 45 rows hold 30 ham and 15 anomalous, so grad_boost's base
# score is not 0
WALKS += [("grad_boost", {}, 60), ("grad_boost", {"learning_rate": 0.3}, 45),
          ("decision_tree", {}, 60)]


@pytest.mark.parametrize("algo,hp,n", WALKS, ids=[
    "-".join([a, *map(str, hp.values()), *([f"{n}rows"] if n != 60 else [])])
    for a, hp, n in WALKS])
def test_flat_walk_matches_per_tree_walk(tmp_path, algo, hp, n):
    """Bit for bit, in process and read back from a bundle, on 0 rows, 1
    row, one walk block and a row either side of it, and more rows than
    two blocks."""
    schema, scaler = tiny_schema_scaler()
    d = len(schema.descriptors)
    X, y = two_blobs(n_per=30, seed=29, d=d)
    m = L.train(ModelSpec(algo, hp, 5), X[:n], y[:n], schema_fingerprint=schema.fingerprint)
    if n != 60:
        assert m.base_score != 0.0
    save_bundle(tmp_path / "m.json", m, schema, scaler, "spam")
    loaded = load_bundle(tmp_path / "m.json").model
    rows = np.random.default_rng(30).standard_normal((2 * BLOCK_ROWS + 3, d))
    # row k sits exactly on split k's threshold, so ties at <= are walked
    splits = [(f, th) for t in m.trees for f, th in zip(t.feature, t.threshold) if f != LEAF]
    for k, (f, th) in enumerate(splits[:len(rows)]):
        rows[k, f] = th
    for size in (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, len(rows)):
        Q = rows[:size]
        want = reference_decision_values(m, Q).tobytes()
        assert m.decision_values(Q).tobytes() == want
        assert loaded.decision_values(Q).tobytes() == want


def test_leaf_sum_adds_to_the_given_array_in_place():
    X, y = two_blobs(seed=31)
    m = L.train(ModelSpec("grad_boost", {"n_trees": 7}, 5), X, y)
    Q = np.random.default_rng(32).standard_normal((BLOCK_ROWS + 5, X.shape[1]))
    F = np.random.default_rng(33).standard_normal(len(Q))
    want = F.copy()
    for tree in m.trees:
        want += 0.1 * tree.value[reference_leaf_ids(tree, Q)]
    assert m.leaf_sum(Q, F, 0.1) is F
    assert F.tobytes() == want.tobytes()


def reference_leaf_sum(self, X, F, scale=1.0):
    """TreeEnsemble.leaf_sum when it took the last row of an accumulate."""
    flat, roots = self._flat
    for start in range(0, len(X), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        terms = np.vstack((F[block], scale * flat.value[leaf_ids(flat, X[block], roots)]))
        F[block] = np.add.accumulate(terms, axis=0)[-1]
    return F


@pytest.mark.parametrize("rows", [1, 2, BLOCK_ROWS, BLOCK_ROWS + 1])
@pytest.mark.parametrize("algorithm, hp", [("random_forest", {"n_trees": 101}),
                                           ("grad_boost", {"n_trees": 3})])
def test_leaf_sum_reduce_gives_the_accumulates_bits(algorithm, hp, rows):
    """A one-row block, padded to two columns, and blocks of 2 to
    BLOCK_ROWS rows sum in tree order, as the accumulate did."""
    X, y = two_blobs(seed=36)
    m = L.train(ModelSpec(algorithm, hp, 5), X, y)
    rng = np.random.default_rng(37)
    Q = rng.standard_normal((rows, X.shape[1]))
    F = rng.standard_normal(rows)
    for scale in (1.0, 0.1):
        want = reference_leaf_sum(m, Q, F.copy(), scale)
        assert m.leaf_sum(Q, F.copy(), scale).tobytes() == want.tobytes()


def test_leaf_sum_memory_stays_within_blocks():
    """A 100-tree forest scoring 32 blocks of rows never holds a (trees,
    rows) float64 matrix: its peak stays below the size of one."""
    X, y = two_blobs(n_per=30, seed=34)
    m = L.train(ModelSpec("random_forest", {"n_trees": 100}, 5), X, y)
    Q = np.random.default_rng(35).standard_normal((32 * BLOCK_ROWS, X.shape[1]))
    m.decision_values(Q[:1])  # builds the flat arrays outside the trace
    tracemalloc.start()
    try:
        m.decision_values(Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * len(Q) * 8


REGIMES = [("random_forest", {"n_trees": 7}), ("random_forest", {"n_trees": 4, "max_depth": 2}),
           ("grad_boost", {"n_trees": 5}), ("decision_tree", {}), ("adaboost", {"rounds": 20})]
REGIME_IDS = ["-".join([a, *map(str, hp.values())]) for a, hp in REGIMES]


def walked(m):
    """(node arrays, roots, walk tables) that a tree model scores with."""
    return (*m._flat, m._walk)


def regime_queries(tree, d, seed):
    """40 rows: rows 0-19 each sit on a split's threshold, then rows of
    +0.0, of -0.0, of both, rows with a NaN entry, a row of NaN, and
    random rows."""
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((40, d))
    inner = np.flatnonzero(tree.feature != LEAF)
    for k, node in enumerate(inner[:20]):
        Q[k, tree.feature[node]] = tree.threshold[node]
    Q[20:22], Q[22:24] = 0.0, -0.0
    Q[24:26] = np.where(np.arange(d) % 2, 0.0, -0.0)
    Q[26:30, rng.integers(0, d, 4)] = np.nan
    Q[30] = np.nan
    return Q


def reference_walk_splits(tables, block, roots):
    """The all-splits walk as it scored stumps before it compared only
    their roots: every (row, node) compared once, leaves included, then
    each (tree, row) pair moved depth times."""
    n = len(tables.feature)
    base = np.arange(0, len(block) * n, n)
    node = roots[:, None] + base
    if tables.depth:
        goes_left = np.take(block, tables.feature, axis=1) <= tables.threshold
        nxt = np.where(goes_left, tables.left, tables.right)
        nxt += base[:, None]
        for _ in range(tables.depth):
            node = np.take(nxt, node)
    return node - base


@pytest.mark.parametrize("data", [header_matrix, continuous_matrix])
def test_stumps_compare_only_their_roots(data):
    """AdaBoost's stumps reach the leaves of the every-node walk, for
    each row scored alone and for the rows of one batch, on rows at the
    thresholds, on +-0.0 and on NaN."""
    X, y = frozen(data)
    m = L.train(ModelSpec("adaboost", {"rounds": 100}, 0), X, y)
    tree, roots, tables = walked(m)
    assert tables.depth == 1
    Q = np.vstack([regime_queries(tree, X.shape[1], 49), X[:300]])
    want = reference_walk_splits(tables, Q, roots)
    assert leaf_ids(tree, Q, roots, tables).tobytes() == want.tobytes()
    for i in range(len(Q)):
        assert leaf_ids(tree, Q[i:i + 1], roots, tables).tobytes() == want[:, i:i + 1].tobytes()


@pytest.mark.parametrize("algo,hp", REGIMES, ids=REGIME_IDS)
def test_small_blocks_reach_the_level_walks_leaves(monkeypatch, algo, hp):
    """With rows x nodes equal to WALK_CELLS a block compares every split;
    one cell over it, it walks level by level, unless every tree is one
    split (AdaBoost's stumps), which compares every split at any size.
    Both give the level walk's leaves and the per-tree walk's
    decision-value bytes, on rows at thresholds, on +-0.0 and on NaN
    passed straight to the model."""
    X, y = two_blobs(seed=41)
    m = L.train(ModelSpec(algo, hp, 5), X, y)
    tree, roots, tables = walked(m)
    Q = regime_queries(tree, X.shape[1], 42)
    levels = tree_module._walk_levels(tree, Q, roots)
    real, calls = tree_module._walk_splits, []
    monkeypatch.setattr(tree_module, "_walk_splits", lambda *a: calls.append(a) or real(*a))
    for rows in (1, 3, len(Q)):
        block, cells = Q[:rows], rows * len(tree.feature)
        want = reference_decision_values(m, block).tobytes()
        for budget, small in ((cells, True), (cells + 1, True), (cells - 1, False)):
            monkeypatch.setattr(tree_module, "WALK_CELLS", budget)
            calls.clear()
            assert leaf_ids(tree, block, roots, tables).tobytes() == levels[:, :rows].tobytes()
            assert m.decision_values(block).tobytes() == want
            assert bool(calls) is (small or tables.depth == 1)


@pytest.mark.parametrize("algo,hp", REGIMES, ids=REGIME_IDS)
def test_one_row_scores_its_row_of_the_batch(monkeypatch, algo, hp):
    """decision_values(X[i:i+1]) is decision_values(X)[i], bit for bit,
    with the budget as shipped and with one row just inside it, so that
    the row walks all splits and the batch walks by level; so are the
    values of the two parts of a shuffled split of X."""
    X, y = two_blobs(seed=45)
    m = L.train(ModelSpec(algo, hp, 5), X, y)
    tree, _, _ = walked(m)
    Q = regime_queries(tree, X.shape[1], 46)
    order = np.random.default_rng(47).permutation(len(Q))
    for budget in (tree_module.WALK_CELLS, len(tree.feature)):
        monkeypatch.setattr(tree_module, "WALK_CELLS", budget)
        batch = m.decision_values(Q)
        for i in range(len(Q)):
            assert m.decision_values(Q[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()
        parts = [m.decision_values(Q[rows]) for rows in np.split(order, [13])]
        assert np.concatenate(parts).tobytes() == batch[order].tobytes()


def test_root_only_trees_walk_in_both_regimes(monkeypatch):
    """A root-only tree has depth 0 and both regimes leave every row at
    its root, on rows with no columns too; a forest that mixes one with
    grown trees scores the same bytes in both."""
    X, y = two_blobs(seed=43)
    grown = L.train(ModelSpec("random_forest", {"n_trees": 2}, 5), X, y)
    forest = RandomForestModel(ModelSpec("random_forest", {"n_trees": 3}, 5),
                               [leaf_tree(1.0), *grown.trees], [0, *grown.tree_seeds])
    lone = DecisionTreeModel(ModelSpec("decision_tree", {}, 0), [leaf_tree(0.75)])
    assert walk_tables(lone.trees[0]).depth == 0
    Q = np.random.default_rng(44).standard_normal((5, X.shape[1]))
    got = []
    for budget in (0, 1 << 30):
        monkeypatch.setattr(tree_module, "WALK_CELLS", budget)
        assert leaf_ids(lone.trees[0], np.empty((4, 0))).tolist() == [[0] * 4]
        assert lone.decision_values(Q).tolist() == [0.25] * 5
        got.append(forest.decision_values(Q).tobytes())
    assert got[0] == got[1] == reference_decision_values(forest, Q).tobytes()


def test_both_regimes_route_signed_zeros_and_nan_alike(monkeypatch):
    """Thresholds of -0.0 and +0.0 against entries of +-0.0, +-1e-300 and
    NaN: x <= t picks the left child, and NaN goes right."""
    tree = TreeArrays(feature=np.array([0, 1, LEAF, LEAF, LEAF]),
                      threshold=np.array([-0.0, 0.0, 0.0, 0.0, 0.0]),
                      left=np.array([1, 2, LEAF, LEAF, LEAF]),
                      right=np.array([4, 3, LEAF, LEAF, LEAF]),
                      value=np.array([0.0, 0.0, 0.1, 0.2, 0.3]))
    entries = [0.0, -0.0, np.nan, 1e-300, -1e-300]
    Q = np.array([[a, b] for a in entries for b in entries])
    want = [(2 if b <= 0.0 else 3) if a <= -0.0 else 4 for a, b in Q.tolist()]
    for budget in (0, 1 << 30):
        monkeypatch.setattr(tree_module, "WALK_CELLS", budget)
        assert leaf_ids(tree, Q)[0].tolist() == want


def test_walk_tables_are_built_on_use_and_never_persisted(tmp_path):
    """A decoded model holds no walk tables until it scores, and scoring
    does not change its bundle bytes."""
    schema, scaler = tiny_schema_scaler()
    X, y = two_blobs(n_per=20, seed=47, d=len(schema.descriptors))
    for algo, hp in (("random_forest", {"n_trees": 3}), ("grad_boost", {"n_trees": 3}),
                     ("decision_tree", {}), ("adaboost", {"rounds": 3})):
        m = L.train(ModelSpec(algo, hp, 5), X, y)
        before = bundle_bytes(m, schema, scaler, "spam")
        decoded = model_from_doc(model_to_doc(m))
        assert "_walk" not in vars(decoded)
        decoded.decision_values(X[:1])
        assert "_walk" in vars(decoded)
        assert bundle_bytes(decoded, schema, scaler, "spam") == before


def reference_knn_decision_values(self, Q):
    """KNNModel.decision_values before it kept the stored rows' norms."""
    k = min(self.spec.hyperparameters["k"], len(self.y))
    out = np.empty(len(Q))
    # chunked so the distance matrix stays modest
    step = max(1, int(4_000_000 // max(len(self.y), 1)))
    sq = np.sum(self.X * self.X, axis=1)
    for start in range(0, len(Q), step):
        q = Q[start:start + step]
        d2 = sq[None, :] - 2.0 * (q @ self.X.T) + np.sum(q * q, axis=1)[:, None]
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = self.y[order].mean(axis=1)
        out[start:start + step] = votes - 0.5
    return out


def reference_one_class_decision_values(self, X):
    """OneClassSVMModel.decision_values before it kept the support
    vectors' norms, with the rbf_kernel and _sq_dists of then."""
    def _sq_dists(A, B):
        d2 = (np.sum(A * A, axis=1)[:, None]
              - 2.0 * (A @ B.T)
              + np.sum(B * B, axis=1)[None, :])
        return np.maximum(d2, 0.0, out=d2)

    def rbf_kernel(A, B, gamma):
        return np.exp(-gamma * _sq_dists(A, B))

    gamma = self.spec.hyperparameters["gamma"]
    out = np.empty(len(X))
    step = max(1, int(4_000_000 // max(len(self.support_vectors), 1)))
    for start in range(0, len(X), step):
        K = rbf_kernel(X[start:start + step], self.support_vectors, gamma)
        out[start:start + step] = K @ self.alphas - self.rho
    return out


def test_sq_dists_keep_the_bits_of_the_one_expression():
    """_sq_dists, computed in place, is bitwise the expression it
    replaced, with B's norms computed or given, clamped entries included
    (rows against themselves round below 0)."""
    def unfused(A, B):
        d2 = (np.sum(A * A, axis=1)[:, None]
              - 2.0 * (A @ B.T)
              + np.sum(B * B, axis=1)[None, :])
        return np.maximum(d2, 0.0, out=d2)

    rng = np.random.default_rng(53)
    A = rng.standard_normal((120, 33)) * rng.uniform(0.1, 30.0, 33)
    B = np.vstack([A[::3], rng.standard_normal((20, 33))])
    raw = (np.sum(A * A, axis=1)[:, None] - 2.0 * (A @ B.T)) + np.sum(B * B, axis=1)[None, :]
    assert (raw < 0).any()
    want = unfused(A, B).tobytes()
    assert ocsvm._sq_dists(A, B).tobytes() == want
    assert ocsvm._sq_dists(A, B, np.sum(B * B, axis=1)).tobytes() == want
    assert ocsvm._sq_dists(A, A).tobytes() == unfused(A, A).tobytes()


def test_stored_norms_keep_every_decision_value():
    """kNN and one-class scores keep their bits with the stored rows'
    norms computed once, on 0 rows, 1 row and 2,500 rows (three chunks
    against 4,000 stored rows), and the norms stay out of bundles."""
    rng = np.random.default_rng(36)
    schema, scaler = tiny_schema_scaler()
    d = len(schema.descriptors)
    rows = rng.standard_normal((4000, d))
    knn = L.KNNModel(ModelSpec("knn", {"k": 5}, 0), rows,
                     (rng.random(4000) < 0.3).astype(np.int64), True, schema.fingerprint)
    X, _ = two_blobs(n_per=30, seed=37, d=d)
    one_class = L.train_one_class(ModelSpec("one_class_svm", {"nu": 0.5, "gamma": 0.1}, 0), X,
                                  schema_fingerprint=schema.fingerprint)
    big = ocsvm.OneClassSVMModel(one_class.spec, rows, rng.random(4000) / 2000.0, 0.3,
                                 one_class.audit, True, schema.fingerprint)
    Q = rng.standard_normal((2500, d))
    Q[1] = rows[1]  # a zero distance
    for m, reference in ((knn, reference_knn_decision_values),
                         (one_class, reference_one_class_decision_values),
                         (big, reference_one_class_decision_values)):
        before = bundle_bytes(m, schema, scaler, "spam")
        for size in (0, 1, len(Q)):
            assert m.decision_values(Q[:size]).tobytes() == reference(m, Q[:size]).tobytes()
        assert bundle_bytes(m, schema, scaler, "spam") == before


def test_truncated_bundle_is_rejected(tmp_path):
    X, y = two_blobs(seed=25)
    schema, scaler = tiny_schema_scaler()
    m = L.train(ModelSpec("gaussian_nb", {}, 0), X, y,
                schema_fingerprint=schema.fingerprint)
    path = tmp_path / "model.json"
    save_bundle(path, m, schema, scaler, "spam")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        load_bundle(path)


def test_bundle_fingerprint_mismatch_is_rejected(tmp_path):
    X, y = two_blobs(seed=26)
    schema, scaler = tiny_schema_scaler()
    m = L.train(ModelSpec("gaussian_nb", {}, 0), X, y,
                schema_fingerprint="0123456789abcdef")
    path = tmp_path / "model.json"
    with pytest.raises(ValueError):
        save_bundle(path, m, schema, scaler, "spam")
    # a doctored file must fail on load too
    ok = L.train(ModelSpec("gaussian_nb", {}, 0), X, y,
                 schema_fingerprint=schema.fingerprint)
    save_bundle(path, ok, schema, scaler, "spam")
    doc = json.loads(path.read_text())
    doc["schema_fingerprint"] = "0123456789abcdef"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="model.json"):
        load_bundle(path)


@pytest.mark.parametrize("weights", [lambda d: np.full(d, np.nan),
                                     lambda d: np.zeros(d - 1)],
                         ids=["nan", "one-short"])
def test_bundle_parameters_must_fit_the_schema(tmp_path, weights):
    schema, scaler = tiny_schema_scaler()
    m = LogRegModel(spec=ModelSpec("logreg", {"lam": 1e-3}, 0),
                    weights=weights(len(schema.descriptors)), bias=0.0,
                    converged=True, loss_history=np.array([]),
                    schema_fingerprint=schema.fingerprint)
    path = tmp_path / "model.json"
    save_bundle(path, m, schema, scaler, "spam")
    with pytest.raises(ValueError, match="model.json"):
        load_bundle(path)


ALL_KINDS = ALL_BINARY + ["stack", "one_class_svm"]


def bundled(tmp_path, kind):
    """A bundle of one model of the given kind at the tiny schema's width:
    (path, parsed document, width)."""
    schema, scaler = tiny_schema_scaler()
    X, y = two_blobs(n_per=20, seed=28, d=len(schema.descriptors))
    fp = schema.fingerprint
    if kind == "stack":
        m = L.train_stack([ModelSpec("random_forest", {"n_trees": 3}, 1),
                           ModelSpec("knn", {"k": 3}, 1)],
                          ModelSpec("logreg", {}, 1), X, y, fp)
    elif kind == "one_class_svm":
        m = L.train_one_class(ModelSpec("one_class_svm", {}, 1), X[y == 0], fp)
    else:
        hp = {"n_trees": 3} if kind in ("random_forest", "grad_boost") else {}
        m = L.train(ModelSpec(kind, {**FAST_HP.get(kind, {}), **hp}, 1), X, y, fp)
    path = tmp_path / f"{kind}.json"
    save_bundle(path, m, schema, scaler, "spam")
    return path, json.loads(path.read_text()), len(schema.descriptors)


def _right_points_back(doc):
    right = decode_array(doc["parameters"]["trees"][0]["right"])
    right[0] = 0
    doc["parameters"]["trees"][0]["right"] = encode_array(right)


def _split_past_width(doc):
    # the all-zeros probe row goes left at the root and never reaches
    # node 2, whose split names a feature the schema does not have
    tree = {"feature": [0, LEAF, 10_000, LEAF, LEAF],
            "threshold": [0.5, 0.0, 0.0, 0.0, 0.0],
            "left": [1, LEAF, 3, LEAF, LEAF],
            "right": [2, LEAF, 4, LEAF, LEAF],
            "value": [0.0, 0.0, 0.0, 0.0, 1.0]}
    doc["parameters"]["trees"] = [{name: encode_array(np.array(values))
                                   for name, values in tree.items()}]


def _second_tree_points_into_first(doc):
    # offset by its root in the flat forest, child -1 of the second
    # tree's root would be the first tree's last node
    tree = doc["parameters"]["trees"][1]
    left = decode_array(tree["left"])
    left[0] = -1
    tree["left"] = encode_array(left)


def _first_stump_on(feature):
    def damage(doc):
        stump = doc["parameters"]["trees"][0]
        split = decode_array(stump["feature"])
        split[0] = feature
        stump["feature"] = encode_array(split)
    return damage


def _more_trees_than_rounds(doc):
    trees = doc["parameters"]["trees"]
    trees += [trees[0]] * (doc["hyperparameters"]["rounds"] + 1 - len(trees))


def _drop_first(key):
    return lambda doc: doc["parameters"][key].pop(0)


def _labels_one_short(doc):
    y = doc["parameters"]["y"]
    doc["parameters"]["y"] = encode_array(decode_array(y)[:-1])


# damage that hung classify (the forest probe looped forever), ended it
# with a traceback, at once or on some messages, or scored with a wrong
# vote, before load_bundle checked it
DAMAGE = {
    "forest-right-is-[0]": ("random_forest", lambda d: d["parameters"]
                            ["trees"][0].update(right=encode_array(np.array([0])))),
    "forest-child-points-back": ("random_forest", _right_points_back),
    "forest-child-points-into-first-tree": ("random_forest", _second_tree_points_into_first),
    "grad-boost-without-trees": ("grad_boost", lambda d: d["parameters"].update(trees=[])),
    "grad-boost-one-tree-short": ("grad_boost", _drop_first("trees")),
    "forest-one-tree-short": ("random_forest", _drop_first("trees")),
    "forest-one-seed-short": ("random_forest", _drop_first("tree_seeds")),
    "forest-n-trees-4": ("random_forest", lambda d: d["hyperparameters"].update(n_trees=4)),
    "adaboost-no-stumps": ("adaboost", lambda d: d["parameters"].update(trees=[])),
    "adaboost-more-stumps-than-rounds": ("adaboost", _more_trees_than_rounds),
    "adaboost-negative-feature": ("adaboost", _first_stump_on(-1)),
    "adaboost-stump-past-width": ("adaboost", _first_stump_on(10_000)),
    "tree-split-past-width": ("decision_tree", _split_past_width),
    "tree-second-tree": ("decision_tree", lambda d: d["parameters"]["trees"].append(
        d["parameters"]["trees"][0])),
    "knn-labels-one-short": ("knn", _labels_one_short),
    "knn-without-k": ("knn", lambda d: d["hyperparameters"].pop("k")),
    "grad-boost-learning-rate-x":
        ("grad_boost", lambda d: d["hyperparameters"].update(learning_rate="x")),
    "one-class-without-gamma":
        ("one_class_svm", lambda d: d["hyperparameters"].pop("gamma")),
    "stack-base-without-k":
        ("stack", lambda d: d["parameters"]["bases"][1]["hyperparameters"].pop("k")),
    "stack-base-seed-infinity":
        ("stack", lambda d: d["parameters"]["bases"][0].update(seed=float("inf"))),
    "stack-meta-fingerprint":
        ("stack", lambda d: d["parameters"]["meta"].update(schema_fingerprint="deadbeef")),
}


@pytest.mark.parametrize("case", sorted(DAMAGE))
def test_damaged_bundle_is_rejected(tmp_path, case):
    kind, damage = DAMAGE[case]
    path, doc, _ = bundled(tmp_path, kind)
    damage(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{kind}.json"):
        load_bundle(path)


@pytest.mark.parametrize("algo,hp,counts", [("decision_tree", {}, [1]),
                                            ("adaboost", {"rounds": 3}, [1, 2, 3]),
                                            ("grad_boost", {"n_trees": 2}, [2])])
def test_tree_models_hold_the_tree_count_of_their_kind(algo, hp, counts):
    """A decision tree holds one tree, AdaBoost 1 to rounds stumps and
    grad_boost n_trees trees; none holds zero, which would score every
    row 0, a verdict of anomalous."""
    spec = L.validate_spec(ModelSpec(algo, hp, 0))
    make = {"decision_tree": lambda trees: DecisionTreeModel(spec, trees),
            "adaboost": lambda trees: AdaBoostModel(spec, trees),
            "grad_boost": lambda trees: L.GradBoostModel(spec, 0.0, trees)}[algo]
    for n in range(5):
        if n in counts:
            assert len(make([leaf_tree(0.5)] * n).trees) == n
        else:
            with pytest.raises(ValueError, match=f"{n} trees"):
                make([leaf_tree(0.5)] * n)


# the tree walk's entry points and steps
WALK_STEPS = ("leaf_ids", "_walk_splits", "_walk_levels", "_next_nodes", "_follow")


class _WalkCalls(ast.NodeVisitor):
    """The enclosing (class and function names) of every call of a
    WALK_STEPS function, by name."""

    def __init__(self):
        self.scope, self.found = [], {name: [] for name in WALK_STEPS}

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef

    def visit_Call(self, node):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in self.found:
            self.found[name].append(tuple(self.scope))
        self.generic_visit(node)


def test_two_walk_entry_points_score_every_tree():
    """Every registered model kind whose parameters hold TreeArrays is a
    TreeEnsemble, and trees are walked from two entry points only:
    leaf_ids, called by TreeEnsemble.leaf_sum, in its two regimes
    (_walk_splits, _walk_levels), and TreeEnsemble.swapped_values, which
    builds and follows next-node tables itself."""
    for algorithm, cls in _registry().items():
        holds_trees = any(TreeArrays in (hint, *typing.get_args(hint))
                          for _, hint in _parameter_fields(cls))
        assert holds_trees == issubclass(cls, TreeEnsemble), algorithm
    calls = _WalkCalls()
    for path in sorted(pathlib.Path(L.__file__).parents[1].rglob("*.py")):
        calls.visit(ast.parse(path.read_text()))
    swapped = ("TreeEnsemble", "swapped_values")
    assert calls.found == {
        "leaf_ids": [("TreeEnsemble", "leaf_sum")],
        "_walk_splits": [("leaf_ids",)],
        "_walk_levels": [("leaf_ids",)],
        "_next_nodes": [("_walk_splits",), swapped],
        "_follow": [("_walk_splits",), swapped, swapped],
    }


def test_flat_forest_waits_for_the_tree_check(tmp_path):
    _, doc, _ = bundled(tmp_path, "random_forest")
    _second_tree_points_into_first(doc)
    assert "_flat" not in vars(model_from_doc(doc))


def _containers(node):
    """(container, key) for every value below node in a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield node, key
        yield from _containers(value)


def _damaged(doc):
    """Yield doc once for each way of damaging one value under its
    parameters or hyperparameters: deleting it, or replacing it with
    junk or, for an array record, a wrong-dtype or one-short array. The
    value is restored before the next yield."""
    targets = [*_containers(doc["parameters"]), *_containers(doc["hyperparameters"])]
    for node, key in targets:
        value = node[key]
        junk = [None, "x", [1.0, 2.0], {"x": 1}, 1e308]
        if isinstance(value, dict) and "dtype" in value:
            a = decode_array(value)
            junk += [encode_array(a.astype(np.int64 if a.dtype == np.float64
                                           else np.float64)),
                     encode_array(a[:-1])]
        for replacement in junk:
            node[key] = replacement
            yield doc
        if isinstance(node, list):
            node.pop(key)
            yield doc
            node.insert(key, value)
        else:
            del node[key]
            yield doc
            node[key] = value


def test_bundle_mutation_fuzz(tmp_path):
    """Every damaged bundle is either refused with ValueError or loads
    and scores seeded random rows to finite values."""
    rows = np.random.default_rng(20261018)
    outcomes = {"rejected": 0, "scored": 0}
    for kind in ALL_KINDS:
        path, doc, width = bundled(tmp_path, kind)
        for case, damaged in enumerate(_damaged(doc)):
            path.write_text(json.dumps(damaged))
            with np.errstate(all="ignore"):
                try:
                    bundle = load_bundle(path)
                except ValueError:
                    outcomes["rejected"] += 1
                    continue
                dv = L.decision_values(bundle.model, rows.standard_normal((8, width)))
            assert dv.shape == (8,) and np.isfinite(dv).all(), (kind, case)
            outcomes["scored"] += 1
    assert min(outcomes.values()) > 0


def shared_child_chain(n, value=0.9):
    """n nodes, each inner node's two children both the next node: a
    tree check_tree accepts, with 2 ** (n - 1) root-to-leaf paths."""
    step = np.append(np.arange(1, n), LEAF)
    return TreeArrays(feature=np.append(np.zeros(n - 1, dtype=np.int64), LEAF),
                      threshold=np.zeros(n), left=step, right=step.copy(),
                      value=np.append(np.zeros(n - 1), value))


def test_shared_child_chains_load_in_linear_memory(tmp_path, monkeypatch):
    """Bundles of trees whose nodes share one child load and score in a
    few MB: the walk tables count levels of distinct nodes, where a level
    of every path of a 24-node chain would hold 2 ** 23 entries."""
    from dataclasses import replace

    schema, scaler = tiny_schema_scaler()
    X, y = two_blobs(n_per=20, seed=49, d=len(schema.descriptors))
    fp, chain = schema.fingerprint, shared_child_chain(24)
    assert walk_tables(chain).depth == 23
    tree = L.train(ModelSpec("decision_tree", {}, 1), X, y, fp)
    forest = L.train(ModelSpec("random_forest", {"n_trees": 3}, 1), X, y, fp)
    Q = np.random.default_rng(50).standard_normal((6, X.shape[1]))
    for model in (replace(tree, trees=[chain]), replace(forest, trees=[chain, leaf_tree(0.9), chain])):
        path = tmp_path / "chain.json"
        save_bundle(path, model, schema, scaler, "spam")
        tracemalloc.start()
        try:
            bundle = load_bundle(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        for budget in (0, 1 << 30):
            monkeypatch.setattr(tree_module, "WALK_CELLS", budget)
            assert np.allclose(bundle.model.decision_values(Q), 0.4)
    for budget in (0, 1 << 30):
        monkeypatch.setattr(tree_module, "WALK_CELLS", budget)
        assert leaf_ids(chain, Q).tolist() == [[23] * len(Q)]


def test_bundle_envelope_keys(tmp_path):
    X, y = two_blobs(seed=27)
    schema, scaler = tiny_schema_scaler()
    m = L.train(ModelSpec("logreg", {}, 0), X, y,
                schema_fingerprint=schema.fingerprint)
    path = tmp_path / "model.json"
    save_bundle(path, m, schema, scaler, "spam")
    doc = json.loads(path.read_text())
    for key in ("format_version", "algorithm", "schema_fingerprint", "scaler",
                "hyperparameters", "seed", "parameters", "convergence_flag"):
        assert key in doc
    assert doc["format_version"] == 2
    assert doc["algorithm"] == "logreg"
