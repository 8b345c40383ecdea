"""Learner contracts: worked examples, invariants, and persistence."""

import json

import numpy as np
import pytest

import headerscan.learners as L
from headerscan.corpus import CorpusRecord, Label
from headerscan.features import fit_schema, fit_scaler
from headerscan.headers import parse_headers
from headerscan.learners import ModelSpec
from headerscan.learners.bundle import bundle_bytes, load_bundle, save_bundle
from headerscan.learners.linear import LogRegModel
from headerscan.learners.mlp import init_params, loss_and_grad
from headerscan.learners.tree import LEAF, TreeArrays, apply_tree
from headerscan.learners.forest import RandomForestModel


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
           "adaboost": {"rounds": 10}, "mlp": {"epochs": 20}}


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
    assert m.tree.feature[0] == 0
    assert m.tree.threshold[0] == 0.5


def test_tree_feature_tie_takes_lowest_index():
    rng = np.random.default_rng(9)
    col = rng.standard_normal(30)
    X = np.column_stack([col, col])  # identical columns: feature 0 must win
    y = (col > 0).astype(np.int64)
    m = L.train(ModelSpec("decision_tree", {}, 0), X, y)
    assert m.tree.feature[0] == 0


def test_tree_min_samples_leaf_is_respected():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((80, 3))
    y = (rng.random(80) < 0.5).astype(np.int64)
    m = L.train(ModelSpec("decision_tree", {"min_samples_leaf": 5}, 0), X, y)
    node = np.zeros(len(X), dtype=np.int64)
    tree = m.tree
    active = tree.feature[node] != LEAF
    while active.any():
        rows = np.flatnonzero(active)
        cur = node[rows]
        goes_left = X[rows, tree.feature[cur]] <= tree.threshold[cur]
        node[rows] = np.where(goes_left, tree.left[cur], tree.right[cur])
        active[rows] = tree.feature[node[rows]] != LEAF
    _, counts = np.unique(node, return_counts=True)
    assert counts.min() >= 5


def test_apply_tree_routes_on_leq():
    tree = TreeArrays(feature=np.array([0, LEAF, LEAF]),
                      threshold=np.array([1.5, 0.0, 0.0]),
                      left=np.array([1, LEAF, LEAF]),
                      right=np.array([2, LEAF, LEAF]),
                      value=np.array([0.0, 0.25, 0.75]))
    out = apply_tree(tree, np.array([[1.5], [1.500001]]))
    assert out[0] == 0.25 and out[1] == 0.75


def test_adaboost_alphas_positive_and_errors_below_half():
    X, y = two_blobs(seed=11, gap=1.0)
    m = L.train(ModelSpec("adaboost", {"rounds": 25}, 0), X, y)
    assert len(m.alphas) >= 1
    assert np.all(m.alphas > 0)  # alpha > 0 iff weighted error < 0.5


def test_adaboost_separable_perfect():
    X, y = two_blobs(seed=12, gap=6.0)
    m = L.train(ModelSpec("adaboost", {"rounds": 10}, 0), X, y)
    assert np.mean((m.decision_values(X) >= 0) == (y == 1)) == 1.0


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
    assert len(m.base_models) == 3
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
    in_sample = np.column_stack([b.decision_values(X) for b in m.base_models])
    leaky = L.fit_stack_meta(m.base_models, in_sample, y, meta_spec)
    assert m.meta.weights[0] < 0.25 * leaky.meta.weights[0]


def test_stack_rejects_bad_meta_and_short_bases():
    X, y = two_blobs(seed=16)
    with pytest.raises(ValueError):
        L.train_stack([ModelSpec("knn", {}, 0)], ModelSpec("logreg", {}, 0), X, y)
    with pytest.raises(ValueError):
        L.train_stack([ModelSpec("knn", {}, 0), ModelSpec("gaussian_nb", {}, 0)],
                      ModelSpec("knn", {}, 0), X, y)


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


def test_ocsvm_nonconvergence_raises_with_residual():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((60, 2))
    with pytest.raises(L.ConvergenceError) as err:
        L.train_one_class(ModelSpec("one_class_svm", {"nu": 0.5, "max_iter": 1}, 0), X)
    assert err.value.residual > 0


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
                       ("linear_svm", {"epochs": 30})):
        with pytest.raises(ValueError):
            L.validate_spec(ModelSpec(algo, junk, 0))


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


@pytest.mark.parametrize("algo", ALL_BINARY)
def test_bundle_round_trip_bit_identical(tmp_path, algo):
    schema, scaler = tiny_schema_scaler()
    X, y = two_blobs(seed=22, d=len(schema.descriptors))
    spec = ModelSpec(algo, FAST_HP.get(algo, {}), 7)
    m = L.train(spec, X, y, schema_fingerprint=schema.fingerprint)
    path = tmp_path / "model.json"
    save_bundle(path, m, schema, scaler, "spam")
    loaded = load_bundle(path)
    assert loaded.positive_label == "spam"
    assert loaded.schema.fingerprint == schema.fingerprint
    got = loaded.model.decision_values(X)
    assert np.array_equal(got, m.decision_values(X))


def test_bundle_round_trip_one_class(tmp_path):
    schema, scaler = tiny_schema_scaler()
    X, _ = two_blobs(seed=23, d=len(schema.descriptors))
    m = L.train_one_class(ModelSpec("one_class_svm", {"nu": 0.2}, 7), X,
                          schema_fingerprint=schema.fingerprint)
    path = tmp_path / "oc.json"
    save_bundle(path, m, schema, scaler, "spam")
    loaded = load_bundle(path)
    assert np.array_equal(loaded.model.decision_values(X), m.decision_values(X))
    assert loaded.model.audit == m.audit


def test_bundle_round_trip_stack(tmp_path):
    schema, scaler = tiny_schema_scaler()
    X, y = two_blobs(seed=24, d=len(schema.descriptors))
    m = L.train_stack([ModelSpec("knn", {"k": 3}, 1), ModelSpec("gaussian_nb", {}, 1)],
                      ModelSpec("logreg", {}, 1), X, y,
                      schema_fingerprint=schema.fingerprint)
    path = tmp_path / "stack.json"
    save_bundle(path, m, schema, scaler, "spam")
    loaded = load_bundle(path)
    assert np.array_equal(loaded.model.decision_values(X), m.decision_values(X))


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
    m = LogRegModel(spec=ModelSpec("logreg", {}, 0),
                    weights=weights(len(schema.descriptors)), bias=0.0,
                    converged=True, loss_history=np.array([]),
                    schema_fingerprint=schema.fingerprint)
    path = tmp_path / "model.json"
    save_bundle(path, m, schema, scaler, "spam")
    with pytest.raises(ValueError, match="model.json"):
        load_bundle(path)


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
    assert doc["format_version"] == 1
    assert doc["algorithm"] == "logreg"
