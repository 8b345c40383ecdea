"""Gradient-boosted trees on log loss and AdaBoost over decision stumps,
each stump a 3-node tree: a split x <= threshold, then leaves of -/+
polarity * alpha / sum(alphas), so a row scores its weighted vote."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelSpec
from .linear import sigmoid
from .tree import LEAF, TreeArrays, TreeEnsemble, build_tree, column_codes

__all__ = ["GradBoostModel", "train_grad_boosts", "AdaBoostModel", "train_adaboost"]


@dataclass
class GradBoostModel(TreeEnsemble):
    spec: ModelSpec
    base_score: float          # initial log-odds F0
    trees: list[TreeArrays]    # leaves hold Newton steps
    converged: bool = True
    schema_fingerprint: str | None = None

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        lr = self.spec.hyperparameters["learning_rate"]
        return self.leaf_sum(X, np.full(len(X), self.base_score), lr)

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_scores(X))

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return self.probabilities(X) - 0.5


def train_grad_boosts(specs: list[ModelSpec], X: np.ndarray, y: np.ndarray,
                      row_sets: list) -> list[GradBoostModel]:
    """One model per (spec, rows), in order, each the model its spec
    gets alone on X[rows], y[rows]; the specs share their
    hyperparameters and rows are ascending.

    Boost shallow regression trees on the log-loss gradient. Each round
    fits a squared-error tree to the residual y - p, then replaces every
    leaf with the Newton step sum(residual) / sum(p(1-p)) over its rows.
    Round r of every model grows in one build_tree call, level by level,
    each tree rooted at its model's rows of X with its own residual row;
    F, the residuals and the leaf steps stay per model."""
    hp = specs[0].hyperparameters
    lr = hp["learning_rate"]
    ys = [y[rows].astype(np.float64) for rows in row_sets]
    # per model, a row of len(X) of which only its own rows are read
    F, residual, hess = (np.zeros((len(row_sets), len(X))) for _ in range(3))
    base_scores = []
    for Fi, rows, yf in zip(F, row_sets, ys):
        pbar = min(max(float(np.mean(yf)), 1e-12), 1.0 - 1e-12)
        base_scores.append(float(np.log(pbar / (1.0 - pbar))))
        Fi[rows] = base_scores[-1]
    trees = [[] for _ in row_sets]
    codes = column_codes(X)
    for _ in range(hp["n_trees"]):
        for i, (rows, yf) in enumerate(zip(row_sets, ys)):
            p = sigmoid(F[i, rows])
            residual[i, rows] = yf - p
            hess[i, rows] = p * (1.0 - p)
        grown, leaves = build_tree(X, residual, row_sets, criterion="sse",
                                   max_depth=hp["max_depth"], min_samples_leaf=1,
                                   leaf_rows=True, codes=codes)
        for i, (tree, tree_leaves) in enumerate(zip(grown, leaves)):
            for leaf, rows in tree_leaves:
                step = float(residual[i, rows].sum() / max(hess[i, rows].sum(), 1e-12))
                tree.value[leaf] = step
                F[i, rows] += lr * step
            trees[i].append(tree)
    return [GradBoostModel(spec, F0, model_trees)
            for spec, F0, model_trees in zip(specs, base_scores, trees)]


@dataclass
class AdaBoostModel(TreeEnsemble):
    spec: ModelSpec
    trees: list[TreeArrays]  # stumps, one per round, at most rounds
    converged: bool = True
    schema_fingerprint: str | None = None

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return self.leaf_sum(X, np.zeros(len(X)))


def train_adaboost(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> AdaBoostModel:
    """Classic discrete AdaBoost with alpha = 0.5*ln((1-eps)/eps),
    eps floored at 1e-12. Halts early when no stump beats error 0.5;
    raises ValueError if even the first round has none, as a model
    without stumps would call every row anomalous.

    A stump predicts polarity where x > threshold and -polarity
    elsewhere. X's column codes are sorted and its candidate stumps are
    listed once: per feature, the constant stump at the column's
    minimum - 1, then each cut by ascending threshold. Each round
    reweights and takes the first candidate in (feature, threshold, +1
    then -1) order whose weighted error is within 1e-15 of the minimum."""
    rounds = spec.hyperparameters["rounds"]
    n, d = X.shape
    ys = 2.0 * y.astype(np.float64) - 1.0
    w = np.full(n, 1.0 / n)
    codes, table = column_codes(X)
    order = np.argsort(codes, axis=0, kind="stable")  # the stable sort of X's columns
    ranks = np.take_along_axis(codes, order, axis=0).astype(np.intp)
    order = np.ascontiguousarray(order.T)  # (features, rows)
    # stump (f, pos): x <= threshold on the first pos sorted rows of f;
    # pos 0 is the constant stump at the column's minimum - 1, and a cut
    # below code c is at the midpoint of the values of codes c - 1 and c
    cand_f, cand_pos = np.nonzero(np.vstack([np.ones((1, d), dtype=bool), ranks[:-1] < ranks[1:]]).T)
    cuts = np.hstack([table[:, :1] - 1.0, (table[:, :-1] + table[:, 1:]) / 2.0])
    cand_th = cuts[cand_f, np.where(cand_pos == 0, 0, ranks[cand_pos - 1, cand_f] + 1)]
    sides = np.stack([ys > 0, ys < 0])[:, order].astype(np.float64, order="C")
    cum = np.zeros((2, d, n + 1))
    picked, alphas = [], []
    for _ in range(rounds):
        # C-contiguous, so its row sums are pairwise like a 1-D sum();
        # their order decides ties between mirrored columns
        mass = w[order] * sides
        total_pos, total_neg = mass.sum(axis=2)[:, cand_f]
        np.cumsum(mass, axis=2, out=cum[:, :, 1:])
        cum_pos, cum_neg = cum[:, cand_f, cand_pos]
        err_plus = cum_pos + (total_neg - cum_neg)
        errs = np.stack([err_plus, total_pos + total_neg - err_plus], axis=1).ravel()
        k = int(np.argmax(errs - 1e-15 <= errs.min()))  # stump k // 2, polarity by k % 2
        err = float(errs[k])
        if err >= 0.5:
            if not picked:
                raise ValueError("AdaBoost: no stump beats chance on the "
                                 "training data")
            break
        eps = max(err, 1e-12)
        alpha = 0.5 * np.log((1.0 - eps) / eps)
        pol = 1.0 - 2.0 * (k % 2)
        pred = np.where(X[:, cand_f[k // 2]] > cand_th[k // 2], pol, -pol)
        w *= np.exp(-alpha * ys * pred)
        w /= w.sum()
        picked.append(k)
        alphas.append(float(alpha))
        if err <= 1e-12:
            break  # perfect stump; further rounds cannot change the vote
    k = np.array(picked, dtype=np.int64)
    alphas = np.array(alphas)
    weights = (1.0 - 2.0 * (k % 2)) * alphas / alphas.sum()  # polarity * alpha / total
    return AdaBoostModel(spec, [
        TreeArrays(np.array([f, LEAF, LEAF]), np.array([th, 0.0, 0.0]), np.array([1, LEAF, LEAF]),
                   np.array([2, LEAF, LEAF]), np.array([0.0, -v, v]))
        for f, th, v in zip(cand_f[k // 2].tolist(), cand_th[k // 2].tolist(), weights.tolist())])
