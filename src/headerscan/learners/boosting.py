"""Gradient-boosted trees on log loss and AdaBoost over decision stumps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelSpec, check_training_inputs
from .linear import sigmoid
from .tree import TreeArrays, TreeEnsemble, build_tree, leaf_ids

__all__ = ["GradBoostModel", "train_grad_boost", "AdaBoostModel", "train_adaboost"]


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


def train_grad_boost(spec: ModelSpec, X: np.ndarray, y: np.ndarray,
                     schema_fingerprint: str | None = None) -> GradBoostModel:
    """Boost shallow regression trees on the log-loss gradient. Each
    round fits a squared-error tree to the residual y - p, then replaces
    every leaf with the Newton step sum(residual) / sum(p(1-p))."""
    check_training_inputs(X, y)
    hp = spec.hyperparameters
    lr = hp["learning_rate"]
    yf = y.astype(np.float64)
    pbar = min(max(float(np.mean(yf)), 1e-12), 1.0 - 1e-12)
    F0 = float(np.log(pbar / (1.0 - pbar)))
    F = np.full(len(yf), F0)
    trees = []
    for _ in range(hp["n_trees"]):
        p = sigmoid(F)
        residual = yf - p
        hess = p * (1.0 - p)
        tree = build_tree(X, residual, criterion="sse",
                          max_depth=hp["max_depth"], min_samples_leaf=1)
        ids = leaf_ids(tree, X)[0]
        for leaf in np.unique(ids):
            rows = ids == leaf
            tree.value[leaf] = float(residual[rows].sum() / max(hess[rows].sum(), 1e-12))
        F += lr * tree.value[ids]
        trees.append(tree)
    return GradBoostModel(spec, F0, trees, True, schema_fingerprint)


@dataclass
class AdaBoostModel:
    spec: ModelSpec
    features: np.ndarray    # int64, one per stump
    thresholds: np.ndarray  # float64
    polarities: np.ndarray  # float64 in {+1, -1}; predict polarity where x > threshold
    alphas: np.ndarray      # float64 stump weights
    converged: bool = True
    schema_fingerprint: str | None = None

    def __post_init__(self):
        # numpy would read a negative feature index from the end of the row
        if (self.features < 0).any():
            raise ValueError("AdaBoost stump on a negative feature index")

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        votes = np.where(X[:, self.features] > self.thresholds, self.polarities, -self.polarities)
        total = float(self.alphas.sum())
        return (votes @ self.alphas) / (total if total > 0 else 1.0)


def _best_stump(X: np.ndarray, ys: np.ndarray, w: np.ndarray):
    """Minimize weighted error over (feature, midpoint threshold,
    polarity). The stump predicts `polarity` on x > threshold and
    -polarity otherwise; a below-minimum threshold (constant stump) is
    a candidate too. Ties: lowest feature, then lowest threshold,
    polarity +1 preferred."""
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


def train_adaboost(spec: ModelSpec, X: np.ndarray, y: np.ndarray,
                   schema_fingerprint: str | None = None) -> AdaBoostModel:
    """Classic discrete AdaBoost with alpha = 0.5*ln((1-eps)/eps),
    eps floored at 1e-12. Halts early when no stump beats error 0.5."""
    check_training_inputs(X, y)
    rounds = spec.hyperparameters["rounds"]
    n = len(y)
    ys = 2.0 * y.astype(np.float64) - 1.0
    w = np.full(n, 1.0 / n)
    features, thresholds, polarities, alphas = [], [], [], []
    for _ in range(rounds):
        err, f, th, pol = _best_stump(X, ys, w)
        if err >= 0.5:
            break
        eps = max(err, 1e-12)
        alpha = 0.5 * np.log((1.0 - eps) / eps)
        pred = np.where(X[:, f] > th, pol, -pol)
        w *= np.exp(-alpha * ys * pred)
        w /= w.sum()
        features.append(f)
        thresholds.append(th)
        polarities.append(pol)
        alphas.append(float(alpha))
        if err <= 1e-12:
            break  # perfect stump; further rounds cannot change the vote
    return AdaBoostModel(
        spec,
        np.array(features, dtype=np.int64),
        np.array(thresholds, dtype=np.float64),
        np.array(polarities, dtype=np.float64),
        np.array(alphas, dtype=np.float64),
        True,
        schema_fingerprint,
    )
