"""Random forest: bagged Gini trees with per-node feature subsets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelSpec, derive_seed
from .tree import TreeArrays, TreeEnsemble, build_tree

__all__ = ["RandomForestModel", "train_random_forest"]


@dataclass
class RandomForestModel(TreeEnsemble):
    spec: ModelSpec
    trees: list[TreeArrays]
    tree_seeds: list[int]
    converged: bool = True
    schema_fingerprint: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if len(self.tree_seeds) != len(self.trees):
            raise ValueError(f"{len(self.trees)} trees, but {len(self.tree_seeds)} tree seeds")

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        return self.leaf_sum(X, np.zeros(len(X))) / len(self.trees)

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        # mean leaf P(anomalous) - 0.5; ties at exactly 0 read anomalous
        return self.probabilities(X) - 0.5


def train_random_forest(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> RandomForestModel:
    """Each tree gets its own generator seeded from (spec.seed, tree index);
    it draws the bootstrap rows first, then, at each depth level, one
    block of uniform keys, a row per node to split, left to right, and a
    column per feature: a node's bag is the mtry features with its
    smallest keys."""
    hp = spec.hyperparameters
    n, d = X.shape
    mtry = max(1, int(np.sqrt(d))) if hp["max_features"] == "sqrt" else d
    seeds = [derive_seed(spec.seed, "forest", t) for t in range(hp["n_trees"])]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    trees = build_tree(
        X, y.astype(np.float64), [rng.integers(0, n, size=n) for rng in rngs],
        criterion="gini", max_depth=hp["max_depth"],
        min_samples_leaf=hp["min_samples_leaf"],
        max_features=mtry if mtry < d else None, rngs=rngs)
    return RandomForestModel(spec, trees, seeds)
