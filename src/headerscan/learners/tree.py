"""Array-based binary decision trees: Gini classification and
squared-error regression, shared by the forest and boosting models.

Nodes live in parallel arrays so trees serialize without recursion.
A sample goes left iff x[feature] <= threshold. Leaves have feature -1
and carry a value: P(anomalous) for classification, a real prediction
for regression.

One walker, `leaf_ids`, scores every tree: an ensemble's trees form one
flat node array, each tree's children offset by its root index (a single
tree has roots [0]), and one level loop advances every unfinished (tree,
row) pair of a block of rows. check_tree's forward children end walks.

One scan, `sorted_cuts`, lists the candidate cuts of every split search,
tree nodes and AdaBoost stumps alike: a stable per-column sort, cut at
the midpoints between distinct neighbours.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .base import ModelSpec, check_training_inputs

__all__ = ["TreeArrays", "TreeEnsemble", "DecisionTreeModel", "train_decision_tree",
           "build_tree", "check_tree", "leaf_ids", "apply_tree", "sorted_cuts"]

LEAF = -1
BLOCK_ROWS = 1024  # rows per walk; (tree, row) arrays hold n_trees x this


@dataclass
class TreeArrays:
    feature: np.ndarray   # int64, LEAF for leaves
    threshold: np.ndarray  # float64
    left: np.ndarray      # int64 child index
    right: np.ndarray     # int64 child index
    value: np.ndarray     # float64 leaf payload


def sorted_cuts(xs: np.ndarray):
    """Stable sort of each column of xs: (order, sorted values xv, valid,
    mid). valid[i, j] iff xv[i, j] < xv[i+1, j], a cut at mid[i, j]."""
    order = np.argsort(xs, axis=0, kind="stable")
    xv = np.take_along_axis(xs, order, axis=0)
    return order, xv, xv[:-1] < xv[1:], (xv[:-1] + xv[1:]) / 2.0


def _best_split(X: np.ndarray, t: np.ndarray, rows: np.ndarray,
                features: np.ndarray, min_leaf: int, criterion: str):
    """Scan candidate features for the best midpoint split.

    Returns (feature, threshold, score) or None. Scores are impurity
    sums to minimize, computed for every candidate feature at once. The
    first minimum in (feature, cut) order wins: the lowest feature, then
    the lowest threshold. Splits that cannot beat the parent score are
    rejected.
    """
    n = len(rows)
    total = float(t.sum())
    if criterion == "gini":
        # sum over children of n_c * Gini_c / 2 = p(n_c - p)/n_c
        parent = total * (n - total) / n
    else:
        parent = float(t @ t) - total * total / n

    order, _, valid, mid = sorted_cuts(X[np.ix_(rows, features)])
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


def build_tree(X: np.ndarray, target: np.ndarray, *, criterion: str,
               max_depth: int | None, min_samples_leaf: int,
               max_features: int | None = None,
               rng: np.random.Generator | None = None) -> TreeArrays:
    """Grow a tree depth-first. target is the 0/1 label vector for
    "gini" and the regression target for "sse". When max_features is
    given, each node draws that many candidate features from rng."""
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
        found = _best_split(X, t, rows, cand, min_samples_leaf, criterion)
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


def check_tree(tree: TreeArrays, width: int) -> None:
    """Raise ValueError unless tree is five equal-length 1-D arrays with
    int64 features and children, every split on a feature in 0..width-1,
    and every child after its parent, so that walks end."""
    n = len(tree.feature)
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    if n == 0 or any(a.shape != (n,) for a in arrays):
        raise ValueError("tree arrays are empty or differ in shape")
    if any(a.dtype != np.int64 for a in (tree.feature, tree.left, tree.right)):
        raise ValueError("tree features and children must be int64")
    inner = np.flatnonzero(tree.feature != LEAF)
    feature = tree.feature[inner]
    if ((feature < 0) | (feature >= width)).any():
        raise ValueError(f"tree splits on a feature outside 0..{width - 1}")
    for child in (tree.left[inner], tree.right[inner]):
        if ((child <= inner) | (child >= n)).any():
            raise ValueError("tree child index does not point forward")


def leaf_ids(tree: TreeArrays, X: np.ndarray, roots=(0,)) -> np.ndarray:
    """Leaf index of every (tree, row) pair, shape (len(roots), len(X))."""
    out = np.empty((len(roots), len(X)), dtype=np.int64)
    for start in range(0, len(X), BLOCK_ROWS):
        block = X[start:start + BLOCK_ROWS]
        node = np.repeat(roots, len(block))  # pair p: tree p // len(block)
        active = np.flatnonzero(tree.feature[node] != LEAF)
        while len(active):
            cur = node[active]
            goes_left = block[active % len(block), tree.feature[cur]] <= tree.threshold[cur]
            node[active] = nxt = np.where(goes_left, tree.left[cur], tree.right[cur])
            active = active[tree.feature[nxt] != LEAF]
        out[:, start:start + BLOCK_ROWS] = node.reshape(len(roots), -1)
    return out


def apply_tree(tree: TreeArrays, X: np.ndarray) -> np.ndarray:
    """Leaf values for every row."""
    return tree.value[leaf_ids(tree, X)[0]]


class TreeEnsemble:
    """Mixin for a model dataclass with a `trees` list. The flat arrays are
    built on first use, after load_bundle's check_tree, and never persisted."""

    def __post_init__(self):
        n_trees = self.spec.hyperparameters["n_trees"]
        if len(self.trees) != n_trees:
            raise ValueError(f"{len(self.trees)} trees, but n_trees is {n_trees}")

    @functools.cached_property
    def _flat(self) -> tuple[TreeArrays, np.ndarray]:
        sizes = [len(t.feature) for t in self.trees]
        roots = np.cumsum([0, *sizes[:-1]])
        flat = TreeArrays(*(np.concatenate([getattr(t, f.name) for t in self.trees])
                            for f in fields(TreeArrays)))
        shift = np.where(flat.feature == LEAF, 0, np.repeat(roots, sizes))
        flat.left += shift
        flat.right += shift
        return flat, roots

    def leaf_sum(self, X: np.ndarray, F: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """F plus scale times each tree's leaf values, added in tree order."""
        flat, roots = self._flat
        for values in flat.value[leaf_ids(flat, X, roots)]:
            F += scale * values
        return F


@dataclass
class DecisionTreeModel:
    spec: ModelSpec
    tree: TreeArrays
    converged: bool = True
    schema_fingerprint: str | None = None

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return apply_tree(self.tree, X) - 0.5


def train_decision_tree(spec: ModelSpec, X: np.ndarray, y: np.ndarray,
                        schema_fingerprint: str | None = None) -> DecisionTreeModel:
    check_training_inputs(X, y)
    hp = spec.hyperparameters
    tree = build_tree(X, y.astype(np.float64), criterion="gini",
                      max_depth=hp["max_depth"],
                      min_samples_leaf=hp["min_samples_leaf"])
    return DecisionTreeModel(spec, tree, True, schema_fingerprint)
