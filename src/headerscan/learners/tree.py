"""Array-based binary decision trees: Gini classification and
squared-error regression, shared by every tree model.

Nodes live in parallel arrays so trees serialize without recursion.
A sample goes left iff x[feature] <= threshold. Leaves have feature -1,
no children, and a value: P(anomalous) for classification, a real
prediction for regression, a signed stump weight for AdaBoost.

Every tree model, one decision tree or AdaBoost's 3-node stumps too, is
a TreeEnsemble scored by one walker, `leaf_ids`: its trees form one flat
node array, each tree's children offset by its root index. The walker
has two regimes, chosen per block of rows by the block's size and the
model's depth. A block of at most WALK_CELLS (row, node) cells, or any
block of a model whose trees are at most one split deep, compares every
split once, which gives each (row, node) its next node, then moves every
(tree, row) pair along those pointers as many times as the deepest leaf
is deep; its walk tables are built once per model and never persisted.
A larger block advances the unfinished (tree, row) pairs one level per
step; check_tree's forward children end walks. Both regimes make the
same x[f] <= t comparisons along each pair's path, so they reach the
same leaves. An ensemble sums each block's leaves with one sequential
reduce along the tree axis, in tree order, so no array outgrows a block.

One grower, `build_tree`, grows all of a forest's trees, or one
boosting round of every fold, in lockstep: each step takes the next
pre-order node of every unfinished tree (so draws and node numbering are
those of growing each tree alone) and scans the nodes to split in
batches within SCAN_CELLS cells.

Split search reads integer column codes, computed once per fit by
`column_codes`: a value's code is its rank among its column's distinct
values, and a (column, code) table holds the values. A scan counts each
node's rows and sums their targets per (candidate, code) bin, in row
order, with no sort; cumulative sums along the codes give the left
child at every cut between two values present in the node, and the cut
sits at their midpoint. Gini sums are counts of ones, so they are exact.
AdaBoost lists its candidate stumps from the same codes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .base import ModelSpec

__all__ = ["TreeArrays", "TreeEnsemble", "DecisionTreeModel", "train_decision_tree",
           "build_tree", "check_tree", "WalkTables", "walk_tables", "leaf_ids", "column_codes"]

LEAF = -1
BLOCK_ROWS = 1024  # rows per walk; (tree, row) arrays hold n_trees x this
SCAN_CELLS = 1 << 16  # (row, candidate) plus (node, candidate, code) cells per split scan
WALK_CELLS = 1 << 14  # (row, node) cells up to which a block compares every split


@dataclass
class TreeArrays:
    feature: np.ndarray   # int64, LEAF for leaves
    threshold: np.ndarray  # float64
    left: np.ndarray      # int64 child index
    right: np.ndarray     # int64 child index
    value: np.ndarray     # float64 leaf payload


def column_codes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, table): each entry's code is the rank of its value among
    its column's distinct values, in the smallest unsigned dtype that
    holds every column's ranks, and table[j, c] is column j's value of
    code c (NaN past the column's last). Equal values share a code and
    codes rise with the values, so a stable argsort of a column's codes
    is the stable argsort of its values."""
    uniques, ranks = zip(*(np.unique(column, return_inverse=True) for column in X.T))
    table = np.full((X.shape[1], max(map(len, uniques))), np.nan)
    codes = np.empty(X.shape, dtype=np.min_scalar_type(table.shape[1] - 1))
    for j, (values, rank) in enumerate(zip(uniques, ranks)):
        table[j, :len(values)] = values
        codes[:, j] = rank
    return codes, table


def _scan(X, codes, table, targets, own, rows, cands, totals, squares, min_leaf: int, criterion: str):
    """Per node of a group: (feature or LEAF, threshold, left rows, right
    rows, left label sum for "gini"). Node i's targets are
    targets[own[i]]. cands is (nodes, candidates), or None for every
    column. One bincount per sum over (node, candidate, code) bins gives
    each value's row count and target sum, summed in row order; their
    cumsums along the codes are the left child's at each cut between
    values present in the node. The first minimum in (feature, cut)
    order wins if it beats the parent by 1e-12; its threshold is the
    midpoint of the two values beside the cut."""
    m, lens = len(rows), [len(r) for r in rows]
    R = rows[0] if m == 1 else np.concatenate(rows)
    node = np.repeat(np.arange(m), lens)
    k, B = len(table) if cands is None else cands.shape[1], table.shape[1]
    shape, bins = (m, k, B), m * k * B
    key = np.arange(0, bins, B).reshape(m, k)[node]  # each (node, candidate)'s first bin
    key += codes[R] if cands is None else codes[R[:, None], cands[node]]
    T = targets[np.repeat(own, lens), R]
    count = np.bincount(key.ravel(), minlength=bins).reshape(shape)
    if criterion == "gini":  # 0/1 targets: the sums are counts of ones
        csum = np.bincount(key[T > 0.0].ravel(), minlength=bins).reshape(shape).cumsum(axis=2)
    else:
        csum = np.bincount(key.ravel(), np.repeat(T, k), bins).reshape(shape).cumsum(axis=2)
    ln = count.cumsum(axis=2)
    n, total = np.array(lens)[:, None, None], np.array(totals)[:, None, None]
    rn = n - ln
    valid = (count > 0) & (ln >= min_leaf) & (rn >= min_leaf)
    ln, rn = np.maximum(ln, 1).astype(np.float64), np.maximum(rn, 1).astype(np.float64)
    if criterion == "gini":
        # sum over children of n_c * Gini_c / 2 = p(n_c - p)/n_c
        score = csum * (ln - csum) / ln + (total - csum) * (rn - (total - csum)) / rn
        parents = [t * (n - t) / n for t, n in zip(totals, lens)]
    else:
        square = np.array(squares)[:, None, None]
        csq = np.bincount(key.ravel(), np.repeat(T * T, k), bins).reshape(shape).cumsum(axis=2)
        sse_l = csq - csum * csum / ln
        sse_r = (square - csq) - (total - csum) ** 2 / rn
        score = sse_l + sse_r
        parents = [q - t * t / n for t, q, n in zip(totals, squares, lens)]
    np.putmask(score, ~valid, np.inf)
    flat = score.reshape(m, -1)  # per node, (feature, cut) order
    best = flat.argmin(axis=1)
    j, c = np.divmod(best, B)
    # the next code present in the node, past the cut
    after = (count[np.arange(m), j] > 0) & (np.arange(B) > c[:, None])
    feature = j if cands is None else cands[np.arange(m), j]
    threshold = (table[feature, c] + table[feature, after.argmax(axis=1)]) / 2.0
    goes_left = X[R, feature[node]] <= threshold[node]
    rows_l, rows_r = R[goes_left], R[~goes_left]
    sums_l = (np.bincount(node[goes_left], T[goes_left], m).tolist() if criterion == "gini"
              else [None] * m)
    found, a, b = [], 0, 0
    for f, th, low, parent, size, nl, s in zip(feature.tolist(), threshold.tolist(),
                                               flat[np.arange(m), best].tolist(), parents, lens,
                                               np.bincount(node[goes_left], minlength=m).tolist(),
                                               sums_l):
        found.append((f if low < parent - 1e-12 else LEAF, th,
                      rows_l[a:a + nl], rows_r[b:b + size - nl], s))
        a, b = a + nl, b + size - nl
    return found


def build_tree(X: np.ndarray, target: np.ndarray, roots, *, criterion: str,
               max_depth: int | None, min_samples_leaf: int,
               max_features: int | None = None, rngs=None, leaf_rows: bool = False,
               codes: tuple[np.ndarray, np.ndarray] | None = None):
    """Grow one tree per entry of roots, an array of rows of X (repeats
    allowed, as in a bootstrap sample), all in lockstep. target is the
    0/1 label vector for "gini" and the regression target for "sse",
    shared by every tree, or one such row of len(X) per tree. When
    max_features is given, each node of tree i draws that many candidate
    features from rngs[i]. codes is column_codes(X), computed here
    unless given. Each step scans its nodes to split in groups whose
    (row, candidate) and (node, candidate, code) cells stay within
    SCAN_CELLS; a larger node is scanned alone.

    Returns the trees; with leaf_rows, also per tree a list of (leaf
    index, the root's rows that reach it, in root order).
    """
    X, d = np.asarray(X, dtype=np.float64), X.shape[1]
    codes, table = column_codes(X) if codes is None else codes
    targets = target.reshape(-1, len(X))
    own = range(len(roots)) if len(targets) > 1 else [0] * len(roots)
    draw = max_features is not None and max_features < d
    width = max_features if draw else d
    trees = [array("d") for _ in roots]  # per node: feature, threshold, left, right, value
    leaves = [[] for _ in roots] if leaf_rows else None
    # explicit pre-order stacks; (rows, depth, parent index, went left,
    # label sum for "gini", known from the parent's split)
    stacks = [[(np.asarray(rows), 0, -1, False, None)] for rows in roots]
    while any(stacks):
        todo = []
        for i, stack in enumerate(stacks):
            if not stack:
                continue
            rows, depth, parent, went_left, total = stack.pop()
            nodes, size = trees[i], len(rows)
            if parent >= 0:
                nodes[5 * parent + (2 if went_left else 3)] = len(nodes) // 5
            if total is None:
                t = targets[own[i]][rows]
                total = float(t.sum())
            nodes.extend((LEAF, 0.0, LEAF, LEAF, total / size))
            if ((max_depth is not None and depth >= max_depth)
                    or size < 2 * min_samples_leaf or size < 2
                    or (criterion == "gini" and total in (0.0, size))):
                if leaf_rows:
                    leaves[i].append((len(nodes) // 5 - 1, rows))
                continue
            cand = np.sort(rngs[i].choice(d, size=width, replace=False)) if draw else None
            square = float(t @ t) if criterion == "sse" else None
            todo.append((size, i, len(nodes) // 5 - 1, depth, rows, cand, total, square))
        # a node's cells: its (row, candidate) codes and its bins
        ends = list(itertools.accumulate(width * (node[0] + table.shape[1]) for node in todo))
        start = 0
        while start < len(todo):
            end = max(start + 1, bisect.bisect_right(ends, (ends[start - 1] if start else 0) + SCAN_CELLS))
            _, tree_of, idx_of, depth_of, rows_of, cands, totals, squares = zip(*todo[start:end])
            start = end
            found = _scan(X, codes, table, targets, [own[i] for i in tree_of], rows_of,
                          np.array(cands) if draw else None,
                          totals, squares, min_samples_leaf, criterion)
            for i, idx, depth, rows, total, (f, th, rows_l, rows_r, sum_l) in zip(
                    tree_of, idx_of, depth_of, rows_of, totals, found):
                if f == LEAF or len(rows_l) == 0 or len(rows_r) == 0:
                    if leaf_rows:
                        leaves[i].append((idx, rows))
                    continue
                trees[i][5 * idx], trees[i][5 * idx + 1] = f, th
                # right pushed first so the left subtree lays out
                # immediately after its parent, matching recursive
                # pre-order; sse sums are taken afresh in each node
                stacks[i].append((rows_r, depth + 1, idx, False,
                                  None if sum_l is None else total - sum_l))
                stacks[i].append((rows_l, depth + 1, idx, True, sum_l))
    grown = [TreeArrays(*(column.astype(dtype) for column, dtype in zip(
        np.frombuffer(nodes).reshape(-1, 5).T, (np.int64, np.float64, np.int64, np.int64, np.float64))))
        for nodes in trees]
    return (grown, leaves) if leaf_rows else grown


def check_tree(tree: TreeArrays, width: int) -> None:
    """Raise ValueError unless tree is five equal-length 1-D arrays with
    int64 features and children, every split on a feature in 0..width-1,
    no children below a leaf, and every child after its parent, so that
    walks end."""
    n = len(tree.feature)
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    if n == 0 or any(a.shape != (n,) for a in arrays):
        raise ValueError("tree arrays are empty or differ in shape")
    if any(a.dtype != np.int64 for a in (tree.feature, tree.left, tree.right)):
        raise ValueError("tree features and children must be int64")
    leaf = tree.feature == LEAF
    if ((tree.left[leaf] != LEAF) | (tree.right[leaf] != LEAF)).any():
        raise ValueError("tree leaf has children")
    inner = np.flatnonzero(~leaf)
    feature = tree.feature[inner]
    if ((feature < 0) | (feature >= width)).any():
        raise ValueError(f"tree splits on a feature outside 0..{width - 1}")
    for child in (tree.left[inner], tree.right[inner]):
        if ((child <= inner) | (child >= n)).any():
            raise ValueError("tree child index does not point forward")


@dataclass
class WalkTables:
    """A tree's nodes as the all-splits walk reads them: a leaf splits on
    feature 0 at +inf and both its children are itself, so a pair that
    reaches a leaf stays there. depth is the most edges from a root to a
    leaf."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    depth: int


def walk_tables(tree: TreeArrays, roots=(0,)) -> WalkTables:
    """The walk tables of the trees rooted at roots, one level at a time.
    check_tree lets two parents share a child, so a level may repeat a
    node; one that outgrows the node count drops its repeats, or a chain
    of shared children would double it at every step."""
    leaf = tree.feature == LEAF
    own, roots = np.arange(len(leaf)), np.asarray(roots)
    depth, level = 0, roots[~leaf[roots]]
    while len(level):
        level = np.concatenate((tree.left[level], tree.right[level]))
        if len(level) > len(leaf):
            level = np.unique(level)
        depth, level = depth + 1, level[~leaf[level]]
    return WalkTables(np.where(leaf, 0, tree.feature), np.where(leaf, np.inf, tree.threshold),
                      np.where(leaf, own, tree.left), np.where(leaf, own, tree.right), depth)


def _walk_splits(tables: WalkTables, block: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Compare every (row, node) once for its next node, offset by the
    row's place in the flattened table, then move every (tree, row) pair
    depth times."""
    n = len(tables.feature)
    base = np.arange(0, len(block) * n, n)
    node = roots[:, None] + base
    if tables.depth:
        # take, not block[:, feature], whose result is column-major
        goes_left = np.take(block, tables.feature, axis=1) <= tables.threshold
        nxt = np.where(goes_left, tables.left, tables.right)
        nxt += base[:, None]
        for _ in range(tables.depth):
            node = np.take(nxt, node)
    return node - base


def _walk_levels(tree: TreeArrays, block: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Advance the unfinished (tree, row) pairs one level per step;
    check_tree's forward children end the walk."""
    node = np.repeat(roots, len(block))  # pair p: tree p // len(block)
    active = np.flatnonzero(tree.feature[node] != LEAF)
    while len(active):
        cur = node[active]
        goes_left = block[active % len(block), tree.feature[cur]] <= tree.threshold[cur]
        node[active] = nxt = np.where(goes_left, tree.left[cur], tree.right[cur])
        active = active[tree.feature[nxt] != LEAF]
    return node.reshape(len(roots), -1)


def leaf_ids(tree: TreeArrays, X: np.ndarray, roots=(0,), tables: WalkTables | None = None) -> np.ndarray:
    """Leaf index of every (tree, row) pair, shape (len(roots), len(X)).
    A block of rows with rows x nodes at most WALK_CELLS, or any block
    when no tree is more than one split deep (AdaBoost's stumps), compares
    every split at once through tables (walk_tables(tree, roots) unless
    given); a larger block walks level by level."""
    roots = np.asarray(roots)
    if tables is None:
        tables = walk_tables(tree, roots)
    out = np.empty((len(roots), len(X)), dtype=np.int64)
    for start in range(0, len(X), BLOCK_ROWS):
        block = X[start:start + BLOCK_ROWS]
        if tables.depth <= 1 or len(block) * len(tree.feature) <= WALK_CELLS:
            out[:, start:start + BLOCK_ROWS] = _walk_splits(tables, block, roots)
        else:
            out[:, start:start + BLOCK_ROWS] = _walk_levels(tree, block, roots)
    return out


class TreeEnsemble:
    """Mixin for a model dataclass with a `trees` list, the one scorer of
    every tree model. The flat arrays and their walk tables are built on
    first use, after load_bundle's check_tree, and never persisted."""

    def __post_init__(self):
        # the fewest and most trees of each kind; none holds zero, as
        # zero trees would score every row 0, which reads anomalous
        hp = self.spec.hyperparameters
        low, high = {"decision_tree": (1, 1), "adaboost": (1, hp.get("rounds"))}.get(
            self.spec.algorithm, (hp.get("n_trees"), hp.get("n_trees")))
        if not max(low, 1) <= len(self.trees) <= high:
            raise ValueError(f"{len(self.trees)} trees, but {self.spec.algorithm} "
                             f"holds {low} to {high}")

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

    @functools.cached_property
    def _walk(self) -> WalkTables:
        return walk_tables(*self._flat)

    def leaf_sum(self, X: np.ndarray, F: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """F plus scale times each tree's leaf values, in place, added in
        tree order: per block of rows, np.add.reduce of [F; scale * values]
        along the tree axis, which adds row after row while a block has
        two columns or more. A one-row block's column is contiguous and
        would be summed pairwise, so it gets a zero column beside it."""
        flat, roots = self._flat
        for start in range(0, len(X), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            rows = len(F[block])
            terms = np.zeros((len(roots) + 1, max(rows, 2)))
            terms[0, :rows] = F[block]
            terms[1:, :rows] = scale * flat.value[leaf_ids(flat, X[block], roots, self._walk)]
            F[block] = np.add.reduce(terms, axis=0)[:rows]
        return F


@dataclass
class DecisionTreeModel(TreeEnsemble):
    spec: ModelSpec
    trees: list[TreeArrays]  # one tree; leaves hold P(anomalous)
    converged: bool = True
    schema_fingerprint: str | None = None

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return self.leaf_sum(X, np.zeros(len(X))) - 0.5


def train_decision_tree(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> DecisionTreeModel:
    hp = spec.hyperparameters
    trees = build_tree(X, y.astype(np.float64), [np.arange(len(X))], criterion="gini",
                       max_depth=hp["max_depth"], min_samples_leaf=hp["min_samples_leaf"])
    return DecisionTreeModel(spec, trees)
