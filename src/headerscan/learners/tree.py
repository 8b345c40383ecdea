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

One grower, `build_tree`, grows a forest's trees, or one boosting round
of every fold, one depth level at a time, in batches of whole trees
within ROOT_ROWS root rows, so its memory does not grow with the number
of trees. A level is every node of one depth across a batch, and each
node owns a contiguous segment of the level's rows. A level scans its
nodes to split in groups within SCAN_CELLS cells, then partitions each
split node's segment stably into its left and right child's, so every
node's rows stay in root order. A forest's feature bags come from one
block of uniform keys per tree and level, drawn from the tree's own
generator after its bootstrap rows: a row per node to split, left to
right, and a column per feature; a node's bag is the features with its
smallest keys. Once a batch is grown its nodes are numbered in
pre-order: subtree sizes bottom-up, then positions top-down.

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
from dataclasses import dataclass, fields

import numpy as np

from .base import ModelSpec

__all__ = ["TreeArrays", "TreeEnsemble", "DecisionTreeModel", "train_decision_tree",
           "build_tree", "check_tree", "WalkTables", "walk_tables", "leaf_ids", "column_codes"]

LEAF = -1
BLOCK_ROWS = 1024  # rows per walk; (tree, row) arrays hold n_trees x this
SCAN_CELLS = 1 << 15  # split scan cells: 1 per (row, candidate), 4 per (node, candidate, code) bin
ROOT_ROWS = 1 << 14  # root rows per batch of trees grown together
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


def _runs(sizes, budget: int):
    """(start, end) of consecutive runs of sizes, each summing to at most
    budget, or one item alone where it is larger."""
    ends = list(itertools.accumulate(sizes))
    start = 0
    while start < len(ends):
        end = max(start + 1, bisect.bisect_right(ends, (ends[start - 1] if start else 0) + budget))
        yield start, end
        start = end


def _scan(X, codes, table, R, T, lens, cands, totals, squares, min_leaf: int, criterion: str):
    """(feature or LEAF, threshold) per node of a group, and whether each
    row goes left. The group's rows R, with targets T, lie node after
    node, lens[i] of them for node i. cands is (nodes, candidates), or
    None for every column. One bincount per sum over (node, candidate,
    code) bins gives each value's row count and target sum, summed in
    row order; their cumsums along the codes are the left child's at
    each cut between values present in the node. The first minimum in
    (feature, cut) order wins if it beats the parent by 1e-12; its
    threshold is the midpoint of the two values beside the cut."""
    m = len(lens)
    node = np.arange(m).repeat(lens)
    k, B = len(table) if cands is None else cands.shape[1], table.shape[1]
    shape, bins = (m, k, B), m * k * B
    key = np.arange(0, bins, B).reshape(m, k)[node]  # each (node, candidate)'s first bin
    # a row's candidate codes, read from the flat codes at row * d + column
    key += codes[R] if cands is None else codes.ravel()[(R * len(table))[:, None] + cands[node]]
    count = np.bincount(key.ravel(), minlength=bins).reshape(shape)
    if criterion == "gini":  # 0/1 targets: the sums are counts of ones
        csum = np.bincount(key[T > 0.0].ravel(), minlength=bins).reshape(shape).cumsum(axis=2)
    else:
        csum = np.bincount(key.ravel(), T.repeat(k), bins).reshape(shape).cumsum(axis=2)
    ln = count.cumsum(axis=2)
    n, total = lens[:, None, None], totals[:, None, None]
    rn = n - ln
    valid = (count > 0) & (ln >= min_leaf) & (rn >= min_leaf)
    ln, rn = np.maximum(ln, 1).astype(np.float64), np.maximum(rn, 1).astype(np.float64)
    if criterion == "gini":
        # sum over children of n_c * Gini_c / 2 = p(n_c - p)/n_c
        score = csum * (ln - csum) / ln + (total - csum) * (rn - (total - csum)) / rn
        parents = totals * (lens - totals) / lens
    else:
        square = squares[:, None, None]
        csq = np.bincount(key.ravel(), (T * T).repeat(k), bins).reshape(shape).cumsum(axis=2)
        sse_l = csq - csum * csum / ln
        sse_r = (square - csq) - (total - csum) ** 2 / rn
        score = sse_l + sse_r
        parents = squares - totals * totals / lens
    np.putmask(score, ~valid, np.inf)
    flat = score.reshape(m, -1)  # per node, (feature, cut) order
    best = flat.argmin(axis=1)
    j, c = np.divmod(best, B)
    # the next code present in the node, past the cut
    after = (count[np.arange(m), j] > 0) & (np.arange(B) > c[:, None])
    feature = j if cands is None else cands[np.arange(m), j]
    threshold = (table[feature, c] + table[feature, after.argmax(axis=1)]) / 2.0
    goes_left = X[R, feature[node]] <= threshold[node]
    return np.where(flat[np.arange(m), best] < parents - 1e-12, feature, LEAF), threshold, goes_left


def build_tree(X: np.ndarray, target: np.ndarray, roots, *, criterion: str,
               max_depth: int | None, min_samples_leaf: int,
               max_features: int | None = None, rngs=None, leaf_rows: bool = False,
               codes: tuple[np.ndarray, np.ndarray] | None = None):
    """Grow one tree per entry of roots, an array of rows of X (repeats
    allowed, as in a bootstrap sample). target is the 0/1 label vector
    for "gini" and the regression target for "sse", shared by every
    tree, or one such row of len(X) per tree. When max_features is
    given, each depth level of tree i draws one block of uniform keys
    from rngs[i]: a row per node to split, left to right, and a column
    per feature; a node's candidates are the max_features features with
    its smallest keys. codes is column_codes(X), computed here unless
    given. The trees grow in batches of whole trees within ROOT_ROWS
    root rows (a larger root alone), one level of a batch at a time.

    Returns the trees; with leaf_rows, also per tree a list of (leaf
    index, the root's rows that reach it, in root order), in pre-order.
    """
    X = np.asarray(X, dtype=np.float64)
    codes = column_codes(X) if codes is None else codes
    targets = target.reshape(-1, len(X))
    roots = [np.asarray(rows) for rows in roots]
    draw = max_features is not None and max_features < X.shape[1]
    trees, leaves = [], []
    for a, b in _runs([len(rows) for rows in roots], ROOT_ROWS):
        grown, ended = _grow(X, codes, targets if len(targets) == 1 else targets[a:b], roots[a:b],
                             rngs[a:b] if draw else None, max_features, criterion=criterion,
                             max_depth=max_depth, min_leaf=min_samples_leaf, leaf_rows=leaf_rows)
        trees += grown
        leaves += ended
    return (trees, leaves) if leaf_rows else trees


def _grow(X, codes, targets, roots, rngs, width, *, criterion, max_depth, min_leaf, leaf_rows):
    """build_tree on one batch: its trees, and their leaves' rows if
    leaf_rows. A level holds every node of one depth across the batch,
    in (tree, left to right) order, and R the rows of its nodes, node
    after node, each node's in root order."""
    codes, table = codes

    def labels(rows, node_tree, lens):  # each row's target, from its tree's row
        return targets[0][rows] if len(targets) == 1 else targets[node_tree.repeat(lens), rows]

    tree, size, R = np.arange(len(roots)), np.array([len(rows) for rows in roots]), np.concatenate(roots)
    # gini sums are counts of ones, so a child's is its parent's split;
    # sse sums are taken afresh in each node, as one call each
    total = (np.bincount(tree.repeat(size), labels(R, tree, size), len(roots))
             if criterion == "gini" else None)
    levels, ended = [], []  # per level (tree, feature, threshold, value); its leaves' (tree, node, rows)
    while len(tree):
        if criterion == "sse" or leaf_rows:  # each node's rows
            ends = np.cumsum(size).tolist()
            segs = [R[a:b] for a, b in zip([0, *ends], ends)]
        can = size >= max(2 * min_leaf, 2)
        if max_depth is not None and len(levels) >= max_depth:
            can[:] = False
        if criterion == "gini":
            can &= (total != 0.0) & (total != size)
        else:
            ts = [targets[0 if len(targets) == 1 else i][rows] for i, rows in zip(tree.tolist(), segs)]
            total, square = np.array([t.sum() for t in ts]), np.zeros(len(ts))
            square[can] = [t @ t for t, c in zip(ts, can.tolist()) if c]
        feature, threshold = np.full(len(tree), LEAF), np.zeros(len(tree))
        nxt = tree[:0], size[:0], R[:0], None
        if can.any():
            op = can.nonzero()[0]
            lens, rows = size[op], R if len(op) == len(size) else R[can.repeat(size)]
            T = labels(rows, tree[op], lens)
            cands = None
            if rngs is not None:
                counts = np.bincount(tree[op], minlength=len(roots)).tolist()
                keys = np.concatenate([rngs[i].random((c, X.shape[1])) for i, c in enumerate(counts) if c])
                cands = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :width], axis=1)
            # a node's cells: its (row, candidate) codes, and its bins at
            # four cells each, as a bin's counts, sums and scores take
            # about four times a code's memory
            cells = ((len(table) if cands is None else width) * (lens + 4 * table.shape[1])).tolist()
            bound = [0, *itertools.accumulate(lens.tolist())]
            found = [_scan(X, codes, table, rows[bound[a]:bound[b]], T[bound[a]:bound[b]], lens[a:b],
                           None if cands is None else cands[a:b], total[op[a:b]],
                           None if criterion == "gini" else square[op[a:b]], min_leaf, criterion)
                     for a, b in _runs(cells, SCAN_CELLS)]
            f, th, gl = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
            at = np.arange(len(op)).repeat(lens)  # each row's node among op
            nl = np.bincount(at[gl], minlength=len(op))
            ok = (f != LEAF) & (nl > 0) & (nl < lens)
            split = op[ok]
            feature[split], threshold[split] = f[ok], th[ok]
            if not ok.all():
                keep = ok[at]
                rows, T, gl, at = rows[keep], T[keep], gl[keep], (np.cumsum(ok) - 1)[at[keep]]
                nl = nl[ok]
            # each split node's left rows, then its right rows, in root
            # order: a stable sort by child (a radix sort up to 2^16)
            child = 2 * at + ~gl
            child = rows[np.argsort(child.astype(np.min_scalar_type(2 * len(nl))), kind="stable")]
            sums = None
            if criterion == "gini":
                sum_l = np.bincount(at[gl], T[gl], len(nl))
                sums = _pairs(sum_l, total[split] - sum_l)
            nxt = tree[split].repeat(2), _pairs(nl, size[split] - nl), child, sums
        levels.append((tree, feature, threshold, total / size))
        if leaf_rows:
            ks = (feature == LEAF).nonzero()[0]
            ended.append((tree[ks], ks, [segs[k] for k in ks.tolist()]))
        tree, size, R, total = nxt
    pos, ends = _preorder(levels, len(roots))
    # every node at once, level after level: below the roots, the inner
    # nodes' children come in pairs, in the inner nodes' order
    node_tree, f, th, v = (np.concatenate(column) for column in zip(*levels))
    index = np.concatenate(pos)
    at = np.array([0, *ends[:-1]])[node_tree] + index
    feature, left, right = (np.full(ends[-1], LEAF, dtype=np.int64) for _ in range(3))
    threshold, value = np.zeros(ends[-1]), np.empty(ends[-1])
    feature[at], threshold[at], value[at] = f, th, v
    inner = at[f != LEAF]
    left[inner], right[inner] = index[len(roots)::2], index[len(roots) + 1::2]
    grown = [TreeArrays(feature[a:b], threshold[a:b], left[a:b], right[a:b], value[a:b])
             for a, b in zip([0, *ends], ends)]
    if not leaf_rows:
        return grown, []
    leaves = [[] for _ in roots]
    for (trees, ks, segs), index in zip(ended, pos):
        for i, leaf, rows in zip(trees.tolist(), index[ks].tolist(), segs):
            leaves[i].append((leaf, rows))
    return grown, [sorted(tree_leaves, key=lambda leaf: leaf[0]) for tree_leaves in leaves]


def _preorder(levels, n_trees: int):
    """Each level's nodes' pre-order indices within their trees, and the
    cumulative node counts of the trees: subtree sizes bottom-up, then
    positions top-down, a left child just after its parent and a right
    child after its left sibling's subtree."""
    inner = [level[1] != LEAF for level in levels]
    sub = [np.ones(len(level[0]), dtype=np.int64) for level in levels]
    for depth in range(len(levels) - 2, -1, -1):
        sub[depth][inner[depth]] += sub[depth + 1].reshape(-1, 2).sum(axis=1)
    pos = [np.zeros(n_trees, dtype=np.int64)]
    for depth in range(len(levels) - 1):
        left = pos[depth][inner[depth]] + 1
        pos.append(_pairs(left, left + sub[depth + 1][0::2]))
    return pos, np.cumsum(sub[0]).tolist()


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ...: each split node's left child, then its right."""
    out = np.empty(2 * len(a), dtype=a.dtype)
    out[0::2], out[1::2] = a, b
    return out


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
    depth times. Trees at most one split deep compare only their roots,
    each (row, tree) pair once, and step to the root's child."""
    if tables.depth <= 1:
        if not tables.depth:
            return np.broadcast_to(roots[:, None], (len(roots), len(block)))
        goes_left = np.take(block, tables.feature[roots], axis=1) <= tables.threshold[roots]
        return np.where(goes_left, tables.left[roots], tables.right[roots]).T
    n = len(tables.feature)
    base = np.arange(0, len(block) * n, n)
    node = roots[:, None] + base
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
