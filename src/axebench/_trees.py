"""Small bagged CART ensemble backing the in-distribution detector.

Axis-aligned gini splits, deterministic per seed, JSON-serializable. Built for
desk-scale tabular data, not as a general-purpose forest.

A node's split search is one vectorised pass over its (rows, candidate
features) block: a stable sort per column, cumulative positive counts and the
gini of every cut, with the float operations per element of a per-feature
loop, so the grown trees are bit-identical to that loop's.

Inference walks every tree at once (the tree-traversal strategy of
Hummingbird, Nakandala et al., OSDI 2020). ``fit`` and ``from_dict`` merge the
trees' flat node arrays into one node table, shifting child indices by each
tree's offset, and turn every leaf into a self-loop: it splits on feature 0
and both of its children are the leaf itself. A (point, tree) path that has
reached its leaf then stays there, so all paths advance together, one depth
level per step, for as many steps as the deepest tree has levels, with no
test for which paths are still moving. Leaf values are summed tree by tree in
tree order, the float order of a per-tree loop, so probabilities are exact to
the last bit.

Copies of a row that differ from it in one column (a perturbation metric's
queries) are scored without walking each copy: the per-feature-threshold idea
of QuickScorer (Lucchese et al., SIGIR 2015) applied to one free column. One
frontier walk per (row, tree) pair carries the interval (lo, hi] of free-column
values that reaches each node: it follows the row at other columns, and at a
free-column node with threshold t it sends (lo, min(hi, t)] left and
(max(lo, t), hi] right, dropping an empty side. The trees' leaf intervals cut
the row's line into cells; every value in a cell takes the same path in every
tree, so each (cell, tree) has one leaf, and a cell's votes are summed in tree
order exactly as the stacked walk sums them. A copy's cell is the number of
the row's cuts strictly below its value: a value on a cut lands in the cell
that the cut closes, as the walk's ``<=`` test sends it left, and +inf and NaN,
which that test sends right at every (finite) threshold, land in the last
cell. The probabilities are therefore bit-equal to walking the copies.

``from_dict`` rejects trees the walks could not follow: children must lie
after their parent and inside the tree, each node has at most one parent,
thresholds are finite (the interval rule needs this) and leaf values lie in
[0, 1]. Both predict paths reject rows narrower than the widest split feature.
"""
from __future__ import annotations

import numpy as np

from .core import check_fields


def _best_split(X, y, feature_ids):
    """Gini scan of all candidate features in one pass; returns (score, feature, threshold).

    The first minimal cut of the first minimal feature in ``feature_ids`` order
    wins. None when every candidate is constant.
    """
    n = y.size
    cols = X[:, feature_ids]
    order = np.argsort(cols, axis=0, kind="stable")
    v = np.take_along_axis(cols, order, axis=0)
    distinct = v[1:] != v[:-1]
    if not distinct.any():
        return None
    pos_left = np.cumsum(y[order], axis=0)[:-1].astype(float)
    n_left = np.arange(1, n, dtype=float)[:, None]
    n_right = n - n_left
    pos_right = float(y.sum()) - pos_left
    p_l = pos_left / n_left
    p_r = pos_right / n_right
    gini = (n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r)) / n
    gini[~distinct] = np.inf
    j = int(np.argmin(gini.min(axis=0)))  # constant columns hold inf, so never win
    i = int(np.argmin(gini[:, j]))
    return float(gini[i, j]), int(feature_ids[j]), float((v[i, j] + v[i + 1, j]) / 2.0)


class _Tree:
    """Flat-array decision tree: feature < 0 marks a leaf, value holds P(class 1)."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)

    @classmethod
    def grow(cls, X, y, rng, max_depth, min_leaf, max_features) -> "_Tree":
        feature, threshold, left, right, value = [], [], [], [], []

        def add_node():
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            return len(feature) - 1

        def build(idx, depth):
            node = add_node()
            sub_y = y[idx]
            value[node] = float(sub_y.mean())
            if depth >= max_depth or idx.size < 2 * min_leaf or sub_y.min() == sub_y.max():
                return node
            cand = rng.permutation(X.shape[1])[:max_features]
            split = _best_split(X[idx], sub_y, cand)
            if split is None:
                return node
            _, f, t = split
            mask = X[idx, f] <= t
            if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
                return node
            feature[node] = f
            threshold[node] = t
            left[node] = build(idx[mask], depth + 1)
            right[node] = build(idx[~mask], depth + 1)
            return node

        build(np.arange(X.shape[0]), 0)
        return cls(feature, threshold, left, right, value)

    def to_dict(self) -> dict:
        return {"feature": self.feature.tolist(), "threshold": self.threshold.tolist(),
                "left": self.left.tolist(), "right": self.right.tolist(),
                "value": self.value.tolist()}

    @classmethod
    def from_dict(cls, d: dict, label: str) -> "_Tree":
        """Rebuild a tree, raising ValueError naming ``label`` if it is malformed."""
        fields = {"feature": int, "threshold": float, "left": int, "right": int, "value": float}
        check_fields(label, d, {key: list[tp] for key, tp in fields.items()})
        try:
            tree = cls(*(d[key] for key in fields))
        except OverflowError:
            raise ValueError(f"{label} holds an index beyond 64 bits") from None
        size = tree.feature.size
        if size == 0 or any(len(d[key]) != size for key in fields):
            raise ValueError(f"{label} arrays must be non-empty and of equal length")
        if np.any(tree.feature < -1):
            raise ValueError(f"{label} leaves must have feature -1")
        inner = np.flatnonzero(tree.feature >= 0)
        children = np.concatenate([tree.left[inner], tree.right[inner]])
        if np.any(children <= np.concatenate([inner, inner])) or np.any(children >= size):
            raise ValueError(f"{label} has a child index outside the tree or not after its parent")
        if np.unique(children).size != children.size:
            raise ValueError(f"{label} has a node with two parents")
        if not np.all(np.isfinite(tree.threshold)):
            raise ValueError(f"{label} thresholds must be finite")
        leaf_values = tree.value[tree.feature < 0]
        if not np.all((leaf_values >= 0.0) & (leaf_values <= 1.0)):
            raise ValueError(f"{label} leaf values must lie in [0, 1]")
        return tree


def _levels(tree: _Tree) -> int:
    """Edges on the tree's longest root-to-leaf path."""
    levels, frontier = 0, np.zeros(1, dtype=np.int64)
    while True:
        inner = frontier[tree.feature[frontier] >= 0]
        if not inner.size:
            return levels
        frontier = np.concatenate([tree.left[inner], tree.right[inner]])
        levels += 1


class _NodeTable:
    """Every tree's nodes in one table; leaves are self-loops on feature 0.

    ``step[2 * node + went_left]`` is the node a path moves to, so a leaf's
    two entries both hold the leaf itself. A leaf's threshold is +inf, so a
    copy path's interval also stays whole at its leaf.
    """

    def __init__(self, trees: list[_Tree]):
        sizes = [t.feature.size for t in trees]
        offsets = np.cumsum([0, *sizes[:-1]]).astype(np.int64)
        feature = np.concatenate([t.feature for t in trees])
        leaf = feature < 0
        node = np.arange(feature.size, dtype=np.int64)
        step = np.column_stack([np.concatenate([t.right + o for t, o in zip(trees, offsets)]),
                                np.concatenate([t.left + o for t, o in zip(trees, offsets)])])
        step[leaf] = node[leaf, None]
        feature[leaf] = 0
        threshold = np.concatenate([t.threshold for t in trees])
        threshold[leaf] = np.inf
        self.width = int(feature.max()) + 1  # columns a row needs
        self.roots = offsets
        self.feature = feature
        self.threshold = threshold
        self.step = step.ravel()
        self.value = np.concatenate([t.value for t in trees])
        self.levels = max(_levels(t) for t in trees)


# (point, tree) paths per block of the stacked traversal; blocks this size kept
# the index arrays small and ran fastest on batches of 6k and 80k points
_BLOCK_PATHS = 1 << 15


class BaggedTrees:
    """Bootstrap-aggregated CART classifier with per-node feature subsampling."""

    def __init__(self, n_trees: int = 12, max_depth: int = 10, min_leaf: int = 2,
                 feature_fraction: float = 0.7, seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.feature_fraction = feature_fraction
        self.seed = seed
        self.trees: list[_Tree] = []
        self._table: _NodeTable | None = None

    def fit(self, X, y) -> "BaggedTrees":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        rng = np.random.default_rng(self.seed)
        max_features = max(1, int(round(self.feature_fraction * X.shape[1])))
        self.trees = []
        for _ in range(self.n_trees):
            tree_rng = np.random.default_rng(rng.integers(0, 2**31))
            boot = tree_rng.integers(0, X.shape[0], X.shape[0])
            self.trees.append(_Tree.grow(X[boot], y[boot], tree_rng,
                                         self.max_depth, self.min_leaf, max_features))
        self._merge()
        return self

    def _merge(self) -> None:
        self._table = _NodeTable(self.trees) if self.trees else None

    def _checked(self, X) -> tuple[_NodeTable, np.ndarray]:
        table = self._table
        if table is None:
            raise RuntimeError("classifier is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"detector input must be a batch of rows, not shape {X.shape}")
        if X.shape[1] < table.width:
            raise ValueError(f"detector splits on {table.width} features, rows have {X.shape[1]}")
        return table, X

    def predict_proba(self, X) -> np.ndarray:
        table, X = self._checked(X)
        n_points, width = X.shape
        flat = X.ravel()
        n_trees = table.roots.size
        votes = np.zeros(n_points)
        rows = max(1, _BLOCK_PATHS // n_trees)
        for start in range(0, n_points, rows):
            stop = min(start + rows, n_points)
            offsets = np.arange(start * width, stop * width, width)[:, None]
            cur = np.repeat(table.roots[None, :], stop - start, axis=0)
            for _ in range(table.levels):
                went_left = flat[offsets + table.feature[cur]] <= table.threshold[cur]
                cur = table.step[2 * cur + went_left]
            leaf = table.value[cur]
            block = votes[start:stop]
            for t in range(n_trees):  # per-tree order keeps the sum bit-exact
                block += leaf[:, t]
        return votes / n_trees

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)

    def predict_proba_copies(self, rows, free, which, values) -> np.ndarray:
        """``predict_proba`` of copies that each differ from a row in one column, bit for bit.

        Copy i is ``rows[which[i]]`` with column ``free[which[i]]`` set to ``values[i]``;
        only the rows that ``which`` names are walked (see the module docstring).
        """
        table, rows = self._checked(rows)
        used, copy_row = np.unique(np.asarray(which, dtype=np.int64), return_inverse=True)
        n_trees = table.roots.size
        # one path per (used row, tree) pair to start with; a path is split in two
        # where the free column's threshold cuts its interval (lo, hi]
        pair_offset = np.repeat(used * rows.shape[1], n_trees)
        pair_free = np.repeat(np.asarray(free, dtype=np.int64)[used], n_trees)
        pair = np.arange(used.size * n_trees)
        node = np.tile(table.roots, used.size)
        lo, hi = np.full(pair.size, -np.inf), np.full(pair.size, np.inf)
        flat = rows.ravel()
        for _ in range(table.levels):
            feature, threshold = table.feature[node], table.threshold[node]
            on_free = feature == pair_free[pair]
            below = lo < threshold
            go_left = np.where(on_free, below, flat[pair_offset[pair] + feature] <= threshold)
            split = on_free & below & (threshold < hi)
            if split.any():
                pair = np.concatenate([pair, pair[split]])
                lo = np.concatenate([lo, threshold[split]])
                hi = np.concatenate([np.where(split, threshold, hi), hi[split]])
                node = np.concatenate([table.step[2 * node + go_left], table.step[2 * node[split]]])
            else:
                node = table.step[2 * node + go_left]
        # cells: row u's cuts are its paths' finite ends, numbered as ranks in
        # ``cut_values``; row u's cells follow the cuts of earlier rows plus u
        finite = hi < np.inf
        u = pair // n_trees
        cut_values = np.unique(hi[finite])
        stride = cut_values.size + 1
        cut_key = np.unique(u[finite] * stride + np.searchsorted(cut_values, hi[finite]))

        def cell(row, value, side):
            """The cell of ``row`` that follows its cuts below ``value`` (side 'left'),
            or its cuts at or below it ('right')."""
            return np.searchsorted(cut_key, row * stride
                                   + np.searchsorted(cut_values, value, side)) + row

        # path (lo, hi] covers the cells from the first above lo to the one holding hi
        first = cell(u, lo, "right")
        length = cell(u, hi, "left") + 1 - first
        ends = np.cumsum(length)
        cells = np.repeat(first - ends + length, length) + np.arange(ends[-1] if ends.size else 0)
        leaf_of = np.zeros((cut_key.size + used.size, n_trees))
        leaf_of[cells, np.repeat(pair % n_trees, length)] = np.repeat(table.value[node], length)
        votes = np.zeros(leaf_of.shape[0])
        for t in range(n_trees):  # per-tree order keeps the sum bit-exact
            votes += leaf_of[:, t]
        return (votes / n_trees)[cell(copy_row, np.asarray(values, dtype=float), "left")]

    def to_dict(self) -> dict:
        return {"n_trees": self.n_trees, "max_depth": self.max_depth,
                "min_leaf": self.min_leaf, "feature_fraction": self.feature_fraction,
                "seed": self.seed, "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, d: dict) -> "BaggedTrees":
        check_fields("detector", d, {"n_trees": int, "max_depth": int, "min_leaf": int,
                                     "feature_fraction": float, "seed": int, "trees": list[dict]})
        model = cls(n_trees=d["n_trees"], max_depth=d["max_depth"], min_leaf=d["min_leaf"],
                    feature_fraction=d["feature_fraction"], seed=d["seed"])
        model.trees = [_Tree.from_dict(t, f"detector tree {i}") for i, t in enumerate(d["trees"])]
        model._merge()
        return model
