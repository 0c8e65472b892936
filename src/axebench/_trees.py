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
"""
from __future__ import annotations

import numpy as np


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
    def from_dict(cls, d: dict) -> "_Tree":
        return cls(d["feature"], d["threshold"], d["left"], d["right"], d["value"])


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
    two entries both hold the leaf itself.
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
        self.roots = offsets
        self.feature = feature
        self.threshold = np.concatenate([t.threshold for t in trees])
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

    def predict_proba(self, X) -> np.ndarray:
        table = self._table
        if table is None:
            raise RuntimeError("classifier is not fitted")
        X = np.asarray(X, dtype=float)
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

    def to_dict(self) -> dict:
        return {"n_trees": self.n_trees, "max_depth": self.max_depth,
                "min_leaf": self.min_leaf, "feature_fraction": self.feature_fraction,
                "seed": self.seed, "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, d: dict) -> "BaggedTrees":
        model = cls(n_trees=d["n_trees"], max_depth=d["max_depth"], min_leaf=d["min_leaf"],
                    feature_fraction=d["feature_fraction"], seed=d["seed"])
        model.trees = [_Tree.from_dict(t) for t in d["trees"]]
        model._merge()
        return model
