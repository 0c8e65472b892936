"""Small bagged CART ensemble backing the in-distribution detector.

Axis-aligned gini splits, deterministic per seed, JSON-serializable. Built for
desk-scale tabular data, not as a general-purpose forest.

``fit`` grows all trees of a forest together. The forest generator only seeds
one generator per tree, and a tree's own generator draws its bootstrap rows and
then, node by node in preorder, its candidate features. No tree reads another's
generator, so advancing every tree one preorder node per step keeps each tree's
draws in the order a recursive build makes them. The trees' bootstrap rows
share one row space; each tree's rows are sorted once per feature (the
presorted attribute lists of SLIQ, Mehta et al., EDBT 1996). The sort need not
be stable: ``fit`` takes finite rows only, a cut falls only between unequal
values, and labels are counted exactly, so the order of equal values within a
feature never reaches a tree.
A node holds its rows as one span of every feature's order, and a split
partitions every span stably, so no node sorts. A step scans the candidate
columns of every tree's next node in one segmented gini pass: a cumulative
positive count restarted at each node, the gini of every cut with the float
operations per element of a per-feature loop, inf between equal values, then
per node the first minimal candidate and its first minimal cut. The trees are
therefore bit-identical to a recursive build's.

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

from .core import check_fields, labels_of, spans


def _ranges(starts, lengths):
    """The index ranges [starts[i], starts[i] + lengths[i]) laid end to end."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if ends.size else 0)


def _best_cuts(v, y, sizes):
    """Gini scan of many nodes' candidate columns in one pass.

    Row j of ``v`` holds, node after node, each node's j-th candidate column in
    ascending order; ``y`` holds the 0/1 labels of the same rows as floats and
    is overwritten. Node k has ``sizes[k]`` >= 2 rows. Returns per node the gini
    of its first minimal cut of its first minimal candidate (inf when every
    candidate is constant), that candidate's row in ``v`` and the cut's
    threshold.
    """
    total = v.shape[1]
    offset = np.cumsum(sizes) - sizes
    # cut i lies between columns i and i + 1; the one after a node's last row
    # splits nothing and scores inf. The positive count restarts at each node,
    # whose first label takes back the previous node's total, so every running
    # sum is a small integer and exact.
    n_left = np.arange(1.0, total) - np.repeat(offset.astype(float), sizes)[:-1]
    n = np.repeat(sizes.astype(float), sizes)[:-1]
    n_right = n - n_left
    positives = np.add.reduceat(y, offset, axis=1)
    y[:, offset[1:]] -= positives[:, :-1]
    p_l = np.cumsum(y, axis=1)[:, :-1]  # positives left of each cut, then their share
    p_r = np.repeat(positives, sizes, axis=1)[:, :-1]
    p_r -= p_l
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 after a node's last row
        p_l /= n_left
        p_r /= n_right
    # n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r), then / n,
    # one operation at a time in that order
    gini = n_left * 2 * p_l
    gini *= np.subtract(1, p_l, out=p_l)
    right = np.multiply(n_right * 2, p_r, out=p_l)
    right *= np.subtract(1, p_r, out=p_r)
    gini += right
    gini /= n
    np.putmask(gini, v[:, 1:] == v[:, :-1], np.inf)
    gini[:, offset[1:] - 1] = np.inf
    least = np.minimum.reduceat(gini, offset, axis=1)  # per (candidate, node)
    best = least.min(axis=0)
    j = np.argmax(least == best, axis=0)
    winner = gini[np.repeat(j, sizes)[:-1], np.arange(total - 1)]
    hits = np.flatnonzero(winner == np.repeat(best, sizes)[:-1])
    i = hits[np.searchsorted(hits, offset)]  # every node has a hit
    return best, j, (v[j, i] + v[j, i + 1]) / 2.0


class _Tree:
    """Flat-array decision tree: feature < 0 marks a leaf, value holds P(class 1)."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)

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
        if not np.all(np.isfinite(tree.value)):
            raise ValueError(f"{label} node values must be finite")
        return tree


# (row, candidate) cells scanned in one pass, at most, plus one node's: bounds
# the scan's temporaries in a forest's first steps, where every tree's node
# holds all its rows
_SCAN_CELLS = 1 << 13


def _grow_forest(X, y, rngs, boots, max_depth, min_leaf, max_features) -> list[_Tree]:
    """One tree per generator in ``rngs``, grown on the rows ``boots`` names (one
    row of ``boots`` per tree), all trees one preorder node per step."""
    n_trees, n = boots.shape
    width = X.shape[1]
    span = n_trees * n  # the trees' rows side by side: one shared row space
    values = X.T.take(boots.ravel(), axis=1)  # (feature, shared row)
    labels = y[boots.ravel()].astype(float)
    # a node's rows sit at order[f, start:start + size] for every feature f, sorted
    # by that feature: each tree's rows are sorted once, and a split partitions
    # every feature's span stably
    order = np.argsort(values.reshape(width, n_trees, n), axis=2)
    order = (order + np.arange(0, span, n)[:, None]).reshape(width, span)
    flat_order, flat_values = order.reshape(-1), values.reshape(-1)  # views
    went_left = np.zeros(span, dtype=bool)
    trees = [([], [], [], [], []) for _ in range(n_trees)]  # feature, threshold, left, right, value
    # pending nodes: (start, size, depth, positives, parent, is left child); the left
    # child is pushed last, so nodes pop in the preorder of a recursive build
    stacks = [[(t * n, n, 0, int(y[boots[t]].sum()), -1, True)]
              for t in range(n_trees)]

    def split(batch):
        """Scan the candidates of ``batch``'s nodes in one pass, then split each
        node whose best cut leaves ``min_leaf`` rows on both sides."""
        tree, node, start, size, depth, pos, cand = zip(*batch)
        sizes = np.array(size)
        # (candidate, node row) blocks: the shared rows of each candidate's span
        # in sorted order, then their values
        cells = np.repeat(np.array(cand).T * span, sizes, axis=1)
        at = flat_order.take(cells + _ranges(np.array(start), sizes))
        v = flat_values.take(cells + at)
        score, j, cut = _best_cuts(v, labels.take(at), sizes)
        # the winning column's rows, tested as the recursion tests them
        win = np.repeat(j, sizes), np.arange(sizes.sum())
        rows = at[win]
        goes = v[win] <= np.repeat(cut, sizes)
        went_left[rows] = goes
        offset = np.cumsum(sizes) - sizes
        n_left = np.add.reduceat(goes, offset).tolist()
        pos_left = np.add.reduceat(goes * labels.take(rows), offset).astype(int).tolist()
        split_at, split_size, split_left = [], [], []
        for k, (found, nl, pl) in enumerate(zip((score < np.inf).tolist(), n_left, pos_left)):
            if not found or nl < min_leaf or size[k] - nl < min_leaf:
                continue
            feature, threshold = trees[tree[k]][:2]
            feature[node[k]] = int(cand[k][j[k]])
            threshold[node[k]] = float(cut[k])
            stack = stacks[tree[k]]
            stack.append((start[k] + nl, size[k] - nl, depth[k] + 1, pos[k] - pl, node[k], False))
            stack.append((start[k], nl, depth[k] + 1, pl, node[k], True))
            split_at.append(start[k])
            split_size.append(size[k])
            split_left.append(nl)
        if not split_at:
            return
        split_at, split_size, split_left = map(np.array, (split_at, split_size, split_left))
        moved = order.take(_ranges(split_at, split_size), axis=1)
        side = went_left.take(moved).ravel()
        order[:, _ranges(split_at, split_left)] = moved.compress(side).reshape(width, -1)
        order[:, _ranges(split_at + split_left, split_size - split_left)] = \
            moved.compress(~side).reshape(width, -1)

    while any(stacks):
        batch, queued = [], 0
        for t, stack in enumerate(stacks):
            # pop up to the tree's next node that needs a scan: a node the checks
            # make a leaf draws nothing, so it need not wait for a step
            while stack:
                start, size, depth, pos, parent, is_left = stack.pop()
                feature, threshold, left, right, value = trees[t]
                node = len(value)
                if parent >= 0:
                    (left if is_left else right)[parent] = node
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                value.append(pos / size)  # the bits of the mean of the node's 0/1 labels
                if depth < max_depth and size >= 2 * min_leaf and 0 < pos < size:
                    cand = rngs[t].permutation(width)[:max_features]
                    if cand.size:  # none when the rows have no columns
                        batch.append((t, node, start, size, depth, pos, cand))
                        queued += size * cand.size
                        break
            if queued >= _SCAN_CELLS:
                split(batch)
                batch, queued = [], 0
        if batch:
            split(batch)
    return [_Tree(*lists) for lists in trees]


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
        if self.n_trees < 1:
            raise ValueError("a detector needs at least one tree")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("detector labels must be 0 or 1")
        if not np.isfinite(X).all():
            raise ValueError("detector rows must be finite")
        rng = np.random.default_rng(self.seed)
        max_features = max(1, int(round(self.feature_fraction * X.shape[1])))
        # the forest generator seeds each tree's own generator, which then draws
        # that tree's bootstrap rows and, node by node, its candidate features
        rngs = [np.random.default_rng(rng.integers(0, 2**31)) for _ in range(self.n_trees)]
        boots = np.array([r.integers(0, X.shape[0], X.shape[0]) for r in rngs],
                         dtype=np.int64).reshape(self.n_trees, X.shape[0])
        self.trees = _grow_forest(X, y, rngs, boots, self.max_depth, self.min_leaf, max_features)
        self._merge()
        return self

    def _merge(self) -> None:
        self._table = _NodeTable(self.trees)

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
        for start, stop in spans(n_points, max(1, _BLOCK_PATHS // n_trees)):
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
        return labels_of(self.predict_proba(X))

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
        cells = _ranges(first, length)
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
        if not 0.0 < d["feature_fraction"] <= 1.0:
            raise ValueError("detector feature_fraction must lie in (0, 1]")
        if not d["n_trees"] == len(d["trees"]) >= 1:
            raise ValueError(f"detector n_trees must equal the number of its trees, at least 1: "
                             f"n_trees is {d['n_trees']}, trees holds {len(d['trees'])}")
        model = cls(n_trees=d["n_trees"], max_depth=d["max_depth"], min_leaf=d["min_leaf"],
                    feature_fraction=d["feature_fraction"], seed=d["seed"])
        model.trees = [_Tree.from_dict(t, f"detector tree {i}") for i, t in enumerate(d["trees"])]
        model._merge()
        return model
