import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import axebench._trees as trees
import axebench.models as models
from axebench._trees import BaggedTrees, _best_cuts, _Tree
from axebench.data import benchmark_proxy
from axebench.models import train_ood_detector

from oracles import best_split_oracle, forest_oracle, tree_oracle


def oracle_proba(model: BaggedTrees, X) -> list[float]:
    """Per point, the trees' leaf values summed in tree order, then averaged."""
    trees = model.to_dict()["trees"]
    out = []
    for x in np.asarray(X, dtype=float):
        total = 0.0
        for tree in trees:
            total += tree_oracle(tree, x)
        out.append(total / len(trees))
    return out


def assert_exact(model: BaggedTrees, X) -> None:
    assert model.predict_proba(X).tolist() == oracle_proba(model, X)


def rounded_problem(seed, nu=120, nf=4):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(nu, nf)), 1)  # rounding puts many points on thresholds
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.4, size=nu) > 0).astype(int)
    return X, y


def leaf(value):
    return {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [value]}


def ensemble(trees) -> BaggedTrees:
    return BaggedTrees.from_dict({"n_trees": len(trees), "max_depth": 10, "min_leaf": 1,
                                  "feature_fraction": 1.0, "seed": 0, "trees": trees})


# depth 3 on the left branch, depth 1 on the right; children numbered after
# their parent's sibling, unlike the depth-first order `fit` produces
DEEP = {"feature": [0, 1, -1, 2, -1, -1, -1],
        "threshold": [0.5, -0.25, 0.0, 1.0, 0.0, 0.0, 0.0],
        "left": [1, 3, -1, 5, -1, -1, -1],
        "right": [2, 4, -1, 6, -1, -1, -1],
        "value": [0.5, 0.4, 0.9, 0.3, 0.1, 0.2, 0.7]}
STUMP = {"feature": [2, -1, -1], "threshold": [0.1, 0.0, 0.0],
         "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.5, 0.6, 0.05]}


class TestStackedTraversal:
    def test_points_on_split_thresholds(self):
        X, y = rounded_problem(0)
        model = BaggedTrees(n_trees=7, max_depth=6, seed=1).fit(X, y)
        rng = np.random.default_rng(2)
        probes = []
        for tree in model.to_dict()["trees"]:
            for f, t in zip(tree["feature"], tree["threshold"]):
                if f >= 0:
                    x = rng.normal(size=X.shape[1])
                    x[f] = t
                    probes.append(x)
        probes = np.array(probes)
        assert len(probes) > 20
        assert_exact(model, probes)
        # the same points nudged to the right of each threshold
        assert_exact(model, np.nextafter(probes, np.inf))

    def test_duplicate_rows(self):
        X, y = rounded_problem(3)
        model = BaggedTrees(n_trees=5, max_depth=8, seed=4).fit(X, y)
        Q = X[[0, 5, 0, 0, 5, 7, 7]]
        p = model.predict_proba(Q)
        assert p[0] == p[2] == p[3] and p[1] == p[4] and p[5] == p[6]
        assert_exact(model, Q)

    def test_tree_whose_root_is_a_leaf(self):
        model = ensemble([leaf(0.25), STUMP, leaf(0.75)])
        X = np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 0.2], [9.0, -9.0, -9.0]])
        assert_exact(model, X)
        assert model.predict_proba(X).tolist() == [(0.25 + 0.6 + 0.75) / 3,
                                                   (0.25 + 0.05 + 0.75) / 3,
                                                   (0.25 + 0.6 + 0.75) / 3]

    def test_pure_labels_give_leaf_roots(self):
        X, _ = rounded_problem(5)
        model = BaggedTrees(n_trees=3, seed=6).fit(X, np.ones(X.shape[0], dtype=int))
        assert all(t["feature"] == [-1] for t in model.to_dict()["trees"])
        assert model.predict_proba(X).tolist() == [1.0] * X.shape[0]

    def test_trees_of_unequal_depth(self):
        model = ensemble([STUMP, DEEP, leaf(0.125), DEEP])
        rng = np.random.default_rng(7)
        X = np.round(rng.normal(size=(300, 3)), 1)
        X[:50, 0], X[50:100, 1], X[100:150, 2] = 0.5, -0.25, 1.0
        assert_exact(model, X)

    def test_votes_sum_in_tree_order(self):
        # with eight or more trees a pairwise or vectorised sum moves the last bit
        rng = np.random.default_rng(17)
        stumps = [{"feature": [int(f), -1, -1], "threshold": [float(t), 0.0, 0.0],
                   "left": [1, -1, -1], "right": [2, -1, -1],
                   "value": [0.5, float(a), float(b)]}
                  for f, t, a, b in zip(rng.integers(0, 3, 12), rng.normal(size=12),
                                        rng.random(12), rng.random(12))]
        model = ensemble([*stumps, DEEP])
        assert_exact(model, rng.normal(size=(500, 3)))

    def test_fitted_trees_of_unequal_depth(self):
        X, y = rounded_problem(8, nu=200)
        model = BaggedTrees(n_trees=9, max_depth=12, min_leaf=1, seed=9).fit(X, y)
        assert_exact(model, np.vstack([X, np.round(np.random.default_rng(10).normal(
            scale=2.0, size=(400, X.shape[1])), 1)]))

    def test_blocks_do_not_change_output(self, monkeypatch):
        X, y = rounded_problem(11)
        model = BaggedTrees(n_trees=6, seed=12).fit(X, y)
        whole = model.predict_proba(X)
        monkeypatch.setattr(trees, "_BLOCK_PATHS", 13)  # two points per block
        assert model.predict_proba(X).tolist() == whole.tolist()

    def test_dict_roundtrip(self):
        X, y = rounded_problem(13)
        model = BaggedTrees(n_trees=4, max_depth=7, seed=14).fit(X, y)
        payload = model.to_dict()
        back = BaggedTrees.from_dict(payload)
        assert back.to_dict() == payload
        assert set(payload["trees"][0]) == {"feature", "threshold", "left", "right", "value"}
        assert back.predict_proba(X).tolist() == model.predict_proba(X).tolist()
        assert_exact(back, X)

    def test_empty_batch(self):
        X, y = rounded_problem(15)
        model = BaggedTrees(n_trees=2, seed=16).fit(X, y)
        assert model.predict_proba(np.empty((0, X.shape[1]))).shape == (0,)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            BaggedTrees().predict_proba(np.zeros((2, 3)))
        # a forest without trees is refused where it would be made
        with pytest.raises(ValueError, match="^a detector needs at least one tree$"):
            BaggedTrees(n_trees=0).fit(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match="number of its trees, at least 1"):
            ensemble([])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(8, 40).flatmap(lambda nu: st.tuples(
           arrays(float, (nu, 3), elements=st.integers(-6, 6).map(lambda v: v / 4)),
           arrays(int, nu, elements=st.integers(0, 1)))),
       st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**16))
def test_matches_oracle_property(data, n_trees, max_depth, seed):
    X, y = data
    model = BaggedTrees(n_trees=n_trees, max_depth=max_depth, min_leaf=1, seed=seed).fit(X, y)
    assert_exact(model, np.vstack([X, X[::-1] + 0.125]))


def mixed_columns(seed, nu=150):
    """Rounded, 0/1, constant and duplicated columns: ties within and across features."""
    rng = np.random.default_rng(seed)
    rounded = np.round(rng.normal(size=(nu, 2)), 1)
    binary = rng.integers(0, 2, (nu, 2)).astype(float)
    X = np.column_stack([rounded, binary, np.full(nu, 0.5), rounded[:, 0]])
    y = (rounded[:, 0] + binary[:, 0] + rng.normal(scale=0.5, size=nu) > 0.5).astype(int)
    return X, y


COLUMN_KINDS = {
    "rounded": st.integers(-6, 6).map(lambda v: v / 4),
    "binary": st.integers(0, 1).map(float),
    "constant": st.just(0.25),
}


@st.composite
def split_problems(draw):
    """A node's rows: columns of mixed kinds, some copies of an earlier column
    (exact gini ties across features), and candidates in a random order."""
    nu = draw(st.integers(1, 30))
    columns = []
    for kind in draw(st.lists(st.sampled_from([*COLUMN_KINDS, "copy"]), min_size=1, max_size=5)):
        if kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        else:  # a copy with no earlier column is drawn as a rounded one
            elements = COLUMN_KINDS.get(kind, COLUMN_KINDS["rounded"])
            columns.append(draw(st.lists(elements, min_size=nu, max_size=nu)))
    X = np.array(columns, dtype=float).T
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=nu, max_size=nu)), dtype=int)
    order = draw(st.permutations(range(X.shape[1])))
    cand = np.array(order[:draw(st.integers(1, len(order)))])
    return X, y, cand


def scan(nodes):
    """``_best_cuts`` on several nodes (X, y, candidates) in one call, laid out as
    the grower lays them out, in ``best_split_oracle``'s terms: (score, feature,
    threshold) per node, or None. Each node's candidate list is cut to the
    length of the shortest."""
    n_cand = min(len(cand) for _, _, cand in nodes)
    v, labels = [], []
    for X, y, cand in nodes:
        columns = X[:, np.asarray(cand)[:n_cand]]
        order = np.argsort(columns, axis=0, kind="stable")
        v.append(np.take_along_axis(columns, order, axis=0).T)
        labels.append(y[order].T.astype(float))
    score, j, threshold = _best_cuts(np.hstack(v), np.hstack(labels),
                                     np.array([y.size for _, y, _ in nodes]))
    return [None if s == np.inf else (float(s), int(cand[k]), float(t))
            for s, k, t, (_, _, cand) in zip(score, j, threshold, nodes)]


def oracle_trees(model: BaggedTrees, X, y) -> list[dict]:
    return forest_oracle(X, y, model.n_trees, model.max_depth, model.min_leaf,
                         model.feature_fraction, model.seed)


class OracleTrees(BaggedTrees):
    """A forest whose trees come from the recursive oracle."""

    def fit(self, X, y):
        self.trees = [_Tree.from_dict(t, "oracle tree") for t in oracle_trees(self, X, y)]
        self._merge()
        return self


class TestSplitScan:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(split_problems(), min_size=1, max_size=4))
    def test_matches_per_feature_oracle(self, problems):
        # a one-row node has no cut; the grower never scans one, as it is pure
        nodes = [p for p in problems if p[1].size > 1]
        assert all(best_split_oracle(*p) is None for p in problems if p[1].size == 1)
        if nodes:
            n_cand = min(len(cand) for _, _, cand in nodes)
            assert scan(nodes) == [best_split_oracle(X, y, cand[:n_cand]) for X, y, cand in nodes]

    def test_all_constant_candidates(self):
        X = np.column_stack([np.full(6, 1.5), np.zeros(6), np.arange(6.0)])
        y = np.array([0, 1, 0, 1, 1, 0])
        assert scan([(X, y, [1, 0])]) == [None]
        assert best_split_oracle(X, y, np.array([1, 0])) is None
        assert scan([(X, y, [1, 2, 0])])[0][1] == 2
        nodes = [(X, y, [1, 0]), (X[:4], y[:4], [1, 2]), (X, y, [0, 2]), (X[2:], y[2:], [0, 1])]
        assert scan(nodes) == [None, best_split_oracle(X[:4], y[:4], [1, 2]),
                               best_split_oracle(X, y, [0, 2]), None]
        assert scan(nodes)[1][1] == scan(nodes)[2][1] == 2

    @pytest.mark.parametrize("cand, winner", [([5, 0, 1], 5), ([0, 5, 1], 0), ([4, 5, 0], 5)])
    def test_tie_across_features_goes_to_first_candidate(self, cand, winner):
        X, y = mixed_columns(0, nu=40)
        # column 5 copies column 0, so their best cuts tie exactly; column 4 is constant
        first, second = scan([(X, y, [0]), (X, y, [1])])
        assert first[0] < second[0]
        nodes = [(X, y, cand), (X[:25], y[:25], cand), (X[7:], y[7:], cand)]
        splits = scan(nodes)
        assert splits[0][1] == winner
        assert splits == [best_split_oracle(X, y, np.array(cand)) for X, y, _ in nodes]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_matches_oracle_scan(self, seed):
        X, y = mixed_columns(seed)
        for width in (X.shape[1], 4, 3):
            model = BaggedTrees(n_trees=4, max_depth=8, min_leaf=1, feature_fraction=0.6,
                                seed=seed).fit(X[:, :width], y)
            assert model.to_dict()["trees"] == oracle_trees(model, X[:, :width], y)

    def test_threshold_equal_to_a_row_value_sends_it_left(self):
        # the midpoint of 1 and the next float rounds to 1: the rows at 1 go left
        up = float(np.nextafter(1.0, 2.0))
        X = np.array([[1.0, 0.0], [1.0, 1.0], [up, 0.0], [up, 1.0]] * 3)
        y = np.array([0, 0, 1, 1] * 3)
        model = BaggedTrees(n_trees=3, max_depth=2, min_leaf=1, feature_fraction=1.0,
                            seed=29).fit(X, y)
        assert 1.0 in model.trees[0].threshold.tolist()
        assert model.to_dict()["trees"] == oracle_trees(model, X, y)

    @pytest.mark.parametrize("proxy", ["german_credit", "compas", "communities_and_crime"])
    def test_detector_on_proxy_matches_oracle_scan(self, monkeypatch, proxy):
        d = benchmark_proxy(proxy, seed=1, nu=120)
        fast = train_ood_detector(d, 1.0, seed=2, n_trees=3).to_dict()
        monkeypatch.setattr(models, "BaggedTrees", OracleTrees)
        assert train_ood_detector(d, 1.0, seed=2, n_trees=3).to_dict() == fast


@st.composite
def forest_problems(draw):
    """Rows with rounded, binary, constant and duplicated columns, and forest
    settings: 1-4 trees, depth 1-10, min_leaf 1-3, a drawn feature fraction."""
    nu = draw(st.integers(2, 60))
    columns = []
    for kind in draw(st.lists(st.sampled_from([*COLUMN_KINDS, "copy"]), min_size=1, max_size=6)):
        if kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        else:
            elements = COLUMN_KINDS.get(kind, COLUMN_KINDS["rounded"])
            columns.append(draw(st.lists(elements, min_size=nu, max_size=nu)))
    X = np.array(columns, dtype=float).T
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=nu, max_size=nu)), dtype=int)
    model = BaggedTrees(n_trees=draw(st.integers(1, 4)), max_depth=draw(st.integers(1, 10)),
                        min_leaf=draw(st.integers(1, 3)),
                        feature_fraction=draw(st.floats(0.05, 1.0)),
                        seed=draw(st.integers(0, 2**16)))
    return model, X, y


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(forest_problems())
def test_fit_matches_recursive_oracle_property(problem):
    model, X, y = problem
    assert model.fit(X, y).to_dict()["trees"] == oracle_trees(model, X, y)


def test_labels_must_be_0_or_1():
    X, y = rounded_problem(26)
    with pytest.raises(ValueError, match="^detector labels must be 0 or 1$"):
        BaggedTrees(n_trees=2, seed=27).fit(X, 2 * y)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rows_must_be_finite(value):
    X, y = rounded_problem(28)
    X[3, 1] = value
    with pytest.raises(ValueError, match="^detector rows must be finite$"):
        BaggedTrees(n_trees=2, seed=29).fit(X, y)


def materialised(rows, free, which, values):
    points = np.array(rows, dtype=float)[which]
    points[np.arange(len(which)), np.asarray(free)[which]] = values
    return points


def assert_copies_exact(model: BaggedTrees, rows, free, which, values) -> None:
    got = model.predict_proba_copies(rows, free, which, values)
    assert got.tobytes() == model.predict_proba(materialised(rows, free, which, values)).tobytes()


# values where the walk's `<=` test and the interval rule could part ways
_EDGES = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]


@st.composite
def copy_problems(draw):
    """A fitted ensemble of 1-16 trees (depth 0 gives root-leaf trees) on rounded
    features, rows with duplicates, and copies whose values sit on the trees' own
    thresholds, next to them, on signed zeros, subnormals and infinities."""
    X, y = draw(st.integers(8, 40).flatmap(lambda nu: st.tuples(
        arrays(float, (nu, 3), elements=st.integers(-6, 6).map(lambda v: v / 4)),
        arrays(int, nu, elements=st.integers(0, 1)))))
    model = BaggedTrees(n_trees=draw(st.integers(1, 16)), max_depth=draw(st.integers(0, 6)),
                        min_leaf=1, seed=draw(st.integers(0, 2**16))).fit(X, y)
    rows = np.vstack([X, X[:draw(st.integers(0, len(X)))]])  # duplicate rows
    free = np.array(draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows))))
    thresholds = [t for tree in model.trees for t in tree.threshold[tree.feature >= 0].tolist()]
    value = st.sampled_from(_EDGES) | st.integers(-8, 8).map(lambda v: v / 4)
    if thresholds:
        at = st.sampled_from(thresholds)
        value |= at | at.map(lambda t: float(np.nextafter(t, np.inf)))
    count = draw(st.integers(0, 60))
    which = np.array(draw(st.lists(st.integers(0, len(rows) - 1), min_size=count,
                                   max_size=count)), dtype=np.int64)
    values = np.array(draw(st.lists(value, min_size=count, max_size=count)), dtype=float)
    return model, rows, free, which, values


class TestCopies:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(copy_problems())
    def test_matches_walking_the_copies(self, problem):
        assert_copies_exact(*problem)

    def test_hand_built_trees_of_unequal_depth(self):
        model = ensemble([STUMP, DEEP, leaf(0.125), DEEP, leaf(1.0)])
        rng = np.random.default_rng(21)
        rows = np.round(rng.normal(size=(40, 3)), 1)
        rows[:10] = rows[0]  # duplicate rows
        free = rng.integers(0, 3, len(rows))
        pattern = [0.5, -0.25, 1.0, 0.1, *_EDGES, 7.0, -7.0]  # DEEP's and STUMP's thresholds first
        which = np.repeat(np.arange(len(rows)), len(pattern))  # every row, each many times
        values = np.tile(pattern, len(rows))
        assert_copies_exact(model, rows, free, which, values)
        assert_copies_exact(model, rows, free, which[::-1], values)

    def test_detector_on_proxy_rows(self):
        d = benchmark_proxy("communities_and_crime", seed=3, nu=150)
        model = train_ood_detector(d, 1.0, seed=4, n_trees=16, max_depth=20).model
        rng = np.random.default_rng(5)
        for column in range(d.n_features):
            free = np.full(d.nu, column)
            which = rng.integers(0, d.nu, 400)
            values = d.features[which, column] + rng.normal(0.0, 0.5, which.size)
            assert_copies_exact(model, d.features, free, which, values)

    def test_no_copies(self):
        X, y = rounded_problem(22)
        model = BaggedTrees(n_trees=3, seed=23).fit(X, y)
        got = model.predict_proba_copies(X, np.zeros(len(X), dtype=int), [], [])
        assert got.shape == (0,)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            BaggedTrees().predict_proba_copies(np.zeros((2, 3)), [0, 0], [0], [1.0])


def tree_file(**changes):
    tree = {key: list(values) for key, values in DEEP.items()}
    for key, (index, value) in changes.items():
        tree[key][index] = value
    return {"n_trees": 2, "max_depth": 10, "min_leaf": 1, "feature_fraction": 1.0,
            "seed": 0, "trees": [STUMP, tree]}


class TestMalformedTrees:
    @pytest.mark.parametrize("payload, message", [
        (tree_file(left=(0, 10**6)), "detector tree 1 has a child index outside the tree"),
        (tree_file(left=(0, 2**64)), "detector tree 1 holds an index beyond 64 bits"),
        (tree_file(left=(0, 0)), "not after its parent"),
        (tree_file(right=(1, 1)), "not after its parent"),
        (tree_file(right=(3, 2)), "not after its parent"),
        (tree_file(left=(1, 6)), "detector tree 1 has a node with two parents"),
        (tree_file(feature=(2, -2)), "detector tree 1 leaves must have feature -1"),
        (tree_file(threshold=(0, float("inf"))), "detector tree 1 thresholds must be finite"),
        (tree_file(threshold=(1, float("nan"))), "thresholds must be finite"),
        (tree_file(value=(2, 1.5)), "detector tree 1 leaf values must lie in [0, 1]"),
        (tree_file(value=(4, -0.25)), "leaf values must lie in [0, 1]"),
        (tree_file(value=(6, float("nan"))), "leaf values must lie in [0, 1]"),
        (tree_file(value=(1, float("inf"))), "detector tree 1 node values must be finite"),
        (tree_file(feature=(0, 0.5)), "detector tree 1 'feature' must be list[int]"),
        (tree_file(threshold=(0, "a")), "'threshold' must be list[float]"),
        ({**tree_file(), "trees": [STUMP, {**DEEP, "value": DEEP["value"][:-1]}]},
         "detector tree 1 arrays must be non-empty and of equal length"),
        ({**tree_file(), "trees": [leaf(0.5), {key: [] for key in DEEP}]},
         "arrays must be non-empty"),
        ({**tree_file(), "trees": [STUMP, {k: v for k, v in DEEP.items() if k != "right"}]},
         "detector tree 1 lacks 'right'"),
        ({**tree_file(), "trees": [STUMP, [1, 2]]}, "detector 'trees' must be list[dict]"),
        ({**tree_file(), "trees": 3}, "detector 'trees' must be list[dict]"),
        ({**tree_file(), "n_trees": 0, "trees": []},
         "detector n_trees must equal the number of its trees, at least 1: "
         "n_trees is 0, trees holds 0"),
        ({**tree_file(), "n_trees": 3}, "n_trees is 3, trees holds 2"),
    ], ids=["child-out-of-range", "child-beyond-int64", "root-is-its-own-child", "child-is-its-parent",
            "child-before-parent", "two-parents", "leaf-feature", "infinite-threshold",
            "nan-threshold", "leaf-value-above-one", "negative-leaf-value", "nan-leaf-value",
            "infinite-inner-value",
            "fractional-feature", "text-threshold", "unequal-lengths", "empty-tree",
            "missing-array", "tree-not-object", "trees-not-list", "no-trees",
            "n-trees-not-tree-count"])
    def test_rejected_on_load(self, payload, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BaggedTrees.from_dict(payload)

    def test_valid_files_still_load(self):
        payload = tree_file()
        assert BaggedTrees.from_dict(payload).to_dict() == payload
        X, y = rounded_problem(24)
        fitted = BaggedTrees(n_trees=5, max_depth=9, seed=25).fit(X, y).to_dict()
        assert BaggedTrees.from_dict(fitted).to_dict() == fitted

    def test_rows_narrower_than_a_split_feature_are_rejected(self):
        model = ensemble([STUMP, DEEP])  # splits on features 0, 1 and 2
        narrow = np.zeros((4, 2))
        for predict in (model.predict_proba,
                        lambda X: model.predict_proba_copies(X, [0] * len(X), [1], [0.5])):
            with pytest.raises(ValueError, match="^detector splits on 3 features, rows have 2$"):
                predict(narrow)
        with pytest.raises(ValueError, match=re.escape("a batch of rows, not shape (3,)")):
            model.predict_proba(np.zeros(3))
        assert model.predict_proba(np.zeros((4, 3))).shape == (4,)
