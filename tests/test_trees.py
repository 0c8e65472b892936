import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import axebench._trees as trees
from axebench._trees import BaggedTrees, _best_split
from axebench.data import benchmark_proxy
from axebench.models import train_ood_detector

from oracles import best_split_oracle, tree_oracle


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
        with pytest.raises(RuntimeError, match="not fitted"):
            BaggedTrees(n_trees=0).fit(np.zeros((4, 2)), np.array([0, 1, 0, 1])).predict(
                np.zeros((1, 2)))
        with pytest.raises(RuntimeError, match="not fitted"):
            ensemble([]).predict_proba(np.zeros((1, 3)))


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


class TestSplitScan:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(split_problems())
    def test_matches_per_feature_oracle(self, problem):
        X, y, cand = problem
        assert _best_split(X, y, cand) == best_split_oracle(X, y, cand)

    def test_all_constant_candidates(self):
        X = np.column_stack([np.full(6, 1.5), np.zeros(6), np.arange(6.0)])
        y = np.array([0, 1, 0, 1, 1, 0])
        assert _best_split(X, y, np.array([1, 0])) is None
        assert best_split_oracle(X, y, np.array([1, 0])) is None
        assert _best_split(X, y, np.array([1, 2, 0]))[1] == 2

    @pytest.mark.parametrize("cand, winner", [([5, 0, 1], 5), ([0, 5, 1], 0), ([4, 5, 0], 5)])
    def test_tie_across_features_goes_to_first_candidate(self, cand, winner):
        X, y = mixed_columns(0, nu=40)
        # column 5 copies column 0, so their best cuts tie exactly; column 4 is constant
        assert _best_split(X, y, np.array([0]))[0] < _best_split(X, y, np.array([1]))[0]
        split = _best_split(X, y, np.array(cand))
        assert split[1] == winner
        assert split == best_split_oracle(X, y, np.array(cand))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_matches_oracle_scan(self, monkeypatch, seed):
        X, y = mixed_columns(seed)
        for width in (X.shape[1], 4, 3):
            kwargs = dict(n_trees=4, max_depth=8, min_leaf=1, feature_fraction=0.6, seed=seed)
            fast = BaggedTrees(**kwargs).fit(X[:, :width], y).to_dict()
            with monkeypatch.context() as m:
                m.setattr(trees, "_best_split", best_split_oracle)
                slow = BaggedTrees(**kwargs).fit(X[:, :width], y).to_dict()
            assert fast == slow

    @pytest.mark.parametrize("proxy", ["german_credit", "compas", "communities_and_crime"])
    def test_detector_on_proxy_matches_oracle_scan(self, monkeypatch, proxy):
        d = benchmark_proxy(proxy, seed=1, nu=120)
        fast = train_ood_detector(d, 1.0, seed=2, n_trees=3).to_dict()
        monkeypatch.setattr(trees, "_best_split", best_split_oracle)
        assert train_ood_detector(d, 1.0, seed=2, n_trees=3).to_dict() == fast
