import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from axebench import axe
from axebench.axe import AxeConfig, axe_quality, one_hot_axe_aggregates
from axebench.core import Dataset, ExplanationSet
from axebench.explainers import make_manual_explanations

from oracles import axe_oracle, knn_oracle, knn_table_oracle


def noise_explanations(d, feature):
    return make_manual_explanations(d, feature)


def tiny_report(features, y, importances, k, include_self, n=1):
    """axe_quality on a tiny dataset where every row carries the same explanation."""
    features = np.asarray(features, dtype=float)
    d = Dataset(features=features,
                feature_names=tuple(f"f{j}" for j in range(features.shape[1])))
    expls = ExplanationSet(np.tile(importances, (d.nu, 1)))
    return axe_quality(d, y, expls, AxeConfig(n=n, k=k, include_self=include_self))


class TestKnnPredict:
    """The per-row k-NN vote inside axe_quality, on tiny datasets."""

    def test_self_match_with_inclusion(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        targets = rng.integers(0, 2, 30)
        report = tiny_report(X, targets, [1.0, 1.0], k=1, include_self=True, n=2)
        assert report.per_point_q.tolist() == [1.0] * 30

    def test_loo_separated_clusters(self):
        # two well-separated 1-D clusters: leave-one-out 3-NN recovers the label
        rng = np.random.default_rng(1)
        left = rng.normal(-5, 0.4, 20)
        right = rng.normal(5, 0.4, 20)
        col = np.concatenate([left, right])
        targets = np.array([0] * 20 + [1] * 20)
        X = np.column_stack([col, rng.normal(size=40)])
        report = tiny_report(X, targets, [1.0, 0.0], k=3, include_self=False)
        assert report.per_point_q.tolist() == [1.0] * 40
        for i in range(40):
            assert knn_oracle(X, targets, [0], X[i], 3, False, i) == targets[i]

    def test_noise_feature_near_chance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(400, 2))
        targets = (X[:, 0] > 0).astype(int)
        report = tiny_report(X, targets, [0.0, 1.0], k=5, include_self=False)
        assert abs(report.aggregate_q - 0.5) <= 0.08

    def test_distance_ties_break_by_row_index(self):
        # rows 0, 1, 2 tie at distance 0 from each other and at 1 from row 3:
        # the lowest tied row index is the single neighbor every time
        X = [[1.0], [1.0], [1.0], [2.0]]
        targets = np.array([1, 0, 0, 1])
        loo = tiny_report(X, targets, [1.0], k=1, include_self=False)
        assert loo.per_point_q.tolist() == [0.0, 0.0, 0.0, 1.0]
        # with self-inclusion row 0 still wins the tie, even for rows 1 and 2
        literal = tiny_report(X, targets, [1.0], k=1, include_self=True)
        assert literal.per_point_q.tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_even_split_votes_zero(self):
        # every 2- and 4-neighbor vote over alternating targets is an even
        # split, so every row recovers 0
        X = [[0.0], [1.0], [2.0], [3.0]]
        targets = np.array([1, 0, 1, 0])
        for k in (2, 4):
            report = tiny_report(X, targets, [1.0], k=k, include_self=True)
            assert report.per_point_q.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_k_exceeds_candidates(self):
        with pytest.raises(ValueError, match="candidate count"):
            tiny_report(np.zeros((3, 1)), np.zeros(3, dtype=int), [1.0], k=3,
                        include_self=False)
        with pytest.raises(ValueError, match="candidate count"):
            tiny_report(np.zeros((3, 1)), np.zeros(3, dtype=int), [1.0], k=4,
                        include_self=True)


class TestAxeQuality:
    def test_generative_feature_scores_high(self, threshold_data):
        d = threshold_data
        y = d.labels
        report = axe_quality(d, y, make_manual_explanations(d, 0), AxeConfig(n=1, k=5))
        assert report.aggregate_q >= 0.98
        assert report.hyperparams == {"n": 1, "k": 5, "include_self": False}

    def test_noise_feature_scores_near_chance(self, threshold_data):
        d = threshold_data
        report = axe_quality(d, d.labels, make_manual_explanations(d, 3), AxeConfig(n=1, k=5))
        assert abs(report.aggregate_q - 0.5) <= 0.08

    def test_single_row_consistency(self, small_threshold_data):
        d = small_threshold_data
        expls = make_manual_explanations(d, 0)
        cfg = AxeConfig(n=1, k=3)
        report = axe_quality(d, d.labels, expls, cfg)
        for i in (0, 17, 79):
            recovered = knn_oracle(d.features, d.labels, [0], d.features[i], 3, False, i)
            assert report.per_point_q[i] == float(recovered == d.labels[i])
        assert report.aggregate_q == pytest.approx(report.per_point_q.mean())

    def test_scale_invariance(self, small_threshold_data):
        d = small_threshold_data
        raw = np.array([0.4, -0.2, 0.9, 0.1])
        a = ExplanationSet(np.tile(raw, (d.nu, 1)))
        b = ExplanationSet(np.tile(137.0 * raw, (d.nu, 1)))
        cfg = AxeConfig(n=2, k=3)
        ra = axe_quality(d, d.labels, a, cfg)
        rb = axe_quality(d, d.labels, b, cfg)
        assert np.array_equal(ra.per_point_q, rb.per_point_q)

    def test_permutation_equivariance(self, small_threshold_data):
        d = small_threshold_data
        expls = make_manual_explanations(d, 1)
        cfg = AxeConfig(n=1, k=3)
        base = axe_quality(d, d.labels, expls, cfg)
        perm = np.random.default_rng(3).permutation(d.nu)
        shuffled = Dataset(features=d.features[perm], feature_names=d.feature_names,
                           labels=d.labels[perm], dataset_id="shuffled")
        expls_p = ExplanationSet(expls.importances[perm], expls.explainer_tag)
        permuted = axe_quality(shuffled, d.labels[perm], expls_p, cfg)
        assert np.array_equal(permuted.per_point_q, base.per_point_q[perm])
        assert permuted.aggregate_q == base.aggregate_q

    def test_depends_on_predictions(self, small_threshold_data):
        # changing a single prediction entry moves the report
        d = small_threshold_data
        expls = make_manual_explanations(d, 0)
        cfg = AxeConfig(n=1, k=3)
        on_preds = axe_quality(d, d.labels, expls, cfg)
        tweaked = d.labels.copy()
        tweaked[5] = 1 - tweaked[5]
        on_tweaked = axe_quality(d, tweaked, expls, cfg)
        assert not np.array_equal(on_preds.per_point_q, on_tweaked.per_point_q)

    def test_validation_errors(self, small_threshold_data):
        d = small_threshold_data
        expls = make_manual_explanations(d, 0)
        with pytest.raises(ValueError, match="length mismatch"):
            axe_quality(d, d.labels, ExplanationSet(expls.importances[:-1]), AxeConfig(n=1, k=3))
        with pytest.raises(ValueError, match="length mismatch"):
            axe_quality(d, d.labels[:-1], expls, AxeConfig(n=1, k=3))
        with pytest.raises(ValueError, match="n out of range"):
            axe_quality(d, d.labels, expls, AxeConfig(n=9, k=3))
        with pytest.raises(ValueError, match="k out of range"):
            axe_quality(d, d.labels, expls, AxeConfig(n=1, k=d.nu))
        with pytest.raises(ValueError):
            AxeConfig(n=0, k=3)

    def test_explanation_width_must_match_feature_count(self, small_threshold_data):
        d = small_threshold_data  # 4 columns
        for width in (2, 6):
            expls = ExplanationSet(np.tile(np.arange(1.0, width + 1), (d.nu, 1)))
            # width 6 puts the top feature at index 5, past the last column
            with pytest.raises(ValueError, match="length mismatch"):
                axe_quality(d, d.labels, expls, AxeConfig(n=1, k=3))

    def test_distances_sum_in_rank_order(self):
        # rows 1 and 2 hold the same squares in opposite column order, so only
        # the summation order decides which one is nearer to row 0
        a, b, c = 0.1 ** 2, 0.2 ** 2, 0.5 ** 2
        assert (c + b) + a > (a + b) + c
        features = np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.5], [0.5, 0.2, 0.1]])
        y = np.array([0, 1, 0])
        importances = [1.0, 2.0, 3.0]  # rank order 2, 1, 0
        report = tiny_report(features, y, importances, k=1, include_self=False, n=3)
        oracle_pp, _ = axe_oracle(features, y, [importances] * 3, 3, 1, False)
        assert report.per_point_q.tolist() == oracle_pp
        assert report.per_point_q[0] == 1.0  # row 2 is nearer in rank order

    def test_trace_file(self, small_threshold_data, tmp_path):
        d = small_threshold_data
        path = tmp_path / "trace.csv"
        axe_quality(d, d.labels, make_manual_explanations(d, 0), AxeConfig(n=1, k=3),
                    trace_path=path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "row,chosen_features,recovered,target,q"
        assert len(lines) == d.nu + 1


class TestSelfInclusionModes:
    def test_include_self_k1_degenerate_loo_not(self, threshold_data):
        d = threshold_data  # continuous gaussian features: duplicate-free
        noise = make_manual_explanations(d, 3)
        literal = axe_quality(d, d.labels, noise, AxeConfig(n=1, k=1, include_self=True))
        assert literal.aggregate_q == 1.0
        loo = axe_quality(d, d.labels, noise, AxeConfig(n=1, k=1, include_self=False))
        assert loo.aggregate_q < 1.0

    def test_mode_stamped_in_report(self, small_threshold_data):
        d = small_threshold_data
        r = axe_quality(d, d.labels, make_manual_explanations(d, 0),
                        AxeConfig(n=1, k=1, include_self=True))
        assert r.hyperparams["include_self"] is True


class TestOffManifoldIndifference:
    def test_identical_predictions_identical_reports(self, small_threshold_data):
        """Only (features, predictions, explanations) enter the score; models
        that agree on every row are indistinguishable to it."""
        d = small_threshold_data
        y = d.labels
        expls = make_manual_explanations(d, 0)
        cfg = AxeConfig(n=1, k=5)
        a = axe_quality(d, y, expls, cfg, model_descriptor="one")
        b = axe_quality(d, y.copy(), expls, cfg, model_descriptor="two")
        assert np.array_equal(a.per_point_q, b.per_point_q)
        assert a.aggregate_q == b.aggregate_q


class TestFastPathAndOracle:
    def test_one_hot_fast_path_matches_general_path(self, small_threshold_data):
        d = small_threshold_data
        y = d.labels
        cache = {}
        for feature in range(d.n_features):
            for include_self in (False, True):
                fast = one_hot_axe_aggregates(d, feature, y, [1, 3, 5],
                                              include_self, _table_cache=cache)
                for k, agg in fast.items():
                    slow = axe_quality(d, y, make_manual_explanations(d, feature),
                                       AxeConfig(n=1, k=k, include_self=include_self))
                    assert agg == slow.aggregate_q

    def test_row_blocks_do_not_change_scores(self, small_threshold_data, monkeypatch):
        d = small_threshold_data
        rng = np.random.default_rng(5)
        expls = ExplanationSet(np.round(rng.normal(size=(d.nu, d.n_features)), 1))
        cfg = AxeConfig(n=2, k=4)
        whole = axe_quality(d, d.labels, expls, cfg)
        whole_onehot = one_hot_axe_aggregates(d, 1, d.labels, [1, 4])
        monkeypatch.setattr(axe, "_BLOCK_ELEMENTS", 7 * d.nu)  # 3 rows per block at n=2
        assert np.array_equal(axe_quality(d, d.labels, expls, cfg).per_point_q,
                              whole.per_point_q)
        assert one_hot_axe_aggregates(d, 1, d.labels, [1, 4]) == whole_onehot

    def test_matches_exhaustive_oracle_small_instances(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            nu = int(rng.integers(6, 31))
            nf = int(rng.integers(2, 5))
            features = np.round(rng.normal(size=(nu, nf)), 1)  # rounding forces ties
            y = rng.integers(0, 2, nu)
            importance_rows = np.round(rng.normal(size=(nu, nf)), 1)
            n = int(rng.integers(1, nf + 1))
            k = int(rng.integers(1, nu - 1))
            include_self = bool(rng.integers(0, 2))
            d = Dataset(features=features,
                        feature_names=tuple(f"f{j}" for j in range(nf)))
            expls = ExplanationSet(importance_rows)
            report = axe_quality(d, y, expls, AxeConfig(n=n, k=k, include_self=include_self))
            oracle_pp, oracle_agg = axe_oracle(features, y, importance_rows, n, k, include_self)
            assert report.per_point_q.tolist() == oracle_pp
            assert report.aggregate_q == oracle_agg


def assert_table_matches_oracle(features, subset, k, include_self):
    features = np.asarray(features, dtype=float)
    d = Dataset(features=features,
                feature_names=tuple(f"f{j}" for j in range(features.shape[1])))
    table = axe._nearest_rows(d, subset, np.arange(d.nu), k, include_self)
    expected = [knn_table_oracle(features, subset, i, k, include_self) for i in range(d.nu)]
    assert table.tolist() == expected


class TestNeighbourTable:
    """The selection in _nearest_rows against an exhaustive sort, on inputs
    where many rows share the distance at the last kept place."""

    @pytest.mark.parametrize("include_self", [False, True])
    def test_all_rows_identical(self, include_self):
        assert_table_matches_oracle(np.ones((40, 3)), (0, 2), 11, include_self)

    @pytest.mark.parametrize("include_self", [False, True])
    def test_binary_features(self, include_self):
        features = np.random.default_rng(1).integers(0, 2, (60, 4))
        for subset in ((0,), (1, 3), (3, 0, 2), (0, 1, 2, 3)):
            assert_table_matches_oracle(features, subset, 11, include_self)

    @pytest.mark.parametrize("include_self", [False, True])
    def test_features_rounded_to_a_tenth(self, include_self):
        features = np.round(np.random.default_rng(2).normal(size=(120, 5)), 1)
        for subset in ((4,), (2, 0), (1, 3, 4), (0, 1, 2, 3, 4)):
            assert_table_matches_oracle(features, subset, 11, include_self)

    @pytest.mark.parametrize("include_self", [False, True])
    def test_ties_straddle_the_kth_place(self, include_self):
        # from row 0, rows at distance 1 come in a group of six spread over
        # low and high indices, so the kth place cuts through that group
        column = [0.0, 3.0, 1.0, -1.0, 2.0, 1.0, -2.0, -1.0, 1.0, 3.0, -1.0, 2.0]
        for k in range(1, 8):
            assert_table_matches_oracle(np.array(column)[:, None], (0,), k, include_self)

    @pytest.mark.parametrize("include_self", [False, True])
    def test_query_with_lower_index_duplicates(self, include_self):
        # rows 0-4 coincide, so rows 3 and 4 have lower-index rows at distance 0
        features = np.array([[0.5, 1.0]] * 5 + [[0.6, 1.0], [0.5, 1.1], [0.4, 0.9]])
        for k in (1, 2, 3, 5):
            assert_table_matches_oracle(features, (0, 1), k, include_self)

    def test_width_equals_row_count(self):
        features = np.round(np.random.default_rng(3).normal(size=(25, 2)), 1)
        features[7] = features[3]
        assert_table_matches_oracle(features, (1, 0), 24, include_self=False)
        assert_table_matches_oracle(features, (1, 0), 25, include_self=True)

    @pytest.mark.parametrize("include_self", [False, True])
    def test_three_row_blocks(self, include_self, monkeypatch):
        features = np.round(np.random.default_rng(4).normal(size=(50, 3)), 1)
        monkeypatch.setattr(axe, "_BLOCK_ELEMENTS", 3 * 50 * 2)
        assert_table_matches_oracle(features, (2, 1), 7, include_self)


@st.composite
def tied_instances(draw):
    """Small instances with rounded features, duplicate rows and tied importances."""
    nu = draw(st.integers(3, 14))
    nf = draw(st.integers(1, 5))
    features = draw(arrays(float, (nu, nf), elements=st.integers(-12, 12).map(lambda v: v / 10)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, nu - 1), st.integers(0, nu - 1)),
                                  max_size=nu)):
        features[dst] = features[src]
    importances = draw(arrays(float, (nu, nf), elements=st.integers(-2, 2).map(float)))
    y = draw(arrays(int, nu, elements=st.integers(0, 1)))
    include_self = draw(st.booleans())
    n = draw(st.integers(1, nf))
    k = draw(st.integers(1, nu if include_self else nu - 1))
    return features, y, importances, n, k, include_self


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tied_instances())
def test_matches_oracle_property(instance):
    features, y, importances, n, k, include_self = instance
    d = Dataset(features=features, feature_names=tuple(f"f{j}" for j in range(features.shape[1])))
    expls = ExplanationSet(importances)
    report = axe_quality(d, y, expls, AxeConfig(n=n, k=k, include_self=include_self))
    oracle_pp, oracle_agg = axe_oracle(features, y, importances, n, k, include_self)
    assert report.per_point_q.tolist() == oracle_pp
    assert report.aggregate_q == oracle_agg
