import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from axebench import axe
from axebench.axe import (AxeConfig, axe_quality, axe_quality_many, one_hot_axe_aggregates,
                          write_trace)
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
        explanations = make_manual_explanations(d, 0)
        report = axe_quality(d, d.labels, explanations, AxeConfig(n=1, k=3))
        write_trace(path, report, d.labels, explanations)
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
        # several targets and k values on shared tables against one call per pair
        d = small_threshold_data
        targets = [d.labels, 1 - d.labels, np.arange(d.nu) % 2]
        for feature in range(d.n_features):
            expls = make_manual_explanations(d, feature)
            for include_self in (False, True):
                cfgs = [AxeConfig(n=1, k=k, include_self=include_self) for k in (1, 3, 5)]
                shared = axe_quality_many(d, targets, expls, cfgs)
                for y, reports in zip(targets, shared):
                    for cfg, report in zip(cfgs, reports):
                        alone = axe_quality(d, y, expls, cfg)
                        assert np.array_equal(report.per_point_q, alone.per_point_q)
                        assert report.aggregate_q == alone.aggregate_q
                        assert report.hyperparams == alone.hyperparams
                assert one_hot_axe_aggregates(d, feature, d.labels, [5, 1, 3], include_self) == {
                    cfg.k: report.aggregate_q for cfg, report in zip(cfgs, shared[0])}

    def test_row_blocks_do_not_change_scores(self, small_threshold_data, monkeypatch):
        d = small_threshold_data
        rng = np.random.default_rng(5)
        expls = ExplanationSet(np.round(rng.normal(size=(d.nu, d.n_features)), 1))
        cfg = AxeConfig(n=2, k=4)
        whole = axe_quality(d, d.labels, expls, cfg)
        whole_onehot = one_hot_axe_aggregates(d, 1, d.labels, [1, 4])
        monkeypatch.setattr(axe, "_BLOCK_ELEMENTS", 7 * d.nu)
        monkeypatch.setattr(axe, "_QUERY_ELEMENTS", 3 * d.nu)  # 3 rows per block in the stage over every row
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
        monkeypatch.setattr(axe, "_QUERY_ELEMENTS", 3 * 50)
        assert_table_matches_oracle(features, (2, 1), 7, include_self)

    @pytest.mark.parametrize("include_self", [False, True])
    def test_wide_subsets(self, include_self):
        # from 8 columns on, numpy's sum over a row would add pairwise; the
        # kernel adds in subset order, as the oracle does
        rng = np.random.default_rng(5)
        features = np.round(rng.normal(size=(60, 12)), 1)
        features[rng.integers(0, 60, 20)] = features[rng.integers(0, 60, 20)]
        binary = rng.integers(0, 2, (60, 12))
        for width in range(8, 13):
            subset = tuple(rng.permutation(12)[:width])
            assert_table_matches_oracle(features, subset, 11, include_self)
            assert_table_matches_oracle(binary, subset, 11, include_self)


def table_by_sort(d2, rows, k, include_self):
    """First k of all candidates in stable (distance, index) order; leave-one-out
    drops the query row."""
    order = np.argsort(d2, axis=1, kind="stable")
    if not include_self:
        order = order[order != rows[:, None]].reshape(len(rows), -1)
    return order[:, :k]


def summed_distances(features, subset, rows):
    """numpy's sum of squares over the subset axis: left to right below 8
    columns, pairwise from 8 on."""
    cand = features[:, list(subset)]
    return ((cand[None] - cand[rows][:, None]) ** 2).sum(axis=2)


def ordered_distances(features, subset, rows):
    """Each column's difference times itself, added left to right in subset order."""
    d2 = np.zeros((len(rows), len(features)))
    for j in subset:
        diff = features[:, j] - features[rows, j][:, None]
        d2 = d2 + diff * diff
    return d2


@st.composite
def table_instances(draw):
    """Tables over 1-12 columns with rounded or free features, duplicate rows,
    signed zeros, a subset of query rows and a block budget down to one row."""
    nu = draw(st.integers(2, 24))
    nf = draw(st.integers(1, 12))
    value = st.one_of(st.integers(-12, 12).map(lambda v: v / 10),
                      st.floats(-3, 3, allow_nan=False, allow_subnormal=False))
    features = draw(arrays(float, (nu, nf), elements=value))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, nu - 1), st.integers(0, nu - 1)),
                                  max_size=nu)):
        features[dst] = features[src]
    features[draw(arrays(bool, (nu, nf))) & (features == 0)] = -0.0
    subset = tuple(draw(st.permutations(range(nf)))[:draw(st.integers(1, nf))])
    rows = np.array(sorted(draw(st.sets(st.integers(0, nu - 1), min_size=1))))
    include_self = draw(st.booleans())
    k = draw(st.integers(1, nu if include_self else nu - 1))
    block_elements = draw(st.integers(1, len(rows) * nu * len(subset)))
    return features, subset, rows, k, include_self, block_elements


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table_instances())
def test_table_matches_full_sort_property(instance):
    features, subset, rows, k, include_self, block_elements = instance
    d = Dataset(features=features, feature_names=tuple(f"f{j}" for j in range(features.shape[1])))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axe, "_BLOCK_ELEMENTS", block_elements)
        mp.setattr(axe, "_QUERY_ELEMENTS", block_elements)
        table = axe._nearest_rows(d, subset, rows, k, include_self)
    expected = table_by_sort(ordered_distances(features, subset, rows), rows, k, include_self)
    assert np.array_equal(table, expected)
    if len(subset) <= 7:  # numpy adds fewer than 8 terms left to right: the same bits
        summed = summed_distances(features, subset, rows)
        assert np.array_equal(table, table_by_sort(summed, rows, k, include_self))


def record_stages(monkeypatch):
    """Wrap axe._search; each call appends (span, key, queried rows, certified
    rows), key None for the stage that spans every row."""
    stages, search = [], axe._search

    def recording(cols, ordered, order, key, query, lo, span, width, include_self):
        ok, head = search(cols, ordered, order, key, query, lo, span, width, include_self)
        stages.append((span, key, set(query.tolist()), set(query[ok].tolist())))
        return ok, head

    monkeypatch.setattr(axe, "_search", recording)
    return stages


class TestStagedSearch:
    """Windows opened on 120 rows by a small block budget, windows up to every
    row and a doubling widen: each stage certifies rows, and every table equals
    the oracle's at every k. Column 0 is binary, column 1 has the most distinct
    values and a tie group of 48 rows at 0.0, column 2 is rounded to a tenth."""

    @staticmethod
    def features():
        rng = np.random.default_rng(9)
        features = np.column_stack([rng.integers(0, 2, 120), np.round(rng.normal(size=120), 2),
                                    np.round(rng.normal(size=120), 1)])
        features[rng.permutation(120)[:48], 1] = 0.0
        return features

    @pytest.mark.parametrize("include_self", [False, True])
    def test_every_stage_matches_oracle_at_every_k(self, include_self, monkeypatch):
        features = self.features()
        d = Dataset(features=features, feature_names=("a", "b", "c"))
        tied = set(np.flatnonzero(features[:, 1] == 0.0).tolist())
        monkeypatch.setattr(axe, "_BLOCK_ELEMENTS", 4096)
        monkeypatch.setattr(axe, "_QUERY_ELEMENTS", 1024)  # blocks of 8 rows and up
        monkeypatch.setattr(axe, "_WINDOW_SHARE", 1)
        monkeypatch.setattr(axe, "_WIDEN", 2)
        stages = record_stages(monkeypatch)
        certified = {"first": 0, "widened": 0, "full": 0}
        skipped_tie_group = False
        for subset in ((1,), (0, 1), (2, 1), (0, 2, 1)):
            ranked = [knn_table_oracle(features, subset, i, d.nu - (not include_self),
                                       include_self) for i in range(d.nu)]
            for k in range(1, d.nu if include_self else d.nu - 1):
                stages.clear()
                table = axe._nearest_rows(d, subset, np.arange(d.nu), k, include_self)
                assert table.tolist() == [row[:k] for row in ranked], (subset, k)
                windows = [stage for stage in stages if stage[1] is not None]
                assert {key for _, key, _, _ in windows} <= {subset.index(1)}
                first = min((span for span, *_ in windows), default=None)
                for span, key, queried, done in stages:
                    kind = "full" if key is None else "first" if span == first else "widened"
                    certified[kind] += len(done)
                    if key is not None and span == first and span <= len(tied):
                        assert not queried & tied
                        skipped_tie_group = True
        assert min(certified.values()) > 0, certified
        assert skipped_tie_group


@st.composite
def staged_instances(draw):
    """Tables over 24-90 rows with rounded, binary or free features and
    duplicate rows, under a block budget that opens windows, windows up to
    every row and a widen of 2-4."""
    nu = draw(st.integers(24, 90))
    nf = draw(st.integers(1, 4))
    value = draw(st.sampled_from([st.integers(-30, 30).map(lambda v: v / 10),
                                  st.integers(0, 1).map(float),
                                  st.floats(-3, 3, allow_nan=False, allow_subnormal=False)]))
    features = draw(arrays(float, (nu, nf), elements=value))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, nu - 1), st.integers(0, nu - 1)),
                                  max_size=nu // 2)):
        features[dst] = features[src]
    subset = tuple(draw(st.permutations(range(nf)))[:draw(st.integers(1, nf))])
    include_self = draw(st.booleans())
    k = draw(st.integers(1, min(12, nu if include_self else nu - 1)))
    return (features, subset, k, include_self, draw(st.integers(1, 8)),
            draw(st.integers(2, 4)), draw(st.integers(1, 4000)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(staged_instances())
def test_staged_table_matches_full_sort_property(instance):
    features, subset, k, include_self, share, widen, block_elements = instance
    d = Dataset(features=features, feature_names=tuple(f"f{j}" for j in range(features.shape[1])))
    rows = np.arange(d.nu)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axe, "_WINDOW_SHARE", share)
        mp.setattr(axe, "_WIDEN", widen)
        mp.setattr(axe, "_BLOCK_ELEMENTS", block_elements)
        mp.setattr(axe, "_QUERY_ELEMENTS", block_elements)
        table = axe._nearest_rows(d, subset, rows, k, include_self)
    expected = table_by_sort(ordered_distances(features, subset, rows), rows, k, include_self)
    assert np.array_equal(table, expected)


class TestSharedTables:
    """axe_quality_many: one table per (row group, include_self) at the widest k."""

    @pytest.mark.parametrize("include_self", [False, True])
    def test_first_k_columns_of_the_widest_table_are_the_k_table(self, include_self):
        features = np.round(np.random.default_rng(6).normal(size=(80, 3)), 1)
        d = Dataset(features=features, feature_names=("a", "b", "c"))
        rows = np.arange(d.nu)
        for subset in ((0,), (2, 1), (1, 0, 2)):
            widest = axe._nearest_rows(d, subset, rows, 11, include_self)
            for k in range(1, 11):
                assert np.array_equal(widest[:, :k],
                                      axe._nearest_rows(d, subset, rows, k, include_self))

    def test_each_target_and_k_equals_its_own_call(self, small_threshold_data):
        d = small_threshold_data
        rng = np.random.default_rng(7)
        expls = ExplanationSet(np.round(rng.normal(size=(d.nu, d.n_features)), 1))
        targets = [d.labels, 1 - d.labels, rng.integers(0, 2, d.nu)]
        cfgs = [AxeConfig(n=n, k=k, include_self=include_self)
                for n in (1, 2) for include_self in (False, True) for k in (3, 5, 11)]
        shared = axe_quality_many(d, targets, expls, cfgs, ["a", "b", "c"])
        for y, descriptor, reports in zip(targets, "abc", shared):
            for cfg, report in zip(cfgs, reports):
                alone = axe_quality(d, y, expls, cfg, model_descriptor=descriptor)
                assert np.array_equal(report.per_point_q, alone.per_point_q)
                assert report.aggregate_q == alone.aggregate_q
                assert (report.hyperparams, report.model_descriptor) == (
                    alone.hyperparams, alone.model_descriptor)

    def test_one_search_per_row_group_and_mode(self, small_threshold_data, monkeypatch):
        d = small_threshold_data
        expls = ExplanationSet(np.round(np.random.default_rng(8).normal(size=(d.nu, 4)), 1))
        groups = len(np.unique(axe._magnitude_order(expls.importances, 2, True), axis=0))
        searches = []
        nearest = axe._nearest_rows

        def counting(d, subset, rows, max_k, include_self):
            searches.append((max_k, include_self))
            return nearest(d, subset, rows, max_k, include_self)

        monkeypatch.setattr(axe, "_nearest_rows", counting)
        cfgs = [AxeConfig(n=2, k=k, include_self=include_self)
                for k in (3, 5, 11) for include_self in (False, True)]
        axe_quality_many(d, [d.labels, 1 - d.labels], expls, cfgs)
        assert sorted(searches) == [(11, False)] * groups + [(11, True)] * groups

    def test_validation_errors(self, small_threshold_data):
        d = small_threshold_data
        expls = make_manual_explanations(d, 0)
        cfg = AxeConfig(n=1, k=3)
        with pytest.raises(ValueError, match="length mismatch: predictions"):
            axe_quality_many(d, [d.labels, d.labels[:-1]], expls, [cfg])
        with pytest.raises(ValueError, match="k out of range"):
            axe_quality_many(d, [d.labels], expls, [cfg, AxeConfig(n=1, k=d.nu)])
        with pytest.raises(ValueError, match="one model descriptor per target"):
            axe_quality_many(d, [d.labels, d.labels], expls, [cfg], ["only one"])
        assert axe_quality_many(d, [], expls, [cfg]) == []


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
