import numpy as np
import pytest

from axebench.core import (SCHEMA_VERSION, Dataset, Explanation, ExplanationSet,
                           QualityReport, aggregate_quality, bottom_n_features, rank_vector,
                           row_seed, top_n_features)

from oracles import bottom_n_oracle, rank_oracle, top_n_oracle


class TestAggregateQuality:
    def test_mean_of_two(self):
        assert aggregate_quality([1.0, 0.0]) == 0.5

    def test_singleton(self):
        assert aggregate_quality([0.7]) == 0.7

    def test_perfect_explanation_set_aggregates_to_one(self):
        # an all-correct per-point vector over a thousand rows averages to 1.000
        assert aggregate_quality([1.0] * 1000) == 1.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty quality list"):
            aggregate_quality([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            aggregate_quality([0.5, float("nan")])

    def test_constant_list_returns_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = float(rng.uniform(-5, 5))
            assert aggregate_quality([c] * int(rng.integers(1, 9))) == pytest.approx(c)


class TestTopN:
    def test_two_feature_model(self):
        assert top_n_features([0.7, 0.3], 1) == [0]

    def test_magnitude_ranking(self):
        assert top_n_features([-0.9, 0.1, 0.5], 2) == [0, 2]

    def test_tie_broken_by_lower_index(self):
        assert top_n_features([0.4, 0.4], 1) == [0]

    def test_n_zero(self):
        assert top_n_features([0.4, 0.4], 0) == []

    def test_n_exceeds_feature_count(self):
        with pytest.raises(ValueError, match="n exceeds feature count"):
            top_n_features([0.4, 0.4], 3)

    def test_full_n_is_permutation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            e = rng.normal(size=rng.integers(1, 8))
            assert sorted(top_n_features(e, e.size)) == list(range(e.size))

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            e = rng.normal(size=6)
            c = float(rng.uniform(0.01, 100))
            for n in range(7):
                assert top_n_features(e, n) == top_n_features(c * e, n)

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            e = np.round(rng.normal(size=5), 1)  # rounding forces ties
            n = int(rng.integers(0, 6))
            assert top_n_features(e, n) == top_n_oracle(e, n)

    def test_bottom_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            e = np.round(rng.normal(size=5), 1)
            n = int(rng.integers(0, 6))
            assert bottom_n_features(e, n) == bottom_n_oracle(e, n)


class TestRankVector:
    def test_plain_ranks(self):
        assert rank_vector([0.7, 0.3]).tolist() == [1.0, 2.0]

    def test_tied_ranks_average(self):
        assert rank_vector([0.5, 0.5]).tolist() == [1.5, 1.5]

    def test_sign_ignored(self):
        assert rank_vector([0.1, -0.9, 0.4]).tolist() == [3.0, 1.0, 2.0]

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            e = np.round(rng.normal(size=6), 1)
            assert rank_vector(e).tolist() == rank_oracle(e).tolist()

    def test_matrix_rows_match_oracle(self):
        rng = np.random.default_rng(6)
        for width in range(1, 8):
            e = np.round(rng.normal(size=(200, width)), 1)
            e[::3, -1] = -e[::3, 0]  # more ties, across signs
            e[::5] = 0.0  # all tied
            ranks = rank_vector(e)
            assert ranks.shape == e.shape
            for row, r in zip(e, ranks):
                assert r.tolist() == rank_oracle(row).tolist()


class TestDataset:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((0, 2)), feature_names=("a", "b"))
        with pytest.raises(ValueError):
            Dataset(features=[[1.0, np.inf]], feature_names=("a", "b"))
        with pytest.raises(ValueError, match="distinct"):
            Dataset(features=[[1.0, 2.0]], feature_names=("a", "b"),
                    protected_index=1, foil_indices=(1,))
        with pytest.raises(ValueError, match="strictly positive"):
            Dataset(features=[[1.0, 2.0]], feature_names=("a", "b"),
                    standardization=(np.zeros(2), np.array([1.0, 0.0])))

    def test_immutable(self):
        d = Dataset(features=[[1.0, 2.0], [3.0, 4.0]], feature_names=("a", "b"))
        with pytest.raises(ValueError):
            d.features[0, 0] = 9.0


class TestExplanation:
    def test_length_and_finiteness(self):
        e = Explanation(importances=[0.1, -0.2], explainer_tag="t")
        assert len(e) == 2
        with pytest.raises(ValueError):
            Explanation(importances=[np.nan])


class TestExplanationSet:
    def test_rows_length_and_read_only(self):
        s = ExplanationSet(importances=[[0.1, -0.2], [0.3, 0.4], [0.0, 1.0]], explainer_tag="t")
        assert len(s) == 3
        assert [row.tolist() for row in s] == [[0.1, -0.2], [0.3, 0.4], [0.0, 1.0]]
        with pytest.raises(ValueError):
            s.importances[0, 0] = 9.0

    @pytest.mark.parametrize("importances", [
        [0.1, -0.2],                   # one vector, not a matrix
        np.empty((0, 3)),              # no rows
        np.empty((2, 0)),              # no features
        [[0.1, np.nan], [0.2, 0.3]],   # non-finite entry
        [[0.1, np.inf], [0.2, 0.3]],
        [[0.1, 0.2], [0.3]],           # ragged rows
    ])
    def test_rejects(self, importances):
        with pytest.raises(ValueError):
            ExplanationSet(importances=importances)


class TestQualityReport:
    def test_aggregate_must_match_mean(self):
        with pytest.raises(ValueError, match="aggregate_q"):
            QualityReport(metric_name="fa", hyperparams={}, per_point_q=np.array([1.0, 0.0]),
                          aggregate_q=0.9)

    def test_build_and_roundtrip(self, tmp_path):
        r = QualityReport.build("fa", {"n": 2}, [1.0, 0.0, float("nan")])
        assert r.aggregate_q == 0.5
        assert r.undefined_count == 1
        r.to_json(tmp_path / "r.json")
        back = QualityReport.from_json(tmp_path / "r.json")
        assert back.metric_name == "fa"
        assert np.isnan(back.per_point_q[2])
        assert back.aggregate_q == 0.5

    def test_from_dict_rejects_other_schema_versions(self):
        payload = QualityReport.build("fa", {"n": 2}, [1.0, 0.0]).to_dict()
        assert QualityReport.from_dict(payload).aggregate_q == 0.5
        for version in (SCHEMA_VERSION + 1, 0, None):
            payload["schema_version"] = version
            with pytest.raises(ValueError, match=rf"schema_version {version!r} .*"
                                                 rf"schema_version {SCHEMA_VERSION}\b"):
                QualityReport.from_dict(payload)
        del payload["schema_version"]
        with pytest.raises(ValueError, match="schema_version None"):
            QualityReport.from_dict(payload)

    def test_all_undefined_aggregate_is_nan(self):
        r = QualityReport.build("rc", {}, [float("nan")] * 3)
        assert np.isnan(r.aggregate_q)


def test_row_seed_is_xor():
    assert row_seed(12, 5) == 12 ^ 5
    assert row_seed(0, 7) == 7
