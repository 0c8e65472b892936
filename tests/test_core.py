import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from axebench.axe import write_trace
from axebench.core import (SCHEMA_VERSION, Dataset, Explanation, ExplanationSet, Predictor,
                           QualityReport, bottom_n_features, distinct_rows, labels_of,
                           perturbed_copies, rank_vector, row_seed, spans, top_n_features,
                           write_json)
from axebench.data import save_csv
from axebench.explainers import save_explanations_csv

from oracles import bottom_n_oracle, rank_oracle, top_n_oracle


def aggregate(per_point_q) -> float:
    return QualityReport("m", {}, per_point_q).aggregate_q


class TestAggregateQuality:
    def test_mean_of_two(self):
        assert aggregate([1.0, 0.0]) == 0.5

    def test_singleton(self):
        assert aggregate([0.7]) == 0.7

    def test_perfect_explanation_set_aggregates_to_one(self):
        # an all-correct per-point vector over a thousand rows averages to 1.000
        assert aggregate([1.0] * 1000) == 1.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="non-empty vector"):
            aggregate([])

    def test_constant_list_returns_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = float(rng.uniform(-5, 5))
            assert aggregate([c] * int(rng.integers(1, 9))) == pytest.approx(c)


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
        payload = QualityReport("fa", {}, [1.0, 0.0]).to_dict()
        for stored in (0.9, 0.5 + 1e-9, None, float("nan")):
            with pytest.raises(ValueError, match="aggregate_q must be the mean"):
                QualityReport.from_dict({**payload, "aggregate_q": stored})
        assert QualityReport.from_dict({**payload, "aggregate_q": 0.5 + 1e-13}).aggregate_q == 0.5
        undefined = QualityReport("rc", {}, [float("nan")] * 2).to_dict()
        assert undefined["aggregate_q"] is None
        assert np.isnan(QualityReport.from_dict(undefined).aggregate_q)
        for stored in (0.0, float("nan")):
            with pytest.raises(ValueError, match="or null when none is defined"):
                QualityReport.from_dict({**undefined, "aggregate_q": stored})

    def test_undefined_count_must_match_rows(self):
        payload = QualityReport("rc", {}, [1.0, float("nan")]).to_dict()
        assert payload["undefined_count"] == 1
        for stored in (0, 2):
            with pytest.raises(ValueError, match="undefined_count must be 1, the number"):
                QualityReport.from_dict({**payload, "undefined_count": stored})
        del payload["undefined_count"]  # optional: the rows alone determine it
        assert QualityReport.from_dict(payload).undefined_count == 1

    def test_aggregate_is_not_a_parameter(self):
        with pytest.raises(TypeError, match="aggregate_q"):
            QualityReport(metric_name="fa", hyperparams={}, per_point_q=[1.0, 0.0],
                          aggregate_q=0.5)

    def test_build_and_roundtrip(self, tmp_path):
        r = QualityReport("fa", {"n": 2}, [1.0, 0.0, float("nan")])
        assert r.aggregate_q == 0.5
        assert r.undefined_count == 1
        r.to_json(tmp_path / "r.json")
        back = QualityReport.from_json(tmp_path / "r.json")
        assert back.metric_name == "fa"
        assert np.isnan(back.per_point_q[2])
        assert back.aggregate_q == 0.5

    def test_from_dict_rejects_other_schema_versions(self):
        payload = QualityReport("fa", {"n": 2}, [1.0, 0.0]).to_dict()
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
        r = QualityReport("rc", {}, [float("nan")] * 3)
        assert np.isnan(r.aggregate_q)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_json_floats(tmp_path, value):
    path = tmp_path / "x.json"
    write_json(path, {"ok": 1.0, "nested": [0.5, None]})
    assert path.read_text() == '{\n  "nested": [\n    0.5,\n    null\n  ],\n  "ok": 1.0\n}\n'
    with pytest.raises(ValueError, match="cannot write x.json: Out of range float values"):
        write_json(path, {"ok": 1.0, "nested": [0.5, value]})
    assert not path.exists()  # no half-written file, and not the old one either
    fresh = tmp_path / "new" / "y.json"
    with pytest.raises(ValueError, match="cannot write y.json"):
        write_json(fresh, [value])
    assert not fresh.parent.exists()  # refused before any directory is made


_RAW = np.array([[0.1 + 0.2, -0.0], [1e-300, 2.5]])  # a 17-digit repr and a signed zero


@pytest.mark.parametrize("write, expected", [
    (lambda path: save_csv(Dataset(_RAW, ("a", "b"), labels=np.array([1, 0])), path),
     "a,b,label\r\n0.30000000000000004,-0.0,1\r\n1e-300,2.5,0\r\n"),
    (lambda path: save_csv(Dataset(_RAW, ("a", "b")), path),
     "a,b\r\n0.30000000000000004,-0.0\r\n1e-300,2.5\r\n"),
    (lambda path: save_explanations_csv(ExplanationSet(_RAW), path, ["x,1", "y"]),
     'datapoint_index,"x,1",y\r\n0,0.30000000000000004,-0.0\r\n1,1e-300,2.5\r\n'),
    (lambda path: write_trace(path, QualityReport("axe", {"n": 1}, [1.0, 0.0]), [1, 1],
                              ExplanationSet(_RAW)),
     "row,chosen_features,recovered,target,q\r\n0,0,1,1,1\r\n1,1,0,1,0\r\n"),
], ids=["dataset", "dataset-without-labels", "explanations", "axe-trace"])
def test_csv_writers_pin_their_bytes(tmp_path, write, expected):
    path = tmp_path / "sub" / "x.csv"  # a missing parent directory is made
    write(path)
    assert path.read_bytes() == expected.encode()


def test_row_seed_is_xor():
    assert row_seed(12, 5) == 12 ^ 5
    assert row_seed(0, 7) == 7


@pytest.mark.parametrize("sets", [[[0, 2], [1, 3], [3, 0]], [[2], [0], [1]],
                                  [[1, 1], [2, 0], [3, 3]]],  # a repeated feature keeps its last draw
                         ids=["pairs", "singles", "repeats"])
def test_perturbed_copies_match_a_loop_over_copies(sets):
    rng = np.random.default_rng(28)
    X = rng.normal(size=(3, 4))
    sets = np.array(sets)
    draws = rng.normal(size=(3, 5, sets.shape[1]))
    expected = []
    for i in range(3):
        for j in range(5):
            copy = X[i].copy()
            for c, f in enumerate(sets[i]):
                copy[f] = X[i, f] + draws[i, j, c]
            expected.append(copy)
    assert perturbed_copies(X, sets, draws).tobytes() == np.array(expected).tobytes()


class TestBatchRules:

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 200), step=st.integers(1, 50))
    def test_spans_cover_the_rows_in_order(self, n, step):
        cut = spans(n, step)
        assert [i for start, end in cut for i in range(start, end)] == list(range(n))
        assert all(start % step == 0 and end - start <= step + 1 for start, end in cut)
        if n >= 2:
            assert cut[-1][1] - cut[-1][0] >= 2  # a one-row remainder joins the span before it
        assert (cut == []) == (n == 0)

    def test_spans_of_the_block_size(self):
        assert spans(2049, 2048) == [(0, 2049)]
        assert spans(4097, 2048) == [(0, 2048), (2048, 4097)]
        assert spans(4098, 2048) == [(0, 2048), (2048, 4096), (4096, 4098)]
        assert spans(1, 2048) == [(0, 1)]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5).flatmap(lambda width: arrays(
        np.int64, st.tuples(st.integers(1, 60), st.just(width)),
        elements=st.integers(-2, 2))))
    @example(np.array([[3, 1, 2]]))  # one row
    @example(np.array([[2], [0], [2], [1], [0]]))  # one column
    def test_distinct_rows_match_np_unique(self, rows):
        distinct, inverse = distinct_rows(rows)
        expected, expected_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert distinct.tolist() == expected.tolist()
        assert inverse.tolist() == expected_inverse.ravel().tolist()
        assert (distinct[inverse] == rows).all()

    def test_labels_of_is_the_one_threshold(self):
        assert labels_of(np.array([0.0, np.nextafter(0.5, 0), 0.5, 1.0])).tolist() == [0, 0, 1, 1]
        assert int(labels_of(0.5)) == 1 and int(labels_of(0.49)) == 0

        class Half(Predictor):
            def predict_proba_batch(self, X):
                return np.full(len(X), 0.5)
        assert Half().predict(np.zeros(2)) == 1
        assert Half().predict_batch(np.zeros((3, 2))).tolist() == [1, 1, 1]
