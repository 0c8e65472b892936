import re
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axebench._trees import BaggedTrees
from axebench.core import Dataset, ExplanationSet, perturbed_copies, write_json
from axebench.data import SyntheticSpec, generate_synthetic
from axebench.explainers import ExplainerConfig, explain_kernel_shapley
from axebench.metrics_sensitivity import PerturbConfig, sensitivity_quality_report
from axebench.models import (LinearModelSpec, MlpPredictor, MlpSpec,
                             OffManifoldFlipPredictor, OodDetector, RuleModelSpec,
                             ScaffoldSpec, build_scaffold, load_predictor,
                             make_linear_predictor, make_rule_predictor, save_predictor,
                             sigmoid, train_logistic, train_mlp, train_ood_detector)

from oracles import mlp_forward_oracle, sigmoid_oracle


class TestLinearPredictor:
    def test_sigmoid_of_zero_score(self):
        m = make_linear_predictor(LinearModelSpec((0.7, 0.3), 0.0))
        assert m.predict_proba([0.0, 0.0]) == 0.5
        assert m.predict([0.0, 0.0]) == 1  # threshold contract: >= 0.5 maps to 1

    def test_binarization_contract(self):
        m = make_linear_predictor(LinearModelSpec((1.0, -2.0), 0.3))
        rng = np.random.default_rng(0)
        for x in rng.normal(size=(50, 2)):
            assert m.predict(x) == int(m.predict_proba(x) >= 0.5)

    def test_gradient_is_chain_rule(self):
        beta = np.array([0.7, 0.3])
        m = make_linear_predictor(LinearModelSpec(tuple(beta), 0.1))
        rng = np.random.default_rng(1)
        for x in rng.normal(size=(20, 2)):
            p = m.predict_proba(x)
            assert np.allclose(m.gradient(x), p * (1 - p) * beta)

    def test_gradient_argmax_matches_coefficient_argmax(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            beta = rng.normal(size=4)
            beta[np.argmax(np.abs(beta))] *= 2  # ensure a strict winner
            m = make_linear_predictor(LinearModelSpec(tuple(beta)))
            x = rng.normal(size=4)
            assert np.argmax(np.abs(m.gradient(x))) == np.argmax(np.abs(beta))

    def test_rashomon_pair_agreement_on_grid(self):
        # two coefficient vectors with the same ordering agree on most of the plane
        m = make_linear_predictor(LinearModelSpec((0.7, 0.3)))
        m2 = make_linear_predictor(LinearModelSpec((0.5, 0.3)))
        axis = np.linspace(-3, 3, 41)
        grid = np.array([[a, b] for a in axis for b in axis])
        votes = m.predict_batch(grid) == m2.predict_batch(grid)
        # independent computation: compare the signs of the linear scores directly,
        # skipping cells that sit exactly on a decision boundary (float noise there)
        s1 = grid @ np.array([0.7, 0.3])
        s2 = grid @ np.array([0.5, 0.3])
        off_boundary = (np.abs(s1) > 1e-9) & (np.abs(s2) > 1e-9)
        expected = (s1 >= 0) == (s2 >= 0)
        assert np.array_equal(votes[off_boundary], expected[off_boundary])
        assert votes.mean() > 0.9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            make_linear_predictor(LinearModelSpec((0.7, 0.3)), n_features=3)
        m = make_linear_predictor(LinearModelSpec((0.7, 0.3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            m.predict_proba([1.0, 2.0, 3.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LinearModelSpec((0.0, 0.0))
        with pytest.raises(ValueError):
            LinearModelSpec((np.inf, 1.0))


class TestRulePredictor:
    def test_fires_above_threshold(self):
        m = make_rule_predictor(RuleModelSpec(1, 0.0, True))
        assert m.predict([0.0, 1.0]) == 1
        assert m.predict([0.0, -1.0]) == 0
        assert m.predict_proba([0.0, 1.0]) in (0.0, 1.0)

    def test_flipping_polarity_flips_every_prediction(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 3))
        up = make_rule_predictor(RuleModelSpec(2, 0.1, True))
        down = make_rule_predictor(RuleModelSpec(2, 0.1, False))
        assert np.array_equal(up.predict_batch(X), 1 - down.predict_batch(X))

    def test_feature_local(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 4))
        m = make_rule_predictor(RuleModelSpec(1, 0.0, True))
        before = m.predict_batch(X)
        shuffled = X.copy()
        for j in (0, 2, 3):
            shuffled[:, j] = rng.permutation(shuffled[:, j])
        assert np.array_equal(before, m.predict_batch(shuffled))

    def test_no_gradient(self):
        m = make_rule_predictor(RuleModelSpec(0))
        assert m.gradient([1.0]) is None

    @pytest.mark.parametrize("shape", [(4, 2), (4,), (2, 4, 3)],
                             ids=["too-narrow", "one-d", "three-d"])
    def test_batch_it_cannot_read_rejected(self, shape):
        m = make_rule_predictor(RuleModelSpec(2, 0.0, True))
        message = f"dimension mismatch: rule reads feature 2, data has shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            m.predict_proba_batch(np.zeros(shape))


class TestTrainLogistic:
    def test_separable_data_fits_well(self, threshold_data):
        m = train_logistic(threshold_data, seed=0)
        acc = (m.predict_batch(threshold_data.features) == threshold_data.labels).mean()
        assert acc >= 0.95

    def test_generative_coefficient_positive(self, threshold_data):
        m = train_logistic(threshold_data, seed=0)
        coeffs = np.asarray(m.spec.coefficients)
        assert coeffs[0] > 0
        assert np.argmax(np.abs(coeffs)) == 0

    def test_single_class_rejected(self):
        d = Dataset(features=np.random.default_rng(0).normal(size=(20, 2)),
                    feature_names=("a", "b"), labels=np.ones(20, dtype=int))
        with pytest.raises(ValueError, match="both classes"):
            train_logistic(d)

    def test_deterministic(self, small_threshold_data):
        a = train_logistic(small_threshold_data, seed=1)
        b = train_logistic(small_threshold_data, seed=1)
        assert a.spec == b.spec


class TestMlp:
    def test_fits_threshold_data(self, small_threshold_data):
        m = train_mlp(small_threshold_data, MlpSpec(hidden_sizes=(8,), epochs=400, seed=0))
        acc = (m.predict_batch(small_threshold_data.features)
               == small_threshold_data.labels).mean()
        assert acc >= 0.9

    def test_gradient_matches_finite_differences(self, small_threshold_data):
        m = train_mlp(small_threshold_data, MlpSpec(hidden_sizes=(6, 4), epochs=50, seed=1))
        x = small_threshold_data.features[3]
        g = m.gradient(x)
        eps = 1e-6
        for j in range(x.size):
            bumped = x.copy()
            bumped[j] += eps
            fd = (m.predict_proba(bumped) - m.predict_proba(x)) / eps
            assert g[j] == pytest.approx(fd, abs=1e-4)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec(hidden_sizes=())
        with pytest.raises(ValueError):
            MlpSpec(hidden_sizes=(4,), activation="relu")


class TestOodDetector:
    def test_accuracy_reported_and_reasonable(self, threshold_data):
        det = train_ood_detector(threshold_data, sigma_ood=1.5, seed=0)
        assert det.heldout_accuracy >= 0.7
        assert det.sigma_ood == 1.5

    def test_zero_sigma_is_chance(self, threshold_data):
        det = train_ood_detector(threshold_data, sigma_ood=0.0, seed=0)
        assert abs(det.heldout_accuracy - 0.5) < 0.12

    def test_deterministic(self, small_threshold_data):
        a = train_ood_detector(small_threshold_data, 1.0, seed=5)
        b = train_ood_detector(small_threshold_data, 1.0, seed=5)
        assert a.heldout_accuracy == b.heldout_accuracy
        X = small_threshold_data.features
        assert np.array_equal(a.flags_batch(X), b.flags_batch(X))

    def test_too_few_rows(self):
        d = generate_synthetic(SyntheticSpec(nu=20, n_features=3, seed=0))
        with pytest.raises(ValueError, match="at least 50"):
            train_ood_detector(d, 1.0, seed=0)

    def test_infinite_noise_is_refused(self, small_threshold_data):
        # masking inf noise computes inf * 0 = NaN, a row no detector can train on
        with pytest.raises(ValueError, match=r"^sigma_ood is too large: 1e\+308 draws infinite"):
            train_ood_detector(small_threshold_data, 1e308, seed=0)


def grid_dataset(nu=400, seed=0):
    """Categorical-style columns so the detector has a crisp manifold to learn."""
    rng = np.random.default_rng(seed)
    raw = np.column_stack([
        rng.integers(0, 2, nu), rng.integers(0, 5, nu), rng.integers(0, 3, nu),
        rng.integers(0, 2, nu), rng.integers(0, 4, nu), rng.integers(0, 2, nu),
    ]).astype(float)
    features = (raw - raw.mean(0)) / raw.std(0)
    return Dataset(features=features, feature_names=tuple("abcdef"),
                   protected_index=0, foil_indices=(3, 5), dataset_id="grid")


class TestScaffold:
    def test_zero_foils_rejected(self):
        with pytest.raises(ValueError, match="at least one foil required"):
            ScaffoldSpec(biased=RuleModelSpec(0), foils=())

    def test_foil_must_differ_from_protected(self):
        with pytest.raises(ValueError, match="differ"):
            ScaffoldSpec(biased=RuleModelSpec(0), foils=(RuleModelSpec(0),))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("inf"), float("nan")])
    def test_sigma_ood_must_be_finite_and_positive(self, sigma):
        # a scaffold file with such a sigma_ood would not load
        with pytest.raises(ValueError, match="^sigma_ood must be finite and positive$"):
            ScaffoldSpec(biased=RuleModelSpec(0), foils=(RuleModelSpec(1),), sigma_ood=sigma)

    def test_heldout_agreement_with_biased_model(self):
        d = grid_dataset()
        rows = np.random.default_rng(1).permutation(d.nu)  # a quarter of the rows held out
        train, test = replace(d, features=d.features[rows[:300]]), d.features[rows[300:]]
        spec = ScaffoldSpec(biased=RuleModelSpec(0), foils=(RuleModelSpec(3),),
                            sigma_ood=1.0, seed=2)
        scaffold = build_scaffold(train, spec)
        biased = make_rule_predictor(RuleModelSpec(0))
        agree = (scaffold.predict_batch(test) == biased.predict_batch(test)).mean()
        assert agree >= 0.95

    def test_rashomon_agreement_tracks_detector_accuracy(self):
        d = grid_dataset(seed=3)
        spec = ScaffoldSpec(biased=RuleModelSpec(0), foils=(RuleModelSpec(3),),
                            sigma_ood=1.0, seed=4)
        scaffold = build_scaffold(d, spec)
        assert scaffold.on_data_agreement >= scaffold.detector.heldout_accuracy - 0.02

    def test_foil_governs_flagged_perturbed_points(self):
        d = grid_dataset(seed=5)
        spec = ScaffoldSpec(biased=RuleModelSpec(0), foils=(RuleModelSpec(3),),
                            sigma_ood=1.0, seed=6)
        scaffold = build_scaffold(d, spec)
        rng = np.random.default_rng(7)
        perturbed = d.features + rng.normal(0, 1.0, d.features.shape)
        flagged = scaffold.detector.flags_batch(perturbed)
        assert flagged.mean() > 0.5
        foil = make_rule_predictor(RuleModelSpec(3))
        out = scaffold.predict_batch(perturbed)
        assert np.array_equal(out[flagged], foil.predict_batch(perturbed[flagged]))
        biased = make_rule_predictor(RuleModelSpec(0))
        assert np.array_equal(out[~flagged], biased.predict_batch(perturbed[~flagged]))

    def test_two_foil_routing_is_deterministic_function_of_x(self):
        d = grid_dataset(seed=8)
        rng = np.random.default_rng(10)
        perturbed = d.features + rng.normal(0, 1.0, d.features.shape)
        for foil_specs in ((RuleModelSpec(3), RuleModelSpec(5)), (RuleModelSpec(3),)):
            spec = ScaffoldSpec(biased=RuleModelSpec(0), foils=foil_specs,
                                sigma_ood=1.0, seed=9)
            scaffold = build_scaffold(d, spec)
            for points in (perturbed, d.features):
                first = scaffold.predict_proba_batch(points)
                second = np.array([scaffold.predict_proba(p) for p in points])
                assert np.array_equal(first, second)
                # unflagged points follow the biased rule, flagged ones their routed foil
                flagged = scaffold.detector.flags_batch(points)
                routes = scaffold._routes(points)
                expected = [scaffold.foils[r].predict_proba(p) if f
                            else scaffold.biased.predict_proba(p)
                            for p, f, r in zip(points, flagged, routes)]
                assert second.tolist() == expected
            # both foils actually serve traffic
            flagged = scaffold.detector.flags_batch(perturbed)
            routes = set(scaffold._routes(perturbed[flagged]).tolist())
            assert routes == set(range(len(foil_specs)))

    def test_low_detector_recorded_in_descriptor(self):
        d = generate_synthetic(SyntheticSpec(nu=200, n_features=4, seed=11))
        spec = ScaffoldSpec(biased=RuleModelSpec(0), foils=(RuleModelSpec(1),),
                            sigma_ood=0.05, seed=12)
        scaffold = build_scaffold(d, spec)  # near-zero noise: detector is near chance
        assert scaffold.detector.heldout_accuracy < 0.85
        assert "low-detector" in scaffold.descriptor


@lru_cache(maxsize=None)
def grid_scaffold(n_foils):
    foils = (RuleModelSpec(3), RuleModelSpec(5))[:n_foils]
    spec = ScaffoldSpec(biased=RuleModelSpec(0), foils=foils, sigma_ood=1.0, seed=13)
    return build_scaffold(grid_dataset(seed=12), spec)


def every_row_reference(scaffold, X):
    """The scaffold with its detector queried on every row and every flagged row routed."""
    flagged = scaffold.detector.flags_batch(X)
    routes = scaffold._routes(X)
    out = scaffold.biased.predict_proba_batch(X)
    for i in np.flatnonzero(flagged):
        out[i] = scaffold.foils[routes[i]].predict_proba_batch(X[i:i + 1])[0]
    return out


def foil_disagrees(scaffold, X):
    biased = scaffold.biased.predict_proba_batch(X)
    return np.any([f.predict_proba_batch(X) != biased for f in scaffold.foils], axis=0)


# rule thresholds are 0.0, so 0.0 and its neighbours sit exactly on them
_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]) | st.floats(-3, 3)


@st.composite
def scaffold_batches(draw):
    n_foils = draw(st.integers(1, 2))
    d = grid_dataset(seed=12)
    rows = draw(st.lists(st.one_of(
        st.integers(0, d.nu - 1).map(lambda i: d.features[i]),
        st.lists(_VALUES, min_size=6, max_size=6).map(np.array)), max_size=12))
    X = np.array(rows, dtype=float).reshape(-1, 6)
    X = np.vstack([X, X[:draw(st.integers(0, len(X)))]])  # duplicate rows
    return n_foils, X


class TestScaffoldDetectorSkip:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(scaffold_batches())
    def test_matches_every_row_reference(self, batch):
        n_foils, X = batch
        scaffold = grid_scaffold(n_foils)
        assert scaffold.predict_proba_batch(X).tolist() == every_row_reference(scaffold, X).tolist()

    @pytest.mark.parametrize("n_foils", [1, 2])
    def test_perturbed_threshold_and_agreeing_rows(self, n_foils):
        scaffold = grid_scaffold(n_foils)
        d = grid_dataset(seed=12)
        rng = np.random.default_rng(14)
        perturbed = d.features + rng.normal(0, 1.0, d.features.shape)
        on_threshold = perturbed[:40].copy()
        on_threshold[:, [0, 3, 5]] = 0.0
        X = np.vstack([perturbed, d.features, on_threshold, perturbed[:30]])
        differs = foil_disagrees(scaffold, X)
        assert 0 < differs.sum() < len(X)
        assert scaffold.detector.flags_batch(X[~differs]).any()  # skipped flags exist
        assert scaffold.predict_proba_batch(X).tolist() == every_row_reference(scaffold, X).tolist()
        for rows in (X[:1], X[:0]):
            assert scaffold.predict_proba_batch(rows).tolist() == every_row_reference(
                scaffold, rows).tolist()

    @pytest.mark.parametrize("n_foils", [1, 2])
    def test_detector_sees_only_rows_where_a_foil_differs(self, monkeypatch, n_foils):
        scaffold = grid_scaffold(n_foils)
        d = grid_dataset(seed=12)
        X = np.vstack([d.features, d.features + np.random.default_rng(15).normal(
            0, 1.0, d.features.shape)])
        seen = []
        flags_batch = OodDetector.flags_batch

        def spy(self, rows):
            seen.append(np.array(rows))
            return flags_batch(self, rows)

        monkeypatch.setattr(OodDetector, "flags_batch", spy)
        for batch in (X, X[:0]):
            seen.clear()
            scaffold.predict_proba_batch(batch)
            assert len(seen) == 1
            assert np.array_equal(seen[0], batch[foil_disagrees(scaffold, batch)])
        assert 0 < foil_disagrees(scaffold, X).sum() < len(X)


@st.composite
def copy_queries(draw):
    """Grid rows (duplicates included), index sets of width 1-3, and draws that put
    copies on the rules' 0.0 thresholds (a draw cancelling its value), on signed
    zeros, subnormals and infinities."""
    n_foils, width = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    d = grid_dataset(seed=12)
    picked = draw(st.lists(st.integers(0, d.nu - 1), min_size=1, max_size=10))
    X = d.features[picked + picked[:draw(st.integers(0, len(picked)))]]
    sets = np.array([sorted(draw(st.permutations(range(6)))[:width]) for _ in X])
    count = draw(st.integers(1, 6))
    value = (_VALUES | st.sampled_from([np.inf, -np.inf])
             | st.sampled_from(sorted(set((-d.features).ravel().tolist()))))
    draws = draw(st.lists(value, min_size=X.shape[0] * count * width,
                          max_size=X.shape[0] * count * width))
    return n_foils, X, sets, np.array(draws).reshape(X.shape[0], count, width)


class TestScaffoldCopies:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(copy_queries())
    def test_matches_scoring_the_materialised_copies(self, query):
        n_foils, X, sets, draws = query
        scaffold = grid_scaffold(n_foils)
        expected = scaffold.predict_proba_batch(perturbed_copies(X, sets, draws))
        got = scaffold.predict_proba_copies(X, sets, draws)
        assert got.shape == draws.shape[:2]
        assert got.tobytes() == expected.reshape(got.shape).tobytes()

    @pytest.mark.parametrize("n_foils", [1, 2])
    def test_width_one_copies_never_reach_the_tree_walk(self, monkeypatch, n_foils):
        scaffold = grid_scaffold(n_foils)
        d = grid_dataset(seed=12)
        walked, copies = [], []
        walk, by_cells = BaggedTrees.predict_proba, BaggedTrees.predict_proba_copies

        def walk_spy(self, X):
            walked.append(np.array(X))
            return walk(self, X)

        def cells_spy(self, rows, free, which, values):
            copies.append(len(values))
            return by_cells(self, rows, free, which, values)

        monkeypatch.setattr(BaggedTrees, "predict_proba", walk_spy)
        monkeypatch.setattr(BaggedTrees, "predict_proba_copies", cells_spy)
        importances = np.random.default_rng(16).normal(size=(d.nu, 6))
        dataset_rows = {r.tobytes() for r in d.features}
        for n in (1, 2):
            walked.clear()
            copies.clear()
            for metric in ("pgi", "pgu"):
                sensitivity_quality_report(metric, scaffold, d, ExplanationSet(importances),
                                           PerturbConfig(n=n, num_perturbations=20, seed=17))
            queried = np.vstack(walked)
            if n == 1:  # the walk sees only the unperturbed rows; copies go by cells
                assert sum(copies) > 0
                assert {r.tobytes() for r in queried} <= dataset_rows
            else:  # two free columns: the copies are walked
                assert not copies
                assert len(queried) > 2 * d.nu


class TestOffManifoldFlip:
    def test_agrees_on_anchors_flips_elsewhere(self, small_threshold_data):
        base = make_rule_predictor(RuleModelSpec(0))
        twin = OffManifoldFlipPredictor(base, small_threshold_data.features)
        X = small_threshold_data.features
        assert np.array_equal(twin.predict_batch(X), base.predict_batch(X))
        moved = X + 1e-6
        assert np.array_equal(twin.predict_batch(moved), 1 - base.predict_batch(moved))


class TestSerialization:
    def test_linear_roundtrip(self, tmp_path):
        m = make_linear_predictor(LinearModelSpec((0.7, -0.3), 0.2))
        save_predictor(m, tmp_path / "m.json")
        back = load_predictor(tmp_path / "m.json")
        x = np.array([0.4, -1.1])
        assert back.predict_proba(x) == m.predict_proba(x)

    def test_rule_roundtrip(self, tmp_path):
        m = make_rule_predictor(RuleModelSpec(1, 0.5, False))
        save_predictor(m, tmp_path / "m.json")
        back = load_predictor(tmp_path / "m.json")
        assert back.predict([0.0, 0.4]) == m.predict([0.0, 0.4])

    def test_mlp_roundtrip(self, tmp_path, small_threshold_data):
        m = train_mlp(small_threshold_data, MlpSpec(hidden_sizes=(5,), epochs=30, seed=0))
        save_predictor(m, tmp_path / "m.json")
        back = load_predictor(tmp_path / "m.json")
        X = small_threshold_data.features[:10]
        assert np.allclose(back.predict_proba_batch(X), m.predict_proba_batch(X))

    def test_scaffold_roundtrip(self, tmp_path):
        d = grid_dataset(seed=13)
        spec = ScaffoldSpec(biased=RuleModelSpec(0),
                            foils=(RuleModelSpec(3), RuleModelSpec(5)),
                            sigma_ood=1.0, seed=14)
        scaffold = build_scaffold(d, spec)
        save_predictor(scaffold, tmp_path / "s.json")
        back = load_predictor(tmp_path / "s.json")
        rng = np.random.default_rng(15)
        points = np.vstack([d.features, d.features + rng.normal(0, 1, d.features.shape)])
        assert np.array_equal(back.predict_proba_batch(points),
                              scaffold.predict_proba_batch(points))

    def test_valid_files_reload_to_the_same_dict(self, tmp_path, small_threshold_data):
        d = grid_dataset(seed=13)
        scaffold = build_scaffold(d, ScaffoldSpec(biased=RuleModelSpec(0),
                                                  foils=(RuleModelSpec(3), RuleModelSpec(5)),
                                                  seed=14))
        models = [make_linear_predictor(LinearModelSpec((0.7, -0.3), 0.2)),
                  make_rule_predictor(RuleModelSpec(1, 0.5, False)),
                  train_mlp(small_threshold_data, MlpSpec(hidden_sizes=(4, 3), epochs=5)),
                  scaffold]
        for m in models:
            save_predictor(m, tmp_path / "m.json")
            assert load_predictor(tmp_path / "m.json").to_dict() == m.to_dict()

    def test_null_descriptor_loads_like_an_absent_one(self, tmp_path):
        scaffold = build_scaffold(grid_dataset(seed=13), ScaffoldSpec(
            biased=RuleModelSpec(0), foils=(RuleModelSpec(3),), seed=14))
        for m in (make_linear_predictor(LinearModelSpec((0.7, -0.3), 0.2)),
                  make_rule_predictor(RuleModelSpec(1, 0.5, False)), scaffold):
            payload = {k: v for k, v in m.to_dict().items() if k != "descriptor"}
            descriptors = []
            for extra in ({}, {"descriptor": None}):
                write_json(tmp_path / "m.json", {**payload, **extra})
                descriptors.append(load_predictor(tmp_path / "m.json").descriptor)
            assert descriptors[0] == descriptors[1]
            assert isinstance(descriptors[0], str)


def test_sigmoid_stability():
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == pytest.approx(0.0)
    assert sigmoid(0.0) == 0.5


SPECIAL_Z = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan,
             5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 36.0, -745.2]


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestSigmoid:
    def test_special_values_bit_equal_to_masked_branches(self):
        z = np.array(SPECIAL_Z)
        assert np.array_equal(bits(sigmoid(z)), bits(sigmoid_oracle(z)))
        assert np.array_equal(bits(sigmoid(z[::-1].reshape(2, 7))),
                              bits(sigmoid_oracle(z[::-1].reshape(2, 7))))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                                                allow_subnormal=True),
                                      st.sampled_from(SPECIAL_Z)),
                           min_size=1, max_size=40),
           two_d=st.booleans())
    def test_bit_equal_to_oracle(self, values, two_d):
        z = np.array(values, dtype=float)
        if two_d:
            z = z[: z.size - z.size % 2].reshape(-1, 2) if z.size > 1 else z.reshape(1, 1)
        assert np.array_equal(bits(sigmoid(z)), bits(sigmoid_oracle(z)))

    @settings(max_examples=100, deadline=None)
    @given(z=st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                       st.sampled_from(SPECIAL_Z)))
    def test_zero_d_input_gives_a_float(self, z):
        out = sigmoid(z)
        assert type(out) is float
        assert bits(out) == bits(sigmoid_oracle(z))
        assert type(sigmoid(np.float64(z))) is float


def random_mlp(activation, hidden, seed=0):
    rng = np.random.default_rng(seed)
    sizes = (5, *hidden, 1)
    return MlpPredictor([rng.normal(0, 1.5, (sizes[i], sizes[i + 1])) for i in range(len(sizes) - 1)],
                        [rng.normal(0, 0.5, sizes[i + 1]) for i in range(len(sizes) - 1)],
                        activation, descriptor="mlp(test)")


def oracle_forward(model, X):
    return mlp_forward_oracle(model.weights, model.biases, model.activation, X)


class TestInPlaceForward:
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("hidden", [(7,), (6, 4)], ids=["one-hidden", "two-hidden"])
    def test_bit_equal_to_oracle_forward(self, activation, hidden):
        m = random_mlp(activation, hidden)
        X = np.random.default_rng(1).normal(0, 2, (300, 5))
        X[:20] = np.round(X[:20])
        acts = oracle_forward(m, X)
        assert np.array_equal(bits(m.predict_proba_batch(X)), bits(acts[-1][:, 0]))
        delta = acts[-1] * (1.0 - acts[-1])
        for i in range(len(m.weights) - 1, 0, -1):
            a = acts[i]
            delta = (delta @ m.weights[i].T) * (1.0 - a * a if activation == "tanh"
                                                else a * (1.0 - a))
        assert np.array_equal(bits(m.gradient_batch(X)), bits(delta @ m.weights[0].T))

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_caller_input_left_unchanged(self, activation):
        m = random_mlp(activation, (6, 4))
        X = np.random.default_rng(2).normal(0, 1, (50, 5))
        before = X.copy()
        m.predict_proba_batch(X)
        m.gradient_batch(X)
        assert np.array_equal(bits(X), bits(before))
        frozen = X.copy()
        frozen.flags.writeable = False
        assert np.array_equal(m.predict_proba_batch(frozen), m.predict_proba_batch(before))
        assert np.array_equal(m.gradient_batch(frozen), m.gradient_batch(before))
        assert np.array_equal(bits(frozen), bits(before))
        # a list and an integer array are converted, never written
        ints = np.arange(15).reshape(3, 5)
        assert np.array_equal(m.predict_proba_batch(ints), m.predict_proba_batch(ints.tolist()))
        assert np.array_equal(ints, np.arange(15).reshape(3, 5))

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("hidden", [(5,), (4, 3)], ids=["one-hidden", "two-hidden"])
    def test_training_equal_under_oracle_forward(self, monkeypatch, small_threshold_data,
                                                 activation, hidden):
        spec = MlpSpec(hidden_sizes=hidden, activation=activation, epochs=40, seed=3)
        trained = train_mlp(small_threshold_data, spec)
        monkeypatch.setattr(MlpPredictor, "_forward", oracle_forward)
        reference = train_mlp(small_threshold_data, spec)
        for a, b in zip(trained.weights + trained.biases, reference.weights + reference.biases):
            assert np.array_equal(bits(a), bits(b))


@lru_cache(maxsize=None)
def cli_shaped_mlp(n_inputs):
    """An MLP of the shape the command line trains: one hidden layer of 8 units."""
    X = np.random.default_rng(n_inputs).normal(0, 1, (120, n_inputs))
    d = Dataset(features=X, feature_names=tuple(f"f{i}" for i in range(n_inputs)),
                labels=(X.sum(axis=1) > 0).astype(int))
    return train_mlp(d, MlpSpec(hidden_sizes=(8,), epochs=60, seed=n_inputs))


class TestBlockedBatches:
    @pytest.mark.parametrize("n_inputs", [1, 8, 12, 17, 22])
    @pytest.mark.parametrize("rows", [0, 1, 2047, 2048, 2049, 4097, 25_400])
    def test_bit_equal_to_one_whole_batch_pass(self, rows, n_inputs):
        m = cli_shaped_mlp(n_inputs)
        X = np.random.default_rng(rows).normal(0, 1.5, (rows, n_inputs))
        acts = m._forward(X)
        proba, grad = m.predict_proba_batch(X), m.gradient_batch(X)
        assert proba.shape == (rows,) and grad.shape == (rows, n_inputs)
        assert proba.tobytes() == acts[-1][:, 0].tobytes()
        assert grad.tobytes() == m._backward(acts).tobytes()

    @pytest.mark.parametrize("rows, blocks", [
        (0, [0]), (1, [1]), (2048, [2048]), (2049, [2049]), (2050, [2048, 2]),
        (4097, [2048, 2049]), (25_400, [2048] * 12 + [824]),
    ])
    def test_blocks_of_at_most_2048_rows_with_a_one_row_tail_folded(self, monkeypatch,
                                                                   rows, blocks):
        seen = []
        forward = MlpPredictor._forward

        def spy(self, X, *args):
            seen.append(len(X))
            return forward(self, X, *args)

        monkeypatch.setattr(MlpPredictor, "_forward", spy)
        m = cli_shaped_mlp(8)
        X = np.zeros((rows, 8))
        m.predict_proba_batch(X)
        m.gradient_batch(X)
        # forward, then gradient; only a block that took in a one-row tail exceeds 2,048
        assert seen == blocks * 2

    def test_kernel_shapley_composite_is_one_batch_call(self, monkeypatch):
        calls = []
        batch = MlpPredictor.predict_proba_batch

        def spy(self, X):
            calls.append(len(X))
            return batch(self, X)

        monkeypatch.setattr(MlpPredictor, "predict_proba_batch", spy)
        d = generate_synthetic(SyntheticSpec(nu=150, n_features=8, seed=0))
        explain_kernel_shapley(cli_shaped_mlp(8), d.features[0], d,
                               ExplainerConfig(kind="kernel-shapley"))
        assert calls == [100, 1, 25_400]  # background, the row, 254 coalitions x 100

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 8)], ids=["one-d", "three-d"])
    def test_batch_of_wrong_rank_rejected(self, shape):
        m = cli_shaped_mlp(8)
        for query in (m.predict_proba_batch, m.gradient_batch):
            with pytest.raises(ValueError, match="dimension mismatch: model takes 8 features"):
                query(np.zeros(shape))
