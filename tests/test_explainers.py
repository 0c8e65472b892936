import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axebench import explainers
from axebench.axe import AxeConfig, axe_quality
from axebench.core import Dataset, row_seed, top_n_features
from axebench.data import SyntheticSpec, generate_synthetic
from axebench.explainers import (ExplainerConfig, explain_dataset,
                                 explain_gradient, explain_integrated_gradients,
                                 explain_kernel_shapley, explain_local_surrogate,
                                 load_explanations_csv, load_explanations_json,
                                 make_manual_explanations, save_explanations_csv,
                                 save_explanations_json)
from axebench.models import (LinearModelSpec, MlpSpec, RuleModelSpec,
                             make_linear_predictor, make_rule_predictor, train_mlp)

from conftest import AdditiveProbaPredictor, AffineProbaPredictor, ConstantPredictor
from oracles import kernel_shapley_oracle, shapley_exhaustive


class TestGradient:
    def test_linear_model_gradient_tracks_largest_coefficient(self):
        m = make_linear_predictor(LinearModelSpec((0.7, 0.3)))
        rng = np.random.default_rng(0)
        for x in rng.normal(size=(25, 2)):
            e = explain_gradient(m, x)
            assert np.argmax(np.abs(e.importances)) == 0

    def test_constant_model_zero_vector(self):
        e = explain_gradient(ConstantPredictor(0.4), np.zeros(3))
        assert np.array_equal(e.importances, np.zeros(3))

    def test_rule_model_has_no_gradient(self):
        m = make_rule_predictor(RuleModelSpec(0))
        with pytest.raises(ValueError, match="gradient not supported"):
            explain_gradient(m, np.zeros(2))


class TestIntegratedGradients:
    def test_completeness_on_smooth_model(self, small_threshold_data):
        m = train_mlp(small_threshold_data, MlpSpec(hidden_sizes=(8,), epochs=200, seed=2))
        cfg = ExplainerConfig(kind="integrated-gradients", ig_steps=256)
        x = small_threshold_data.features[7]
        e = explain_integrated_gradients(m, x, cfg)
        gap = m.predict_proba(x) - m.predict_proba(np.zeros_like(x))
        assert abs(e.importances.sum() - gap) < 1e-3

    def test_baseline_equals_input_gives_zero(self):
        m = make_linear_predictor(LinearModelSpec((0.5, -0.2)))
        x = np.array([0.3, 0.9])
        cfg = ExplainerConfig(kind="integrated-gradients", baseline=x, ig_steps=16)
        e = explain_integrated_gradients(m, x, cfg)
        assert np.array_equal(e.importances, np.zeros(2))

    def test_exact_for_affine_probability_any_step_count(self):
        m = AffineProbaPredictor([0.08, -0.05], intercept=0.5)
        x = np.array([0.7, 1.2])
        for steps in (1, 3, 17):
            cfg = ExplainerConfig(kind="integrated-gradients", ig_steps=steps)
            e = explain_integrated_gradients(m, x, cfg)
            assert np.allclose(e.importances, m.slopes * x, atol=1e-12)

    @staticmethod
    def sequential(m, x, baseline, steps):
        """The running sum of one-row gradient calls along the midpoint path."""
        grads = np.zeros_like(x)
        for t in (np.arange(steps) + 0.5) / steps:
            grads += m.gradient(baseline + t * (x - baseline))
        return (x - baseline) * grads / steps

    def test_batched_path_equals_sequential_sum_exactly_on_affine(self):
        # a -0.0 slope: the running sum starts from +0.0, so that feature scores +0.0
        m = AffineProbaPredictor([0.08, -0.05, -0.0], intercept=0.5)
        x, baseline = np.array([0.7, 1.2, -0.4]), np.array([0.1, 0.0, 0.3])
        for steps in (1, 2, 17, 64):
            cfg = ExplainerConfig(kind="integrated-gradients", ig_steps=steps, baseline=baseline)
            e = explain_integrated_gradients(m, x, cfg).importances
            assert e.tobytes() == self.sequential(m, x, baseline, steps).tobytes()

    def test_steps_are_summed_in_path_order(self):
        class Wavy(AffineProbaPredictor):  # elementwise gradient: a batch row is its own call
            def gradient(self, x):
                return np.sin(7.0 * np.asarray(x))

            def gradient_batch(self, X):
                return np.sin(7.0 * np.asarray(X))

        m = Wavy([0.0, 0.0, 0.0])
        x = np.array([0.7, 1.3, -0.4])
        for steps in (3, 64):
            cfg = ExplainerConfig(kind="integrated-gradients", ig_steps=steps)
            e = explain_integrated_gradients(m, x, cfg).importances
            assert e.tobytes() == self.sequential(m, x, np.zeros(3), steps).tobytes()

    def test_batched_path_within_1e15_of_sequential_sum_on_mlp(self, small_threshold_data):
        d = small_threshold_data
        m = train_mlp(d, MlpSpec(hidden_sizes=(8, 4), epochs=50, seed=3))
        for steps in (1, 5, 64):
            cfg = ExplainerConfig(kind="integrated-gradients", ig_steps=steps)
            for x in d.features[:20]:
                e = explain_integrated_gradients(m, x, cfg).importances
                ref = self.sequential(m, x, np.zeros_like(x), steps)
                assert np.max(np.abs(e - ref)) <= 1e-15
                if steps == 1:  # a one-row path is the scalar gradient itself
                    assert e.tobytes() == ref.tobytes()

    def test_gradient_required(self):
        m = make_rule_predictor(RuleModelSpec(0))
        cfg = ExplainerConfig(kind="integrated-gradients")
        with pytest.raises(ValueError, match="gradient not supported"):
            explain_integrated_gradients(m, np.zeros(2), cfg)


@pytest.fixture(scope="module")
def surrogate_background():
    return generate_synthetic(SyntheticSpec(nu=50, n_features=3, seed=4))


@pytest.fixture(scope="module")
def shapley_background():
    # background size >= nu makes the background the full dataset,
    # so the oracle shares the exact value function
    return generate_synthetic(SyntheticSpec(nu=40, n_features=6, seed=8))


class TestLocalSurrogate:
    def test_recovers_affine_slopes(self, surrogate_background):
        m = AffineProbaPredictor([0.06, -0.04, 0.02], intercept=0.5)
        cfg = ExplainerConfig(kind="local-surrogate", samples=2000, sigma_perturb=0.5, seed=5)
        e = explain_local_surrogate(m, np.zeros(3), surrogate_background, cfg)
        rel = np.abs(e.importances - m.slopes) / np.abs(m.slopes)
        assert np.all(rel < 0.05)

    def test_degenerate_sampling_flagged_near_zero(self, surrogate_background):
        m = AffineProbaPredictor([0.06, -0.04, 0.02])
        cfg = ExplainerConfig(kind="local-surrogate", samples=100, sigma_perturb=1e-12, seed=6)
        e = explain_local_surrogate(m, np.zeros(3), surrogate_background, cfg)
        assert np.all(np.abs(e.importances) < 1e-6)
        assert "degenerate" in e.explainer_tag or "ridge-floor" in e.explainer_tag

    def test_same_seed_identical(self, surrogate_background):
        m = AffineProbaPredictor([0.06, -0.04, 0.02])
        cfg = ExplainerConfig(kind="local-surrogate", samples=200, seed=7)
        a = explain_local_surrogate(m, np.zeros(3), surrogate_background, cfg)
        b = explain_local_surrogate(m, np.zeros(3), surrogate_background, cfg)
        assert np.array_equal(a.importances, b.importances)

    def test_sample_floor(self, surrogate_background):
        cfg = ExplainerConfig(kind="local-surrogate", samples=4, seed=0)
        with pytest.raises(ValueError, match="samples"):
            explain_local_surrogate(AffineProbaPredictor([0.1, 0.1, 0.1]),
                                    np.zeros(3), surrogate_background, cfg)


class TestKernelShapley:
    def _value_fn(self, m, x, shapley_background):
        X = shapley_background.features

        def value(coalition):
            comp = X.copy()
            for f in coalition:
                comp[:, f] = x[f]
            return float(m.predict_proba_batch(comp).mean())

        return value

    def test_matches_exhaustive_shapley_additive_model(self, shapley_background):
        m = AdditiveProbaPredictor([
            lambda v: 0.05 * v, lambda v: -0.04 * v, lambda v: 0.03 * np.tanh(v),
            lambda v: 0.02 * v, lambda v: 0.01 * np.sign(v) * 0 + 0.02 * v, lambda v: 0.0 * v,
        ], intercept=0.5)
        x = shapley_background.features[3]
        cfg = ExplainerConfig(kind="kernel-shapley", samples=1000, seed=9,
                              background_size=shapley_background.nu)
        e = explain_kernel_shapley(m, x, shapley_background, cfg)
        phi = shapley_exhaustive(self._value_fn(m, x, shapley_background), 6)
        assert np.max(np.abs(e.importances - phi)) < 0.05

    def test_dummy_feature_gets_zero(self, shapley_background):
        m = make_rule_predictor(RuleModelSpec(2, 0.0, True))
        x = shapley_background.features[0]
        cfg = ExplainerConfig(kind="kernel-shapley", samples=1000, seed=10,
                              background_size=shapley_background.nu)
        e = explain_kernel_shapley(m, x, shapley_background, cfg)
        for f in range(6):
            if f != 2:
                assert abs(e.importances[f]) < 0.02

    def test_efficiency_constraint_active(self, shapley_background):
        m = make_linear_predictor(LinearModelSpec((0.4, -0.3, 0.2, 0.1, 0.05, -0.02)))
        x = shapley_background.features[5]
        cfg = ExplainerConfig(kind="kernel-shapley", samples=600, seed=11,
                              background_size=shapley_background.nu)
        e = explain_kernel_shapley(m, x, shapley_background, cfg)
        base = m.predict_proba_batch(shapley_background.features).mean()
        assert abs(e.importances.sum() - (m.predict_proba(x) - base)) < 1e-6

    def test_symmetry_for_identical_features(self):
        rng = np.random.default_rng(12)
        col = rng.normal(size=60)
        features = np.column_stack([col, col, rng.normal(size=60)])
        from axebench.core import Dataset
        d = Dataset(features=features, feature_names=("a", "b", "c"))
        m = AffineProbaPredictor([0.05, 0.05, -0.03])
        cfg = ExplainerConfig(kind="kernel-shapley", samples=500, seed=13,
                              background_size=d.nu)
        e = explain_kernel_shapley(m, d.features[4], d, cfg)
        assert abs(e.importances[0] - e.importances[1]) < 0.05

    def test_sampled_path_close_on_additive_model(self):
        d = generate_synthetic(SyntheticSpec(nu=60, n_features=10, seed=14))
        slopes = np.array([0.05, -0.04, 0.03, 0.02, -0.02, 0.015, -0.01, 0.01, 0.005, -0.005])
        m = AffineProbaPredictor(slopes)
        x = d.features[0]
        cfg = ExplainerConfig(kind="kernel-shapley", samples=600, seed=15,
                              background_size=d.nu)
        e = explain_kernel_shapley(m, x, d, cfg)  # 2^10 - 2 > samples: sampling kicks in
        exact = slopes * (x - d.features.mean(axis=0))  # additive game closed form
        assert np.max(np.abs(e.importances - exact)) < 0.05

    def test_sample_floor(self, shapley_background):
        cfg = ExplainerConfig(kind="kernel-shapley", samples=5, seed=0)
        with pytest.raises(ValueError, match="samples"):
            explain_kernel_shapley(AffineProbaPredictor([0.1] * 6),
                                   np.zeros(6), shapley_background, cfg)

    def test_same_seed_identical(self, shapley_background):
        m = AffineProbaPredictor([0.05, -0.04, 0.03, 0.02, -0.01, 0.01])
        cfg = ExplainerConfig(kind="kernel-shapley", samples=200, seed=21,
                              background_size=20)
        x = shapley_background.features[1]
        a = explain_kernel_shapley(m, x, shapley_background, cfg)
        b = explain_kernel_shapley(m, x, shapley_background, cfg)
        assert np.array_equal(a.importances, b.importances)

    def test_enumerated_coalitions_are_built_once_read_only(self, shapley_background,
                                                           monkeypatch):
        triple = explainers._coalition_masks(6, 1000, rng=None)
        assert all(a is b for a, b in zip(explainers._coalition_masks(6, 62, rng=None), triple))
        masks, design, sw = triple
        assert masks.shape == (62, 6) and design.shape == (62, 5) and sw.shape == (62,)
        for array in triple:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        m = AffineProbaPredictor([0.05, -0.04, 0.03, 0.02, -0.01, 0.01])
        cfg = ExplainerConfig(kind="kernel-shapley", samples=200, seed=22,
                              background_size=20)
        x = shapley_background.features[2]
        shared = explain_kernel_shapley(m, x, shapley_background, cfg).importances

        def per_row(n):  # a fresh enumeration for every call
            masks = np.array([[(bits >> j) & 1 for j in range(n)] for bits in range(1, 2**n - 1)],
                             dtype=float)
            sw = np.sqrt([explainers._kernel_weight(n, int(s)) for s in masks.sum(axis=1)])
            return masks, (masks[:, :-1] - masks[:, -1:]) * sw[:, None], sw

        monkeypatch.setattr(explainers, "_all_coalitions", per_row)
        fresh = explain_kernel_shapley(m, x, shapley_background, cfg).importances
        assert np.array_equal(fresh, shared)


class TestManual:
    def test_one_hot_everywhere(self, small_threshold_data):
        expls = make_manual_explanations(small_threshold_data, 2)
        assert len(expls) == small_threshold_data.nu
        assert expls.explainer_tag == f"manual[{small_threshold_data.feature_names[2]}]"
        for row in expls:
            assert top_n_features(row, 1) == [2]
            assert row.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_index_validated(self, small_threshold_data):
        with pytest.raises(ValueError):
            make_manual_explanations(small_threshold_data, 99)


class TestRankSignRecovery:
    def test_all_explainers_agree_on_dominant_positive_features(self):
        """For a two-feature model with b1 > b2 > 0, every family puts the
        explanation in the i1 > i2 > 0 region at a suitable probe point."""
        d = generate_synthetic(SyntheticSpec(nu=80, n_features=2, seed=16))
        m = make_linear_predictor(LinearModelSpec((0.9, 0.4)))
        x = np.array([0.8, 0.8])
        results = {
            "gradient": explain_gradient(m, x).importances,
            "integrated-gradients": explain_integrated_gradients(
                m, x, ExplainerConfig(kind="integrated-gradients", ig_steps=64)).importances,
            "local-surrogate": explain_local_surrogate(
                m, x, d, ExplainerConfig(kind="local-surrogate", samples=1500, seed=17)).importances,
            "kernel-shapley": explain_kernel_shapley(
                m, x, d, ExplainerConfig(kind="kernel-shapley", samples=400, seed=18,
                                         background_size=d.nu)).importances,
        }
        for kind, imp in results.items():
            assert imp[0] > imp[1] > 0, f"{kind} left the expected region: {imp}"


class TestDatasetExplanationsAndIO:
    def test_order_independent_of_jobs(self, small_threshold_data):
        d = small_threshold_data
        m = make_linear_predictor(LinearModelSpec((0.5, -0.2, 0.1, 0.05)))
        cfg = ExplainerConfig(kind="local-surrogate", samples=60, seed=19)
        serial = explain_dataset(m, d, cfg)
        # row i of the set explains dataset row i under row seed i
        for i in (0, 1, d.nu - 1):
            row = explain_local_surrogate(m, d.features[i], d, cfg.with_seed(row_seed(19, i)))
            assert np.array_equal(serial.importances[i], row.importances)

    def test_csv_roundtrip(self, tmp_path, small_threshold_data):
        expls = make_manual_explanations(small_threshold_data, 1)
        path = tmp_path / "e.csv"
        save_explanations_csv(expls, path, small_threshold_data.feature_names)
        back = load_explanations_csv(path, small_threshold_data.feature_names)
        assert len(back) == len(expls)
        assert np.array_equal(back.importances, expls.importances)

    def test_json_roundtrip(self, tmp_path, small_threshold_data):
        expls = make_manual_explanations(small_threshold_data, 0)
        path = tmp_path / "e.json"
        save_explanations_json(expls, path)
        back = load_explanations_json(path)
        assert back.explainer_tag == expls.explainer_tag
        assert np.array_equal(back.importances, expls.importances)

    @pytest.mark.parametrize("save,load", [(save_explanations_csv, load_explanations_csv),
                                           (save_explanations_json, load_explanations_json)])
    def test_save_load_save_is_byte_identical(self, tmp_path, small_threshold_data, save, load):
        m = make_linear_predictor(LinearModelSpec((0.5, -0.2, 0.1, 0.05)))
        cfg = ExplainerConfig(kind="kernel-shapley", samples=30, seed=4, background_size=10)
        expls = explain_dataset(m, small_threshold_data, cfg)
        first, second = tmp_path / "first", tmp_path / "second"
        save(expls, first)
        names = small_threshold_data.feature_names  # f0..f3, the header a CSV save writes
        back = load(first, names) if load is load_explanations_csv else load(first)
        assert np.array_equal(back.importances, expls.importances)
        save(back, second)
        assert first.read_bytes() == second.read_bytes()

    def test_rows_with_different_tags_make_a_mixed_set(self):
        d = generate_synthetic(SyntheticSpec(nu=12, n_features=3, seed=2))
        m = make_linear_predictor(LinearModelSpec((0.5, -0.2, 0.1)))
        # noise this small leaves some rows' samples within 1e-8 of the row
        cfg = ExplainerConfig(kind="local-surrogate", samples=5, sigma_perturb=5e-9, seed=3)
        tags = {explain_local_surrogate(m, x, d, cfg.with_seed(row_seed(3, i))).explainer_tag
                for i, x in enumerate(d.features)}
        assert tags == {"local-surrogate", "local-surrogate[degenerate-sampling]"}
        expls = explain_dataset(m, d, cfg)
        assert expls.explainer_tag == "mixed"
        report = axe_quality(d, m.predict_batch(d.features), expls, AxeConfig(n=1, k=3))
        assert report.explainer_tag == "mixed"


def test_manual_is_not_a_dataset_explainer_kind():
    # manual sets come from make_manual_explanations (--manual-index), not explain_dataset
    with pytest.raises(ValueError, match="unknown explainer kind"):
        ExplainerConfig(kind="manual")


@pytest.mark.parametrize("field, value", [
    ("background_size", 0), ("background_size", -3), ("sigma_perturb", -1.0),
    ("sigma_perturb", float("nan")), ("sigma_perturb", float("inf")),
])
def test_config_refuses_outside_values(field, value):
    with pytest.raises(ValueError, match=field):
        ExplainerConfig(kind="kernel-shapley", **{field: value})


def test_zero_sigma_is_degenerate_sampling():
    d = generate_synthetic(SyntheticSpec(nu=20, n_features=3, seed=5))
    m = make_linear_predictor(LinearModelSpec((0.5, -0.2, 0.1)))
    cfg = ExplainerConfig(kind="local-surrogate", samples=20, sigma_perturb=0.0, seed=1)
    e = explain_local_surrogate(m, d.features[0], d, cfg)
    assert e.explainer_tag == "local-surrogate[degenerate-sampling]"


def test_with_seed_keeps_every_other_field():
    cfg = ExplainerConfig(kind="kernel-shapley", samples=7, sigma_perturb=0.2,
                          baseline=np.ones(3), ig_steps=5, seed=1, background_size=9)
    local = cfg.with_seed(42)
    assert local.seed == 42
    for f in dataclasses.fields(ExplainerConfig):
        if f.name != "seed":
            assert getattr(local, f.name) is getattr(cfg, f.name)


def correlated_foil(nu, n_features, seed):
    return generate_synthetic(SyntheticSpec(nu=nu, n_features=n_features, seed=seed,
                                            generator_kind="correlated-foil"))


def shapley_rows_standalone(m, d, cfg):
    """Every row explained by its own explain_kernel_shapley call, each with a
    freshly allocated composite."""
    return np.array([explain_kernel_shapley(m, d.features[i], d,
                                            cfg.with_seed(row_seed(cfg.seed, i))).importances
                     for i in range(d.nu)])


class TestKernelShapleyWorkspace:
    @pytest.mark.parametrize("n_features, samples, nu, background_size", [
        (6, 1000, 30, 12),    # enumerated coalitions, background drawn from the rows
        (10, 50, 25, 8),      # sampled coalitions
        (6, 1000, 9, 100),    # nu < background_size: the background is every row
    ], ids=["enumerated", "sampled", "nu-below-background"])
    def test_dataset_rows_bit_equal_to_standalone_calls(self, n_features, samples, nu,
                                                        background_size):
        d = correlated_foil(nu, n_features, seed=6)
        model = train_mlp(d, MlpSpec(hidden_sizes=(6,), epochs=30, seed=1))
        cfg = ExplainerConfig(kind="kernel-shapley", samples=samples, seed=31,
                              background_size=background_size)
        rows = explain_dataset(model, d, cfg).importances
        assert np.array_equal(rows.view(np.int64),
                              shapley_rows_standalone(model, d, cfg).view(np.int64))

    def test_one_composite_per_dataset_call(self, monkeypatch):
        d = correlated_foil(20, 6, seed=2)
        model = train_mlp(d, MlpSpec(hidden_sizes=(4,), epochs=20, seed=0))
        seen = []
        original = explainers._buffer

        def spy(workspace, shape):
            seen.append(original(workspace, shape))
            return seen[-1]

        monkeypatch.setattr(explainers, "_buffer", spy)
        cfg = ExplainerConfig(kind="kernel-shapley", samples=100, seed=3, background_size=10)
        explain_dataset(model, d, cfg)
        explain_dataset(model, d, cfg)
        assert len(seen) == 2 * d.nu
        assert seen[0].shape == (63, 10, 6)  # the empty coalition, then 62 coalitions
        # one array for every row of a call, and a new one for the next call
        assert all(b is seen[0] for b in seen[: d.nu])
        assert all(b is seen[d.nu] for b in seen[d.nu:]) and seen[d.nu] is not seen[0]
        explain_kernel_shapley(model, d.features[0], d, cfg)
        assert seen[-1] is not seen[0] and seen[-1] is not seen[d.nu]
        # sampled masks: the distinct ones fill a prefix of the same one array per call
        wide = correlated_foil(20, 10, seed=2)
        model = train_mlp(wide, MlpSpec(hidden_sizes=(4,), epochs=20, seed=0))
        seen.clear()
        explain_dataset(model, wide, cfg)
        assert len(seen) == wide.nu and all(b is seen[0] for b in seen)
        assert seen[0].shape == (101, 10, 10)

    def test_back_to_back_calls_of_different_width(self):
        runs = []
        for n_features, samples in ((6, 1000), (10, 60), (6, 1000)):
            d = correlated_foil(24, n_features, seed=n_features)
            model = train_mlp(d, MlpSpec(hidden_sizes=(5,), epochs=20, seed=2))
            cfg = ExplainerConfig(kind="kernel-shapley", samples=samples, seed=8,
                                  background_size=10)
            runs.append((explain_dataset(model, d, cfg).importances,
                         shapley_rows_standalone(model, d, cfg)))
        for rows, standalone in runs:
            assert np.array_equal(rows.view(np.int64), standalone.view(np.int64))
        assert np.array_equal(runs[0][0], runs[2][0])

    def test_concurrent_calls_equal_sequential(self):
        jobs = []
        # the first two share a composite shape, so a shared array would be raced
        for n_features, samples, seed in ((6, 1000, 11), (6, 1000, 12), (9, 80, 13)):
            d = correlated_foil(30, n_features, seed=seed)
            model = train_mlp(d, MlpSpec(hidden_sizes=(5,), epochs=20, seed=4))
            jobs.append((model, d, ExplainerConfig(kind="kernel-shapley", samples=samples,
                                                   seed=12, background_size=15)))
        sequential = [explain_dataset(*job).importances for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(explain_dataset, *job) for job in jobs * 2]
                concurrent = [f.result(timeout=60).importances for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(concurrent, sequential * 2):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


# values that collide: rounded, duplicated, signed zeros, and x equal to the background
_TIED = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 2.25, -3.0, 1e-300])


@st.composite
def enumeration_case(draw):
    n = draw(st.integers(1, 10))
    pool = draw(st.lists(st.lists(_TIED, min_size=n, max_size=n), min_size=1, max_size=4))
    background = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
    x = np.array(draw(st.one_of(st.sampled_from(pool), st.lists(_TIED, min_size=n,
                                                                max_size=n))))
    return x, background


class TestKernelShapleyComposite:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(enumeration_case())
    def test_doubling_fill_is_the_column_fill(self, case):
        x, background = case
        n, bg = x.size, len(background)
        # row r holds mask r: the empty coalition, then every non-trivial one
        masks = np.vstack([np.zeros(n), explainers._all_coalitions(n)[0]])
        assert np.array_equal(masks, (np.arange(2**n - 1)[:, None] >> np.arange(n)) & 1)
        want = np.empty((masks.shape[0], bg, n))
        want[...] = background
        for j in range(n):
            want[masks[:, j] == 1, :, j] = x[j]
        got = np.full(want.shape, np.nan)  # stale contents must all be overwritten
        explainers._fill_enumerated(got, background, x)
        assert got.tobytes() == want.tobytes()

    def test_one_feature_has_no_coalitions(self):
        d = Dataset(features=np.random.default_rng(3).normal(size=(30, 1)), feature_names=("a",))
        m = AffineProbaPredictor([0.1])
        cfg = ExplainerConfig(kind="kernel-shapley", samples=10, seed=4, background_size=12)
        phi = explain_kernel_shapley(m, d.features[0], d, cfg).importances
        oracle = kernel_shapley_oracle(m.predict_proba_batch, d.features[0], d.features,
                                       10, 12, 4)
        assert phi.shape == (1,) and phi.tobytes() == oracle.tobytes()
        every = dataclasses.replace(cfg, seed=5, background_size=d.nu)  # every row
        phi = explain_kernel_shapley(m, d.features[0], d, every).importances[0]
        v_empty = m.predict_proba_batch(d.features).mean()
        assert phi == pytest.approx(m.predict_proba(d.features[0]) - v_empty, abs=1e-15)

    def test_two_features(self, shapley_background):
        d = Dataset(features=shapley_background.features[:, :2], feature_names=("a", "b"))
        m = make_rule_predictor(RuleModelSpec(1, 0.0, True))
        cfg = ExplainerConfig(kind="kernel-shapley", samples=4, seed=6, background_size=d.nu)
        x = d.features[3]
        phi = explain_kernel_shapley(m, x, d, cfg).importances
        oracle = kernel_shapley_oracle(m.predict_proba_batch, x, d.features, 4, d.nu, 6)
        assert phi.tobytes() == oracle.tobytes()

        def value(coalition):
            comp = d.features.copy()
            for f in coalition:
                comp[:, f] = x[f]
            return float(m.predict_proba_batch(comp).mean())

        assert np.allclose(phi, shapley_exhaustive(value, 2), atol=1e-12)

    @pytest.mark.parametrize("samples", [30, 1000])
    def test_models_bit_equal_to_one_call_per_mask(self, samples):
        d = correlated_foil(40, 12, seed=7)
        models = [train_mlp(d, MlpSpec(hidden_sizes=(8,), epochs=30, seed=1)),
                  make_linear_predictor(LinearModelSpec(tuple(np.linspace(-0.5, 0.5, 12))))]
        cfg = ExplainerConfig(kind="kernel-shapley", samples=samples, seed=3)
        for m in models:
            for i in (0, 17):
                local = cfg.with_seed(row_seed(3, i))
                got = explain_kernel_shapley(m, d.features[i], d, local).importances
                want = kernel_shapley_oracle(m.predict_proba_batch, d.features[i], d.features,
                                             samples, 100, local.seed)
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(10, 12), samples=st.integers(30, 1000),
           background_size=st.integers(5, 20), seed=st.integers(0, 2**32 - 1))
    def test_sampled_masks_bit_equal_to_one_call_per_mask(self, n, samples, background_size,
                                                          seed):
        rng = np.random.default_rng(seed)
        pool = np.round(rng.normal(size=(8, n)), 1)  # duplicated, rounded rows
        features = pool[rng.integers(0, 8, 30)]
        d = Dataset(features=features, feature_names=tuple(f"f{j}" for j in range(n)))
        slopes = np.round(rng.normal(0, 0.05, n), 3)
        m = AdditiveProbaPredictor([lambda v, a=a: a * np.tanh(v) for a in slopes])
        cfg = ExplainerConfig(kind="kernel-shapley", samples=samples, seed=seed,
                              background_size=background_size)
        x = features[rng.integers(0, 30)]
        got = explain_kernel_shapley(m, x, d, cfg).importances
        want = kernel_shapley_oracle(m.predict_proba_batch, x, features, samples,
                                     background_size, seed)
        assert got.tobytes() == want.tobytes()
