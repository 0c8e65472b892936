import json

import numpy as np
import pytest

import axebench.experiments as experiments
from axebench.axe import AxeConfig, axe_quality
from axebench.core import Dataset
from axebench.experiments import (DetectionVerdict, RegionGridSpec,
                                  build_attack_bundle, load_verdicts,
                                  run_fairwash_detection, run_principle_suite,
                                  run_region_grid, standard_model_set,
                                  write_region_grid, write_verdicts)
from axebench.explainers import make_manual_explanations
from axebench.metrics_reference import REFERENCE_METRICS
from axebench.metrics_sensitivity import (PerturbConfig, perturbed_index_sets,
                                          sensitivity_quality_report)

from conftest import assert_matches_oracle


# ---------------------------------------------------------------------------
# Region grids


@pytest.fixture(scope="module")
def result():
    return run_region_grid(RegionGridSpec(resolution=41))


class TestRegionGrid:
    def test_dominant_positive_region_scores_one(self, result):
        axis = result.axis
        for metric in ("ra", "sa", "sra"):
            grid = result.grids[metric]
            for i, a in enumerate(axis):
                for j, b in enumerate(axis):
                    if a > b > 0:
                        assert grid[i, j] == 1.0

    def test_value_sets_are_small(self, result):
        assert set(result.value_sets["ra"]) <= {0.0, 0.5, 1.0}
        assert set(result.value_sets["sa"]) <= {0.0, 0.5, 1.0}
        assert set(result.value_sets["sra"]) <= {0.0, 0.5, 1.0}
        assert result.value_sets["fa"] == [1.0]

    def test_reference_swap_within_region_changes_nothing(self):
        a = run_region_grid(RegionGridSpec(e_star=(0.7, 0.3), resolution=31))
        b = run_region_grid(RegionGridSpec(e_star=(0.5, 0.3), resolution=31))
        for metric in a.grids:
            assert np.array_equal(a.grids[metric], b.grids[metric])

    def test_axis_swap_symmetry(self):
        a = run_region_grid(RegionGridSpec(e_star=(0.7, 0.3), resolution=21))
        b = run_region_grid(RegionGridSpec(e_star=(0.3, 0.7), resolution=21))
        for metric in a.grids:
            assert np.array_equal(a.grids[metric], b.grids[metric].T)

    @pytest.mark.parametrize("e_star", [(0.3, -0.3), (0.5, 0.5), (0.0, 0.4)])
    def test_matches_per_cell_oracles(self, e_star):
        spec = RegionGridSpec(e_star=e_star, resolution=15, metrics=tuple(REFERENCE_METRICS))
        result = run_region_grid(spec)
        for metric in REFERENCE_METRICS:
            grid = result.grids[metric]
            assert grid.shape == (15, 15)
            for i, a in enumerate(result.axis):
                for j, b in enumerate(result.axis):
                    assert_matches_oracle(metric, grid[i, j], [a, b], list(e_star), spec.n)

    def test_written_files(self, result, tmp_path):
        files = write_region_grid(result, tmp_path)
        names = {f.name for f in files}
        assert names == {"region_fa.tsv", "region_ra.tsv", "region_sa.tsv",
                         "region_sra.tsv", "region_pra.tsv", "region_summary.json"}
        header = (tmp_path / "region_ra.tsv").read_text().split("\n")[0]
        assert header == "i1\ti2\tmetric\tq"
        summary = json.loads((tmp_path / "region_summary.json").read_text())
        assert summary["cardinalities"]["ra"] <= 3

    def test_written_cells_parse_as_the_grid(self, tmp_path):
        spec = RegionGridSpec(e_star=(0.5, 0.5), resolution=9, metrics=tuple(REFERENCE_METRICS))
        result = run_region_grid(spec)
        write_region_grid(result, tmp_path)
        for metric, grid in result.grids.items():
            lines = (tmp_path / f"region_{metric}.tsv").read_text().splitlines()[1:]
            assert len(lines) == grid.size
            for line, (i, j) in zip(lines, np.ndindex(grid.shape)):
                i1, i2, name, q = line.split("\t")
                assert name == metric
                assert [float(i1), float(i2)] == [result.axis[i], result.axis[j]]
                assert np.array_equal(float(q), grid[i, j], equal_nan=True)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RegionGridSpec(e_star=(0.7,))
        with pytest.raises(ValueError):
            RegionGridSpec(resolution=2)
        with pytest.raises(ValueError):
            RegionGridSpec(metrics=("fa", "nope"))


# ---------------------------------------------------------------------------
# Fairwash detection on a small grid-structured dataset (fast path for unit
# tests; the full ten-row sweep lives in the acceptance suite).


def small_attack_dataset(nu=240, seed=0):
    rng = np.random.default_rng(seed)
    raw = np.column_stack([
        rng.integers(0, 3, nu), rng.integers(0, 5, nu),
        (rng.random(nu) < 0.6).astype(float),  # protected
        rng.integers(0, 2, nu), rng.integers(0, 2, nu),  # foils
        rng.integers(0, 4, nu),
    ]).astype(float)
    features = (raw - raw.mean(0)) / raw.std(0)
    return Dataset(features=features,
                   feature_names=("c0", "c1", "prot", "foil_a", "foil_b", "c5"),
                   labels=(features[:, 2] > 0).astype(int),
                   protected_index=2, foil_indices=(3, 4), dataset_id="small-attack")


@pytest.fixture(scope="module")
def small_bundle():
    return build_attack_bundle(small_attack_dataset(),
                               standard_model_set(100, 1.0, 0.8, two_foils=True))


@pytest.fixture(scope="module")
def small_verdicts(small_bundle):
    return run_fairwash_detection(
        small_bundle, axe_cfgs=(AxeConfig(n=1, k=5),),
        perturb_cfg=PerturbConfig(n=1, num_perturbations=25, seed=0))


class TestAttackBundle:
    def test_model_roster(self, small_bundle):
        assert set(small_bundle.models) == {"m_L1", "m_S1", "m_L2", "m_S2"}
        assert small_bundle.model_foils["m_L1"] == (3,)
        assert small_bundle.model_foils["m_S2"] == (3, 4)

    def test_other_indices_exclude_used_foils_only(self, small_bundle):
        assert small_bundle.other_indices("m_L1") == [0, 1, 4, 5]
        assert small_bundle.other_indices("m_L2") == [0, 1, 5]

    def test_missing_protected_column_rejected(self):
        d = small_attack_dataset()
        bare = Dataset(features=d.features, feature_names=d.feature_names,
                       labels=d.labels, dataset_id="bare")
        with pytest.raises(ValueError, match="protected"):
            build_attack_bundle(bare, standard_model_set(1, 1.0, 0.8, False))

    def test_insufficient_foils_rejected(self):
        d = small_attack_dataset()
        one_foil = Dataset(features=d.features, feature_names=d.feature_names,
                           labels=d.labels, protected_index=2, foil_indices=(3,),
                           dataset_id="one-foil")
        with pytest.raises(ValueError, match="foil"):
            build_attack_bundle(one_foil, standard_model_set(1, 1.0, 0.8, True))


class TestDetection:
    def test_verdict_table_shape(self, small_verdicts):
        by_metric = {}
        for v in small_verdicts:
            by_metric.setdefault(v.metric_name, []).append(v)
        assert {m: len(vs) for m, vs in by_metric.items()} == {"axe": 4, "pgi": 4, "pgu": 4}

    def test_axe_detects_on_every_model(self, small_verdicts):
        for v in small_verdicts:
            if v.metric_name == "axe":
                assert v.passed
                assert v.q_protected >= 0.9

    def test_missing_second_foil_is_none_not_zero(self, small_verdicts):
        for v in small_verdicts:
            if v.model_name in ("m_L1", "m_S1"):
                assert v.q_foil2 is None
            else:
                assert v.q_foil2 is not None

    def test_pass_flags_recomputable(self, small_verdicts):
        for v in small_verdicts:
            assert v.recomputed_pass() == v.passed

    def test_verdict_file_roundtrip(self, small_verdicts, tmp_path):
        write_verdicts(small_verdicts, tmp_path / "v.json")
        back = load_verdicts(tmp_path / "v.json")
        assert [v.to_dict() for v in back] == [v.to_dict() for v in small_verdicts]

    def test_rerun_is_identical(self, small_bundle, small_verdicts):
        again = run_fairwash_detection(
            small_bundle, axe_cfgs=(AxeConfig(n=1, k=5),),
            perturb_cfg=PerturbConfig(n=1, num_perturbations=25, seed=0))
        assert [v.to_dict() for v in again] == [v.to_dict() for v in small_verdicts]

    def test_compute_pass_semantics(self):
        assert DetectionVerdict.compute_pass(0.9, 0.5, None)
        assert DetectionVerdict.compute_pass(0.9, 0.5, 0.8)
        assert not DetectionVerdict.compute_pass(0.9, 0.9, None)  # strict inequality
        assert not DetectionVerdict.compute_pass(0.9, 0.5, 0.9)

    def test_seed_sweep_shifts_values_keeps_ordering(self, small_verdicts):
        # fresh detectors from another seed: q values move, detection holds
        other = build_attack_bundle(small_attack_dataset(),
                                    standard_model_set(4242, 1.0, 0.8, two_foils=True))
        verdicts = run_fairwash_detection(
            other, axe_cfgs=(AxeConfig(n=1, k=5),),
            perturb_cfg=PerturbConfig(n=1, num_perturbations=25, seed=0))
        axe_new = {v.model_name: v for v in verdicts if v.metric_name == "axe"}
        assert all(v.passed for v in axe_new.values())
        # the rebuilt detectors answer jittered points differently, so the
        # perturbation-based scores move even though detection still holds
        pgi_new = {v.model_name: v.q_foil1 for v in verdicts if v.metric_name == "pgi"}
        pgi_old = {v.model_name: v.q_foil1 for v in small_verdicts
                   if v.metric_name == "pgi"}
        assert any(pgi_new[m] != pgi_old[m] for m in pgi_new)


def unmemoised_values(bundle, score):
    """(q_protected, q_foil1, q_foil2, q_other) per model, every one-hot set scored afresh."""
    d = bundle.dataset
    out = {}
    for model_name, model in bundle.models.items():
        foils = bundle.model_foils[model_name]
        q = {f: score(model, make_manual_explanations(d, f)) for f in range(d.n_features)}
        out[model_name] = (q[bundle.protected_index], q[foils[0]],
                           q[foils[1]] if len(foils) > 1 else None,
                           float(np.mean([q[f] for f in bundle.other_indices(model_name)])))
    return out


def verdict_values(verdicts, metric):
    return {v.model_name: (v.q_protected, v.q_foil1, v.q_foil2, v.q_other)
            for v in verdicts if v.metric_name == metric}


class TestDetectionScoring:
    CFG = PerturbConfig(n=1, num_perturbations=25, seed=0)

    def test_threads_give_the_serial_verdicts(self, small_bundle, small_verdicts):
        threaded = run_fairwash_detection(small_bundle, axe_cfgs=(AxeConfig(n=1, k=5),),
                                          perturb_cfg=self.CFG, jobs=2)
        assert [v.to_dict() for v in threaded] == [v.to_dict() for v in small_verdicts]

    @pytest.mark.parametrize("metric", ["pgi", "pgu"])
    def test_memo_matches_one_report_per_set(self, small_bundle, small_verdicts, metric):
        d = small_bundle.dataset
        reference = unmemoised_values(small_bundle, lambda model, expls: (
            sensitivity_quality_report(metric, model, d, expls, self.CFG).aggregate_q))
        assert verdict_values(small_verdicts, metric) == reference

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_distinct_index_set_is_scored_once(self, small_bundle, monkeypatch, jobs):
        calls = []

        def counting(metric_name, m, d, explanations, cfg):
            sets = perturbed_index_sets(metric_name, explanations, cfg.n)
            calls.append((id(m), metric_name, sets.tobytes()))
            return sensitivity_quality_report(metric_name, m, d, explanations, cfg)

        monkeypatch.setattr(experiments, "sensitivity_quality_report", counting)
        run_fairwash_detection(small_bundle, perturb_cfg=self.CFG, jobs=jobs)
        # per model: six one-hot PGI sets, and PGU's bottom feature is 0, or 1 for the set on 0
        assert len(calls) == len(set(calls)) == 4 * (6 + 2)

    def test_axe_other_column_uses_top_n_subsets(self, small_bundle):
        """At n=2 a one-hot explanation's top-2 adds the lowest-index zero feature;
        the other column must score that subset, as the protected and foil columns do."""
        d = small_bundle.dataset
        cfg = AxeConfig(n=2, k=5)
        verdicts = run_fairwash_detection(small_bundle, axe_cfgs=(cfg,), perturb_cfg=self.CFG)
        reference = unmemoised_values(small_bundle, lambda model, expls: axe_quality(
            d, model.predict_batch(d.features), expls, cfg).aggregate_q)
        assert verdict_values(verdicts, "axe") == reference


# ---------------------------------------------------------------------------
# Principle audits


EXPECTED_MATRIX = {
    "axe": ("pass", "pass", "pass"),
    "fa": ("fail", "fail", "pass"),
    "ra": ("fail", "fail", "pass"),
    "sa": ("fail", "fail", "pass"),
    "sra": ("fail", "fail", "pass"),
    "rc": ("fail", "fail", "pass"),
    "pra": ("fail", "fail", "pass"),
    "pgi": ("pass", "pass", "fail"),
    "pgu": ("pass", "pass", "fail"),
}


class TestPrinciples:
    @pytest.mark.parametrize("metric,expected", sorted(EXPECTED_MATRIX.items()))
    def test_matrix_row(self, metric, expected):
        result = run_principle_suite(metric, seed=0)
        got = (result["local_contextualization"]["verdict"],
               result["model_relativism"]["verdict"],
               result["on_manifold_evaluation"]["verdict"])
        assert got == expected

    def test_witnesses_are_concrete(self):
        result = run_principle_suite("axe", seed=0)
        w = result["local_contextualization"]["witness"]
        assert w["q_low"] != w["q_high"]
        assert json.dumps(result)  # witnesses must serialize

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            run_principle_suite("dice")
