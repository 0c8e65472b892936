import json
from dataclasses import asdict

import numpy as np
import pytest

import axebench.experiments as experiments
from axebench import axe
from axebench.axe import AxeConfig, axe_quality
from axebench.core import Dataset
from axebench.data import DatasetSchema
from axebench.experiments import (AttackBundle, DetectionVerdict, RegionGridSpec,
                                  build_attack_bundle, load_verdicts,
                                  run_fairwash_detection, run_principle_suite,
                                  run_region_grid, standard_model_set,
                                  write_region_grid, write_verdicts)
from axebench.explainers import make_manual_explanations
from axebench.metrics_reference import REFERENCE_METRICS
from axebench.metrics_sensitivity import (PerturbConfig, perturbed_index_sets,
                                          sensitivity_quality_report)
from axebench.models import RuleModelSpec, make_rule_predictor

from conftest import assert_matches_oracle
from oracles import region_tsv_oracle


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

    @pytest.mark.parametrize("resolution,rc_nans", [(3, 5), (4, 6), (81, 107)])
    def test_written_files_match_the_per_cell_oracle(self, resolution, rc_nans, tmp_path):
        spec = RegionGridSpec(e_star=(0.7, 0.3), resolution=resolution,
                              metrics=tuple(REFERENCE_METRICS))
        result = run_region_grid(spec)
        assert int(np.isnan(result.grids["rc"]).sum()) == rc_nans
        write_region_grid(result, tmp_path)
        for metric, grid in result.grids.items():
            assert ((tmp_path / f"region_{metric}.tsv").read_bytes()
                    == region_tsv_oracle(result.axis, metric, grid))

    def test_written_cells_keep_every_float_repr(self, tmp_path):
        # signed zeros, infinities, NaNs of other bit patterns and 17-digit values
        # in one grid: each distinct q must keep its own repr
        axis = np.array([-1.0, -0.0, 0.1, 1 / 3])
        other_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
        grid = np.array([[-0.0, 0.0, np.inf, -np.inf],
                         [np.nan, -np.nan, other_nan, 0.1 + 0.2],
                         [2 / 3, 1e-300, 5e-324, -1.7976931348623157e308],
                         [0.0, -0.0, 0.30000000000000004, 0.3]])
        spec = RegionGridSpec(resolution=4, metrics=("fa", "rc"))
        result = experiments.RegionGridResult(
            spec=spec, axis=axis, grids={"fa": grid, "rc": grid.T},
            value_sets={"fa": [], "rc": []})
        write_region_grid(result, tmp_path)
        for metric, g in result.grids.items():
            written = (tmp_path / f"region_{metric}.tsv").read_bytes()
            assert written == region_tsv_oracle(axis, metric, g)
        assert b"0.3333333333333333\t-0.0\tfa\t-0.0\n" in (tmp_path / "region_fa.tsv").read_bytes()

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


def configs_at(n):
    """The AXE and perturbation configs of the sweep tests, both at top-n ``n``."""
    return AxeConfig(n=n, k=5), PerturbConfig(n=n, num_perturbations=25, seed=0)


def sweep_at(bundle, n, jobs=1):
    axe_cfg, perturb_cfg = configs_at(n)
    return run_fairwash_detection(bundle, axe_cfgs=(axe_cfg,), perturb_cfg=perturb_cfg, jobs=jobs)


@pytest.fixture(scope="module")
def small_verdicts(small_bundle):
    return sweep_at(small_bundle, 1)


@pytest.fixture(scope="module")
def serial_verdicts(small_bundle, small_verdicts):
    """Serial verdicts with both configs at top-n n, run once per n."""
    runs = {1: small_verdicts}

    def at(n):
        if n not in runs:
            runs[n] = sweep_at(small_bundle, n)
        return runs[n]
    return at


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
            foils = [v.q_foil1] + ([] if v.q_foil2 is None else [v.q_foil2])
            assert v.passed is all(v.q_protected > q for q in foils)
            assert DetectionVerdict.from_dict(v.to_dict()).passed is v.passed

    def test_verdict_file_roundtrip(self, small_verdicts, tmp_path):
        write_verdicts(small_verdicts, tmp_path / "v.json")
        back = load_verdicts(tmp_path / "v.json")
        assert [v.to_dict() for v in back] == [v.to_dict() for v in small_verdicts]

    def test_record_layouts_are_pinned(self, small_verdicts, result, tmp_path):
        # the files carry exactly their dataclass fields: a new field changes the format
        write_verdicts(small_verdicts, tmp_path / "v.json")
        rows = json.loads((tmp_path / "v.json").read_text())
        assert {frozenset(r) for r in rows} == {frozenset({
            "dataset_id", "model_name", "metric_name", "hyperparams", "q_protected",
            "q_foil1", "q_foil2", "q_other", "passed"})}
        perturb = {"n", "negate_pgu", "num_perturbations", "seed", "sigma"}
        assert {r["metric_name"]: set(r["hyperparams"]) for r in rows} == {
            "axe": {"include_self", "k", "n"}, "pgi": perturb, "pgu": perturb}

        write_region_grid(result, tmp_path / "grid")
        summary = json.loads((tmp_path / "grid" / "region_summary.json").read_text())
        assert set(summary["spec"]) == {"e_star", "grid_min", "grid_max", "resolution",
                                        "n", "metrics"}

        DatasetSchema(name="s", column_names=["a", "y"], target_column="y").to_json(
            tmp_path / "schema.json")
        assert set(json.loads((tmp_path / "schema.json").read_text())) == {
            "name", "column_names", "target_column", "protected_column", "foil_columns",
            "categorical_columns", "drop_columns", "notes"}

    def test_rerun_is_identical(self, small_bundle, small_verdicts):
        again = run_fairwash_detection(
            small_bundle, axe_cfgs=(AxeConfig(n=1, k=5),),
            perturb_cfg=PerturbConfig(n=1, num_perturbations=25, seed=0))
        assert [v.to_dict() for v in again] == [v.to_dict() for v in small_verdicts]

    def test_compute_pass_semantics(self):
        def passed(q_protected, q_foil1, q_foil2):
            return DetectionVerdict("d", "m", "axe", {}, q_protected, q_foil1, q_foil2,
                                    0.0).passed

        assert passed(0.9, 0.5, None)
        assert passed(0.9, 0.5, 0.8)
        assert not passed(0.9, 0.9, None)  # strict inequality
        assert not passed(0.9, 0.5, 0.9)
        assert not passed(0.9, 0.95, 0.5)

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
        out[model_name] = (q[d.protected_index], q[foils[0]],
                           q[foils[1]] if len(foils) > 1 else None,
                           float(np.mean([q[f] for f in bundle.other_indices(model_name)])))
    return out


def verdict_values(verdicts, metric):
    return {v.model_name: (v.q_protected, v.q_foil1, v.q_foil2, v.q_other)
            for v in verdicts if v.metric_name == metric}


class TestDetectionScoring:
    CFG = PerturbConfig(n=1, num_perturbations=25, seed=0)

    # at n = 2 the scaffolds' perturbed copies are free in two columns
    @pytest.mark.parametrize("n", [1, 2])
    def test_threads_give_the_serial_verdicts(self, small_bundle, serial_verdicts, n):
        threaded = sweep_at(small_bundle, n, jobs=2)
        assert [v.to_dict() for v in threaded] == [v.to_dict() for v in serial_verdicts(n)]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("metric", ["pgi", "pgu"])
    def test_memo_matches_one_report_per_set(self, small_bundle, serial_verdicts, metric, n):
        d = small_bundle.dataset
        perturb_cfg = configs_at(n)[1]
        reference = unmemoised_values(small_bundle, lambda model, expls: (
            sensitivity_quality_report(metric, model, d, expls, perturb_cfg).aggregate_q))
        assert verdict_values(serial_verdicts(n), metric) == reference

    def test_memo_keeps_the_sign_of_zero(self):
        # a rule on the protected column ignores PGU's columns 0 and 1: zero gaps
        d = small_attack_dataset()
        bundle = AttackBundle(dataset=d, models={"rule": make_rule_predictor(RuleModelSpec(2))},
                              model_foils={"rule": (3,)})
        verdicts = run_fairwash_detection(bundle, perturb_cfg=self.CFG)
        reference = unmemoised_values(bundle, lambda model, expls: (
            sensitivity_quality_report("pgu", model, d, expls, self.CFG).aggregate_q))
        got = verdict_values(verdicts, "pgu")
        assert got["rule"][:2] == (0.0, 0.0)
        assert repr(got) == repr(reference)  # repr tells -0.0 from 0.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_distinct_index_set_is_scored_once(self, small_bundle, monkeypatch, jobs):
        calls = []

        def counting(metric_name, m, d, explanations, cfg, **kwargs):
            sets = perturbed_index_sets(metric_name, explanations, cfg.n)
            calls.append((id(m), sets.tobytes()))
            return sensitivity_quality_report(metric_name, m, d, explanations, cfg, **kwargs)

        monkeypatch.setattr(experiments, "sensitivity_quality_report", counting)
        run_fairwash_detection(small_bundle, perturb_cfg=self.CFG, jobs=jobs)
        # per model: six one-hot PGI sets; PGU's bottom feature is 0, or 1 for the set
        # on 0, and those are the PGI sets of features 0 and 1
        assert len(calls) == len(set(calls)) == 4 * 6

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_base_prediction_per_model(self, small_bundle, monkeypatch, jobs):
        # AXE's targets and every gap report read each model's one prediction on the rows
        d, calls = small_bundle.dataset, []
        for name, model in small_bundle.models.items():
            def counting(X, name=name, score=model.predict_proba_batch):
                calls.append(name if X is d.features else None)
                return score(X)
            monkeypatch.setattr(model, "predict_proba_batch", counting)
        run_fairwash_detection(small_bundle, perturb_cfg=self.CFG, jobs=jobs)
        assert sorted(c for c in calls if c is not None) == sorted(small_bundle.models)

    def test_axe_other_column_uses_top_n_subsets(self, small_bundle):
        """At n=2 a one-hot explanation's top-2 adds the lowest-index zero feature;
        the other column must score that subset, as the protected and foil columns do."""
        d = small_bundle.dataset
        cfg = AxeConfig(n=2, k=5)
        verdicts = run_fairwash_detection(small_bundle, axe_cfgs=(cfg,), perturb_cfg=self.CFG)
        reference = unmemoised_values(small_bundle, lambda model, expls: axe_quality(
            d, model.predict_batch(d.features), expls, cfg).aggregate_q)
        assert verdict_values(verdicts, "axe") == reference


    def test_one_neighbour_search_per_feature_and_mode(self, small_bundle, monkeypatch):
        """Every model and k of one feature votes on shared tables: one search per
        (feature, include_self) at its widest k, and each (model, config) scores
        as it would alone."""
        d = small_bundle.dataset
        cfgs = (AxeConfig(n=1, k=3), AxeConfig(n=1, k=11), AxeConfig(n=1, k=5, include_self=True))
        searches = []
        nearest = axe._nearest_rows

        def counting(d, subset, rows, max_k, include_self):
            searches.append((tuple(subset), rows.size, max_k, include_self))
            return nearest(d, subset, rows, max_k, include_self)

        monkeypatch.setattr(axe, "_nearest_rows", counting)
        verdicts = run_fairwash_detection(small_bundle, axe_cfgs=cfgs, perturb_cfg=self.CFG)
        monkeypatch.undo()
        assert sorted(searches) == sorted(((f,), d.nu, max_k, include_self)
                                          for f in range(d.n_features)
                                          for max_k, include_self in ((11, False), (5, True)))
        for cfg in cfgs:
            reference = unmemoised_values(small_bundle, lambda model, expls: axe_quality(
                d, model.predict_batch(d.features), expls, cfg).aggregate_q)
            assert verdict_values([v for v in verdicts if v.hyperparams == asdict(cfg)],
                                  "axe") == reference

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
