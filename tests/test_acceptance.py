"""Acceptance suite: every release gate in one module, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-gate lines.
The fairwash sweep (ten adversarial models across three benchmark stand-ins)
runs once per session and takes a couple of minutes; everything else is fast.
"""
import json

import numpy as np
import pytest

from axebench.axe import AxeConfig, axe_quality
from axebench.cli import main
from axebench.core import Dataset, ExplanationSet
from axebench.data import SyntheticSpec, generate_synthetic
from axebench.experiments import (RegionGridSpec, bundle_from_config,
                                  default_attack_configs, run_fairwash_detection,
                                  run_principle_suite, run_region_grid,
                                  write_region_grid)
from axebench.explainers import (ExplainerConfig, explain_integrated_gradients,
                                 explain_kernel_shapley, explain_local_surrogate,
                                 make_manual_explanations)
from axebench.metrics_reference import (GroundTruthPair, feature_agreement,
                                        pairwise_rank_agreement, rank_agreement,
                                        rank_correlation, sign_agreement,
                                        signed_rank_agreement)
from axebench.metrics_sensitivity import (PerturbConfig, pgi, pgu,
                                          sensitivity_quality_report)
from axebench.models import (LinearModelSpec, MlpSpec, OffManifoldFlipPredictor,
                             RuleModelSpec, make_linear_predictor,
                             make_rule_predictor, train_mlp)

from conftest import AdditiveProbaPredictor, AffineProbaPredictor
from oracles import (axe_oracle, fa_oracle, pgi_oracle, pgu_oracle, pra_oracle,
                     ra_oracle, rc_oracle, sa_oracle, shapley_exhaustive,
                     sra_oracle)

AXE_K_SWEEP = (3, 5, 11)


def announce(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")


@pytest.fixture(scope="session")
def fairwash_verdicts():
    verdicts = []
    for cfg in default_attack_configs(seed=0):
        bundle = bundle_from_config(cfg)
        verdicts.extend(run_fairwash_detection(
            bundle,
            axe_cfgs=[AxeConfig(n=1, k=k) for k in AXE_K_SWEEP],
            perturb_cfg=PerturbConfig(n=1, num_perturbations=100, sigma=0.5, seed=0)))
    return verdicts


def test_criterion_1_fairwash_detection_all_rows_all_k(fairwash_verdicts):
    """Ten (dataset, model) rows, strict ordering with margin, for every k."""
    axe_rows = [v for v in fairwash_verdicts if v.metric_name == "axe"]
    assert len(axe_rows) == 10 * len(AXE_K_SWEEP)
    failures = []
    min_margin, min_protected = np.inf, np.inf
    for v in axe_rows:
        margin = v.q_protected - v.q_foil1
        if v.q_foil2 is not None:
            margin = min(margin, v.q_protected - v.q_foil2)
        min_margin = min(min_margin, margin)
        min_protected = min(min_protected, v.q_protected)
        if not (v.passed and margin >= 0.05 and v.q_protected >= 0.9):
            failures.append((v.dataset_id, v.model_name, v.hyperparams["k"],
                             round(v.q_protected, 3), round(margin, 3)))
    ok = not failures
    announce("fairwash detection 10/10 rows, k in {3,5,11}, margin >= 0.05", ok,
             f"min q(protected)={min_protected:.3f}, min margin={min_margin:.3f}")
    assert ok, f"rows failing the detection gate: {failures}"


def test_criterion_2_baseline_failure_pattern(fairwash_verdicts):
    """The perturbation baselines must each miss the manipulation somewhere."""
    pgi_rows = [v for v in fairwash_verdicts if v.metric_name == "pgi"]
    pgu_rows = [v for v in fairwash_verdicts if v.metric_name == "pgu"]
    assert len(pgi_rows) == 10 and len(pgu_rows) == 10
    pgi_fails = sum(not v.passed for v in pgi_rows)
    pgu_fails = sum(not v.passed for v in pgu_rows)
    ok = pgi_fails >= 1 and pgu_fails >= 1
    announce("baseline failure pattern (PGI and PGU each fail >= 1 of 10 rows)", ok,
             f"PGI fails {pgi_fails}/10, PGU fails {pgu_fails}/10")
    assert ok


def test_criterion_3_region_invariance(tmp_path):
    spec_a = RegionGridSpec(e_star=(0.7, 0.3), resolution=201)
    result_a = run_region_grid(spec_a)
    cards = {m: len(vs) for m, vs in result_a.value_sets.items()}
    piecewise_ok = cards["ra"] <= 3 and cards["sa"] <= 3 and cards["sra"] <= 4

    axis = result_a.axis
    region_ok = True
    pos = [(i, j) for i, a in enumerate(axis) for j, b in enumerate(axis) if a > b > 0]
    for metric in ("ra", "sa", "sra"):
        grid = result_a.grids[metric]
        region_ok &= all(grid[i, j] == 1.0 for i, j in pos)

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_region_grid(result_a, dir_a)
    result_b = run_region_grid(RegionGridSpec(e_star=(0.5, 0.3), resolution=201))
    write_region_grid(result_b, dir_b)
    identical_ok = all(
        (dir_a / f"region_{m}.tsv").read_bytes() == (dir_b / f"region_{m}.tsv").read_bytes()
        for m in ("fa", "ra", "sa", "sra", "pra"))

    ok = piecewise_ok and region_ok and identical_ok
    announce("region invariance (201x201 value sets, dominant region, reference swap)",
             ok, f"cardinalities={cards}")
    assert piecewise_ok, cards
    assert region_ok
    assert identical_ok


EXPECTED_PRINCIPLES = {
    "axe": ("pass", "pass", "pass"),
    **{m: ("fail", "fail", "pass") for m in ("fa", "ra", "sa", "sra", "rc", "pra")},
    **{m: ("pass", "pass", "fail") for m in ("pgi", "pgu")},
}


def test_criterion_4_principle_matrix():
    mismatches = []
    witnessed = True
    for metric, expected in sorted(EXPECTED_PRINCIPLES.items()):
        result = run_principle_suite(metric, seed=0)
        got = tuple(result[p]["verdict"] for p in
                    ("local_contextualization", "model_relativism", "on_manifold_evaluation"))
        if got != expected:
            mismatches.append((metric, got, expected))
        for p in ("local_contextualization", "model_relativism", "on_manifold_evaluation"):
            witnessed &= bool(result[p]["witness"]) and bool(json.dumps(result[p]["witness"]))

    # explicit on-manifold witness: twins agreeing on every row score identically
    # under the k-NN metric and differently under the perturbation metric
    d = generate_synthetic(SyntheticSpec(nu=80, n_features=4, seed=21))
    base = make_rule_predictor(RuleModelSpec(0, 0.0, True))
    twin = OffManifoldFlipPredictor(base, d.features)
    y = base.predict_batch(d.features)
    assert np.array_equal(twin.predict_batch(d.features), y)
    expls = make_manual_explanations(d, 0)
    axe_base = axe_quality(d, y, expls, AxeConfig(n=1, k=5))
    axe_twin = axe_quality(d, twin.predict_batch(d.features), expls, AxeConfig(n=1, k=5))
    axe_equal = np.array_equal(axe_base.per_point_q, axe_twin.per_point_q) \
        and axe_base.aggregate_q == axe_twin.aggregate_q
    cfg = PerturbConfig(n=1, num_perturbations=50, seed=0)
    pgi_base = sensitivity_quality_report("pgi", base, d, expls, cfg)
    pgi_twin = sensitivity_quality_report("pgi", twin, d, expls, cfg)
    pgi_differs = not np.array_equal(pgi_base.per_point_q, pgi_twin.per_point_q)

    ok = not mismatches and witnessed and axe_equal and pgi_differs
    announce("principle matrix exact with stored witnesses", ok,
             f"mismatches={mismatches or 'none'}")
    assert not mismatches, mismatches
    assert witnessed and axe_equal and pgi_differs


def test_criterion_5_oracle_equivalence_200_instances():
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(200):
        nu = int(rng.integers(5, 31))
        nf = int(rng.integers(2, 5))
        features = np.round(rng.normal(size=(nu, nf)), 1)
        y_preds = rng.integers(0, 2, nu)
        e = np.round(rng.normal(size=nf), 1)
        e_star = np.round(rng.normal(size=nf), 1)
        n = int(rng.integers(0, nf + 1))

        p = GroundTruthPair(e=e, e_star=e_star, n=n)
        assert feature_agreement(p) == fa_oracle(e, e_star, n)
        assert rank_agreement(p) == ra_oracle(e, e_star, n)
        assert sign_agreement(p) == sa_oracle(e, e_star, n)
        assert signed_rank_agreement(p) == sra_oracle(e, e_star, n)
        assert pairwise_rank_agreement(p) == pra_oracle(e, e_star)
        mine, ref = rank_correlation(p), rc_oracle(e, e_star)
        assert (mine is None) == (ref is None)
        if ref is not None:
            assert mine == pytest.approx(ref, abs=1e-12)

        m = make_linear_predictor(LinearModelSpec(tuple(rng.normal(size=nf) + 0.01)))
        x = features[int(rng.integers(0, nu))]
        n_perturb = max(1, n)
        cfg = PerturbConfig(n=n_perturb, num_perturbations=8, sigma=0.5, seed=trial)
        assert pgi(m, x, e, cfg) == pytest.approx(
            pgi_oracle(m.predict_proba, x, e, n_perturb, 8, 0.5, trial), abs=1e-12)
        assert pgu(m, x, e, cfg) == pytest.approx(
            pgu_oracle(m.predict_proba, x, e, n_perturb, 8, 0.5, trial), abs=1e-12)

        importance_rows = np.round(rng.normal(size=(nu, nf)), 1)
        k = int(rng.integers(1, min(nu - 1, 7) + 1))
        include_self = bool(rng.integers(0, 2))
        d = Dataset(features=features, feature_names=tuple(f"f{j}" for j in range(nf)))
        expls = ExplanationSet(importance_rows)
        report = axe_quality(d, y_preds, expls,
                             AxeConfig(n=max(1, n), k=k, include_self=include_self))
        pp, agg = axe_oracle(features, y_preds, importance_rows, max(1, n), k, include_self)
        assert report.per_point_q.tolist() == pp
        assert report.aggregate_q == agg
        checked += 1

    ok = checked == 200
    announce("oracle equivalence on 200 random small instances", ok,
             "agreement metrics and k-NN recovery exact; perturbation gaps within 1e-12")
    assert ok


def test_criterion_6_axe_sanity_bounds(threshold_data):
    d = threshold_data
    y = d.labels
    good = axe_quality(d, y, make_manual_explanations(d, 0), AxeConfig(n=1, k=5))
    noise = axe_quality(d, y, make_manual_explanations(d, 3), AxeConfig(n=1, k=5))
    literal = axe_quality(d, y, make_manual_explanations(d, 3),
                          AxeConfig(n=1, k=1, include_self=True))
    loo = axe_quality(d, y, make_manual_explanations(d, 3),
                      AxeConfig(n=1, k=1, include_self=False))
    good_ok = good.aggregate_q >= 0.98
    noise_ok = abs(noise.aggregate_q - 0.5) <= 0.08
    degeneracy_ok = literal.aggregate_q == 1.0 and loo.aggregate_q < 1.0
    ok = good_ok and noise_ok and degeneracy_ok
    announce("recovery sanity bounds (generative vs noise feature, LOO vs literal)", ok,
             f"generative={good.aggregate_q:.3f}, noise={noise.aggregate_q:.3f}, "
             f"literal k=1={literal.aggregate_q:.3f}, LOO k=1={loo.aggregate_q:.3f}")
    assert ok


def test_criterion_7_explainer_self_checks():
    # kernel Shapley vs exhaustive enumeration on an eight-feature additive model
    d8 = generate_synthetic(SyntheticSpec(nu=30, n_features=8, seed=31))
    slopes = np.array([0.05, -0.04, 0.03, 0.025, -0.02, 0.015, -0.01, 0.005])
    m8 = AdditiveProbaPredictor([(lambda s: (lambda v: s * v))(s) for s in slopes])
    x8 = d8.features[2]
    cfg8 = ExplainerConfig(kind="kernel-shapley", samples=600, seed=32,
                           background_size=d8.nu)
    phi = explain_kernel_shapley(m8, x8, d8, cfg8).importances
    X = d8.features

    def value(coalition):
        comp = X.copy()
        for f in coalition:
            comp[:, f] = x8[f]
        return float(m8.predict_proba_batch(comp).mean())

    exact = shapley_exhaustive(value, 8)
    shap_gap = float(np.max(np.abs(phi - exact)))
    shap_ok = shap_gap < 0.05

    # path-integral completeness on a nonlinear model at 256 steps
    dt = generate_synthetic(SyntheticSpec(nu=120, n_features=4, seed=33))
    mlp = train_mlp(dt, MlpSpec(hidden_sizes=(10,), epochs=250, seed=34))
    x = dt.features[11]
    ig = explain_integrated_gradients(mlp, x, ExplainerConfig(kind="integrated-gradients",
                                                              ig_steps=256))
    ig_gap = abs(float(ig.importances.sum())
                 - (mlp.predict_proba(x) - mlp.predict_proba(np.zeros_like(x))))
    ig_ok = ig_gap < 1e-3

    # surrogate slope recovery on an exactly affine probability surface
    affine = AffineProbaPredictor([0.07, -0.05, 0.03, 0.02], intercept=0.5)
    cfg_s = ExplainerConfig(kind="local-surrogate", samples=3000, sigma_perturb=0.5, seed=35)
    slopes_hat = explain_local_surrogate(affine, np.zeros(4), dt, cfg_s).importances
    rel = float(np.max(np.abs(slopes_hat - affine.slopes) / np.abs(affine.slopes)))
    surrogate_ok = rel < 0.05

    ok = shap_ok and ig_ok and surrogate_ok
    announce("explainer self-checks (Shapley 0.05, completeness 1e-3, slopes 5%)", ok,
             f"shapley gap={shap_gap:.4f}, completeness gap={ig_gap:.2e}, "
             f"max slope error={rel:.4f}")
    assert ok


def test_criterion_8_determinism_from_persisted_config(tmp_path):
    def dir_bytes(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    outcomes = []
    first = tmp_path / "grid1"
    assert main(["region-grid", "--resolution", "61", "--seed", "13",
                 "--out", str(first), "--jobs", "1"]) == 0
    for degree in (1, 2, 4):
        rerun = tmp_path / f"grid_jobs{degree}"
        assert main(["region-grid", "--config", str(first / "run_config.json"),
                     "--out", str(rerun), "--jobs", str(degree)]) == 0
        outcomes.append(dir_bytes(first) == dir_bytes(rerun))

    eval_first = tmp_path / "eval1"
    args = ["evaluate", "--synthetic", "threshold-rule", "--rows", "90", "--cols", "3",
            "--train", "logistic", "--explainer", "local-surrogate",
            "--metric", "axe", "--metric", "pgi", "--seed", "8", "--out", str(eval_first)]
    assert main(args) == 0
    for degree in (1, 3):
        rerun = tmp_path / f"eval_jobs{degree}"
        assert main(["evaluate", "--config", str(eval_first / "run_config.json"),
                     "--out", str(rerun), "--jobs", str(degree)]) == 0
        outcomes.append(dir_bytes(eval_first) == dir_bytes(rerun))

    ok = all(outcomes)
    announce("byte-identical reruns from persisted config at every parallelism degree",
             ok, f"{sum(outcomes)}/{len(outcomes)} comparisons identical")
    assert ok
