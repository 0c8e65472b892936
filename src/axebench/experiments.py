"""Experiment harnesses: quality-region maps over candidate explanations,
the fairwash-detection sweep, and executable audits of the three evaluation
principles (local contextualization, model relativism, on-manifold evaluation).

Every run is fully determined by its config; outputs are plain dicts and
dataclasses that serialize to JSON/TSV for downstream tooling.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .axe import AxeConfig, axe_quality
from .core import (Dataset, ExplanationSet, component_seed, ordered_parallel_map,
                   write_json)
from .data import SyntheticSpec, benchmark_proxy, generate_synthetic
from .explainers import make_manual_explanations
from .metrics_reference import (REFERENCE_METRICS, GroundTruthPair,
                                reference_quality_report)
from .metrics_sensitivity import (PerturbConfig, perturbed_index_sets,
                                  sensitivity_quality_report)
from .models import (OffManifoldFlipPredictor, RuleModelSpec, RulePredictor,
                     ScaffoldSpec, build_scaffold, make_rule_predictor)

# ---------------------------------------------------------------------------
# Region grids: explanation quality as a function of a candidate (i1, i2).


@dataclass
class RegionGridSpec:
    e_star: tuple[float, float] = (0.7, 0.3)
    grid_min: float = -1.0
    grid_max: float = 1.0
    resolution: int = 201
    n: int = 2
    metrics: tuple[str, ...] = ("fa", "ra", "sa", "sra", "pra")

    def __post_init__(self):
        if len(self.e_star) != 2:
            raise ValueError("e_star must have exactly two components")
        if self.resolution < 3:
            raise ValueError("resolution must be >= 3")
        for m in self.metrics:
            if m not in REFERENCE_METRICS:
                raise ValueError(f"unknown reference metric {m!r}")

    def to_dict(self) -> dict:
        return {"e_star": list(self.e_star), "grid_min": self.grid_min,
                "grid_max": self.grid_max, "resolution": self.resolution,
                "n": self.n, "metrics": list(self.metrics)}


@dataclass
class RegionGridResult:
    spec: RegionGridSpec
    axis: np.ndarray
    grids: dict[str, np.ndarray]
    value_sets: dict[str, list[float]]


def run_region_grid(spec: RegionGridSpec) -> RegionGridResult:
    """Evaluate each metric at every (i1, i2) cell against the fixed reference."""
    axis = np.linspace(spec.grid_min, spec.grid_max, spec.resolution)
    i1, i2 = np.meshgrid(axis, axis, indexing="ij")
    cells = GroundTruthPair(e=np.column_stack([i1.ravel(), i2.ravel()]),
                            e_star=np.asarray(spec.e_star, dtype=float), n=spec.n)
    grids = {m: REFERENCE_METRICS[m](cells).reshape(spec.resolution, -1) for m in spec.metrics}
    value_sets = {m: sorted(float(v) for v in np.unique(g[np.isfinite(g)]))
                  for m, g in grids.items()}
    return RegionGridResult(spec=spec, axis=axis, grids=grids, value_sets=value_sets)


def write_region_grid(result: RegionGridResult, out_dir) -> list[Path]:
    """One TSV per metric (i1, i2, metric, q) plus a summary of distinct values."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    axis = result.axis.tolist()  # Python floats: repr gives plain numbers
    for metric, grid in result.grids.items():
        path = out_dir / f"region_{metric}.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("i1\ti2\tmetric\tq\n")
            for a, row in zip(axis, grid.tolist()):
                for b, q in zip(axis, row):
                    fh.write(f"{a!r}\t{b!r}\t{metric}\t{q!r}\n")
        written.append(path)
    summary = {
        "spec": result.spec.to_dict(),
        "value_sets": result.value_sets,
        "cardinalities": {m: len(v) for m, v in result.value_sets.items()},
    }
    write_json(out_dir / "region_summary.json", summary)
    written.append(out_dir / "region_summary.json")
    return written


# ---------------------------------------------------------------------------
# Fairwash detection: score competing one-hot explanation sets under each
# metric for every adversarial model, and check the strict-ordering condition.


@dataclass(frozen=True)
class ScaffoldModelConfig:
    name: str
    n_foils: int
    sigma_ood: float
    seed: int
    detector_trees: int = 12
    detector_depth: int = 12

    def to_dict(self) -> dict:
        return {"name": self.name, "n_foils": self.n_foils, "sigma_ood": self.sigma_ood,
                "seed": self.seed, "detector_trees": self.detector_trees,
                "detector_depth": self.detector_depth}


@dataclass(frozen=True)
class AttackConfig:
    dataset_name: str
    models: tuple[ScaffoldModelConfig, ...]
    dataset_seed: int = 0
    nu: int = 800

    def to_dict(self) -> dict:
        return {"dataset_name": self.dataset_name, "dataset_seed": self.dataset_seed,
                "nu": self.nu, "models": [m.to_dict() for m in self.models]}


def standard_model_set(base_seed: int, sigma_lime: float, sigma_shap: float,
                       two_foils: bool, trees: int = 12, depth: int = 12) -> tuple[ScaffoldModelConfig, ...]:
    models = [
        ScaffoldModelConfig("m_L1", 1, sigma_lime, base_seed + 1, trees, depth),
        ScaffoldModelConfig("m_S1", 1, sigma_shap, base_seed + 2, trees, depth),
    ]
    if two_foils:
        models.append(ScaffoldModelConfig("m_L2", 2, sigma_lime, base_seed + 3, trees, depth))
        models.append(ScaffoldModelConfig("m_S2", 2, sigma_shap, base_seed + 4, trees, depth))
    return tuple(models)


def default_attack_configs(seed: int = 0) -> list[AttackConfig]:
    """The ten-row sweep: 2 lending models + 4 + 4 criminal-justice models.

    The continuous-valued proxy needs a wider perturbation scale and deeper
    trees than the categorical-heavy ones for its detector to clear the
    accuracy floor.
    """
    return [
        AttackConfig("german_credit",
                     standard_model_set(component_seed(seed, "german"), 1.0, 0.8, False),
                     dataset_seed=component_seed(seed, "german-data")),
        AttackConfig("compas",
                     standard_model_set(component_seed(seed, "compas"), 1.0, 0.8, True),
                     dataset_seed=component_seed(seed, "compas-data")),
        AttackConfig("communities_and_crime",
                     standard_model_set(component_seed(seed, "candc"), 3.0, 3.0, True,
                                        trees=16, depth=20),
                     dataset_seed=component_seed(seed, "candc-data")),
    ]


@dataclass
class AttackBundle:
    """One dataset with its biased rule and the adversarial models wrapping it."""

    dataset: Dataset
    biased: RulePredictor
    models: dict[str, object]           # name -> ScaffoldPredictor
    model_foils: dict[str, tuple[int, ...]]
    protected_index: int
    foil_candidates: tuple[int, ...]

    def other_indices(self, model_name: str) -> list[int]:
        used = {self.protected_index, *self.model_foils[model_name]}
        return [i for i in range(self.dataset.n_features) if i not in used]


def build_attack_bundle(d: Dataset, model_cfgs) -> AttackBundle:
    """Train one scaffold per model config around the dataset's biased rule."""
    if d.protected_index is None:
        raise ValueError("dataset lacks a protected column")
    model_cfgs = list(model_cfgs)
    needed = max(cfg.n_foils for cfg in model_cfgs)
    if len(d.foil_indices) < needed:
        raise ValueError(f"dataset provides {len(d.foil_indices)} foil columns, "
                         f"but a model needs {needed}")
    biased_spec = RuleModelSpec(d.protected_index, 0.0, True)
    biased = make_rule_predictor(biased_spec, d.n_features)
    models, model_foils = {}, {}
    for cfg in model_cfgs:
        foils = d.foil_indices[:cfg.n_foils]
        spec = ScaffoldSpec(
            biased=biased_spec,
            foils=tuple(RuleModelSpec(f, 0.0, True) for f in foils),
            sigma_ood=cfg.sigma_ood, seed=cfg.seed,
            detector_trees=cfg.detector_trees, detector_depth=cfg.detector_depth)
        models[cfg.name] = build_scaffold(d, spec)
        model_foils[cfg.name] = foils
    return AttackBundle(dataset=d, biased=biased, models=models, model_foils=model_foils,
                        protected_index=d.protected_index,
                        foil_candidates=d.foil_indices)


def bundle_from_config(cfg: AttackConfig) -> AttackBundle:
    d = benchmark_proxy(cfg.dataset_name, seed=cfg.dataset_seed, nu=cfg.nu)
    return build_attack_bundle(d, cfg.models)


@dataclass
class DetectionVerdict:
    """q-bar values for one (dataset, model, metric) row plus the ordering flag."""

    dataset_id: str
    model_name: str
    metric_name: str
    hyperparams: dict
    q_protected: float
    q_foil1: float
    q_foil2: float | None
    q_other: float
    passed: bool

    @staticmethod
    def compute_pass(q_protected: float, q_foil1: float, q_foil2: float | None) -> bool:
        ok = q_protected > q_foil1
        if q_foil2 is not None:
            ok = ok and q_protected > q_foil2
        return bool(ok)

    def recomputed_pass(self) -> bool:
        return self.compute_pass(self.q_protected, self.q_foil1, self.q_foil2)

    def to_dict(self) -> dict:
        return {"dataset_id": self.dataset_id, "model_name": self.model_name,
                "metric_name": self.metric_name, "hyperparams": self.hyperparams,
                "q_protected": self.q_protected, "q_foil1": self.q_foil1,
                "q_foil2": self.q_foil2, "q_other": self.q_other,
                "passed": self.passed}

    @classmethod
    def from_dict(cls, d: dict) -> "DetectionVerdict":
        return cls(dataset_id=d["dataset_id"], model_name=d["model_name"],
                   metric_name=d["metric_name"], hyperparams=dict(d["hyperparams"]),
                   q_protected=d["q_protected"], q_foil1=d["q_foil1"],
                   q_foil2=d["q_foil2"], q_other=d["q_other"], passed=d["passed"])


def run_fairwash_detection(bundle: AttackBundle,
                           axe_cfgs=(AxeConfig(n=1, k=5),),
                           perturb_cfg: PerturbConfig | None = None,
                           jobs: int = 1) -> list[DetectionVerdict]:
    """Score the protected / foil / other explanation sets per model and metric.

    Missing second foils yield an explicit None, never 0. The `other` column
    averages the one-hot explanation of every feature that is neither protected
    nor a foil of the model at hand, scored exactly as the other columns are.

    A perturbation report depends on the explanations only through the index
    sets they perturb, so each model is scored once per distinct (metric,
    per-row index sets); with n=1 every PGU one-hot set is {0}, or {1} for the
    set that marks feature 0.
    """
    perturb_cfg = perturb_cfg or PerturbConfig(n=1)
    d = bundle.dataset
    verdicts: list[DetectionVerdict] = []
    manual = {f: make_manual_explanations(d, f) for f in range(d.n_features)}

    for model_name, model in bundle.models.items():
        foils = bundle.model_foils[model_name]
        if len(foils) == 0:
            raise ValueError("model has no foil features")
        y_preds = model.predict_batch(d.features)
        sets = {"protected": bundle.protected_index, "foil1": foils[0]}
        if len(foils) > 1:
            sets["foil2"] = foils[1]
        others = bundle.other_indices(model_name)
        scored = [*sets.values(), *others]

        for cfg in axe_cfgs:
            q = {f: axe_quality(d, y_preds, manual[f], cfg,
                                model_descriptor=model.descriptor).aggregate_q
                 for f in scored}
            verdicts.append(_verdict(d, model_name, "axe",
                                     {"n": cfg.n, "k": cfg.k, "include_self": cfg.include_self},
                                     q, sets, others))

        # first feature of each distinct (metric, per-row index sets)
        key_of, representative = {}, {}
        for metric in ("pgi", "pgu"):
            for f in scored:
                key = (metric, perturbed_index_sets(metric, manual[f], perturb_cfg.n).tobytes())
                key_of[metric, f] = key
                representative.setdefault(key, (metric, f))

        def score(job: tuple[str, int]) -> float:
            metric, f = job
            return sensitivity_quality_report(metric, model, d, manual[f],
                                              perturb_cfg).aggregate_q

        memo = dict(zip(representative,
                        ordered_parallel_map(score, representative.values(), jobs=jobs)))
        for metric in ("pgi", "pgu"):
            q = {f: memo[key_of[metric, f]] for f in scored}
            verdicts.append(_verdict(d, model_name, metric,
                                     {"n": perturb_cfg.n,
                                      "num_perturbations": perturb_cfg.num_perturbations,
                                      "sigma": perturb_cfg.sigma,
                                      "seed": perturb_cfg.seed,
                                      "negate_pgu": perturb_cfg.negate_pgu},
                                     q, sets, others))
    return verdicts


def _verdict(d: Dataset, model_name: str, metric: str, hyperparams: dict,
             q: dict[int, float], sets: dict[str, int], others: list[int]) -> DetectionVerdict:
    """Verdict row from the aggregate of every scored feature's one-hot set."""
    qbar = {key: float(q[f]) for key, f in sets.items()}
    q_foil2 = qbar.get("foil2")
    return DetectionVerdict(
        dataset_id=d.dataset_id, model_name=model_name, metric_name=metric,
        hyperparams=hyperparams,
        q_protected=qbar["protected"], q_foil1=qbar["foil1"], q_foil2=q_foil2,
        q_other=float(np.mean([q[f] for f in others])),
        passed=DetectionVerdict.compute_pass(qbar["protected"], qbar["foil1"], q_foil2))


def write_verdicts(verdicts: list[DetectionVerdict], path) -> None:
    write_json(path, [v.to_dict() for v in verdicts])


def load_verdicts(path):
    with open(path, encoding="utf-8") as fh:
        return [DetectionVerdict.from_dict(v) for v in json.load(fh)]


# ---------------------------------------------------------------------------
# Principle audits. Each check constructs seeded fixtures and records a
# concrete witness for its pass/fail call.

PRINCIPLES = ("local_contextualization", "model_relativism", "on_manifold_evaluation")

METRIC_FAMILY = {"axe": "axe", "pgi": "sensitivity", "pgu": "sensitivity",
                 **{m: "reference" for m in REFERENCE_METRICS}}


@dataclass
class _PrincipleFixtures:
    d: Dataset
    model_a: RulePredictor
    model_b: RulePredictor
    y_a: np.ndarray
    y_b: np.ndarray
    candidates: dict[str, np.ndarray]
    e_star: np.ndarray
    e_star_alt: np.ndarray


def _fixtures(seed: int) -> _PrincipleFixtures:
    d = generate_synthetic(SyntheticSpec(nu=60, n_features=4,
                                         seed=component_seed(seed, "principle-data"),
                                         generator_kind="threshold-rule"))
    model_a = make_rule_predictor(RuleModelSpec(0, 0.0, True), d.n_features)
    # same mechanism, slightly shifted boundary: agrees with model_a on most rows
    model_b = make_rule_predictor(RuleModelSpec(0, 0.25, True), d.n_features)
    return _PrincipleFixtures(
        d=d, model_a=model_a, model_b=model_b,
        y_a=model_a.predict_batch(d.features),
        y_b=model_b.predict_batch(d.features),
        candidates={"rule-feature-first": np.array([0.9, 0.5, -0.3, 0.1]),
                    "noise-feature-first": np.array([0.1, 0.2, 0.3, 0.9])},
        e_star=np.array([0.8, 0.4, -0.2, 0.05]),
        e_star_alt=np.array([0.6, 0.45, -0.35, 0.02]))


def _per_point(metric: str, fx: _PrincipleFixtures, e: np.ndarray, model, y_preds,
               e_star: np.ndarray, perturb_seed: int = 0) -> np.ndarray:
    family = METRIC_FAMILY[metric]
    expls = ExplanationSet(importances=np.tile(e, (fx.d.nu, 1)), explainer_tag="fixture")
    if family == "axe":
        return axe_quality(fx.d, y_preds, expls, AxeConfig(n=1, k=3)).per_point_q
    if family == "reference":
        return reference_quality_report(metric, expls, e_star, n=2).per_point_q
    return sensitivity_quality_report(metric, model, fx.d, expls,
                                      PerturbConfig(n=1, num_perturbations=40,
                                                    seed=perturb_seed)).per_point_q


def _check_local_contextualization(metric: str, fx: _PrincipleFixtures) -> dict:
    """Pass iff some fixture makes per-point quality differ across rows."""
    for name, e in fx.candidates.items():
        q = _per_point(metric, fx, e, fx.model_a, fx.y_a, fx.e_star)
        finite = q[np.isfinite(q)]
        if finite.size and np.ptp(finite) > 0:
            lo, hi = int(np.argmin(q)), int(np.argmax(q))
            return {"verdict": "pass",
                    "witness": {"fixture": name, "row_low": lo, "row_high": hi,
                                "q_low": float(q[lo]), "q_high": float(q[hi])}}
    return {"verdict": "fail",
            "witness": {"detail": "per-point quality identical across every row "
                                  "for every candidate explanation",
                        "fixtures": sorted(fx.candidates)}}


def _check_model_relativism(metric: str, fx: _PrincipleFixtures) -> dict:
    """Pass iff swapping in the boundary-shifted twin changes the metric output."""
    family = METRIC_FAMILY[metric]
    for name, e in fx.candidates.items():
        if family == "reference":
            # reference vectors play the role of the two models' coefficient targets
            q_a = _per_point(metric, fx, e, fx.model_a, fx.y_a, fx.e_star)
            q_b = _per_point(metric, fx, e, fx.model_a, fx.y_a, fx.e_star_alt)
        else:
            q_a = _per_point(metric, fx, e, fx.model_a, fx.y_a, fx.e_star)
            q_b = _per_point(metric, fx, e, fx.model_b, fx.y_b, fx.e_star)
        if not np.array_equal(q_a, q_b, equal_nan=True):
            row = int(np.flatnonzero(~np.isclose(q_a, q_b, equal_nan=True))[0])
            return {"verdict": "pass",
                    "witness": {"fixture": name, "row": row,
                                "q_model_a": float(q_a[row]), "q_model_b": float(q_b[row]),
                                "prediction_agreement": float((fx.y_a == fx.y_b).mean())}}
    return {"verdict": "fail",
            "witness": {"detail": "output identical for both members of the "
                                  "prediction-equivalent model pair",
                        "reference_vectors": [fx.e_star.tolist(), fx.e_star_alt.tolist()]
                        if family == "reference" else None,
                        "prediction_agreement": float((fx.y_a == fx.y_b).mean())}}


def _check_on_manifold(metric: str, fx: _PrincipleFixtures) -> dict:
    """Pass iff an off-manifold-only change in the model leaves the metric unchanged."""
    twin = OffManifoldFlipPredictor(fx.model_a, fx.d.features)
    y_twin = twin.predict_batch(fx.d.features)
    if not np.array_equal(y_twin, fx.y_a):
        raise RuntimeError("twin must agree with the base model on every dataset row")
    for name, e in fx.candidates.items():
        q_base = _per_point(metric, fx, e, fx.model_a, fx.y_a, fx.e_star)
        q_twin = _per_point(metric, fx, e, twin, y_twin, fx.e_star)
        if not np.array_equal(q_base, q_twin, equal_nan=True):
            row = int(np.flatnonzero(~np.isclose(q_base, q_twin, equal_nan=True))[0])
            return {"verdict": "fail",
                    "witness": {"fixture": name, "row": row,
                                "q_base": float(q_base[row]), "q_twin": float(q_twin[row]),
                                "detail": "models agree on every dataset row yet "
                                          "the metric scores them differently"}}
    return {"verdict": "pass",
            "witness": {"detail": "identical output for both predictors agreeing on "
                                  "all dataset rows and differing on perturbed copies",
                        "fixtures": sorted(fx.candidates)}}


def run_principle_suite(metric: str, seed: int = 0) -> dict:
    """Audit one metric against the three principles with stored witnesses."""
    if metric not in METRIC_FAMILY:
        raise ValueError(f"unknown metric {metric!r}")
    fx = _fixtures(seed)
    return {"metric": metric,
            "local_contextualization": _check_local_contextualization(metric, fx),
            "model_relativism": _check_model_relativism(metric, fx),
            "on_manifold_evaluation": _check_on_manifold(metric, fx)}


def principle_matrix(metrics=None, seed: int = 0) -> dict:
    metrics = list(metrics) if metrics is not None else sorted(METRIC_FAMILY)
    return {m: run_principle_suite(m, seed=seed) for m in metrics}
