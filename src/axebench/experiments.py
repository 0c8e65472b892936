"""Experiment harnesses: quality-region maps over candidate explanations,
the fairwash-detection sweep, and executable audits of the three evaluation
principles (local contextualization, model relativism, on-manifold evaluation).

Every run is fully determined by its config; outputs are plain dicts and
dataclasses that serialize to JSON/TSV for downstream tooling.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .axe import AxeConfig, axe_quality, axe_quality_many
from .core import (Dataset, ExplanationSet, check_type, component_seed, labels_of,
                   ordered_parallel_map, read_json, record_from_dict, write_json)
from .data import SyntheticSpec, benchmark_proxy, generate_synthetic
from .explainers import make_manual_explanations
from .metrics_reference import (REFERENCE_METRICS, GroundTruthPair,
                                reference_quality_report)
from .metrics_sensitivity import (PerturbConfig, perturbed_index_sets,
                                  sensitivity_quality_report, signed_gap)
from .models import (OffManifoldFlipPredictor, RuleModelSpec, ScaffoldSpec, build_scaffold,
                     make_rule_predictor)

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
        if self.resolution > 3_037_000_499:  # the most whose square, the cell count, fits int64
            raise ValueError("resolution must be <= 3037000499, so that its resolution**2 "
                             "cells can be counted in int64")
        for m in self.metrics:
            if m not in REFERENCE_METRICS:
                raise ValueError(f"unknown reference metric {m!r}")


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
    """One TSV per metric (i1, i2, metric, q) plus a summary of distinct values.

    Each cell is the ``repr`` of Python floats, in grid order. Every string is
    formatted once: the ``"i1\\ti2\\t"`` cell prefixes once per call, shared by
    all metrics, and ``"metric\\tq\\n"`` once per distinct q of a metric. The
    distinct q are keyed by their 64-bit pattern, so ``-0.0`` and ``0.0`` keep
    their own ``repr``. A file takes one write per grid row."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    axis = [repr(v) for v in result.axis.tolist()]  # Python floats: repr gives plain numbers
    prefixes = [[f"{a}\t{b}\t" for b in axis] for a in axis]
    for metric, grid in result.grids.items():
        flat = np.asarray(grid, dtype=float).ravel()
        _, first, codes = np.unique(flat.view(np.int64), return_index=True, return_inverse=True)
        tails = [f"{metric}\t{q!r}\n" for q in flat[first].tolist()]
        path = out_dir / f"region_{metric}.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("i1\ti2\tmetric\tq\n")
            for row, row_codes in zip(prefixes, codes.reshape(grid.shape).tolist()):
                fh.write("".join([p + tails[c] for p, c in zip(row, row_codes)]))
        written.append(path)
    summary = {
        "spec": asdict(result.spec),
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
class AttackConfig:
    """One dataset's scaffold attack (after Slack et al., "Fooling LIME and SHAP").

    m_L1 and m_S1 wrap the first foil column, and with ``two_foils`` m_L2 and
    m_S2 wrap the first two. An m_L model's detector learns ``sigma_lime``
    noise, an m_S model's ``sigma_shap``, and model i (from 1, in that order)
    gets seed ``seed + i``.
    """

    dataset_name: str
    seed: int
    sigma_lime: float = 1.0
    sigma_shap: float = 0.8
    two_foils: bool = False
    detector_trees: int = 12
    detector_depth: int = 12
    dataset_seed: int = 0


def default_attack_configs(seed: int = 0) -> list[AttackConfig]:
    """The ten-row sweep: 2 lending models + 4 + 4 criminal-justice models.

    The continuous-valued proxy needs a wider perturbation scale and deeper
    trees than the categorical-heavy ones for its detector to clear the
    accuracy floor.
    """
    return [
        AttackConfig("german_credit", component_seed(seed, "german"),
                     dataset_seed=component_seed(seed, "german-data")),
        AttackConfig("compas", component_seed(seed, "compas"), two_foils=True,
                     dataset_seed=component_seed(seed, "compas-data")),
        AttackConfig("communities_and_crime", component_seed(seed, "candc"), 3.0, 3.0,
                     two_foils=True, detector_trees=16, detector_depth=20,
                     dataset_seed=component_seed(seed, "candc-data")),
    ]


@dataclass
class AttackBundle:
    """One dataset and the adversarial models wrapping its biased rule."""

    dataset: Dataset
    models: dict[str, object]           # name -> ScaffoldPredictor
    model_foils: dict[str, tuple[int, ...]]

    def other_indices(self, model_name: str) -> list[int]:
        used = {self.dataset.protected_index, *self.model_foils[model_name]}
        return [i for i in range(self.dataset.n_features) if i not in used]


def build_attack_bundle(d: Dataset, cfg: AttackConfig) -> AttackBundle:
    """Train the config's scaffolds around the dataset's biased rule."""
    if d.protected_index is None:
        raise ValueError("dataset lacks a protected column")
    needed = 2 if cfg.two_foils else 1
    if len(d.foil_indices) < needed:
        raise ValueError(f"dataset provides {len(d.foil_indices)} foil columns, "
                         f"but a model needs {needed}")
    if d.n_features <= 1 + needed:  # q_other would be the mean of no feature
        raise ValueError(f"dataset has {d.n_features} features, but a model with {needed} "
                         "foils needs one that is neither protected nor a foil")
    biased_spec = RuleModelSpec(d.protected_index, 0.0, True)
    roster = [("m_L1", 1, cfg.sigma_lime), ("m_S1", 1, cfg.sigma_shap),
              ("m_L2", 2, cfg.sigma_lime), ("m_S2", 2, cfg.sigma_shap)][:2 * needed]
    models, model_foils = {}, {}
    for i, (name, n_foils, sigma_ood) in enumerate(roster, 1):
        foils = d.foil_indices[:n_foils]
        spec = ScaffoldSpec(
            biased=biased_spec,
            foils=tuple(RuleModelSpec(f, 0.0, True) for f in foils),
            sigma_ood=sigma_ood, seed=cfg.seed + i,
            detector_trees=cfg.detector_trees, detector_depth=cfg.detector_depth)
        models[name] = build_scaffold(d, spec)
        model_foils[name] = foils
    return AttackBundle(dataset=d, models=models, model_foils=model_foils)


def bundle_from_config(cfg: AttackConfig) -> AttackBundle:
    return build_attack_bundle(benchmark_proxy(cfg.dataset_name, seed=cfg.dataset_seed), cfg)


@dataclass(frozen=True)
class DetectionVerdict:
    """q-bar values for one (dataset, model, metric) row plus the ordering flag.

    ``passed`` is derived, never passed: the protected explanation's q-bar is
    strictly above every foil's. A verdict file must store that flag and finite q values.
    """

    dataset_id: str
    model_name: str
    metric_name: str
    hyperparams: dict
    q_protected: float
    q_foil1: float
    q_foil2: float | None
    q_other: float
    passed: bool = field(init=False)

    def __post_init__(self):
        for name in ("q_protected", "q_foil1", "q_foil2", "q_other"):
            q = getattr(self, name)
            if q is not None and not np.isfinite(q):
                raise ValueError(f"DetectionVerdict {name} must be finite, not {q}")
        object.__setattr__(self, "passed", bool(self.q_protected > self.q_foil1 and (
            self.q_foil2 is None or self.q_protected > self.q_foil2)))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DetectionVerdict":
        return record_from_dict(cls, d)


def run_fairwash_detection(bundle: AttackBundle,
                           axe_cfgs=(AxeConfig(),),
                           perturb_cfg: PerturbConfig = PerturbConfig(),
                           jobs: int = 1) -> list[DetectionVerdict]:
    """Score the protected / foil / other explanation sets per model and metric.

    Missing second foils yield an explicit None, never 0. The `other` column
    averages the one-hot explanation of every feature that is neither protected
    nor a foil of the model at hand, scored exactly as the other columns are.

    A perturbation gap depends on the explanations only through the index sets
    they perturb, keyed once per dataset, so each model's gaps are computed once per
    distinct per-row index sets, whichever metric asks: with n=1 every PGU one-hot set
    is {0}, or {1} for the set that marks feature 0, which are the PGI sets of
    features 0 and 1. The memo holds unsigned gaps, which ``signed_gap`` signs after
    the mean: bit-equal to each metric's own report, as negation commutes with it.
    """
    gap_cfg = replace(perturb_cfg, negate_pgu=False)
    d = bundle.dataset
    verdicts: list[DetectionVerdict] = []
    manual = {f: make_manual_explanations(d, f) for f in range(d.n_features)}
    # one base prediction per model: AXE's targets and every gap report read it
    probas = [model.predict_proba_batch(d.features) for model in bundle.models.values()]
    y_preds = [labels_of(p) for p in probas]
    # one call per feature: all models and k values vote on shared neighbour tables
    axe_q = {f: axe_quality_many(d, y_preds, manual[f], axe_cfgs) for f in manual}
    # the per-row index sets of each (metric, feature), which no model changes
    key_of = {(metric, f): perturbed_index_sets(metric, manual[f], perturb_cfg.n).tobytes()
              for metric in ("pgi", "pgu") for f in manual}
    representative = {key: job for job, key in reversed(key_of.items())}  # each key's first

    for t, (model_name, model) in enumerate(bundle.models.items()):
        foils = bundle.model_foils[model_name]
        if len(foils) == 0:
            raise ValueError("model has no foil features")
        sets = {"protected": d.protected_index, "foil1": foils[0]}
        if len(foils) > 1:
            sets["foil2"] = foils[1]
        others = bundle.other_indices(model_name)
        scored = [*sets.values(), *others]

        for c, cfg in enumerate(axe_cfgs):
            q = {f: axe_q[f][t][c].aggregate_q for f in scored}
            verdicts.append(_verdict(d, model_name, "axe", asdict(cfg), q, sets, others))

        def gap(key: bytes) -> float:
            metric, f = representative[key]
            return sensitivity_quality_report(metric, model, d, manual[f], gap_cfg,
                                              base_proba=probas[t]).aggregate_q

        keys = dict.fromkeys(key_of[metric, f] for metric in ("pgi", "pgu") for f in scored)
        memo = dict(zip(keys, ordered_parallel_map(gap, keys, jobs=jobs)))
        for metric in ("pgi", "pgu"):
            q = {f: signed_gap(metric, perturb_cfg, memo[key_of[metric, f]]) for f in scored}
            verdicts.append(_verdict(d, model_name, metric, asdict(perturb_cfg),
                                     q, sets, others))
    return verdicts


def _verdict(d: Dataset, model_name: str, metric: str, hyperparams: dict,
             q: dict[int, float], sets: dict[str, int], others: list[int]) -> DetectionVerdict:
    """Verdict row from the aggregate of every scored feature's one-hot set."""
    qbar = {key: float(q[f]) for key, f in sets.items()}
    return DetectionVerdict(
        dataset_id=d.dataset_id, model_name=model_name, metric_name=metric,
        hyperparams=hyperparams,
        q_protected=qbar["protected"], q_foil1=qbar["foil1"], q_foil2=qbar.get("foil2"),
        q_other=float(np.mean([q[f] for f in others])))


def write_verdicts(verdicts: list[DetectionVerdict], path) -> None:
    write_json(path, [v.to_dict() for v in verdicts])


def load_verdicts(path):
    rows = read_json(path)
    check_type("verdict file", rows, list)
    return [DetectionVerdict.from_dict(v) for v in rows]


# ---------------------------------------------------------------------------
# Principle audits. Each check reads one metric's scores on the seeded
# fixtures and records a concrete witness for its pass/fail call.

PRINCIPLES = ("local_contextualization", "model_relativism", "on_manifold_evaluation")

# Every metric, in ``--metric`` order, and the module that scores it.
METRIC_STAGES = {"axe": "axe", "pgi": "metrics_sensitivity", "pgu": "metrics_sensitivity",
                 **dict.fromkeys(REFERENCE_METRICS, "metrics_reference")}


@dataclass
class _PrincipleFixtures:
    """A seeded dataset, candidate explanations and the (model, labels,
    reference vector) variants that score them: ``a`` the rule, ``b`` a shifted
    rule with a second reference vector, ``twin`` the rule changed off the data."""

    d: Dataset
    candidates: dict[str, np.ndarray]
    variants: dict[str, tuple[object, np.ndarray, np.ndarray]]


def _fixtures(seed: int) -> _PrincipleFixtures:
    d = generate_synthetic(SyntheticSpec(nu=60, n_features=4,
                                         seed=component_seed(seed, "principle-data"),
                                         generator_kind="threshold-rule"))
    model_a = make_rule_predictor(RuleModelSpec(0, 0.0, True), d.n_features)
    # same mechanism, slightly shifted boundary: agrees with model_a on most rows
    model_b = make_rule_predictor(RuleModelSpec(0, 0.25, True), d.n_features)
    twin = OffManifoldFlipPredictor(model_a, d.features)
    y_a, y_twin = model_a.predict_batch(d.features), twin.predict_batch(d.features)
    if not np.array_equal(y_twin, y_a):
        raise RuntimeError("twin must agree with the base model on every dataset row")
    e_star = np.array([0.8, 0.4, -0.2, 0.05])
    e_star_alt = np.array([0.6, 0.45, -0.35, 0.02])
    return _PrincipleFixtures(
        d, candidates={"rule-feature-first": np.array([0.9, 0.5, -0.3, 0.1]),
                       "noise-feature-first": np.array([0.1, 0.2, 0.3, 0.9])},
        variants={"a": (model_a, y_a, e_star),
                  "b": (model_b, model_b.predict_batch(d.features), e_star_alt),
                  "twin": (twin, y_twin, e_star)})


def _per_point(metric: str, fx: _PrincipleFixtures, e: np.ndarray, model, y_preds,
               e_star: np.ndarray) -> np.ndarray:
    stage = METRIC_STAGES[metric]
    expls = ExplanationSet(importances=np.tile(e, (fx.d.nu, 1)), explainer_tag="fixture")
    if stage == "axe":
        return axe_quality(fx.d, y_preds, expls, AxeConfig(n=1, k=3)).per_point_q
    if stage == "metrics_reference":
        return reference_quality_report(metric, expls, e_star, n=2).per_point_q
    return sensitivity_quality_report(metric, model, fx.d, expls,
                                      PerturbConfig(n=1, num_perturbations=40)).per_point_q


def _check_local_contextualization(scores: dict, fx: _PrincipleFixtures) -> dict:
    """Pass iff some fixture makes per-point quality differ across rows."""
    for name in fx.candidates:
        q = scores[name, "a"]
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


def _check_model_relativism(metric: str, scores: dict, fx: _PrincipleFixtures) -> dict:
    """Pass iff variant b changes the metric output: the shifted rule, or for a
    reference metric the second reference vector, standing for its coefficients."""
    (_, y_a, e_star), (_, y_b, e_star_alt) = fx.variants["a"], fx.variants["b"]
    agreement = float((y_a == y_b).mean())
    for name in fx.candidates:
        q_a, q_b = scores[name, "a"], scores[name, "b"]
        if not np.array_equal(q_a, q_b, equal_nan=True):
            row = int(np.flatnonzero(~np.isclose(q_a, q_b, equal_nan=True))[0])
            return {"verdict": "pass",
                    "witness": {"fixture": name, "row": row,
                                "q_model_a": float(q_a[row]), "q_model_b": float(q_b[row]),
                                "prediction_agreement": agreement}}
    return {"verdict": "fail",
            "witness": {"detail": "output identical for both members of the "
                                  "prediction-equivalent model pair",
                        "reference_vectors": [e_star.tolist(), e_star_alt.tolist()]
                        if METRIC_STAGES[metric] == "metrics_reference" else None,
                        "prediction_agreement": agreement}}


def _check_on_manifold(scores: dict, fx: _PrincipleFixtures) -> dict:
    """Pass iff an off-manifold-only change in the model leaves the metric unchanged."""
    for name in fx.candidates:
        q_base, q_twin = scores[name, "a"], scores[name, "twin"]
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
    return principle_matrix([metric], seed=seed)[metric]


def principle_matrix(metrics=None, seed: int = 0) -> dict:
    """Audit each metric on one fixture: the three checks read a table of
    per-point scores keyed by (candidate, variant), each scored once."""
    metrics = list(metrics) if metrics is not None else sorted(METRIC_STAGES)
    fx = _fixtures(seed)
    matrix = {}
    for metric in metrics:
        if metric not in METRIC_STAGES:
            raise ValueError(f"unknown metric {metric!r}")
        scores = {(name, v): _per_point(metric, fx, e, *variant)
                  for name, e in fx.candidates.items() for v, variant in fx.variants.items()}
        matrix[metric] = {"metric": metric,
                          "local_contextualization": _check_local_contextualization(scores, fx),
                          "model_relativism": _check_model_relativism(metric, scores, fx),
                          "on_manifold_evaluation": _check_on_manifold(scores, fx)}
    return matrix
