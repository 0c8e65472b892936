"""The four benchmark workloads: seeded input generation, the CLI commands of
one pass, and the seed-independent invariants every pass must satisfy.

Each ``setup`` writes its inputs under ``inputs/`` of the current directory and
returns the pass as a list of ``(output subdirectory, argv)`` pairs. Paths in
argv are relative, so the ``run_config.json`` files a pass writes, and with
them the output digest, do not depend on where the checkout lives.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from axebench.data import (DatasetSchema, SyntheticSpec, benchmark_proxy,
                           generate_synthetic, save_csv)
from axebench.explainers import ExplainerConfig, explain_dataset, save_explanations_csv
from axebench.models import MlpSpec, save_predictor, train_mlp

INPUTS = Path("inputs")

# Sizes are chosen so that one pass takes about 1.5-3 s on a 2-core x86 box;
# the toy sizes only exercise every code path for the smoke test.
SIZES = {
    "full": {"fairwash_rows": 150, "fairwash_perturbations": 40, "evaluate_rows": 3000,
             "explain_rows": 500, "grid_resolution": 81},
    "toy": {"fairwash_rows": 80, "fairwash_perturbations": 5, "evaluate_rows": 120,
            "explain_rows": 12, "grid_resolution": 7},
}

# Acceptance criterion 4 of the package: the verdict each metric family earns
# on (local contextualization, model relativism, on-manifold evaluation).
EXPECTED_PRINCIPLES = {
    "axe": ["pass", "pass", "pass"],
    **{m: ["fail", "fail", "pass"] for m in ("fa", "ra", "sa", "sra", "rc", "pra")},
    **{m: ["pass", "pass", "fail"] for m in ("pgi", "pgu")},
}
PRINCIPLES = ("local_contextualization", "model_relativism", "on_manifold_evaluation")

Commands = list[tuple[str, list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, dict], Commands]
    check: Callable[[Path, dict], list[str]]


def _common(seed: int) -> list[str]:
    return ["--seed", str(seed), "--jobs", "1"]


def _setup_fairwash(seed: int, size: dict) -> Commands:
    d = benchmark_proxy("compas", seed=seed, nu=size["fairwash_rows"])
    save_csv(d, INPUTS / "compas.csv")
    DatasetSchema(name="compas", column_names=[*d.feature_names, "label"],
                  target_column="label", protected_column="race_is_white",
                  foil_columns=["unrelated_one", "unrelated_two"]
                  ).to_json(INPUTS / "compas_schema.json")
    return [("attack", ["attack", "--dataset", str(INPUTS / "compas.csv"),
                        "--schema", str(INPUTS / "compas_schema.json"),
                        "--num-perturbations", str(size["fairwash_perturbations"]),
                        *_common(seed)])]


def _check_fairwash(out: Path, size: dict) -> list[str]:
    verdicts = json.loads((out / "attack" / "verdicts.json").read_text())
    axe = [v for v in verdicts if v["metric_name"] == "axe"]
    problems = [f"axe verdict fails on {v['model_name']}" for v in axe if not v["passed"]]
    if sorted(v["model_name"] for v in axe) != ["m_L1", "m_L2", "m_S1", "m_S2"]:
        problems.append(f"expected axe verdicts for 4 models, got {len(axe)}")
    return problems


def _synthetic_flags(rows: int) -> list[str]:
    return ["--synthetic", "correlated-foil", "--rows", str(rows), "--cols", "8"]


def _setup_evaluate(seed: int, size: dict) -> Commands:
    rows = size["evaluate_rows"]
    d = generate_synthetic(SyntheticSpec(nu=rows, n_features=8, seed=seed,
                                         generator_kind="correlated-foil"))
    model = train_mlp(d, MlpSpec(hidden_sizes=(8,), seed=seed))
    save_predictor(model, INPUTS / "mlp.json")
    explanations = explain_dataset(model, d, ExplainerConfig(kind="gradient", seed=seed))
    save_explanations_csv(explanations, INPUTS / "gradients.csv", d.feature_names)
    return [("evaluate", ["evaluate", *_synthetic_flags(rows),
                          "--model", str(INPUTS / "mlp.json"),
                          "--explanations", str(INPUTS / "gradients.csv"),
                          "--n", "2", "--k", "5",
                          "--metric", "axe", "--metric", "pgi", "--metric", "pgu",
                          *_common(seed)])]


def _check_evaluate(out: Path, size: dict) -> list[str]:
    problems = []
    for metric in ("axe", "pgi", "pgu"):
        report = json.loads((out / "evaluate" / f"report_{metric}.json").read_text())
        values = report["per_point_q"]
        if len(values) != size["evaluate_rows"]:
            problems.append(f"{metric}: {len(values)} per-point values, "
                            f"expected {size['evaluate_rows']}")
        if not all(v is not None and math.isfinite(v) for v in values):
            problems.append(f"{metric}: non-finite per-point values")
    return problems


EXPLAINERS = ("kernel-shapley", "integrated-gradients")


def _setup_explain(seed: int, size: dict) -> Commands:
    flags = _synthetic_flags(size["explain_rows"])
    return [(kind, ["explain", *flags, "--train", "mlp", "--explainer", kind, *_common(seed)])
            for kind in EXPLAINERS]


def _finite_row(values, width: int) -> bool:
    return len(values) == width and all(math.isfinite(float(v)) for v in values)


def _check_explain(out: Path, size: dict) -> list[str]:
    rows, problems = size["explain_rows"], []
    for kind in EXPLAINERS:
        with open(out / kind / "explanations.csv", newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))[1:]
        payload = json.loads((out / kind / "explanations.json").read_text())
        if len(table) != rows or not all(_finite_row(r[1:], 8) for r in table):
            problems.append(f"{kind}: explanations.csv is not {rows} rows of 8 finite importances")
        if len(payload) != rows or not all(_finite_row(e["importances"], 8) for e in payload):
            problems.append(f"{kind}: explanations.json is not {rows} rows of 8 finite importances")
    return problems


def _setup_grid_audit(seed: int, size: dict) -> Commands:
    e_star = ",".join(repr(float(v)) for v in np.random.default_rng(seed).uniform(0.05, 1.0, 2).round(3))
    return [("region", ["region-grid", "--resolution", str(size["grid_resolution"]),
                        "--e-star", e_star, *_common(seed)]),
            ("principles", ["principles", *_common(seed)])]


def _check_grid_audit(out: Path, size: dict) -> list[str]:
    matrix = json.loads((out / "principles" / "principles.json").read_text())
    got = {m: [r[p]["verdict"] for p in PRINCIPLES] for m, r in matrix.items()}
    if got != EXPECTED_PRINCIPLES:
        wrong = sorted(m for m in set(got) | set(EXPECTED_PRINCIPLES)
                       if got.get(m) != EXPECTED_PRINCIPLES.get(m))
        return [f"principle matrix differs from criterion 4 for {', '.join(wrong)}"]
    return []


WORKLOADS = {w.name: w for w in (
    Workload("fairwash", _setup_fairwash, _check_fairwash),
    Workload("evaluate", _setup_evaluate, _check_evaluate),
    Workload("explain", _setup_explain, _check_explain),
    Workload("grid_audit", _setup_grid_audit, _check_grid_audit),
)}
