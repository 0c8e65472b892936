"""Command-line entry point tying ingestion, training, explanation, evaluation,
and the experiment harnesses into reproducible runs.

Every run writes the resolved semantic configuration to ``run_config.json`` in
its output directory; re-running with ``--config`` on that file reproduces all
artifacts byte-identically. Output directory and parallelism degree are
runtime-only knobs and are never part of the persisted config. Defaults come
from (lowest to highest precedence) built-ins, ``AXEBENCH_*`` environment
variables, the ``--config`` file, then explicit flags.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .axe import AxeConfig, axe_quality
from .core import QualityReport, check_explanations, write_json
from .data import (BENCHMARK_PROXIES, DatasetSchema, GENERATOR_KINDS,
                   SyntheticSpec, benchmark_proxy, generate_synthetic, load_csv)
from .experiments import (PRINCIPLES, RegionGridSpec, build_attack_bundle,
                          bundle_from_config, default_attack_configs, load_verdicts,
                          principle_matrix, run_fairwash_detection, run_region_grid,
                          standard_model_set, write_region_grid, write_verdicts)
from .explainers import (ExplainerConfig, explain_dataset,
                         load_explanations_csv, load_explanations_json,
                         make_manual_explanations, save_explanations_csv,
                         save_explanations_json)
from .metrics_reference import REFERENCE_METRICS, reference_quality_report
from .metrics_sensitivity import PerturbConfig, sensitivity_quality_report
from .models import (MlpSpec, load_predictor, save_predictor, train_logistic,
                     train_mlp)

ENV_PREFIX = "AXEBENCH_"
_ENV_KEYS = ("seed", "out", "jobs", "n", "k")


class CliError(Exception):
    def __init__(self, module: str, message: str):
        super().__init__(message)
        self.module = module


@contextmanager
def _stage(module: str):
    try:
        yield
    except CliError:
        raise
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        raise CliError(module, str(exc)) from exc


def _resolve(args: argparse.Namespace, config: dict, defaults: dict) -> dict:
    """Merge defaults < environment < config file < explicit flags."""
    merged = dict(defaults)
    for key in _ENV_KEYS:
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None and key in defaults:
            merged[key] = type(defaults[key])(raw) if defaults[key] is not None else raw
    merged.update({k: v for k, v in config.items() if k in defaults})
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _load_config_file(args: argparse.Namespace) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        env_path = os.environ.get(ENV_PREFIX + "CONFIG")
        path = env_path
    if path is None:
        return {}
    with _stage("cli"):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def _out_dir(params: dict) -> Path:
    out = params.get("out")
    if not out:
        raise CliError("cli", "an output directory is required (--out)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_dataset(params: dict):
    with _stage("data"):
        if params.get("dataset"):
            if not params.get("schema"):
                raise CliError("data", "--schema is required with --dataset")
            return load_csv(params["dataset"], DatasetSchema.from_json(params["schema"]))
        if params.get("proxy"):
            return benchmark_proxy(params["proxy"], seed=params["seed"])
        if params.get("synthetic"):
            spec = SyntheticSpec(nu=params["rows"], n_features=params["cols"],
                                 seed=params["seed"], generator_kind=params["synthetic"])
            return generate_synthetic(spec)
    raise CliError("data", "no dataset given: use --dataset/--schema, --synthetic, or --proxy")


def _resolve_model(params: dict, d):
    with _stage("models"):
        if params.get("model"):
            return load_predictor(params["model"])
        train = params.get("train")
        if train == "logistic":
            return train_logistic(d, seed=params["seed"])
        if train == "mlp":
            return train_mlp(d, MlpSpec(hidden_sizes=(8,), seed=params["seed"]))
        if train:
            raise CliError("models", f"unknown trainer {train!r}")
    raise CliError("models", "no model given: use --model FILE or --train logistic|mlp")


def _resolve_explanations(params: dict, d, model):
    with _stage("explainers"):
        if params.get("explanations"):
            path = params["explanations"]
            loaded = (load_explanations_json(path) if str(path).endswith(".json")
                      else load_explanations_csv(path))
            check_explanations(d, loaded)
            return loaded
        if params.get("manual_index") is not None:
            return make_manual_explanations(d, params["manual_index"])
        if params.get("explainer"):
            cfg = ExplainerConfig(kind=params["explainer"], seed=params["seed"])
            return explain_dataset(model, d, cfg)
    raise CliError("explainers",
                   "no explanations given: use --explanations, --explainer, or --manual-index")


def _reference_vector(params: dict, model):
    if params.get("e_star"):
        return np.array([float(v) for v in str(params["e_star"]).split(",")])
    spec = getattr(model, "spec", None)
    if spec is not None and hasattr(spec, "coefficients"):
        return np.asarray(spec.coefficients, dtype=float)
    raise CliError("metrics_reference",
                   "reference metrics need --e-star or a linear model with coefficients")


_EVALUATE_DEFAULTS = {
    "seed": 0, "out": None, "jobs": 1, "n": 1, "k": 5, "include_self": False,
    "dataset": None, "schema": None, "synthetic": None, "proxy": None,
    "rows": 200, "cols": 5, "model": None, "train": None,
    "explanations": None, "explainer": None, "manual_index": None,
    "metric": ["axe"], "e_star": None, "num_perturbations": 100, "sigma": 0.5,
    "axe_trace": False,
}


def cmd_evaluate(params: dict) -> int:
    out = _out_dir(params)
    d = _resolve_dataset(params)
    model = _resolve_model(params, d)
    explanations = _resolve_explanations(params, d, model)
    with _stage("models"):
        y_preds = model.predict_batch(d.features)

    for metric in params["metric"]:
        if metric == "axe":
            with _stage("axe"):
                cfg = AxeConfig(n=params["n"], k=params["k"],
                                include_self=params["include_self"])
                trace = out / "axe_trace.csv" if params["axe_trace"] else None
                report = axe_quality(d, y_preds, explanations, cfg,
                                     model_descriptor=model.descriptor, trace_path=trace)
        elif metric in ("pgi", "pgu"):
            with _stage("metrics_sensitivity"):
                cfg = PerturbConfig(n=params["n"], seed=params["seed"],
                                    num_perturbations=params["num_perturbations"],
                                    sigma=params["sigma"])
                report = sensitivity_quality_report(metric, model, d, explanations, cfg)
        elif metric in REFERENCE_METRICS:
            with _stage("metrics_reference"):
                e_star = _reference_vector(params, model)
                report = reference_quality_report(metric, explanations, e_star,
                                                  n=params["n"], dataset_id=d.dataset_id,
                                                  model_descriptor=model.descriptor)
        else:
            raise CliError("cli", f"unknown metric {metric!r}")
        report.to_json(out / f"report_{metric}.json")
    _write_run_config(out, "evaluate", params, _EVALUATE_DEFAULTS)
    return 0


def cmd_explain(params: dict) -> int:
    out = _out_dir(params)
    d = _resolve_dataset(params)
    model = _resolve_model(params, d)
    if not params.get("explainer") and params.get("manual_index") is None:
        raise CliError("explainers", "no explainer given: use --explainer or --manual-index")
    explanations = _resolve_explanations(params, d, model)
    save_explanations_csv(explanations, out / "explanations.csv", d.feature_names)
    save_explanations_json(explanations, out / "explanations.json")
    _write_run_config(out, "explain", params, _EVALUATE_DEFAULTS)
    return 0


_ATTACK_DEFAULTS = {
    "seed": 0, "out": None, "jobs": 1, "n": 1, "k": 5, "include_self": False,
    "proxy": "all", "dataset": None, "schema": None,
    "num_perturbations": 100, "sigma": 0.5,
}


def cmd_attack(params: dict) -> int:
    out = _out_dir(params)
    axe_cfg = AxeConfig(n=params["n"], k=params["k"], include_self=params["include_self"])
    perturb = PerturbConfig(n=params["n"], seed=params["seed"],
                            num_perturbations=params["num_perturbations"],
                            sigma=params["sigma"])
    verdicts = []
    with _stage("experiments"):
        if params.get("dataset"):
            if not params.get("schema"):
                raise CliError("data", "--schema is required with --dataset")
            d = load_csv(params["dataset"], DatasetSchema.from_json(params["schema"]))
            if d.protected_index is None:
                raise CliError("experiments", "dataset lacks a protected column")
            if not d.foil_indices:
                raise CliError("experiments", "dataset declares no foil columns")
            models = standard_model_set(params["seed"], 1.0, 0.8,
                                        two_foils=len(d.foil_indices) >= 2)
            bundles = {d.dataset_id: build_attack_bundle(d, models)}
        else:
            wanted = BENCHMARK_PROXIES if params["proxy"] == "all" else (params["proxy"],)
            configs = {c.dataset_name: c for c in default_attack_configs(params["seed"])}
            bundles = {}
            for name in wanted:
                if name not in configs:
                    raise CliError("experiments", f"unknown benchmark proxy {name!r}")
                bundles[name] = bundle_from_config(configs[name])
        for name, bundle in bundles.items():
            for model_name, model in bundle.models.items():
                save_predictor(model, out / "models" / f"{name}_{model_name}.json")
            verdicts.extend(run_fairwash_detection(
                bundle, axe_cfgs=(axe_cfg,), perturb_cfg=perturb,
                jobs=params.get("jobs") or 1))
    write_verdicts(verdicts, out / "verdicts.json")
    _write_run_config(out, "attack", params, _ATTACK_DEFAULTS)
    _print_verdicts(verdicts)
    return 0


_REGION_DEFAULTS = {
    "seed": 0, "out": None, "jobs": 1, "e_star": "0.7,0.3", "resolution": 201, "n": 2,
}


def cmd_region_grid(params: dict) -> int:
    out = _out_dir(params)
    with _stage("experiments"):
        e_star = tuple(float(v) for v in str(params["e_star"]).split(","))
        spec = RegionGridSpec(e_star=e_star, resolution=params["resolution"], n=params["n"])
        result = run_region_grid(spec)
        write_region_grid(result, out)
    _write_run_config(out, "region-grid", params, _REGION_DEFAULTS)
    for metric, values in result.value_sets.items():
        print(f"{metric}: {len(values)} distinct values {values}")
    return 0


_PRINCIPLES_DEFAULTS = {"seed": 0, "out": None, "jobs": 1}


def cmd_principles(params: dict) -> int:
    out = _out_dir(params)
    with _stage("experiments"):
        matrix = principle_matrix(seed=params["seed"])
    write_json(out / "principles.json", matrix)
    _write_run_config(out, "principles", params, _PRINCIPLES_DEFAULTS)
    for metric, result in sorted(matrix.items()):
        marks = " ".join(f"{p}={result[p]['verdict']}" for p in PRINCIPLES)
        print(f"{metric}: {marks}")
    return 0


def cmd_report(params: dict) -> int:
    run_dir = Path(params["run"])
    if not run_dir.is_dir():
        raise CliError("cli", f"run directory {run_dir} does not exist")
    ok = True
    verdict_file = run_dir / "verdicts.json"
    if verdict_file.exists():
        verdicts = load_verdicts(verdict_file)
        _print_verdicts(verdicts)
        for v in verdicts:
            if v.recomputed_pass() != v.passed:
                print(f"MISMATCH: stored pass flag differs for "
                      f"{v.dataset_id}/{v.model_name}/{v.metric_name}", file=sys.stderr)
                ok = False
    for report_file in sorted(run_dir.glob("report_*.json")):
        with _stage("core"):
            report = QualityReport.from_json(report_file)
        agg = "undefined" if report.aggregate_q != report.aggregate_q else f"{report.aggregate_q:.6f}"
        print(f"{report.metric_name}: aggregate={agg} rows={report.per_point_q.size} "
              f"dataset={report.dataset_id}")
    return 0 if ok else 1


def _print_verdicts(verdicts) -> None:
    header = f"{'dataset':<24}{'model':<8}{'metric':<7}{'q(prot)':>10}{'q(foil1)':>10}" \
             f"{'q(foil2)':>10}{'q(other)':>10}  pass"
    print(header)
    for v in verdicts:
        foil2 = "na" if v.q_foil2 is None else f"{v.q_foil2:.3f}"
        print(f"{v.dataset_id:<24}{v.model_name:<8}{v.metric_name:<7}"
              f"{v.q_protected:>10.3f}{v.q_foil1:>10.3f}{foil2:>10}"
              f"{v.q_other:>10.3f}  {'yes' if v.passed else 'NO'}")


def _write_run_config(out: Path, command: str, params: dict, defaults: dict) -> None:
    semantic = {k: params[k] for k in defaults if k not in ("out", "jobs")}
    write_json(out / "run_config.json", {"command": command, **semantic})


_COMMANDS = {
    "evaluate": (cmd_evaluate, _EVALUATE_DEFAULTS),
    "explain": (cmd_explain, _EVALUATE_DEFAULTS),
    "attack": (cmd_attack, _ATTACK_DEFAULTS),
    "region-grid": (cmd_region_grid, _REGION_DEFAULTS),
    "principles": (cmd_principles, _PRINCIPLES_DEFAULTS),
    "report": (cmd_report, {"run": None}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axebench",
        description="Evaluate feature-importance explanations without ground truth")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config; flags override its values")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--jobs", type=int)

    def data_flags(p):
        p.add_argument("--dataset", help="CSV path")
        p.add_argument("--schema", help="dataset schema JSON")
        p.add_argument("--synthetic", choices=GENERATOR_KINDS)
        p.add_argument("--proxy", help=f"benchmark stand-in: {', '.join(BENCHMARK_PROXIES)}")
        p.add_argument("--rows", type=int)
        p.add_argument("--cols", type=int)

    def model_flags(p):
        p.add_argument("--model", help="predictor JSON path")
        p.add_argument("--train", choices=("logistic", "mlp"))

    p_eval = sub.add_parser("evaluate", help="score explanations under one or more metrics")
    common(p_eval); data_flags(p_eval); model_flags(p_eval)
    p_eval.add_argument("--explanations", help="explanations CSV/JSON path")
    p_eval.add_argument("--explainer", choices=ExplainerConfig.KINDS)
    p_eval.add_argument("--manual-index", dest="manual_index", type=int)
    p_eval.add_argument("--metric", action="append",
                        help="repeatable: axe, pgi, pgu, fa, ra, sa, sra, rc, pra")
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--include-self", dest="include_self",
                        action=argparse.BooleanOptionalAction)
    p_eval.add_argument("--e-star", dest="e_star")
    p_eval.add_argument("--num-perturbations", dest="num_perturbations", type=int)
    p_eval.add_argument("--sigma", type=float)
    p_eval.add_argument("--axe-trace", dest="axe_trace",
                        action=argparse.BooleanOptionalAction)

    p_explain = sub.add_parser("explain", help="generate and save explanations")
    common(p_explain); data_flags(p_explain); model_flags(p_explain)
    p_explain.add_argument("--explainer", choices=ExplainerConfig.KINDS)
    p_explain.add_argument("--manual-index", dest="manual_index", type=int)

    p_attack = sub.add_parser("attack", help="fairwash-detection experiment")
    common(p_attack)
    p_attack.add_argument("--proxy", help="benchmark stand-in name or 'all'")
    p_attack.add_argument("--dataset"); p_attack.add_argument("--schema")
    p_attack.add_argument("--n", type=int)
    p_attack.add_argument("--k", type=int)
    p_attack.add_argument("--include-self", dest="include_self",
                          action=argparse.BooleanOptionalAction)
    p_attack.add_argument("--num-perturbations", dest="num_perturbations", type=int)
    p_attack.add_argument("--sigma", type=float)

    p_grid = sub.add_parser("region-grid", help="explanation-quality maps over (i1, i2)")
    common(p_grid)
    p_grid.add_argument("--e-star", dest="e_star")
    p_grid.add_argument("--resolution", type=int)
    p_grid.add_argument("--n", type=int)

    p_prin = sub.add_parser("principles", help="audit every metric against the principles")
    common(p_prin)

    p_report = sub.add_parser("report", help="verify and summarize a finished run")
    p_report.add_argument("--run", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, defaults = _COMMANDS[args.command]
    try:
        config = _load_config_file(args)
        if config.get("command", args.command) != args.command:
            raise CliError("cli", f"config file was written by command "
                                  f"{config['command']!r}, not {args.command!r}")
        params = _resolve(args, config, defaults)
        if args.command == "report":
            params["run"] = args.run
        return handler(params)
    except CliError as exc:
        print(f"error [{exc.module}]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(traceback.format_exc(), end="", file=sys.stderr)
        print(f"error [internal]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
