"""Command-line entry point tying ingestion, training, explanation, evaluation,
and the experiment harnesses into reproducible runs.

Every command but ``report`` computes all its results before it opens its first
output file, and writes the resolved semantic configuration to
``run_config.json`` in its output directory after its other outputs; re-running
with ``--config`` on that file reproduces all artifacts byte-identically. Output
directory and parallelism degree are runtime-only knobs and are never part of the
persisted config. Defaults come from (lowest to highest precedence) built-ins,
``AXEBENCH_*`` environment variables, the ``--config`` file, then explicit flags.
"""
from __future__ import annotations

import argparse
import os
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .axe import AxeConfig, axe_quality, write_trace
from .core import QualityReport, check_explanations, check_type, labels_of, read_json, write_json
from .data import (BENCHMARK_PROXIES, DatasetSchema, GENERATOR_KINDS,
                   SyntheticSpec, benchmark_proxy, generate_synthetic, load_csv)
from .experiments import (METRIC_STAGES, PRINCIPLES, AttackConfig, RegionGridSpec,
                          build_attack_bundle, bundle_from_config, default_attack_configs,
                          load_verdicts, principle_matrix, run_fairwash_detection,
                          run_region_grid, write_region_grid, write_verdicts)
from .explainers import (ExplainerConfig, explain_dataset,
                         load_explanations_csv, load_explanations_json,
                         make_manual_explanations, save_explanations_csv,
                         save_explanations_json)
from .metrics_reference import reference_quality_report
from .metrics_sensitivity import PerturbConfig, sensitivity_quality_report
from .models import (MlpSpec, load_predictor, save_predictor, train_logistic,
                     train_mlp)

ENV_PREFIX = "AXEBENCH_"
_ENV_KEYS = ("seed", "out", "jobs", "n", "k")

# Every parameter key once: the type its value must have wherever it comes from
# (flag, environment or config file) and the settings of its ``--key`` flag.
_FLAGS = {
    "config": (str, {"help": "JSON run config; flags override its values"}),
    "seed": (int, {}),
    "out": (str, {}),
    "jobs": (int, {}),
    "dataset": (str, {"help": "CSV path"}),
    "schema": (str, {"help": "dataset schema JSON"}),
    "synthetic": (str, {"choices": GENERATOR_KINDS}),
    "proxy": (str, {"help": f"benchmark stand-in: {', '.join(BENCHMARK_PROXIES)} "
                            f"(attack also takes 'all')"}),
    "rows": (int, {}),
    "cols": (int, {}),
    "model": (str, {"help": "predictor JSON path"}),
    "train": (str, {"choices": ("logistic", "mlp")}),
    "explanations": (str, {"help": "explanations CSV/JSON path"}),
    "explainer": (str, {"choices": ExplainerConfig.KINDS}),
    "manual_index": (int, {}),
    "metric": (list[str], {"action": "append",
                           "help": f"repeatable: {', '.join(METRIC_STAGES)}"}),
    "n": (int, {}),
    "k": (int, {}),
    "include_self": (bool, {"action": argparse.BooleanOptionalAction}),
    "e_star": (str, {}),
    "num_perturbations": (int, {}),
    "sigma": (float, {}),
    "axe_trace": (bool, {"action": argparse.BooleanOptionalAction}),
    "resolution": (int, {}),
    "run": (str, {"required": True}),
}


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
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        raise CliError(module, str(exc)) from exc
    except MemoryError as exc:
        raise CliError(module, f"out of memory: {exc}" if str(exc) else "out of memory") from exc


def _resolve(args: argparse.Namespace, config, defaults: dict) -> dict:
    """Merge defaults < environment < config file < explicit flags, checking each
    environment and config value against its key's entry in ``_FLAGS``, every merged
    value of a float key for finiteness, the seed for sign and jobs for being >= 1."""
    merged = dict(defaults)
    for key in _ENV_KEYS:
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None and key in defaults:
            tp = _FLAGS[key][0]
            try:
                merged[key] = tp(raw)
            except ValueError:
                raise ValueError(f"{ENV_PREFIX}{key.upper()} must be {tp.__name__}, "
                                 f"not {raw!r}") from None
    check_type("config file", config, dict)
    for key, value in config.items():
        if key == "command":
            if value != args.command:
                raise ValueError(f"config file was written by command {value!r}, "
                                 f"not {args.command!r}")
            continue
        if key not in defaults:
            raise ValueError(f"config key {key!r} is not a parameter of {args.command!r}")
        tp, settings = _FLAGS[key]
        check_type(f"config key {key!r}", value, tp if defaults[key] is not None else tp | None)
        choices = settings.get("choices")
        if choices and value is not None and value not in choices:
            raise ValueError(f"config key {key!r} must be one of {', '.join(choices)}, "
                             f"not {value!r}")
        merged[key] = value
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        if _FLAGS[key][0] is float and not np.isfinite(merged[key]):
            raise ValueError(f"{key} must be a finite number, not {merged[key]!r}")
        if key == "seed" and merged[key] < 0:
            raise ValueError(f"seed must be a non-negative integer, not {merged[key]!r}")
        if key == "jobs" and merged[key] < 1:
            raise ValueError(f"jobs must be a positive integer, not {merged[key]!r}")
    return merged


def _load_config_file(args: argparse.Namespace):
    if "config" not in args:  # report reads no config, from a flag or the environment
        return {}
    path = args.config if args.config is not None else os.environ.get(ENV_PREFIX + "CONFIG")
    return {} if path is None else read_json(path)


def _check_sources(params: dict, defaults: dict) -> None:
    """Refuse two sources of one input, and --dataset or --schema alone. A value
    other than the command's default is given: attack's --proxy all is not."""
    given = [key for key in defaults if params[key] != defaults[key]]
    for module, keys in (("data", ("dataset", "proxy", "synthetic")),
                         ("models", ("model", "train")),
                         ("explainers", ("explanations", "manual_index", "explainer"))):
        clash = ["--" + key.replace("_", "-") for key in keys if key in given]
        if len(clash) > 1:
            raise CliError(module, f"{' and '.join(clash)} give one input: use one of them")
    if ("dataset" in given) != ("schema" in given):
        raise CliError("data", "--dataset and --schema go together: the schema describes the CSV")


def _resolve_dataset(params: dict):
    """The run's dataset; each warning its loading recorded goes to stderr, never to --out."""
    with _stage("data"):
        if params["dataset"] is not None:
            d = load_csv(params["dataset"], DatasetSchema.from_json(params["schema"]))
        elif params["proxy"] is not None:
            d = benchmark_proxy(params["proxy"], seed=params["seed"])
        elif params["synthetic"] is not None:
            spec = SyntheticSpec(nu=params["rows"], n_features=params["cols"],
                                 seed=params["seed"], generator_kind=params["synthetic"])
            d = generate_synthetic(spec)
        else:
            raise CliError("data",
                           "no dataset given: use --dataset/--schema, --synthetic, or --proxy")
    for warning in d.metadata.get("warnings", ()):
        print(f"warning [data]: {warning}", file=sys.stderr)
    return d


def _resolve_model(params: dict, d):
    with _stage("models"):
        if params["model"] is not None:
            return load_predictor(params["model"])
        if params["train"] == "logistic":
            return train_logistic(d, seed=params["seed"])
        if params["train"] == "mlp":
            return train_mlp(d, MlpSpec(hidden_sizes=(8,), seed=params["seed"]))
    raise CliError("models", "no model given: use --model FILE or --train logistic|mlp")


def _resolve_explanations(params: dict, d, model):
    with _stage("explainers"):
        if params.get("explanations") is not None:
            path = params["explanations"]
            loaded = (load_explanations_json(path) if str(path).endswith(".json")
                      else load_explanations_csv(path, d.feature_names))
            check_explanations(d, loaded)
            return loaded
        if params["manual_index"] is not None:
            return make_manual_explanations(d, params["manual_index"])
        if params["explainer"] is not None:
            cfg = ExplainerConfig(kind=params["explainer"], seed=params["seed"])
            return explain_dataset(model, d, cfg)
    raise CliError("explainers", "no explanations given: use --explainer or --manual-index "
                                 "(evaluate also takes --explanations)")


def _parse_e_star(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _reference_vector(params: dict, model):
    if params["e_star"] is not None:  # only an absent --e-star falls back to the model
        return np.array(_parse_e_star(params["e_star"]))
    spec = getattr(model, "spec", None)
    if spec is not None and hasattr(spec, "coefficients"):
        return np.asarray(spec.coefficients, dtype=float)
    raise CliError("metrics_reference",
                   "reference metrics need --e-star or a linear model with coefficients")


_EXPLAIN_DEFAULTS = {
    "seed": 0, "out": None, "jobs": 1,
    "dataset": None, "schema": None, "synthetic": None, "proxy": None,
    "rows": 200, "cols": 5, "model": None, "train": None,
    "explainer": None, "manual_index": None,
}

_EVALUATE_DEFAULTS = {
    **_EXPLAIN_DEFAULTS, "n": 1, "k": 5, "include_self": False, "explanations": None,
    "metric": ["axe"], "e_star": None, "num_perturbations": 100, "sigma": 0.5,
    "axe_trace": False,
}


def cmd_evaluate(params: dict, out: Path) -> None:
    """Score explanations under one or more metrics."""
    for metric in params["metric"]:
        if metric not in METRIC_STAGES:
            raise CliError("cli", f"unknown metric {metric!r}")
    d = _resolve_dataset(params)
    model = _resolve_model(params, d)
    explanations = _resolve_explanations(params, d, model)
    with _stage("models"):  # one prediction on the rows: AXE's targets and the gaps' base
        proba = model.predict_proba_batch(d.features)
        y_preds = labels_of(proba)

    reports = []
    for metric in params["metric"]:
        with _stage(METRIC_STAGES[metric]):
            if metric == "axe":
                cfg = AxeConfig(n=params["n"], k=params["k"], include_self=params["include_self"])
                reports.append(axe_quality(d, y_preds, explanations, cfg, model.descriptor))
            elif metric in ("pgi", "pgu"):
                cfg = PerturbConfig(n=params["n"], seed=params["seed"], sigma=params["sigma"],
                                    num_perturbations=params["num_perturbations"])
                reports.append(sensitivity_quality_report(metric, model, d, explanations, cfg,
                                                          base_proba=proba))
            else:
                reports.append(reference_quality_report(
                    metric, explanations, _reference_vector(params, model), n=params["n"],
                    dataset_id=d.dataset_id, model_descriptor=model.descriptor))
    # every metric is scored before the first file is opened: a refused run writes nothing
    for report in reports:
        with _stage(METRIC_STAGES[report.metric_name]):
            report.to_json(out / f"report_{report.metric_name}.json")
            if report.metric_name == "axe" and params["axe_trace"]:
                write_trace(out / "axe_trace.csv", report, y_preds, explanations)


def cmd_explain(params: dict, out: Path) -> None:
    """Generate and save explanations."""
    d = _resolve_dataset(params)
    model = _resolve_model(params, d)
    explanations = _resolve_explanations(params, d, model)
    with _stage("explainers"):
        save_explanations_csv(explanations, out / "explanations.csv", d.feature_names)
        save_explanations_json(explanations, out / "explanations.json")


_ATTACK_DEFAULTS = {
    "seed": 0, "out": None, "jobs": 1, "n": 1, "k": 5, "include_self": False,
    "proxy": "all", "dataset": None, "schema": None,
    "num_perturbations": 100, "sigma": 0.5,
}


def cmd_attack(params: dict, out: Path) -> None:
    """Run the fairwash-detection experiment."""
    d = _resolve_dataset(params) if params["dataset"] is not None else None
    with _stage("experiments"):
        axe_cfg = AxeConfig(n=params["n"], k=params["k"], include_self=params["include_self"])
        perturb = PerturbConfig(n=params["n"], seed=params["seed"],
                                num_perturbations=params["num_perturbations"],
                                sigma=params["sigma"])
        if d is not None:
            cfg = AttackConfig(d.dataset_id, params["seed"], two_foils=len(d.foil_indices) >= 2)
            bundles = {d.dataset_id: build_attack_bundle(d, cfg)}
        else:
            wanted = BENCHMARK_PROXIES if params["proxy"] == "all" else (params["proxy"],)
            configs = {c.dataset_name: c for c in default_attack_configs(params["seed"])}
            bundles = {}
            for name in wanted:
                if name not in configs:
                    raise CliError("experiments", f"unknown benchmark proxy {name!r}")
                bundles[name] = bundle_from_config(configs[name])
        verdicts = [v for bundle in bundles.values() for v in run_fairwash_detection(
            bundle, axe_cfgs=(axe_cfg,), perturb_cfg=perturb, jobs=params["jobs"])]
        # every bundle is scored before the first file is opened: a refused run writes nothing
        for name, bundle in bundles.items():
            for model_name, model in bundle.models.items():
                save_predictor(model, out / "models" / f"{name}_{model_name}.json")
        write_verdicts(verdicts, out / "verdicts.json")
    _print_verdicts(verdicts)


_REGION_DEFAULTS = {
    "seed": 0, "out": None, "jobs": 1, "e_star": "0.7,0.3", "resolution": 201, "n": 2,
}


def cmd_region_grid(params: dict, out: Path) -> None:
    """Map explanation quality over candidate explanations (i1, i2)."""
    with _stage("experiments"):
        spec = RegionGridSpec(e_star=_parse_e_star(params["e_star"]),
                              resolution=params["resolution"], n=params["n"])
        result = run_region_grid(spec)
        write_region_grid(result, out)
    for metric, values in result.value_sets.items():
        print(f"{metric}: {len(values)} distinct values {values}")


_PRINCIPLES_DEFAULTS = {"seed": 0, "out": None, "jobs": 1}


def cmd_principles(params: dict, out: Path) -> None:
    """Audit every metric against the principles."""
    with _stage("experiments"):
        matrix = principle_matrix(seed=params["seed"])
        write_json(out / "principles.json", matrix)
    for metric, result in sorted(matrix.items()):
        marks = " ".join(f"{p}={result[p]['verdict']}" for p in PRINCIPLES)
        print(f"{metric}: {marks}")


def cmd_report(params: dict) -> None:
    """Verify and summarize a finished run."""
    if not params["run"]:  # Path("") would be the working directory
        raise CliError("cli", "--run must name a run directory, not an empty path")
    run_dir = Path(params["run"])
    if not run_dir.is_dir():
        raise CliError("cli", f"run directory {run_dir} does not exist")
    verdict_file = run_dir / "verdicts.json"
    with _stage("experiments"):
        verdicts = load_verdicts(verdict_file) if verdict_file.exists() else None
    with _stage("core"):
        reports = [QualityReport.from_json(f) for f in sorted(run_dir.glob("report_*.json"))]
    config_file = run_dir / "run_config.json"  # every other command writes it last
    with _stage("cli"):
        config = read_json(config_file) if config_file.is_file() else None
    writers = [command for command in _COMMANDS if command != "report"]
    if not isinstance(config, dict) or config.get("command") not in writers:
        raise CliError("cli", f"run directory {run_dir} holds no finished run: its "
                              f"run_config.json must name one of {', '.join(writers)}")
    if verdicts is not None:
        _print_verdicts(verdicts)
    for report in reports:
        agg = "undefined" if report.aggregate_q != report.aggregate_q else f"{report.aggregate_q:.6f}"
        print(f"{report.metric_name}: aggregate={agg} rows={report.per_point_q.size} "
              f"dataset={report.dataset_id}")


def _print_verdicts(verdicts) -> None:
    header = f"{'dataset':<24}{'model':<8}{'metric':<7}{'q(prot)':>10}{'q(foil1)':>10}" \
             f"{'q(foil2)':>10}{'q(other)':>10}  pass"
    print(header)
    for v in verdicts:
        foil2 = "na" if v.q_foil2 is None else f"{v.q_foil2:.3f}"
        print(f"{v.dataset_id:<24}{v.model_name:<8}{v.metric_name:<7}"
              f"{v.q_protected:>10.3f}{v.q_foil1:>10.3f}{foil2:>10}"
              f"{v.q_other:>10.3f}  {'yes' if v.passed else 'NO'}")


_COMMANDS = {
    "evaluate": (cmd_evaluate, _EVALUATE_DEFAULTS),
    "explain": (cmd_explain, _EXPLAIN_DEFAULTS),
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
    for command, (handler, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        for key, (tp, settings) in _FLAGS.items():
            if key in defaults or (key == "config" and command != "report"):
                typed = {"type": tp} if tp in (int, float) else {}
                p.add_argument("--" + key.replace("_", "-"), **typed, **settings)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, defaults = _COMMANDS[args.command]
    try:
        with _stage("cli"):
            params = _resolve(args, _load_config_file(args), defaults)
        _check_sources(params, defaults)
        if args.command == "report":  # reads a finished run and writes nothing
            handler(params)
            return 0
        if not params["out"]:
            raise CliError("cli", "an output directory is required (--out)")
        out = Path(params["out"])
        with _stage("cli"):
            out.mkdir(parents=True, exist_ok=True)
        handler(params, out)
        with _stage("cli"):
            semantic = {k: params[k] for k in defaults if k not in ("out", "jobs")}
            write_json(out / "run_config.json", {"command": args.command, **semantic})
        return 0
    except CliError as exc:
        print(f"error [{exc.module}]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(traceback.format_exc(), end="", file=sys.stderr)
        print(f"error [internal]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
