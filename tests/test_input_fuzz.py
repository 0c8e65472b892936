"""Every file the CLI reads, mangled, and every flag of every command at its
boundary values: the command exits 0 or 2, never ``error [internal]`` and never
with a traceback. A verdict file whose stored pass flag its q values contradict
is refused on load, so ``report`` exits 2 on it too.

One valid file of each kind is built once; each example applies one mutation to
one of them (drop a key or cell, retype a value, wrap it in a list, put NaN or a
number beyond float range in it, truncate the text, insert a blank line) and runs
the command that reads it. The fixed cases below pin the exact message of inputs
that once ended as ``error [internal]`` or were silently accepted.
"""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axebench import cli
from axebench.cli import main
from axebench.core import QualityReport
from axebench.data import SyntheticSpec, generate_synthetic
from axebench.experiments import DetectionVerdict, write_verdicts
from axebench.models import (MlpSpec, RuleModelSpec, RulePredictor, ScaffoldSpec, build_scaffold,
                             save_predictor, train_logistic, train_mlp)

HUGE = 10 ** 400  # beyond int64 and float range
SYNTHETIC = ["--synthetic", "threshold-rule", "--rows", "60", "--cols", "3", "--seed", "0"]
# argv placeholders: {file} is the file under test, {dir} the directory holding it
EVALUATE = ["evaluate", *SYNTHETIC, "--metric", "axe", "--out", "{dir}/out"]
WITH_MODEL = EVALUATE + ["--model", "{file}", "--manual-index", "0"]
WITH_EXPLANATIONS = EVALUATE + ["--train", "logistic", "--explanations", "{file}"]
FROM_CSV = ["evaluate", "--dataset", "{dir}/data.csv", "--schema", "{dir}/schema.json",
            "--train", "logistic", "--manual-index", "0", "--out", "{dir}/out"]
REPORT_RUN = ["report", "--run", "{dir}"]

SCHEMA = {"name": "fuzz", "column_names": ["a", "b", "c", "y"], "target_column": "y",
          "protected_column": "c", "categorical_columns": {"b": {"lo": 0, "hi": 1}}}
DATA_LINES = ["a,b,c,y"] + [f"{(i * 7) % 11 / 3:.3f},{'hi' if i % 3 else 'lo'},{i % 4},"
                            f"{int(i % 5 < 2)}" for i in range(60)]
REPORT = QualityReport("fa", {"n": 2}, [1.0, 0.0]).to_dict()
ROWS = [{"datapoint_index": i, "importances": [1.0, 0.0, 0.0]} for i in range(60)]
RULE = {"kind": "rule", "feature_index": 0, "threshold": 0.0, "positive_above": True}
SCAFFOLD = {"kind": "scaffold", "seed": 0, "biased": RULE, "foils": [{**RULE, "feature_index": 1}],
            "detector": {"model": {"n_trees": 1, "max_depth": 3, "min_leaf": 2,
                                   "feature_fraction": 0.7, "seed": 0,
                                   "trees": [{"feature": [0, -1, -1], "threshold": [0.0, 0.0, 0.0],
                                              "left": [1, -1, -1], "right": [2, -1, -1],
                                              "value": [0.5, 0.0, 1.0]}]},
                         "sigma_ood": 1.0, "seed": 0, "heldout_accuracy": 0.9},
            "on_data_agreement": 0.9}
MLP = {"kind": "mlp", "activation": "tanh", "descriptor": "mlp",
       "weights": [[[0.5, -0.5], [0.25, 0.0], [1.0, 0.5]], [[1.0], [-1.0]]],
       "biases": [[0.0, 0.1], [0.2]]}


def run(argv):
    """Exit code and stderr of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse refuses a value outside a flag's choices
            code = exc.code
    return code, err.getvalue()


def run_on(directory: Path, files: dict, argv):
    """Write ``files`` (text, or a value to dump as JSON) into ``directory`` and run
    argv with {file} naming the first of them."""
    for name, content in files.items():
        (directory / name).write_text(content if isinstance(content, str)
                                      else json.dumps(content))
    file = str(directory / next(iter(files)))
    return run([a.replace("{file}", file).replace("{dir}", str(directory)) for a in argv])


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """kind -> (file name, valid text, the files it needs beside it, argv reading it)."""
    root = tmp_path_factory.mktemp("valid")
    d = generate_synthetic(SyntheticSpec(nu=60, n_features=3, seed=0,
                                         generator_kind="threshold-rule"))
    models = {"linear": train_logistic(d, seed=0),
              "rule": RulePredictor(RuleModelSpec(0)),
              "mlp": train_mlp(d, MlpSpec(hidden_sizes=(2,), seed=0, epochs=5)),
              "scaffold": build_scaffold(d, ScaffoldSpec(biased=RuleModelSpec(0),
                                                         foils=(RuleModelSpec(1),),
                                                         detector_trees=2, detector_depth=3))}
    for name, model in models.items():
        save_predictor(model, root / f"{name}.json")
    assert run(["explain", *SYNTHETIC, "--train", "logistic", "--explainer", "gradient",
                "--out", root])[0] == 0
    assert run(["evaluate", *SYNTHETIC, "--train", "logistic", "--manual-index", "0",
                "--metric", "axe", "--metric", "fa", "--out", root / "evaluate"])[0] == 0
    write_verdicts([DetectionVerdict("d", "m", "axe", {"n": 1}, 0.9, 0.5, None, 0.4),
                    DetectionVerdict("d", "m", "pgi", {"n": 1}, 0.1, 0.5, 0.2, 0.3)],
                   root / "verdicts.json")
    data = "\n".join(DATA_LINES) + "\n"

    def read(name, argv):
        return name, (root / name).read_text(), {}, argv

    return {
        "schema": ("schema.json", json.dumps(SCHEMA), {"data.csv": data}, FROM_CSV),
        "dataset CSV": ("data.csv", data, {"schema.json": SCHEMA}, FROM_CSV),
        "config": read("evaluate/run_config.json",
                       ["evaluate", "--config", "{file}", "--out", "{dir}/out"]),
        **{f"{name} model": read(f"{name}.json", WITH_MODEL) for name in models},
        "explanations CSV": read("explanations.csv", WITH_EXPLANATIONS),
        "explanations JSON": read("explanations.json", WITH_EXPLANATIONS),
        "verdicts": read("verdicts.json", REPORT_RUN),
        "report": read("evaluate/report_fa.json", REPORT_RUN),
    }


def _paths(value, prefix=()):
    """Every position in a JSON value, the root first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _retyped(value):
    """bool for a number, number for a string, scalar for a list or object."""
    if isinstance(value, bool):
        return 1.5
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, str):
        return 5
    if isinstance(value, (list, dict)):
        return 0.5
    return "x"


EDITS = ("drop", "retype", "wrap", "nan", "huge")


def _mutate_json(text, data):
    value = json.loads(text)
    path = data.draw(st.sampled_from(list(_paths(value))), label="path")
    edit = data.draw(st.sampled_from(EDITS), label="edit")
    if not path:
        return json.dumps({"drop": {}, "retype": _retyped(value), "wrap": [value],
                           "nan": math.nan, "huge": HUGE}[edit])
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if edit == "drop":
        del parent[key]
    else:
        old = parent[key]
        parent[key] = {"retype": _retyped(old), "wrap": [old], "nan": math.nan,
                       "huge": HUGE}[edit]
    return json.dumps(value)


def _mutate_csv(text, data):
    rows = [line.split(",") for line in text.splitlines()]
    r = data.draw(st.integers(0, len(rows) - 1), label="row")
    c = data.draw(st.integers(0, len(rows[r]) - 1), label="cell")
    edit = data.draw(st.sampled_from(EDITS), label="edit")
    if edit == "drop":
        del rows[r][c]
    else:
        rows[r][c] = {"retype": "true", "wrap": f'"[{rows[r][c]}]"', "nan": "nan",
                      "huge": str(HUGE)}[edit]
    return "\n".join(",".join(row) for row in rows) + "\n"


def _mutate_text(text, data):
    if data.draw(st.booleans(), label="truncate"):
        return text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
    lines = text.splitlines(keepends=True)
    at = data.draw(st.integers(0, len(lines)), label="blank line")
    return "".join(lines[:at] + ["\n"] + lines[at:])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mangled_input_exits_0_or_2(valid_inputs, data):
    kind = data.draw(st.sampled_from(sorted(valid_inputs)), label="kind")
    name, text, beside, argv = valid_inputs[kind]
    name = Path(name).name
    if not data.draw(st.booleans(), label="structural"):
        text = _mutate_text(text, data)
    elif name.endswith(".csv"):
        text = _mutate_csv(text, data)
    else:
        text = _mutate_json(text, data)
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_on(Path(tmp), {name: text, **beside}, argv)
    assert code in (0, 2), err
    assert "error [internal]" not in err and "Traceback" not in err, err


def _edited(record, path, value):
    """A deep copy of the JSON value ``record`` with ``value`` at key path ``path``."""
    record = json.loads(json.dumps(record))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return record


def _rows(**changes):
    """ROWS with row 0's fields replaced by ``changes``."""
    return [dict(ROWS[0], **changes)] + ROWS[1:]


@pytest.mark.parametrize("files, argv, message", [
    ({"report_fa.json": {**REPORT, "hyperparams": 5}}, REPORT_RUN,
     "error [core]: quality report 'hyperparams' must be dict, not int"),
    ({"report_fa.json": {**REPORT, "per_point_q": 5}}, REPORT_RUN,
     "error [core]: quality report 'per_point_q' must be list[float | None], not int"),
    ({"report_fa.json": {**REPORT, "per_point_q": [True, 0.0]}}, REPORT_RUN,
     "error [core]: quality report 'per_point_q' must be list[float | None], not list"),
    ({"report_fa.json": {**REPORT, "dataset_id": 5}}, REPORT_RUN,
     "error [core]: quality report 'dataset_id' must be str, not int"),
    ({"report_fa.json": {**REPORT, "metric_name": ["x"]}}, REPORT_RUN,
     "error [core]: quality report 'metric_name' must be str, not list"),
    ({"report_fa.json": {**REPORT, "aggregate_q": "0.5"}}, REPORT_RUN,
     "error [core]: quality report 'aggregate_q' must be float | None, not str"),
    # stored facts the rows contradict
    ({"report_fa.json": {**REPORT, "aggregate_q": None}}, REPORT_RUN,
     "error [core]: aggregate_q must be the mean of the defined per-point scores, "
     "or null when none is defined"),
    ({"report_fa.json": {**REPORT, "aggregate_q": 0.75}}, REPORT_RUN,
     "error [core]: aggregate_q must be the mean of the defined per-point scores, "
     "or null when none is defined"),
    ({"report_fa.json": {**REPORT, "undefined_count": 1}}, REPORT_RUN,
     "error [core]: undefined_count must be 0, the number of undefined per-point scores"),
    ({"e.json": _rows(importances=[True, 0, 0])}, WITH_EXPLANATIONS,
     "error [explainers]: explanations JSON row 0 'importances' must be list[float], not list"),
    ({"e.json": _rows(explainer_tag=5)}, WITH_EXPLANATIONS,
     "error [explainers]: explanations JSON row 0 'explainer_tag' must be str, not int"),
    ({"e.csv": "datapoint_index,a,b,c\n" + "".join(
        f"{i},1.0,0.0,0.0\n" + ("\n" if i == 5 else "") for i in range(60))},
     WITH_EXPLANATIONS, "error [explainers]: explanations CSV line 8 is blank"),
    # numbers out of range
    ({"report_fa.json": {**REPORT, "per_point_q": [HUGE, 0.0]}}, REPORT_RUN,
     "error [core]: quality report 'per_point_q' must be list[float | None], not list"),
    ({"e.json": _rows(datapoint_index=2 ** 64)}, WITH_EXPLANATIONS,
     "error [explainers]: datapoint_index must list every row 0..59 exactly once"),
    ({"data.csv": "\n".join(DATA_LINES[:9] + ["1e999,lo,1,0"] + DATA_LINES[10:]),
      "schema.json": SCHEMA}, FROM_CSV,
     "error [data]: parse error at row 9, col a: inf is not finite"),
    ({"schema.json": {**SCHEMA, "categorical_columns": {"b": {"lo": 0, "hi": HUGE}}},
      "data.csv": "\n".join(DATA_LINES)}, FROM_CSV,
     "error [data]: DatasetSchema record 'categorical_columns' must be "
     "dict[str, dict[str, int]], not dict"),
    # a constant model: every row falls on the same side of a NaN threshold
    ({"rule.json": {"kind": "rule", "feature_index": 0, "threshold": math.nan,
                    "positive_above": True}}, WITH_MODEL,
     "error [models]: threshold must be finite"),
    # NaN in a model's numbers: a detector or summary field, an MLP weight
    ({"scaffold.json": _edited(SCAFFOLD, ("detector", "model", "trees", 0, "value", 0), math.nan)},
     WITH_MODEL, "error [models]: detector tree 0 node values must be finite"),
    ({"scaffold.json": _edited(SCAFFOLD, ("detector", "model", "feature_fraction"), math.nan)},
     WITH_MODEL, "error [models]: detector feature_fraction must lie in (0, 1]"),
    ({"scaffold.json": _edited(SCAFFOLD, ("detector", "sigma_ood"), math.nan)},
     WITH_MODEL, "error [models]: sigma_ood must be finite and positive"),
    ({"scaffold.json": _edited(SCAFFOLD, ("detector", "heldout_accuracy"), math.nan)},
     WITH_MODEL, "error [models]: scaffold detector heldout_accuracy must lie in [0, 1]"),
    ({"scaffold.json": _edited(SCAFFOLD, ("on_data_agreement",), math.nan)}, WITH_MODEL,
     "error [models]: scaffold predictor file on_data_agreement must be null or lie in [0, 1]"),
    ({"mlp.json": _edited(MLP, ("weights", 0, 0, 0), math.nan)}, WITH_MODEL,
     "error [models]: mlp layer 0 weights and bias must be finite"),
    # an attack dataset whose two-foil models would leave no other feature to score
    ({"schema.json": {**SCHEMA, "foil_columns": ["a", "b"]}, "data.csv": "\n".join(DATA_LINES)},
     ["attack", "--dataset", "{dir}/data.csv", "--schema", "{file}", "--out", "{dir}/out"],
     "error [experiments]: dataset has 3 features, but a model with 2 foils needs one "
     "that is neither protected nor a foil"),
    # a forest without trees, or with another count than it holds
    ({"scaffold.json": _edited(SCAFFOLD, ("detector", "model", "trees"), [])}, WITH_MODEL,
     "error [models]: detector n_trees must equal the number of its trees, at least 1: "
     "n_trees is 1, trees holds 0"),
    ({"scaffold.json": _edited(SCAFFOLD, ("detector", "model", "n_trees"), 2)}, WITH_MODEL,
     "error [models]: detector n_trees must equal the number of its trees, at least 1: "
     "n_trees is 2, trees holds 1"),
], ids=["int-hyperparams", "int-per-point-q", "bool-per-point-q", "int-dataset-id",
        "list-metric-name", "str-aggregate-q", "null-aggregate-q", "wrong-aggregate-q",
        "wrong-undefined-count", "bool-importances", "int-explainer-tag",
        "blank-csv-line", "huge-report-score", "index-beyond-int64", "infinite-csv-cell",
        "huge-category-code", "nan-rule-threshold", "nan-inner-tree-value",
        "nan-feature-fraction", "nan-sigma-ood", "nan-heldout-accuracy", "nan-agreement",
        "nan-mlp-weight", "attack-without-other-feature", "no-detector-trees",
        "n-trees-not-tree-count"])
def test_probed_input_exits_2(tmp_path, files, argv, message):
    assert run_on(tmp_path, files, argv) == (2, message + "\n")


# Boundary values of each flag type. "{missing}" is a path that does not exist and
# "{dir}" an empty directory. No count is mid-sized: a row, column or resolution
# value is either tiny or beyond any array, so no example really allocates.
BOUNDARY = {
    int: [0, -1, 1, 2, 2 ** 63, 2 ** 63 - 1],
    float: [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308],
    str: ["", "{missing}", "{dir}"],
    list[str]: ["", "{missing}", "{dir}"],
}
JOBS = [0, -1, 1, 2]  # --jobs starts that many threads where it is read
# a valid run of each command; {tmp} holds the attack's 60-row CSV and its schema
FLAG_RUNS = {
    "evaluate": [*SYNTHETIC, "--train", "logistic", "--manual-index", "0", "--metric", "pgi",
                 "--num-perturbations", "5"],
    "explain": [*SYNTHETIC, "--train", "logistic", "--explainer", "gradient"],
    "region-grid": ["--resolution", "5"],
    "principles": [],
    "attack": ["--dataset", "{tmp}/data.csv", "--schema", "{tmp}/schema.json",
               "--num-perturbations", "2"],
}
ATTACK_SCHEMA = {**SCHEMA, "foil_columns": ["a"]}


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_flags_at_their_boundaries_exit_0_or_2(data):
    command = data.draw(st.sampled_from(sorted(FLAG_RUNS)), label="command")
    defaults = cli._COMMANDS[command][1]
    # attack's --dataset is not drawn: an empty one falls back to the 800-row
    # proxies, seconds a run
    keys = [key for key, (tp, _) in cli._FLAGS.items()
            if tp is not bool and (key in defaults or key == "config")
            and (command, key) != ("attack", "dataset")]
    chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True),
                       label="flags")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "dir").mkdir()
        (tmp / "data.csv").write_text("\n".join(DATA_LINES) + "\n")
        (tmp / "schema.json").write_text(json.dumps(ATTACK_SCHEMA))
        argv = [command, *(a.format(tmp=tmp) for a in FLAG_RUNS[command]),
                f"--out={tmp / 'out'}"]
        for key in chosen:
            tp, flag = cli._FLAGS[key]
            values = JOBS if key == "jobs" else [*BOUNDARY[tp], *flag.get("choices", ())]
            value = str(data.draw(st.sampled_from(values), label=key))
            argv.append(f"--{key.replace('_', '-')}="
                        + value.format(missing=tmp / "missing", dir=tmp / "dir"))
        code, err = run(argv)
        assert code in (0, 2), err
        assert "error [internal]" not in err and "Traceback" not in err, err
        out = next(a for a in reversed(argv) if a.startswith("--out=")).removeprefix("--out=")
        written = list(Path(out).rglob("*")) if out and Path(out).is_dir() else []
        if code == 2:
            assert written == [], err
        for path in written:
            if path.suffix == ".json":
                json.loads(path.read_text(encoding="utf-8"), parse_constant=_not_json)


@pytest.mark.parametrize("argv, message", [
    (["evaluate", *FLAG_RUNS["evaluate"], "--sigma", "1e308"],
     "error [metrics_sensitivity]: sigma is too large: "),
    (["attack", "--proxy", "compas", "--num-perturbations", "10", "--sigma", "1e308"],
     "error [experiments]: sigma is too large: "),
    (["evaluate", "--synthetic", "threshold-rule", "--rows", "60", "--cols", str(2 ** 63),
      "--train", "logistic", "--manual-index", "0"], "error [data]: "),
    (["region-grid", "--resolution", str(2 ** 63 - 1)],
     "error [experiments]: resolution must be <= 3037000499, "),
], ids=["huge-sigma", "attack-huge-sigma", "cols-beyond-int64", "resolution-beyond-int64"])
def test_probed_flag_exits_2_leaving_out_empty(tmp_path, argv, message):
    # a message's prefix only: numpy words the rest of the sigma and cols messages
    out = tmp_path / "run"
    out.mkdir()
    code, err = run([*argv, "--out", out])
    assert code == 2 and err.startswith(message) and err.count("\n") == 1, err
    assert list(out.iterdir()) == []
