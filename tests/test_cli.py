import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from axebench import cli
from axebench.cli import main
from axebench.core import QualityReport
from axebench.data import SyntheticSpec, generate_synthetic
from axebench.models import RuleModelSpec, ScaffoldSpec, build_scaffold, load_predictor


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def dir_bytes(root):
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


MLP_WEIGHTS = [[[0.5, -0.5], [0.1, 0.2], [0.3, 0.4]], [[1.0], [-1.0]]]


def mlp_file(**changes):
    """A valid 3-input MLP model file with hidden layer (2,), fields replaced by ``changes``."""
    return {"kind": "mlp", "activation": "tanh", "descriptor": "mlp(2)", "weights": MLP_WEIGHTS,
            "biases": [[0.0, 0.0], [0.0]], **changes}


def write_attack_csv(tmp_path, nu=150, seed=0):
    rng = np.random.default_rng(seed)
    cols = {
        "c0": rng.integers(0, 3, nu), "c1": rng.integers(0, 5, nu),
        "prot": (rng.random(nu) < 0.6).astype(int),
        "foil_a": rng.integers(0, 2, nu), "foil_b": rng.integers(0, 2, nu),
        "c5": rng.integers(0, 4, nu),
    }
    labels = cols["prot"]
    csv_path = tmp_path / "attack.csv"
    names = list(cols) + ["y"]
    rows = [",".join(names)]
    for i in range(nu):
        rows.append(",".join(str(int(cols[c][i])) for c in cols) + f",{labels[i]}")
    csv_path.write_text("\n".join(rows) + "\n")
    schema = {"name": "cli-attack", "column_names": names, "target_column": "y",
              "protected_column": "prot", "foil_columns": ["foil_a", "foil_b"],
              "categorical_columns": {}, "drop_columns": []}
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    return csv_path, schema_path


class TestEvaluate:
    def test_axe_on_threshold_fixture(self, tmp_path):
        out = tmp_path / "run"
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "300",
                     "--cols", "4", "--train", "logistic", "--manual-index", "0",
                     "--metric", "axe", "--n", "1", "--k", "5",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        report = QualityReport.from_json(out / "report_axe.json")
        assert report.aggregate_q >= 0.98
        assert read_json(out / "run_config.json")["command"] == "evaluate"

    def test_multiple_metrics_and_trace(self, tmp_path):
        out = tmp_path / "run"
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "120",
                     "--cols", "3", "--train", "logistic", "--manual-index", "0",
                     "--metric", "axe", "--metric", "pgi", "--metric", "fa",
                     "--axe-trace", "--seed", "1", "--out", str(out)])
        assert code == 0
        for metric in ("axe", "pgi", "fa"):
            assert (out / f"report_{metric}.json").exists()
        assert (out / "axe_trace.csv").exists()

    def test_pgu_at_n_zero_writes_positive_zeros(self, tmp_path):
        out = tmp_path / "run"
        assert main(["evaluate", "--synthetic", "threshold-rule", "--rows", "60",
                     "--train", "logistic", "--manual-index", "0",
                     "--metric", "pgu", "--n", "0", "--out", str(out)]) == 0
        text = (out / "report_pgu.json").read_text()
        assert "-0.0" not in text
        assert read_json(out / "report_pgu.json")["per_point_q"] == [0.0] * 60

    def test_rc_on_tied_explanations_marked_undefined(self, tmp_path, capsys):
        expl_path = tmp_path / "tied.csv"
        lines = ["datapoint_index,f0,f1,f2"]
        for i in range(120):
            lines.append(f"{i},1.0,1.0,1.0")
        expl_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "120",
                     "--cols", "3", "--train", "logistic",
                     "--explanations", str(expl_path), "--metric", "rc",
                     "--e-star", "0.9,0.5,0.2", "--seed", "1", "--out", str(out)])
        assert code == 0
        payload = read_json(out / "report_rc.json")
        assert payload["aggregate_q"] is None
        assert payload["undefined_count"] == 120

    def test_dropped_constant_column_is_a_stderr_warning(self, tmp_path, capsys):
        csv_path, schema_path = tmp_path / "d.csv", tmp_path / "schema.json"
        csv_path.write_text("a,b,c,y\n" + "".join(f"{i},5.0,{i * 3 % 7},{i % 2}\n"
                                                  for i in range(12)))
        schema_path.write_text(json.dumps({"name": "const", "column_names": ["a", "b", "c", "y"],
                                           "target_column": "y"}))
        out = tmp_path / "run"
        assert main(["evaluate", "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--train", "logistic", "--manual-index", "1", "--metric", "axe",
                     "--out", str(out)]) == 0
        # index 1 now names column c: the warning says why
        assert capsys.readouterr().err == "warning [data]: dropped constant column 'b'\n"
        assert read_json(out / "report_axe.json")["explainer_tag"] == "manual[c]"
        assert not any(b"dropped constant column" in data for data in dir_bytes(out).values())

    def test_explanation_length_mismatch_exits_2(self, tmp_path, capsys):
        expl_path = tmp_path / "short.csv"
        expl_path.write_text("datapoint_index,f0,f1,f2\n0,1.0,0.0,0.0\n")
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "50",
                     "--cols", "3", "--train", "logistic",
                     "--explanations", str(expl_path), "--metric", "axe",
                     "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "length mismatch" in err
        assert "explainers" in err

    def test_explanation_rows_follow_datapoint_index(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = [f"{i}," + ",".join(repr(float(v)) for v in rng.normal(size=4))
                for i in range(90)]
        shuffled = [rows[i] for i in rng.permutation(90)]
        reports = []
        for name, body in (("ordered", rows), ("shuffled", shuffled)):
            expl_path = tmp_path / f"{name}.csv"
            expl_path.write_text("\n".join(["datapoint_index,f0,f1,f2,f3", *body]) + "\n")
            out = tmp_path / name
            assert main(["evaluate", "--synthetic", "threshold-rule", "--rows", "90",
                         "--cols", "4", "--train", "logistic",
                         "--explanations", str(expl_path), "--metric", "axe",
                         "--n", "2", "--k", "3", "--seed", "0", "--out", str(out)]) == 0
            reports.append((out / "report_axe.json").read_bytes())
        assert reports[0] == reports[1]

    def test_duplicate_datapoint_index_exits_2(self, tmp_path, capsys):
        expl_path = tmp_path / "dup.csv"
        lines = ["datapoint_index,f0,f1,f2"] + [f"{max(i, 1)},1.0,0.5,0.0" for i in range(50)]
        expl_path.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "50",
                     "--cols", "3", "--train", "logistic",
                     "--explanations", str(expl_path), "--metric", "axe",
                     "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error [explainers]" in err
        assert "datapoint_index" in err

    def test_ragged_explanation_files_exit_2(self, tmp_path, capsys):
        rows = [{"datapoint_index": i, "importances": [1.0, 0.5, 0.0]} for i in range(50)]
        rows[7]["importances"].append(0.25)
        scalars = [{"datapoint_index": i, "importances": 1.0} for i in range(50)]
        files = {"short.csv": ("\n".join(["datapoint_index,f0,f1,f2", "0,1.0,0.5",
                                          *(f"{i},1.0,0.5,0.0" for i in range(1, 50))]) + "\n",
                               "length mismatch: explanation widths [2, 3] differ"),
                 "long.json": (json.dumps(rows), "length mismatch: explanation widths [3, 4] differ"),
                 "scalar.json": (json.dumps(scalars), "explanations JSON row 0 'importances' "
                                                      "must be list[float], not float")}
        for name, (text, message) in files.items():
            expl_path = tmp_path / name
            expl_path.write_text(text)
            code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "50",
                         "--cols", "3", "--train", "logistic",
                         "--explanations", str(expl_path), "--metric", "axe",
                         "--seed", "0", "--out", str(tmp_path / "run")])
            assert code == 2
            err = capsys.readouterr().err
            assert "error [explainers]" in err
            assert message in err

    @pytest.mark.parametrize("mangle, message", [
        (lambda rows: rows[:3] + [{"datapoint_index": 3, "importance": [1.0, 0.5, 0.0]}]
         + rows[4:], "explanations JSON row 3 lacks 'importances'"),
        (lambda rows: [{"importances": r["importances"]} for r in rows],
         "explanations JSON row 0 lacks 'datapoint_index'"),
        (lambda rows: rows[:5] + [[5, 1.0, 0.5, 0.0]] + rows[6:],
         "explanations JSON row 5 must be dict, not list"),
        (lambda rows: {"rows": rows}, "explanations JSON must be list, not dict"),
        (lambda rows: [dict(r, datapoint_index=1.5) if i == 1 else r
                       for i, r in enumerate(rows)],
         "explanations JSON row 1 'datapoint_index' must be int, not float"),
        (lambda rows: [dict(r, datapoint_index=None) if i == 2 else r
                       for i, r in enumerate(rows)],
         "explanations JSON row 2 'datapoint_index' must be int, not NoneType"),
    ], ids=["missing-importances", "missing-datapoint-index", "row-not-object",
            "payload-not-list", "fractional-index", "null-index"])
    def test_malformed_json_explanations_exit_2(self, tmp_path, capsys, mangle, message):
        rows = [{"datapoint_index": i, "importances": [1.0, 0.5, 0.0]} for i in range(50)]
        expl_path = tmp_path / "bad.json"
        expl_path.write_text(json.dumps(mangle(rows)))
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "50",
                     "--cols", "3", "--train", "logistic",
                     "--explanations", str(expl_path), "--metric", "axe",
                     "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error [explainers]" in err
        assert message in err

    @pytest.mark.parametrize("payload, message", [
        ({"kind": "linear"}, "linear predictor file lacks 'coefficients', 'intercept'"),
        ({"kind": "mlp", "activation": "tanh", "descriptor": "mlp(2)",
          "weights": [[[0.5, -0.5], [0.1, 0.2], [0.3, 0.4]], [[1.0], [-1.0]]]},
         "mlp predictor file lacks 'biases'"),
        ([1, 2], "predictor file must be dict, not list"),
        ({"kind": "forest"}, "unknown predictor kind 'forest'"),
        (mlp_file(activation="relu"), "mlp activation must be 'tanh' or 'sigmoid', not 'relu'"),
        (mlp_file(weights=[], biases=[]), "mlp needs at least one layer"),
        (mlp_file(weights=MLP_WEIGHTS[:1] + [[[1.0, 0.5], [-1.0, 0.5]]],
                  biases=[[0.0, 0.0], [0.0, 0.0]]),
         "mlp last layer 1 must give 1 output, not 2"),
        (mlp_file(weights=MLP_WEIGHTS[:1] + [[[1.0], [-1.0], [0.5]]]),
         "mlp layer 1 takes 3 inputs, layer 0 gives 2"),
        (mlp_file(biases=[[0.0, 0.0, 0.0], [0.0]]),
         "mlp layer 0 bias must have 2 entries, not shape (3,)"),
        (mlp_file(biases=[[0.0, 0.0]]), "mlp has 2 weight matrices but 1 biases"),
        (mlp_file(weights=[[[0.5, -0.5], [0.1], [0.3, 0.4]], MLP_WEIGHTS[1]]),
         "mlp layer 0 weights and bias must be rectangular"),
        (mlp_file(weights=[[[]], MLP_WEIGHTS[1]]),
         "mlp layer 0 weights must be a non-empty matrix"),
        (mlp_file(weights=[0.5, 1.0]),
         "mlp predictor file 'weights' must be list[list[list[float]]], not list"),
        (mlp_file(activation=None), "mlp predictor file 'activation' must be str, not NoneType"),
        (mlp_file(biases=[[0.0, 0.0], [1e999]]), "mlp layer 1 weights and bias must be finite"),
    ], ids=["linear-without-coefficients", "mlp-without-biases", "payload-not-object",
            "unknown-kind", "mlp-relu", "mlp-no-layers", "mlp-two-outputs", "mlp-broken-chain",
            "mlp-bias-length", "mlp-bias-count", "mlp-ragged-weights", "mlp-empty-weights",
            "mlp-flat-weights", "mlp-activation-not-text", "mlp-infinite-bias"])
    def test_malformed_model_file_exits_2(self, tmp_path, capsys, payload, message):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "50",
                     "--cols", "3", "--model", str(model_path), "--manual-index", "0",
                     "--metric", "axe", "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error [models]" in err
        assert message in err
        assert "Traceback" not in err
        assert "error [internal]" not in err

    @pytest.mark.parametrize("payload, message", [
        ({"kind": "linear", "coefficients": [0.5, -0.5], "intercept": 0.0},
         "dimension mismatch: model takes 2 features, data has shape (50, 3)"),
        (mlp_file(weights=[MLP_WEIGHTS[0][:2], MLP_WEIGHTS[1]]),
         "dimension mismatch: model takes 2 features, data has shape (50, 3)"),
        ({"kind": "rule", "feature_index": 10, "threshold": 0.0, "positive_above": True},
         "dimension mismatch: rule reads feature 10, data has shape (50, 3)"),
    ], ids=["linear", "mlp", "rule"])
    def test_model_of_wrong_width_exits_2(self, tmp_path, capsys, payload, message):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "50",
                     "--cols", "3", "--model", str(model_path), "--manual-index", "0",
                     "--metric", "axe", "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error [models]" in err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mangle, message", [
        (lambda tree: tree["left"].__setitem__(0, 10**6),
         "error [models]: detector tree 0 has a child index outside the tree"),
        (lambda tree: tree["left"].__setitem__(0, 0),
         "error [models]: detector tree 0 has a child index outside the tree "
         "or not after its parent"),
        (lambda tree: tree["feature"].__setitem__(0, 7),
         "error [models]: detector splits on 8 features, rows have 3"),
    ], ids=["child-out-of-range", "root-is-its-own-child", "split-feature-beyond-width"])
    def test_malformed_scaffold_detector_exits_2(self, tmp_path, capsys, mangle, message):
        d = generate_synthetic(SyntheticSpec(nu=60, n_features=3, seed=0))
        scaffold = build_scaffold(d, ScaffoldSpec(biased=RuleModelSpec(0), foils=(RuleModelSpec(1),),
                                                  detector_trees=2, detector_depth=4))
        payload = scaffold.to_dict()
        mangle(payload["detector"]["model"]["trees"][0])
        model_path = tmp_path / "scaffold.json"
        model_path.write_text(json.dumps(payload))
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "50",
                     "--cols", "3", "--model", str(model_path), "--manual-index", "0",
                     "--metric", "pgi", "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("mangle, message", [
        (lambda p: p.__setitem__("detector", []),
         "scaffold predictor file 'detector' must be dict, not list"),
        (lambda p: p.__setitem__("foils", [5]),
         "scaffold predictor file 'foils' must be list[dict], not list"),
        (lambda p: p["detector"]["model"].__setitem__("n_trees", "x"),
         "detector 'n_trees' must be int, not str"),
        (lambda p: p["detector"].__setitem__("sigma_ood", None),
         "scaffold detector 'sigma_ood' must be float, not NoneType"),
        (lambda p: p["detector"].pop("model"), "scaffold detector lacks 'model'"),
        (lambda p: p["biased"].pop("threshold"),
         "scaffold predictor file biased rule lacks 'threshold'"),
        (lambda p: p["foils"][0].__setitem__("positive_above", "yes"),
         "scaffold predictor file foil 0 'positive_above' must be bool, not str"),
        (lambda p: p.__setitem__("seed", 1.5), "scaffold predictor file 'seed' must be int"),
        (lambda p: p["foils"][0].__setitem__("feature_index", 10),
         "dimension mismatch: rule reads feature 10, data has shape (50, 3)"),
        # numbers out of range
        (lambda p: p["detector"].__setitem__("sigma_ood", 0.0),
         "sigma_ood must be finite and positive"),
        (lambda p: p["detector"].__setitem__("heldout_accuracy", 1.5),
         "scaffold detector heldout_accuracy must lie in [0, 1]"),
        (lambda p: p.__setitem__("on_data_agreement", -0.25),
         "scaffold predictor file on_data_agreement must be null or lie in [0, 1]"),
        (lambda p: p["detector"]["model"].__setitem__("feature_fraction", 0.0),
         "detector feature_fraction must lie in (0, 1]"),
        (lambda p: p["detector"]["model"].__setitem__("feature_fraction", 1.5),
         "detector feature_fraction must lie in (0, 1]"),
    ], ids=["detector-not-object", "foil-not-object", "n-trees-not-int", "sigma-not-number",
            "detector-without-model", "rule-without-threshold", "polarity-not-bool",
            "seed-not-int", "foil-rule-beyond-width", "zero-sigma", "accuracy-above-one",
            "negative-agreement", "zero-feature-fraction", "feature-fraction-above-one"])
    def test_malformed_scaffold_file_exits_2(self, tmp_path, capsys, mangle, message):
        d = generate_synthetic(SyntheticSpec(nu=60, n_features=3, seed=0))
        payload = build_scaffold(d, ScaffoldSpec(biased=RuleModelSpec(0),
                                                 foils=(RuleModelSpec(1),),
                                                 detector_trees=2, detector_depth=4)).to_dict()
        mangle(payload)
        model_path = tmp_path / "scaffold.json"
        model_path.write_text(json.dumps(payload))
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "50",
                     "--cols", "3", "--model", str(model_path), "--manual-index", "0",
                     "--metric", "pgi", "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [models]: {message}")
        assert "error [internal]" not in err

    @pytest.mark.parametrize("foils, message", [
        ([], "at least one foil required"),
        ([1, 2, 3], "at most two foils supported"),
        ([1, 1], "foil feature indices must differ from each other and from the protected index"),
        ([0], "foil feature indices must differ from each other and from the protected index"),
    ], ids=["no-foils", "three-foils", "equal-foils", "foil-on-biased-column"])
    def test_scaffold_file_outside_scaffold_spec_exits_2(self, tmp_path, capsys, foils, message):
        # routing serves two foils at most, and a foil on the biased column never answers
        d = generate_synthetic(SyntheticSpec(nu=60, n_features=4, seed=0))
        payload = build_scaffold(d, ScaffoldSpec(biased=RuleModelSpec(0),
                                                 foils=(RuleModelSpec(1), RuleModelSpec(2)),
                                                 detector_trees=2, detector_depth=4)).to_dict()
        payload["foils"] = [{**payload["foils"][0], "feature_index": i} for i in foils]
        model_path = tmp_path / "scaffold.json"
        model_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_predictor(model_path)
        out = tmp_path / "run"
        out.mkdir()
        assert main(["evaluate", "--synthetic", "threshold-rule", "--rows", "50", "--cols", "4",
                     "--model", str(model_path), "--manual-index", "0", "--metric", "axe",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error [models]: {message}\n"
        assert list(out.iterdir()) == []

    def test_missing_output_dir_exits_2(self, capsys):
        code = main(["evaluate", "--synthetic", "threshold-rule", "--train", "logistic",
                     "--manual-index", "0", "--metric", "axe"])
        assert code == 2
        assert "output directory" in capsys.readouterr().err

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "run").write_text("")
        assert main(["principles", "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error [cli]: [Errno 17] File exists")

    def test_reference_metric_without_reference_vector_exits_2(self, tmp_path, capsys):
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "60",
                     "--cols", "3", "--train", "mlp", "--manual-index", "0",
                     "--metric", "fa", "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        assert "e-star" in capsys.readouterr().err


    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exits_2(self, tmp_path, capsys, sigma):
        out = tmp_path / "run"
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "60",
                     "--cols", "3", "--train", "logistic", "--manual-index", "0",
                     "--metric", "pgi", "--sigma", sigma, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error [cli]: sigma must be a finite number, not {float(sigma)!r}\n")
        assert not (out / "report_pgi.json").exists()

    def test_non_json_number_in_an_output_file_exits_2(self, tmp_path, capsys):
        # axe never reads --sigma, so only the run config could hold the NaN; it is
        # refused where it enters, before any file is written
        out = tmp_path / "run"
        out.mkdir()
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "60",
                     "--cols", "3", "--train", "logistic", "--manual-index", "0",
                     "--metric", "axe", "--sigma", "nan", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error [cli]: sigma must be a finite number, not nan\n"
        assert "Traceback" not in err
        assert not (out / "run_config.json").exists()
        assert list(out.iterdir()) == []

    def test_rejected_config_of_a_later_metric_writes_no_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "60",
                     "--cols", "3", "--train", "logistic", "--manual-index", "0",
                     "--metric", "axe", "--metric", "pgi", "--sigma", "nan",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error [cli]: sigma must be a finite number, not nan\n")
        assert list(out.iterdir()) == []

    def test_unknown_later_metric_writes_no_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "60",
                     "--cols", "3", "--train", "logistic", "--manual-index", "0",
                     "--metric", "axe", "--metric", "fa", "--e-star", "1,0,0",
                     "--metric", "bogus", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error [cli]: unknown metric 'bogus'\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, stage", [
        (["evaluate", "--synthetic", "threshold-rule", "--rows", "60", "--cols", "3",
          "--train", "logistic", "--manual-index", "0", "--metric", "fa"],
         "metrics_reference"),
        (["region-grid", "--resolution", "3"], "experiments"),
    ], ids=["evaluate", "region-grid"])
    def test_empty_e_star_exits_2(self, tmp_path, capsys, argv, stage):
        # only an absent --e-star falls back to the model's coefficients
        out = tmp_path / "run"
        assert main([*argv, "--e-star", "", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error [{stage}]: could not convert string to float: ''\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 3.73 GiB for an array with shape (100000000, 5)"),
         "error [data]: out of memory: Unable to allocate 3.73 GiB for an array with "
         "shape (100000000, 5)"),
        (MemoryError(), "error [data]: out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, exc, message):
        def generate_synthetic(spec):
            raise exc
        monkeypatch.setattr(cli, "generate_synthetic", generate_synthetic)
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "100000000",
                     "--cols", "5", "--train", "logistic", "--manual-index", "0",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == message + "\n"


class TestExplain:
    def test_writes_csv_and_json(self, tmp_path):
        out = tmp_path / "run"
        code = main(["explain", "--synthetic", "threshold-rule", "--rows", "60",
                     "--cols", "3", "--train", "logistic", "--explainer", "gradient",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        assert (out / "explanations.csv").exists()
        assert (out / "explanations.json").exists()


    @pytest.mark.parametrize("rows, seed", [(2, 1), (3, 0), (3, 1), (5, 0)])
    def test_correlated_foil_too_few_rows_exits_2(self, tmp_path, capsys, rows, seed):
        code = main(["explain", "--synthetic", "correlated-foil", "--rows", str(rows),
                     "--cols", "8", "--train", "mlp", "--explainer", "gradient",
                     "--seed", str(seed), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error [data]" in err
        assert f"nu={rows}, seed={seed}" in err
        assert "Traceback" not in err

    def test_manual_is_not_an_explainer_choice(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--synthetic", "threshold-rule", "--train", "logistic",
                  "--explainer", "manual", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "invalid choice: 'manual'" in capsys.readouterr().err


class TestAttack:
    def test_csv_attack_runs_and_report_verifies(self, tmp_path, capsys):
        csv_path, schema_path = write_attack_csv(tmp_path)
        out = tmp_path / "run"
        code = main(["attack", "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--num-perturbations", "15", "--seed", "5", "--out", str(out)])
        assert code == 0
        verdicts = read_json(out / "verdicts.json")
        assert {v["metric_name"] for v in verdicts} == {"axe", "pgi", "pgu"}
        axe_rows = [v for v in verdicts if v["metric_name"] == "axe"]
        assert len(axe_rows) == 4 and all(v["passed"] for v in axe_rows)
        assert (out / "models" / "cli-attack_m_L1.json").exists()
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        assert "cli-attack" in capsys.readouterr().out

    def test_missing_protected_column_exits_2(self, tmp_path, capsys):
        csv_path, schema_path = write_attack_csv(tmp_path)
        schema = read_json(schema_path)
        schema["protected_column"] = None
        schema_path.write_text(json.dumps(schema))
        code = main(["attack", "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        assert ("error [experiments]: dataset lacks a protected column"
                in capsys.readouterr().err)

    def test_no_foil_columns_exits_2(self, tmp_path, capsys):
        csv_path, schema_path = write_attack_csv(tmp_path)
        schema = read_json(schema_path)
        schema["foil_columns"] = []
        schema_path.write_text(json.dumps(schema))
        code = main(["attack", "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() == ("error [experiments]: dataset provides 0 foil columns, "
                               "but a model needs 1")

    def test_unknown_proxy_exits_2(self, tmp_path, capsys):
        code = main(["attack", "--proxy", "nope", "--out", str(tmp_path / "run")])
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--n", "0"], "error [experiments]: n out of range: need n >= 1"),
        (["--sigma", "0"], "error [experiments]: sigma must be positive"),
    ], ids=["n-zero", "sigma-zero"])
    def test_out_of_range_hyperparameter_exits_2(self, tmp_path, capsys, flags, message):
        assert main(["attack", "--proxy", "compas", *flags, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == message + "\n"


_THRESHOLD_RUN = ["evaluate", "--synthetic", "threshold-rule", "--rows", "60", "--cols", "3",
                  "--train", "logistic", "--manual-index", "0"]


class TestRefusedRunWritesNothing:
    """A command that exits 2 has opened no output file: everything is checked and
    computed first, including what depends on the data (k against the row count,
    the length of --e-star)."""

    @pytest.mark.parametrize("argv, config, message", [
        ([*_THRESHOLD_RUN, "--metric", "pgi", "--metric", "axe", "--k", "60"], None,
         "error [axe]: k out of range: exceeds candidate count"),
        ([*_THRESHOLD_RUN, "--metric", "pgi", "--metric", "fa", "--e-star", "1,0"], None,
         "error [metrics_reference]: length mismatch between explanation and reference"),
        (["attack", "--dataset", "{csv}", "--schema", "{schema}", "--k", "200",
          "--num-perturbations", "5"], None,
         "error [experiments]: k out of range: exceeds candidate count"),
        ([*_THRESHOLD_RUN, "--metric", "axe", "--sigma", "nan"], None,
         "error [cli]: sigma must be a finite number, not nan"),
        ([*_THRESHOLD_RUN, "--metric", "axe"], '{"sigma": NaN}',
         "error [cli]: sigma must be a finite number, not nan"),
        ([*_THRESHOLD_RUN, "--metric", "axe", "--metric", "fa", "--e-star", "1,0,0",
          "--metric", "bogus"], None, "error [cli]: unknown metric 'bogus'"),
    ], ids=["axe-k-above-rows", "e-star-too-short", "attack-k-above-rows", "nan-sigma-flag",
            "nan-sigma-config", "unknown-later-metric"])
    def test_exit_2_leaves_out_empty(self, tmp_path, capsys, argv, config, message):
        csv_path, schema_path = write_attack_csv(tmp_path, nu=120)
        argv = [a.format(csv=csv_path, schema=schema_path) for a in argv]
        if config is not None:
            (tmp_path / "config.json").write_text(config)
            argv += ["--config", str(tmp_path / "config.json")]
        out = tmp_path / "run"
        out.mkdir()
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert list(out.iterdir()) == []

    def test_overflow_in_a_later_chunk_leaves_out_empty(self, tmp_path, capsys):
        # at 100 copies a chunk is 512 rows: rows from 1,024 on perturb the feature
        # whose coefficient overflows, the rows before it a dead feature
        model = {"kind": "linear", "coefficients": [1e307, 0.0, 0.0], "intercept": 0.0}
        (tmp_path / "m.json").write_text(json.dumps(model))
        rows = ["datapoint_index,f0,f1,f2"] + [
            f"{i},{float(i >= 1024)},{float(i < 1024)},0.0" for i in range(1100)]
        (tmp_path / "e.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "run"
        out.mkdir()
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "1100",
                     "--cols", "3", "--model", str(tmp_path / "m.json"),
                     "--explanations", str(tmp_path / "e.csv"), "--metric", "axe",
                     "--metric", "pgi", "--sigma", "10", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error [metrics_sensitivity]: sigma is too large: the model overflows")
        assert list(out.iterdir()) == []


class TestOneSourcePerInput:
    """Each input takes one source, after the config file and the flags are
    merged: two are refused before anything is scored, and --out stays empty."""

    @pytest.mark.parametrize("argv, config, message", [
        (["evaluate", "--proxy", "compas", "--synthetic", "threshold-rule", "--rows", "50",
          "--cols", "3", "--train", "logistic", "--manual-index", "0", "--metric", "axe"], None,
         "error [data]: --proxy and --synthetic give one input: use one of them"),
        (["evaluate", "--synthetic", "threshold-rule", "--cols", "3", "--metric", "axe",
          "--manual-index", "0", "--train", "logistic", "--model", "{csv}"], None,
         "error [models]: --model and --train give one input: use one of them"),
        (["evaluate", "--synthetic", "threshold-rule", "--cols", "3", "--train", "logistic",
          "--explanations", "{csv}", "--manual-index", "0", "--explainer", "gradient"], None,
         "error [explainers]: --explanations and --manual-index and --explainer give one "
         "input: use one of them"),
        (["explain", "--synthetic", "threshold-rule", "--cols", "3", "--train", "logistic",
          "--explainer", "gradient", "--manual-index", "0"], None,
         "error [explainers]: --manual-index and --explainer give one input: use one of them"),
        (["attack", "--dataset", "{csv}", "--schema", "{schema}", "--proxy", "compas"], None,
         "error [data]: --dataset and --proxy give one input: use one of them"),
        (["evaluate", "--proxy", "compas", "--train", "logistic", "--manual-index", "0"],
         '{"synthetic": "threshold-rule"}',
         "error [data]: --proxy and --synthetic give one input: use one of them"),
        (["attack", "--proxy", "compas", "--schema", "{schema}"], None,
         "error [data]: --dataset and --schema go together: the schema describes the CSV"),
        (["evaluate", "--dataset", "{csv}", "--train", "logistic", "--manual-index", "0"], None,
         "error [data]: --dataset and --schema go together: the schema describes the CSV"),
    ], ids=["proxy-and-synthetic", "model-and-train", "three-explanation-sources",
            "explain-two-explainers", "attack-dataset-and-proxy", "config-and-flag",
            "schema-without-dataset", "dataset-without-schema"])
    def test_two_sources_exit_2_and_leave_out_empty(self, tmp_path, capsys, argv, config,
                                                    message):
        csv_path, schema_path = write_attack_csv(tmp_path, nu=120)
        argv = [a.format(csv=csv_path, schema=schema_path) for a in argv]
        if config is not None:
            (tmp_path / "config.json").write_text(config)
            argv += ["--config", str(tmp_path / "config.json")]
        out = tmp_path / "run"
        out.mkdir()
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, argv", [
        ("attack", ["--num-perturbations", "5"]),
        ("evaluate", ["--train", "logistic", "--manual-index", "0", "--metric", "axe"]),
    ])
    def test_empty_dataset_path_is_given_and_fails_to_load(self, tmp_path, capsys, monkeypatch,
                                                           command, argv):
        # "" differs from the default None: a source the run reads, not one it skips
        monkeypatch.setattr(cli, "bundle_from_config",
                            lambda config: pytest.fail(f"proxy {config.dataset_name} scored"))
        _, schema_path = write_attack_csv(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        assert main([command, "--dataset", "", "--schema", str(schema_path), *argv,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error [data]: [Errno 2] No such file or directory: ''\n"
        assert list(out.iterdir()) == []

    def test_attack_takes_a_dataset_beside_its_default_proxy(self):
        defaults = cli._COMMANDS["attack"][1]
        cli._check_sources({**defaults, "dataset": "d.csv", "schema": "s.json"}, defaults)

    def test_permuted_csv_header_exits_2_and_leaves_out_empty(self, tmp_path, capsys):
        # read by position, these columns would give f0's importance to f2
        expl_path = tmp_path / "permuted.csv"
        expl_path.write_text("datapoint_index,f2,f1,f0\n"
                             + "".join(f"{i},1.0,0.5,0.0\n" for i in range(60)))
        out = tmp_path / "run"
        out.mkdir()
        assert main(["evaluate", "--synthetic", "threshold-rule", "--rows", "60", "--cols", "3",
                     "--train", "logistic", "--explanations", str(expl_path),
                     "--metric", "axe", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error [explainers]: explanations CSV header ['datapoint_index', 'f2', 'f1', 'f0'] "
            "must be ['datapoint_index', 'f0', 'f1', 'f2'], the features in order\n")
        assert list(out.iterdir()) == []


class TestSchemaFile:
    @pytest.mark.parametrize("command", ["evaluate", "attack"])
    @pytest.mark.parametrize("mangle, message", [
        (lambda s: [1, 2], "DatasetSchema record must be dict, not list"),
        (lambda s: {k: v for k, v in s.items() if k != "name"},
         "DatasetSchema record lacks 'name'"),
        (lambda s: {}, "DatasetSchema record lacks 'name', 'column_names', 'target_column'"),
        (lambda s: {**s, "protected_colum": "prot"},
         "DatasetSchema record has unknown field 'protected_colum'"),
        (lambda s: {**s, "column_names": 5},
         "DatasetSchema record 'column_names' must be list[str], not int"),
        (lambda s: {**s, "drop_columns": "c5"},
         "DatasetSchema record 'drop_columns' must be list[str], not str"),
        (lambda s: {**s, "column_names": ["c0", *s["column_names"]]},
         "schema mismatch: column 'c0' appears twice"),
        (lambda s: {**s, "protected_column": "y"},
         "schema mismatch: protected column 'y' is the target"),
    ], ids=["payload-not-object", "missing-name", "empty-object", "misspelt-key",
            "int-column-names", "str-drop-columns", "duplicate-column", "protected-is-target"])
    def test_malformed_schema_exits_2(self, tmp_path, capsys, command, mangle, message):
        csv_path, schema_path = write_attack_csv(tmp_path)
        schema_path.write_text(json.dumps(mangle(read_json(schema_path))))
        code = main([command, "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error [data]: {message}"


class TestRegionGrid:
    def test_smoke_small_resolution_under_a_second(self, tmp_path):
        out = tmp_path / "run"
        start = time.perf_counter()
        assert main(["region-grid", "--resolution", "3", "--out", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        assert (out / "region_summary.json").exists()

    @pytest.mark.parametrize("n, message", [
        ("-1", "n must be non-negative"), ("3", "n exceeds feature count")])
    def test_n_out_of_range_names_its_bound(self, tmp_path, capsys, n, message):
        code = main(["region-grid", "--resolution", "3", "--n", n, "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == f"error [experiments]: {message}\n"

    def test_reference_swap_bit_identical_grids(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["region-grid", "--resolution", "41", "--e-star", "0.7,0.3",
                     "--out", str(a)]) == 0
        assert main(["region-grid", "--resolution", "41", "--e-star", "0.5,0.3",
                     "--out", str(b)]) == 0
        for metric in ("fa", "ra", "sa", "sra", "pra"):
            name = f"region_{metric}.tsv"
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestReproducibility:
    def test_region_grid_rerun_from_config_at_any_parallelism(self, tmp_path):
        first = tmp_path / "first"
        assert main(["region-grid", "--resolution", "31", "--seed", "4",
                     "--out", str(first), "--jobs", "1"]) == 0
        second = tmp_path / "second"
        assert main(["region-grid", "--config", str(first / "run_config.json"),
                     "--out", str(second), "--jobs", "3"]) == 0
        assert dir_bytes(first) == dir_bytes(second)

    def test_evaluate_rerun_from_config(self, tmp_path):
        first = tmp_path / "first"
        args = ["evaluate", "--synthetic", "threshold-rule", "--rows", "80",
                "--cols", "3", "--train", "logistic", "--explainer", "local-surrogate",
                "--metric", "axe", "--metric", "pgu", "--seed", "9", "--out", str(first)]
        assert main(args) == 0
        second = tmp_path / "second"
        assert main(["evaluate", "--config", str(first / "run_config.json"),
                     "--out", str(second), "--jobs", "2"]) == 0
        assert dir_bytes(first) == dir_bytes(second)

    def test_attack_rerun_from_config_at_any_parallelism(self, tmp_path):
        csv_path, schema_path = write_attack_csv(tmp_path, seed=3)
        first = tmp_path / "first"
        assert main(["attack", "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--num-perturbations", "5", "--seed", "7", "--out", str(first)]) == 0
        expected = dir_bytes(first)
        assert any(name.startswith("models/") for name in expected)
        for jobs in ("1", "2"):
            again = tmp_path / f"jobs{jobs}"
            assert main(["attack", "--config", str(first / "run_config.json"),
                         "--out", str(again), "--jobs", jobs]) == 0
            assert dir_bytes(again) == expected

    @pytest.mark.parametrize("args", [
        # 12 columns give 4,094 coalitions, more than the 1,000 samples: the masks are drawn
        ["explain", "--synthetic", "correlated-foil", "--rows", "12", "--cols", "12",
         "--train", "mlp", "--explainer", "kernel-shapley", "--seed", "6"],
        ["principles", "--seed", "6"],
    ], ids=["explain", "principles"])
    def test_rerun_from_config(self, tmp_path, args):
        first = tmp_path / "first"
        assert main(args + ["--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main([args[0], "--config", str(first / "run_config.json"),
                     "--out", str(second)]) == 0
        assert dir_bytes(first) == dir_bytes(second)

    def test_config_command_mismatch_rejected(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["region-grid", "--resolution", "3", "--out", str(first)]) == 0
        code = main(["principles", "--config", str(first / "run_config.json"),
                     "--out", str(tmp_path / "p")])
        assert code == 2


class TestPrecedence:
    def test_env_overrides_builtin(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AXEBENCH_SEED", "77")
        out = tmp_path / "run"
        assert main(["region-grid", "--resolution", "3", "--out", str(out)]) == 0
        assert read_json(out / "run_config.json")["seed"] == 77

    def test_config_overrides_env(self, tmp_path, monkeypatch):
        base = tmp_path / "base"
        assert main(["region-grid", "--resolution", "5", "--seed", "1",
                     "--out", str(base)]) == 0
        monkeypatch.setenv("AXEBENCH_SEED", "50")
        out = tmp_path / "run"
        assert main(["region-grid", "--config", str(base / "run_config.json"),
                     "--out", str(out)]) == 0
        assert read_json(out / "run_config.json")["seed"] == 1  # config beats env

    def test_flag_overrides_env_and_config(self, tmp_path, monkeypatch):
        base = tmp_path / "base"
        assert main(["region-grid", "--resolution", "5", "--seed", "1",
                     "--out", str(base)]) == 0
        monkeypatch.setenv("AXEBENCH_SEED", "50")
        out = tmp_path / "run"
        assert main(["region-grid", "--config", str(base / "run_config.json"),
                     "--resolution", "7", "--seed", "99", "--out", str(out)]) == 0
        cfg = read_json(out / "run_config.json")
        assert cfg["resolution"] == 7  # flag beats config
        assert cfg["seed"] == 99       # flag beats env


class TestOutsideValues:
    @pytest.mark.parametrize("command, config, env, message", [
        ("evaluate", [1, 2], {}, "config file must be dict, not list"),
        ("region-grid", {"resolution": "x"}, {},
         "config key 'resolution' must be int, not str"),
        ("evaluate", {"include_self": "no", "k": 3}, {},
         "config key 'include_self' must be bool, not str"),
        ("evaluate", {"n": 1.0}, {}, "config key 'n' must be int, not float"),
        ("principles", {"seed": "abc"}, {}, "config key 'seed' must be int, not str"),
        ("principles", {"seed": True}, {}, "config key 'seed' must be int, not bool"),
        ("region-grid", {"e_star": None}, {}, "config key 'e_star' must be str, not NoneType"),
        ("evaluate", {"metric": "axe"}, {}, "config key 'metric' must be list[str], not str"),
        ("evaluate", {"train": "svm"}, {},
         "config key 'train' must be one of logistic, mlp, not 'svm'"),
        ("principles", {"sead": 3}, {}, "config key 'sead' is not a parameter of 'principles'"),
        ("principles", None, {"AXEBENCH_SEED": "abc"}, "AXEBENCH_SEED must be int, not 'abc'"),
        ("principles", None, {"AXEBENCH_JOBS": "x"}, "AXEBENCH_JOBS must be int, not 'x'"),
    ], ids=["config-list", "str-resolution", "str-include-self", "float-n", "str-seed",
            "bool-seed", "null-e-star", "str-metric", "unknown-trainer", "misspelt-key",
            "env-str-seed", "env-str-jobs"])
    def test_mistyped_value_exits_2_before_the_command_runs(
            self, tmp_path, capsys, monkeypatch, command, config, env, message):
        argv = [command, "--out", str(tmp_path / "run")]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error [cli]: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("command", ["evaluate", "explain", "attack", "region-grid",
                                         "principles"])
    def test_negative_seed_exits_2_before_the_command_runs(
            self, tmp_path, capsys, monkeypatch, command, source):
        argv = [command, "--out", str(tmp_path / "run")]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "env":
            monkeypatch.setenv("AXEBENCH_SEED", "-1")
        else:
            (tmp_path / "config.json").write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 2
        assert (capsys.readouterr().err
                == "error [cli]: seed must be a non-negative integer, not -1\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("jobs", [0, -1])
    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("command", ["evaluate", "explain", "attack", "region-grid",
                                         "principles"])
    def test_jobs_below_one_exits_2_before_the_command_runs(
            self, tmp_path, capsys, monkeypatch, command, source, jobs):
        argv = [command, "--out", str(tmp_path / "run")]
        if source == "flag":
            argv += ["--jobs", str(jobs)]
        elif source == "env":
            monkeypatch.setenv("AXEBENCH_JOBS", str(jobs))
        else:
            (tmp_path / "config.json").write_text(json.dumps({"jobs": jobs}))
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 2
        assert (capsys.readouterr().err
                == f"error [cli]: jobs must be a positive integer, not {jobs}\n")
        assert not (tmp_path / "run").exists()


_COMMON = {"--config", "--seed", "--out", "--jobs"}
_DATA_MODEL = {"--dataset", "--schema", "--synthetic", "--proxy", "--rows", "--cols",
               "--model", "--train", "--explainer", "--manual-index"}
_SYNTHETIC = ["--synthetic", "threshold-rule", "--rows", "40", "--cols", "3",
              "--train", "logistic", "--manual-index", "0"]
_EXPLAIN_KEYS = {"seed", "dataset", "schema", "synthetic", "proxy", "rows", "cols", "model",
                 "train", "explainer", "manual_index"}
_EVALUATE_KEYS = _EXPLAIN_KEYS | {"n", "k", "include_self", "explanations", "metric", "e_star",
                                  "num_perturbations", "sigma", "axe_trace"}


class TestCommandSurface:
    @pytest.mark.parametrize("command, argv, flags, persisted", [
        ("evaluate", lambda tmp: _SYNTHETIC,
         _COMMON | _DATA_MODEL | {"--explanations", "--metric", "--n", "--k", "--include-self",
                                  "--no-include-self", "--e-star", "--num-perturbations",
                                  "--sigma", "--axe-trace", "--no-axe-trace"},
         _EVALUATE_KEYS),
        ("explain", lambda tmp: _SYNTHETIC, _COMMON | _DATA_MODEL, _EXPLAIN_KEYS),
        ("attack", lambda tmp: ["--dataset", str(write_attack_csv(tmp, nu=120)[0]),
                                "--schema", str(tmp / "schema.json"),
                                "--num-perturbations", "5"],
         _COMMON | {"--proxy", "--dataset", "--schema", "--n", "--k", "--include-self",
                    "--no-include-self", "--num-perturbations", "--sigma"},
         {"seed", "n", "k", "include_self", "proxy", "dataset", "schema",
          "num_perturbations", "sigma"}),
        ("region-grid", lambda tmp: ["--resolution", "3"],
         _COMMON | {"--e-star", "--resolution", "--n"}, {"seed", "e_star", "resolution", "n"}),
        ("principles", lambda tmp: [], _COMMON, {"seed"}),
        ("report", None, {"--run"}, None),
    ])
    def test_flags_and_persisted_keys_are_pinned(self, tmp_path, capsys, command, argv,
                                                 flags, persisted):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == flags | {"--help"}
        if argv is not None:
            out = tmp_path / "run"
            assert main([command, *argv(tmp_path), "--out", str(out)]) == 0
            assert set(read_json(out / "run_config.json")) == persisted | {"command"}


class TestPrinciplesCommand:
    def test_writes_matrix(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["principles", "--seed", "0", "--out", str(out)]) == 0
        matrix = read_json(out / "principles.json")
        assert matrix["axe"]["on_manifold_evaluation"]["verdict"] == "pass"
        assert matrix["pgi"]["on_manifold_evaluation"]["verdict"] == "fail"
        assert "axe" in capsys.readouterr().out


class TestReport:
    def test_detects_tampered_pass_flag(self, tmp_path, capsys):
        csv_path, schema_path = write_attack_csv(tmp_path, nu=120)
        out = tmp_path / "run"
        assert main(["attack", "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--num-perturbations", "10", "--seed", "2", "--out", str(out)]) == 0
        verdicts = read_json(out / "verdicts.json")
        stored = verdicts[0]["passed"]
        verdicts[0]["passed"] = not stored
        (out / "verdicts.json").write_text(json.dumps(verdicts))
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error [experiments]: DetectionVerdict record 'passed' must be {stored}, "
            "as its other fields give\n")

    def test_report_of_another_schema_version_is_rejected(self, tmp_path, capsys):
        report = QualityReport("fa", {"n": 2}, [1.0, 0.0]).to_dict()
        report["schema_version"] = 2
        (tmp_path / "report_fa.json").write_text(json.dumps(report))
        assert main(["report", "--run", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error [core]: report schema_version 2 is not supported; "
            "this version reads schema_version 1")

    @pytest.mark.parametrize("name, payload, message", [
        ("verdicts.json", "not json", "error [experiments]: Expecting value"),
        ("verdicts.json", "{}",
         "error [experiments]: verdict file must be list, not dict"),
        ("verdicts.json", json.dumps([{"dataset_id": "d", "metric_name": "axe",
                                       "hyperparams": {}, "q_protected": 1.0,
                                       "q_foil1": 0.5, "q_foil2": None, "q_other": 0.5,
                                       "passed": True}]),
         "error [experiments]: DetectionVerdict record lacks 'model_name'"),
        ("verdicts.json", json.dumps([{"dataset_id": "d", "model_name": "m",
                                       "metric_name": "axe", "hyperparams": {},
                                       "q_protected": "high", "q_foil1": 0.5,
                                       "q_foil2": None, "q_other": 0.5, "passed": True}]),
         "error [experiments]: DetectionVerdict record 'q_protected' must be float, not str"),
        ("verdicts.json", json.dumps([{"dataset_id": "d", "model_name": "m",
                                       "metric_name": "axe", "hyperparams": {},
                                       "q_protected": 1.0, "q_foil1": 0.5,
                                       "q_foil2": None, "q_other": float("nan"),
                                       "passed": True}]),
         "error [experiments]: DetectionVerdict q_other must be finite, not nan"),
        ("verdicts.json", json.dumps([{"dataset_id": "d", "model_name": "m",
                                       "metric_name": "axe", "hyperparams": {},
                                       "q_protected": 1.0, "q_foil1": 0.5,
                                       "q_foil2": float("-inf"), "q_other": 0.5,
                                       "passed": True}]),
         "error [experiments]: DetectionVerdict q_foil2 must be finite, not -inf"),
        ("report_fa.json", json.dumps({"schema_version": 1, "metric_name": "fa",
                                       "hyperparams": {}, "aggregate_q": 0.5}),
         "error [core]: quality report lacks 'per_point_q'"),
        ("report_fa.json", "[]",
         "error [core]: quality report must be dict, not list"),
        ("report_fa.json", json.dumps({**QualityReport("fa", {}, [1.0]).to_dict(),
                                       "schema_version": True}),
         "error [core]: quality report 'schema_version' must be int | None, not bool"),
    ], ids=["verdicts-not-json", "verdicts-not-list", "verdict-without-model-name",
            "verdict-with-str-q", "verdict-with-nan-q", "verdict-with-infinite-q-foil2",
            "report-without-per-point-q", "report-not-object", "report-with-bool-version"])
    def test_malformed_run_file_exits_2(self, tmp_path, capsys, name, payload, message):
        (tmp_path / name).write_text(payload)
        assert main(["report", "--run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    def test_missing_run_dir(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path / "ghost")]) == 2

    def test_ignores_config_environment(self, tmp_path, monkeypatch):
        run = tmp_path / "grid"
        assert main(["region-grid", "--resolution", "3", "--out", str(run)]) == 0
        monkeypatch.setenv("AXEBENCH_CONFIG", str(run / "run_config.json"))
        assert main(["report", "--run", str(run)]) == 0


class TestInternalError:
    def test_unexpected_failure_keeps_traceback(self, tmp_path, monkeypatch, capsys):
        def boom(params, out):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "principles", (boom, cli._PRINCIPLES_DEFAULTS))
        assert main(["principles", "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "RuntimeError: boom" in err
        assert err.rstrip().endswith("error [internal]: boom")
