import json
import time
from pathlib import Path

import numpy as np
import pytest

from axebench import cli
from axebench.cli import main
from axebench.core import QualityReport


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def dir_bytes(root):
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
                 "scalar.json": (json.dumps(scalars), "a list of numbers on every row")}
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
         + rows[4:], "row 3 lacks 'importances'"),
        (lambda rows: [{"importances": r["importances"]} for r in rows],
         "row 0 lacks 'datapoint_index'"),
        (lambda rows: rows[:5] + [[5, 1.0, 0.5, 0.0]] + rows[6:], "row 5 is not an object"),
        (lambda rows: {"rows": rows}, "must be a list of row objects"),
        (lambda rows: [dict(r, datapoint_index=1.5) if i == 1 else r
                       for i, r in enumerate(rows)], "datapoint_index 1.5 is not an integer"),
        (lambda rows: [dict(r, datapoint_index=None) if i == 2 else r
                       for i, r in enumerate(rows)], "datapoint_index None is not an integer"),
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
        ({"kind": "linear"}, "linear predictor file lacks 'coefficients'"),
        ({"kind": "mlp", "activation": "tanh", "descriptor": "mlp(2)",
          "weights": [[[0.5, -0.5], [0.1, 0.2], [0.3, 0.4]], [[1.0], [-1.0]]]},
         "mlp predictor file lacks 'biases'"),
        ([1, 2], "predictor file must hold a JSON object, not a list"),
        ({"kind": "forest"}, "unknown predictor kind 'forest'"),
    ], ids=["linear-without-coefficients", "mlp-without-biases", "payload-not-object",
            "unknown-kind"])
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

    @pytest.mark.parametrize("payload, message", [
        ({"kind": "linear", "coefficients": [0.5, -0.5], "intercept": 0.0},
         "dimension mismatch: model takes 2 features, data has shape (50, 3)"),
        ({"kind": "mlp", "activation": "tanh", "descriptor": "mlp(2)",
          "weights": [[[0.5, -0.5], [0.1, 0.2]], [[1.0], [-1.0]]], "biases": [[0.0, 0.0], [0.0]]},
         "mismatch"),
    ], ids=["linear", "mlp"])
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

    def test_missing_output_dir_exits_2(self, capsys):
        code = main(["evaluate", "--synthetic", "threshold-rule", "--train", "logistic",
                     "--manual-index", "0", "--metric", "axe"])
        assert code == 2
        assert "output directory" in capsys.readouterr().err

    def test_reference_metric_without_reference_vector_exits_2(self, tmp_path, capsys):
        code = main(["evaluate", "--synthetic", "threshold-rule", "--rows", "60",
                     "--cols", "3", "--train", "mlp", "--manual-index", "0",
                     "--metric", "fa", "--seed", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        assert "e-star" in capsys.readouterr().err


class TestExplain:
    def test_writes_csv_and_json(self, tmp_path):
        out = tmp_path / "run"
        code = main(["explain", "--synthetic", "threshold-rule", "--rows", "60",
                     "--cols", "3", "--train", "logistic", "--explainer", "gradient",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        assert (out / "explanations.csv").exists()
        assert (out / "explanations.json").exists()


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
        assert "protected" in capsys.readouterr().err

    def test_unknown_proxy_exits_2(self, tmp_path, capsys):
        code = main(["attack", "--proxy", "nope", "--out", str(tmp_path / "run")])
        assert code == 2


class TestRegionGrid:
    def test_smoke_small_resolution_under_a_second(self, tmp_path):
        out = tmp_path / "run"
        start = time.perf_counter()
        assert main(["region-grid", "--resolution", "3", "--out", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        assert (out / "region_summary.json").exists()

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
        verdicts[0]["passed"] = not verdicts[0]["passed"]
        (out / "verdicts.json").write_text(json.dumps(verdicts))
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_report_of_another_schema_version_is_rejected(self, tmp_path, capsys):
        report = QualityReport.build("fa", {"n": 2}, [1.0, 0.0]).to_dict()
        report["schema_version"] = 2
        (tmp_path / "report_fa.json").write_text(json.dumps(report))
        assert main(["report", "--run", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error [core]: report schema_version 2 is not supported; "
            "this version reads schema_version 1")

    def test_missing_run_dir(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path / "ghost")]) == 2


class TestInternalError:
    def test_unexpected_failure_keeps_traceback(self, monkeypatch, capsys):
        def boom(params):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "principles", (boom, cli._PRINCIPLES_DEFAULTS))
        assert main(["principles"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "RuntimeError: boom" in err
        assert err.rstrip().endswith("error [internal]: boom")
