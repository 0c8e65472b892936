"""Smoke test of the benchmark: every workload at toy size, untraced and traced,
emits every metric the manifest names with its unit; BENCHMARK.json matches
the manifest; and the benchmark refuses to report without the program."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_benchmark_json_matches_manifest():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.manifest()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {n: entry[0] for n, entry in expected.items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, "--workload", "fairwash", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
