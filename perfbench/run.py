"""Benchmark of the axebench command line: one workload per process, a closed
loop of back-to-back passes with one client, every command at ``--jobs 1``.

    python3 perfbench/run.py --workload fairwash --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --manifest > BENCHMARK.json

Run from the repository root. Set-up imports axebench from ``src/`` and writes
the seeded inputs; each pass then calls ``axebench.cli.main(argv)`` in-process
for the workload's commands. Every pass is checked: exit codes, a byte
comparison of its output directory against the first pass, and the workload's
invariants. The first pass is a warm-up and is not timed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time, then two traced passes, and reports the per-layer
metrics. The last line of stdout is one JSON object; records with spans, the
output digest and the machine stamp go to ``.perfbench/results/``.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()   # set-up time counts from interpreter start-up on

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402  (benchmark-local module next to this file)

SETUP_REPEATS = 3
MIN_PASSES = 3      # the warm-up plus at least two timed passes
TRACED_PASSES = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def tree_digest(root: Path) -> tuple[str, int, int]:
    """sha256 over every file's relative path, size and bytes, in path order,
    bytecode caches left out; with the file count and total bytes."""
    h, files, total = hashlib.sha256(), 0, 0
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        size = path.stat().st_size
        files, total = files + 1, total + size
        h.update(f"{path.relative_to(root).as_posix()}\0{size}\0".encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest(), files, total


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_commit": _git_commit(),
        "source_sha256": tree_digest(SRC / "axebench")[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


class Runner:
    """Set-up, passes and checks of one workload in this process."""

    def __init__(self, workload, seed: int, size: dict, cli_main):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.cli_main = cli_main
        self.commands = None
        self.reference = None     # digest of the first pass's output
        self.passes: list[dict] = []

    def setup(self) -> None:
        shutil.rmtree("inputs", ignore_errors=True)
        Path("inputs").mkdir()
        self.commands = self.workload.setup(self.seed, self.size)

    def run_pass(self, traced: bool = False) -> dict:
        out = Path("out")
        shutil.rmtree(out, ignore_errors=True)
        codes = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            for sub, argv in self.commands:
                try:
                    codes.append(self.cli_main([*argv, "--out", str(out / sub)]))
                except SystemExit as exc:   # argparse rejected the argv
                    codes.append(exc.code if isinstance(exc.code, int) else 1)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        digest, files, size = tree_digest(out)
        problems = [f"exit code {c}" for c in codes if c != 0]
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("output differs from the first pass")
        if all(c == 0 for c in codes):
            try:
                problems += self.workload.check(out, self.size)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"output check could not read the outputs: {exc!r}")
        record = {"wall_s": wall, "cpu_s": cpu, "traced": traced, "digest": digest,
                  "output_files": files, "output_bytes": size, "problems": problems}
        self.passes.append(record)
        for p in problems:
            print(f"pass {len(self.passes) - 1} failed: {p}", file=sys.stderr)
        return record

    def loop(self, seconds: float) -> None:
        """Untraced passes until the next one would overrun ``seconds``."""
        start = time.perf_counter()
        while True:
            record = self.run_pass()
            elapsed = time.perf_counter() - start
            if len(self.passes) >= MIN_PASSES and elapsed + record["wall_s"] > seconds:
                return

    def timed(self, key: str) -> list[float]:
        return [p[key] for p in self.passes[1:] if not p["traced"]]

    @property
    def failed(self) -> int:
        return sum(1 for p in self.passes if p["problems"])


def setup_sample(args) -> float:
    """Seconds a fresh interpreter takes to import axebench and write the inputs."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=150)
    return float(done.stdout.split()[-1])


def end_to_end(runner: Runner, args) -> tuple[dict, list[str], bool]:
    """Untraced passes for ``args.seconds``; the end-to-end metrics."""
    setups = [setup_sample(args) for _ in range(SETUP_REPEATS)]
    runner.setup()
    runner.loop(args.seconds)
    walls, cpus = runner.timed("wall_s"), runner.timed("cpu_s")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setups)} set-ups in "
             f"fresh interpreters {[round(v, 4) for v in setups]}",
             f"wall_s       {metrics['wall_s']:.4f} s   median of {len(walls)} timed passes "
             f"(min {min(walls):.4f}, max {max(walls):.4f})",
             f"cpu_s        {metrics['cpu_s']:.4f} s   median of {len(cpus)} timed passes",
             f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB"]
    return metrics, lines, True


def per_layer(runner: Runner, args, spans_path: Path) -> tuple[dict, list[str], bool]:
    """Untraced passes for half of ``args.seconds``, then the traced passes."""
    import tracing

    runner.setup()
    runner.loop(args.seconds / 2)
    untraced_wall = statistics.median(runner.timed("wall_s"))
    recorder = tracing.Recorder()
    tracer = tracing.Tracer(recorder)
    per_pass = []
    try:
        tracer.install()
        for i in range(TRACED_PASSES):
            recorder.begin_pass(i)
            p = runner.run_pass(traced=True)
            m = tracing.layer_metrics(recorder, i, p["wall_s"])
            m.update({"cli.output_bytes": p["output_bytes"], "cli.output_files": p["output_files"]})
            per_pass.append(m)
    finally:
        tracer.remove()
    recorder.write_spans(spans_path)

    mismatched = [n for n in spec.EXACT_METRICS if n in per_pass[0]
                  and any(m[n] != per_pass[0][n] for m in per_pass[1:])]
    for n in mismatched:
        print(f"count {n} differs between traced passes: {[m[n] for m in per_pass]}",
              file=sys.stderr)
    metrics = {n: per_pass[0][n] if n in spec.EXACT_METRICS
               else statistics.mean(m[n] for m in per_pass) for n in per_pass[0]}
    metrics.update(tracing.row_percentiles_ms(recorder))
    metrics["trace.wall_s"] = statistics.mean(p["wall_s"] for p in runner.passes if p["traced"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["trees.predict_share"] = metrics["trees.predict_s"] / untraced_wall
    if set(metrics) != set(spec.PER_LAYER):
        raise RuntimeError("per-layer metrics out of step with spec.PER_LAYER: "
                           f"{sorted(set(metrics) ^ set(spec.PER_LAYER))}")
    lines = [f"untraced wall_s {untraced_wall:.4f} s, traced {metrics['trace.wall_s']:.4f} s "
             f"(overhead {metrics['trace.overhead_s']:+.4f} s), "
             f"uncovered share {metrics['trace.uncovered_share']:.4f}",
             f"trees.predict_s is {metrics['trees.predict_share']:.4f} of untraced wall_s",
             f"{len(recorder.spans)} spans in {spans_path.relative_to(ROOT)}"]
    return metrics, lines, not mismatched


def run_workload(args) -> int:
    try:
        from axebench.cli import main as cli_main
        from workloads import SIZES, WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import axebench from {SRC}: {exc}", file=sys.stderr)
        return 1

    name = args.workload if args.size == "full" else f"{args.workload}-{args.size}"
    work = WORK / (f"{name}-setup" if args.setup_only else name)
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    runner = Runner(WORKLOADS[args.workload], args.seed, SIZES[args.size], cli_main)
    if args.setup_only:
        runner.setup()
        print(time.perf_counter() - STARTED)
        return 0

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, lines, counts_repeat = per_layer(runner, args, results / f"{tag}-spans.tsv")
        table = spec.PER_LAYER
    else:
        metrics, lines, counts_repeat = end_to_end(runner, args)
        table = spec.END_TO_END

    attempted, failed = len(runner.passes), runner.failed
    result = {"correct": failed == 0 and counts_repeat, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": table[n][0]} for n in table}}
    st = stamp(args)
    results_path = results / f"{tag}.json"
    results_path.write_text(json.dumps({"stamp": st, "result": result, "digest": runner.reference,
                                        "error_rate": failed / attempted,
                                        "passes": runner.passes}, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {attempted} passes "
          f"(1 warm-up), {failed} failed")
    print(f"stamp        commit {st['git_commit']}, python {st['python']}, numpy {st['numpy']} "
          f"({st['blas']}), nproc {st['nproc']}, {st['cpu_model']}, "
          + ", ".join(f"{k}={v}" for k, v in st["blas_threads"].items()))
    for line in lines:
        print(line)
    print(f"error_rate   {failed / attempted:.4f}      {failed} of {attempted} passes")
    print(f"digest       sha256:{runner.reference}")
    print(f"results      {results_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of their metrics."""
    table, ok = {}, True
    for name in spec.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode} without a result")
            ok = False
            continue
        table[name] = json.loads(lines[-1])
        digest = next((l.split()[-1] for l in lines if l.startswith("digest")), "?")
        print(f"{name}: {table[name]['attempted']} passes (1 warm-up), {table[name]['failed']} failed, "
              f"error_rate {table[name]['failed'] / table[name]['attempted']:.4f}, {digest}")
        ok &= table[name]["correct"]
    names = list(table)
    metric_specs = spec.PER_LAYER if args.trace else spec.END_TO_END
    print(f"{'metric':<46}{'unit':<7}" + "".join(f"{n:>14}" for n in names)
          + ("   should move | zero or unmoved on" if args.trace else ""))
    for metric, entry in metric_specs.items():
        cells = "".join(f"{table[n]['metrics'][metric]['value']:>14.6g}" for n in names)
        print(f"{metric:<46}{entry[0]:<7}{cells}"
              + (f"   {entry[2]} | {entry[3]}" if args.trace else ""))
    print(json.dumps({"correct": ok, "workloads": table}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy inputs exercise every code path in about a second")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--manifest", action="store_true",
                        help="print the BENCHMARK.json this benchmark defines and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        sys.stdout.write(spec.manifest_text())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "axebench").is_dir():
        print(f"error: no axebench sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
