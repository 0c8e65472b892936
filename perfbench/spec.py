"""What the benchmark measures: workloads, end-to-end metrics with their
regression bounds, and per-layer metrics with the end-to-end metric and
workload each one should move.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 perfbench/run.py --manifest``); the smoke test keeps the two equal.
The layer map below has no place in that file's fixed schema, so it lives here
and is printed next to the numbers by ``run.py --workload all --trace 1``.
"""
from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

WORKLOADS = {
    "fairwash": "attack on a seeded 150-row compas-like CSV with 4 scaffolds: "
                "detector tree inference, PGI/PGU reports and one-hot AXE",
    "evaluate": "axe, pgi and pgu on 3000x8 correlated-foil rows with an MLP and "
                "gradient explanations: the quadratic per-row k-NN",
    "explain": "kernel-shapley and integrated-gradients explanations of 500 rows: "
               "the only workload where explainers and MLP forward/gradient dominate",
    "grid_audit": "region-grid at resolution 81 plus principles: reference metrics "
                  "per cell, the largest TSV write, and per-call overhead on 60 rows",
}

# name -> (unit, better, bound, what it is)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "axebench import plus input generation; median of 3 set-ups"),
    "wall_s": ("s", "lower", 0.25, "median wall seconds per pass"),
    "cpu_s": ("s", "lower", 0.25, "median process CPU seconds per pass"),
    "peak_rss_mb": ("MB", "lower", 0.1, "peak resident memory of the workload's process"),
}

_ALL = "fairwash, evaluate, explain, grid_audit"

# name -> (unit, better, what it should move, where it is zero or must not move)
PER_LAYER = {
    "trees.predict_calls": ("count", "lower", "wall_s on fairwash", "evaluate, explain, grid_audit"),
    "trees.predict_points": ("count", "lower", "wall_s on fairwash", "evaluate, explain, grid_audit"),
    "trees.predict_s": ("s", "lower", "wall_s on fairwash", "evaluate, explain, grid_audit"),
    "trees.predict_share": ("ratio", "lower", "wall_s on fairwash (share of untraced wall_s)",
                            "evaluate, explain, grid_audit"),
    "trees.fit_s": ("s", "lower", "wall_s on fairwash", "evaluate, explain, grid_audit"),
    "models.scaffold_batch_points": ("count", "lower", "wall_s on fairwash", "evaluate, explain, grid_audit"),
    "models.scaffold_self_s": ("s", "lower", "wall_s on fairwash", "evaluate, explain, grid_audit"),
    "models.flagged_fraction": ("ratio", "higher", "none: detector behaviour, must repeat exactly",
                                "evaluate, explain, grid_audit"),
    "models.detector_fit_s": ("s", "lower", "wall_s on fairwash", "evaluate, explain, grid_audit"),
    "models.mlp_points": ("count", "lower", "wall_s on explain and evaluate", "fairwash, grid_audit"),
    "models.mlp_s": ("s", "lower", "wall_s on explain", "fairwash, grid_audit"),
    "models.gradient_calls": ("count", "lower", "wall_s on explain", "fairwash, evaluate, grid_audit"),
    "models.gradient_s": ("s", "lower", "wall_s on explain", "fairwash, evaluate, grid_audit"),
    "models.scalar_proba_calls": ("count", "lower", "wall_s on explain and grid_audit", "evaluate"),
    "models.train_s": ("s", "lower", "wall_s on explain (MLP training per command)",
                       "fairwash, evaluate, grid_audit"),
    "models.load_s": ("s", "lower", "wall_s on evaluate (model JSON)", "fairwash, explain, grid_audit"),
    "metrics_sensitivity.report_calls": ("count", "lower", "wall_s on fairwash", "explain, grid_audit"),
    "metrics_sensitivity.distinct_ratio": ("ratio", "higher", "wall_s on fairwash (memoized reports)",
                                           "explain, grid_audit"),
    "metrics_sensitivity.perturbed_points": ("count", "lower", "wall_s on fairwash; peak_rss_mb on evaluate",
                                             "explain, grid_audit"),
    "metrics_sensitivity.self_s": ("s", "lower", "wall_s on fairwash; peak_rss_mb on evaluate",
                                   "explain, grid_audit"),
    "axe.quality_calls": ("count", "lower", "wall_s on evaluate", "explain"),
    "axe.quality_rows": ("count", "lower", "wall_s on evaluate", "explain"),
    "axe.quality_s": ("s", "lower", "wall_s and peak_rss_mb on evaluate", "explain; small share on fairwash"),
    "axe.distinct_subsets": ("count", "lower", "wall_s on evaluate (subset grouping)", "explain"),
    "axe.onehot_calls": ("count", "lower", "wall_s on fairwash (small share, must not slow)",
                         "evaluate, explain, grid_audit"),
    "axe.onehot_s": ("s", "lower", "wall_s on fairwash (small share, must not slow)",
                     "evaluate, explain, grid_audit"),
    "axe.onehot_table_reuse_ratio": ("ratio", "higher", "wall_s on fairwash",
                                     "evaluate, explain, grid_audit"),
    "explainers.rows": ("count", "lower", "wall_s on explain", "fairwash, evaluate, grid_audit"),
    "explainers.kernel_shapley_row_ms_p50": ("ms", "lower", "wall_s on explain", "fairwash, evaluate, grid_audit"),
    "explainers.kernel_shapley_row_ms_p99": ("ms", "lower", "wall_s on explain", "fairwash, evaluate, grid_audit"),
    "explainers.integrated_gradients_row_ms_p50": ("ms", "lower", "wall_s on explain",
                                                   "fairwash, evaluate, grid_audit"),
    "explainers.integrated_gradients_row_ms_p99": ("ms", "lower", "wall_s on explain",
                                                   "fairwash, evaluate, grid_audit"),
    "explainers.model_points": ("count", "lower", "wall_s on explain", "fairwash, evaluate, grid_audit"),
    "explainers.self_s": ("s", "lower", "wall_s on explain", "fairwash, evaluate, grid_audit"),
    "explainers.load_s": ("s", "lower", "wall_s on evaluate", "fairwash, explain, grid_audit"),
    "metrics_reference.pair_evals": ("count", "lower", "wall_s on grid_audit", "fairwash, evaluate, explain"),
    "metrics_reference.pair_s": ("s", "lower", "wall_s on grid_audit", "fairwash, evaluate, explain"),
    "metrics_reference.rank_vector_calls": ("count", "lower", "wall_s on grid_audit",
                                            "fairwash, evaluate, explain"),
    "metrics_reference.rank_vector_s": ("s", "lower", "wall_s on grid_audit", "fairwash, evaluate, explain"),
    "core.explanation_objects": ("count", "lower", "wall_s on fairwash and evaluate", "explain must not slow"),
    "core.top_n_calls": ("count", "lower", "wall_s on fairwash, evaluate and grid_audit", "explain"),
    "core.top_n_s": ("s", "lower", "wall_s on fairwash, evaluate and grid_audit", "explain"),
    "experiments.bundle_build_s": ("s", "lower", "wall_s on fairwash", "evaluate, explain, grid_audit"),
    "experiments.detect_s": ("s", "lower", "wall_s on fairwash", "evaluate, explain, grid_audit"),
    "experiments.region_grid_s": ("s", "lower", "wall_s on grid_audit", "fairwash, evaluate, explain"),
    "experiments.write_region_grid_s": ("s", "lower", "wall_s on grid_audit", "fairwash, evaluate, explain"),
    "experiments.principles_s": ("s", "lower", "wall_s on grid_audit", "fairwash, evaluate, explain"),
    "cli.persist_s": ("s", "lower", "wall_s on fairwash (model JSON) and explain", "none"),
    "cli.output_bytes": ("bytes", "lower", "wall_s on grid_audit (TSV) and fairwash", "none"),
    "cli.output_files": ("count", "lower", "none: output layout, must repeat exactly", "none"),
    "data.generate_s": ("s", "lower", "wall_s on evaluate and explain", "fairwash, grid_audit"),
    "data.load_s": ("s", "lower", "wall_s on fairwash (CSV ingestion)", "evaluate, explain, grid_audit"),
    "trace.wall_s": ("s", "lower", "none: traced pass wall time", _ALL),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s", _ALL),
    "trace.uncovered_share": ("ratio", "lower", "none: share of traced wall_s in no layer span", _ALL),
}

# Metrics that are pure functions of the inputs: two traced passes must agree
# on each of them exactly, so later changes may cite them as counts.
EXACT_METRICS = tuple(name for name, (unit, *_rest) in PER_LAYER.items()
                      if unit in ("count", "bytes") or name.endswith(("_ratio", "_fraction")))


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": unit, "better": better, "bound": bound}
                       for n, (unit, better, bound, _) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": unit, "better": better}
                      for n, (unit, better, _, _) in PER_LAYER.items()],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"
