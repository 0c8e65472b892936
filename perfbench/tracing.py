"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of the axebench modules,
rebinding every module attribute and module-level dict entry that refers to
them, and restores the originals on :meth:`Tracer.remove`. Each wrapped call
records a span (name, start, end, parent span, pass id) and the counts that
belong to its layer. Spans stay in memory until :meth:`Recorder.write_spans`.

The span stack is a single list, so traced passes must run on one thread; the
benchmark runs every command with ``--jobs 1``.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from axebench.core import importances_of

ROW_SPANS = ("explainers.kernel_shapley_row", "explainers.integrated_gradients_row",
             "explainers.row")


class Recorder:
    """Spans and per-pass counts of the traced passes of one run."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index, pass id)
        self.stack: list[int] = []
        self.counts: dict[int, Counter] = {}
        self.distinct: dict[int, defaultdict] = {}
        self.pass_id = -1
        self.explainer_depth = 0
        self.origin = perf_counter()

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts[pass_id] = Counter()
        self.distinct[pass_id] = defaultdict(set)

    @property
    def count(self) -> Counter:
        return self.counts[self.pass_id]

    def model_points(self, n: int) -> None:
        """Model queries issued from inside an explainer row."""
        if self.explainer_depth:
            self.count["explainers.model_points"] += n

    def self_times(self, pass_id: int) -> tuple[Counter, float]:
        """Self time per span name, and the time covered by root spans."""
        own, covered = Counter(), 0.0
        for name, start, end, parent, pid in self.spans:
            if pid != pass_id:
                continue
            own[name] += end - start
            if parent < 0:
                covered += end - start
            else:
                own[self.spans[parent][0]] -= end - start
        return own, covered

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) * 1e3 for n, start, end, _, _ in self.spans if n == name]

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass\tspan\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent, pid) in enumerate(self.spans):
                fh.write(f"{pid}\t{i}\t{name}\t{start - self.origin:.9f}\t"
                         f"{end - self.origin:.9f}\t{parent}\n")


# --- counting hooks: hook(recorder, bound arguments or args) ----------------

def _index_sets(explanations, n: int, top: bool) -> np.ndarray:
    """Per-row sorted top-n (or bottom-n) feature indices, ties to the lower index."""
    imp = np.abs(np.array([importances_of(e) for e in explanations], dtype=float))
    cols = np.broadcast_to(np.arange(imp.shape[1]), imp.shape)
    order = np.lexsort((cols, -imp if top else imp), axis=-1)
    return np.sort(order[:, :n], axis=1)


def _sensitivity(rec: Recorder, a: dict) -> None:
    cfg, explanations = a["cfg"], a["explanations"]
    sets = _index_sets(explanations, cfg.n, top=a["metric_name"] == "pgi")
    key = (a["metric_name"], id(a["m"]), sets.shape, hashlib.sha256(sets.tobytes()).hexdigest(),
           cfg.n, cfg.num_perturbations, cfg.sigma, cfg.seed, cfg.negate_pgu)
    rec.distinct[rec.pass_id]["metrics_sensitivity"].add(key)
    if cfg.n > 0:
        rec.count["metrics_sensitivity.perturbed_points"] += len(explanations) * cfg.num_perturbations


def _axe_quality(rec: Recorder, a: dict) -> None:
    rec.count["axe.quality_rows"] += a["d"].nu
    sets = _index_sets(a["explanations"], a["cfg"].n, top=True)
    rec.count["axe.distinct_subsets"] += np.unique(sets, axis=0).shape[0]


def _axe_onehot(rec: Recorder, a: dict) -> None:
    cache = a["_table_cache"]
    key = (a["feature"], a["include_self"], max(int(k) for k in a["ks"]))
    if cache is not None and key in cache:
        rec.count["axe.onehot_table_hits"] += 1


def _batch_rows(counter: str) -> Callable:
    def hook(rec: Recorder, args: tuple) -> None:
        n = len(args[1])
        rec.count[counter] += n
        rec.model_points(n)
    return hook


def _scalar_query(counters: tuple[str, ...]) -> Callable:
    def hook(rec: Recorder, args: tuple) -> None:
        for c in counters:
            rec.count[c] += 1
        rec.model_points(1)
    return hook


def _trees_points(rec: Recorder, args: tuple) -> None:
    rec.count["trees.predict_points"] += len(args[1])


def _flags(rec: Recorder, result) -> None:
    rec.count["models.flag_points"] += result.size
    rec.count["models.flagged"] += int(np.count_nonzero(result))


def _construct(rec: Recorder, args: tuple) -> None:
    rec.count["core.explanation_objects"] += 1


@dataclass(frozen=True)
class Wrap:
    """One function or method to wrap.

    ``span`` None counts without a span. ``before`` receives the positional
    args, or the bound arguments when ``bind`` is set; ``after`` the result.
    ``scope`` marks an explainer row, inside which model queries are counted
    as ``explainers.model_points``.
    """

    module: str
    path: str
    span: str | None
    before: Callable | None = None
    after: Callable | None = None
    bind: bool = False
    scope: bool = False


_SCALAR = _scalar_query(("models.scalar_proba_calls",))
_PERSIST = "cli.persist"

WRAPS = (
    Wrap("_trees", "BaggedTrees.predict_proba", "trees.predict", before=_trees_points),
    Wrap("_trees", "BaggedTrees.fit", "trees.fit"),
    Wrap("models", "OodDetector.flags_batch", None, after=_flags),
    Wrap("models", "train_ood_detector", "models.detector_fit"),
    Wrap("models", "ScaffoldPredictor.predict_proba_batch", "models.scaffold_batch",
         before=_batch_rows("models.scaffold_batch_points")),
    Wrap("models", "MlpPredictor.predict_proba_batch", "models.mlp",
         before=_batch_rows("models.mlp_points")),
    Wrap("models", "MlpPredictor.predict_proba", "models.mlp",
         before=_scalar_query(("models.mlp_points", "models.scalar_proba_calls"))),
    Wrap("models", "MlpPredictor.gradient", "models.gradient", before=_scalar_query(())),
    Wrap("models", "LinearPredictor.gradient", "models.gradient", before=_scalar_query(())),
    Wrap("models", "LinearPredictor.predict_proba", None, before=_SCALAR),
    Wrap("models", "RulePredictor.predict_proba", None, before=_SCALAR),
    Wrap("models", "ScaffoldPredictor.predict_proba", None, before=_SCALAR),
    Wrap("models", "OffManifoldFlipPredictor.predict_proba", None, before=_SCALAR),
    Wrap("models", "train_mlp", "models.train"),
    Wrap("models", "train_logistic", "models.train"),
    Wrap("models", "load_predictor", "models.load"),
    Wrap("models", "save_predictor", _PERSIST),
    Wrap("metrics_sensitivity", "sensitivity_quality_report", "metrics_sensitivity.report",
         before=_sensitivity, bind=True),
    Wrap("axe", "axe_quality", "axe.quality", before=_axe_quality, bind=True),
    Wrap("axe", "one_hot_axe_aggregates", "axe.onehot", before=_axe_onehot, bind=True),
    Wrap("explainers", "explain_kernel_shapley", "explainers.kernel_shapley_row", scope=True),
    Wrap("explainers", "explain_integrated_gradients", "explainers.integrated_gradients_row",
         scope=True),
    Wrap("explainers", "explain_gradient", "explainers.row", scope=True),
    Wrap("explainers", "explain_local_surrogate", "explainers.row", scope=True),
    Wrap("explainers", "explain_dataset", "explainers.dataset"),
    Wrap("explainers", "load_explanations_csv", "explainers.load"),
    Wrap("explainers", "load_explanations_json", "explainers.load"),
    Wrap("explainers", "save_explanations_csv", _PERSIST),
    Wrap("explainers", "save_explanations_json", _PERSIST),
    *(Wrap("metrics_reference", fn, "metrics_reference.pair")
      for fn in ("feature_agreement", "rank_agreement", "sign_agreement",
                 "signed_rank_agreement", "rank_correlation", "pairwise_rank_agreement")),
    Wrap("core", "rank_vector", "metrics_reference.rank_vector"),
    Wrap("core", "top_n_features", "core.top_n"),
    Wrap("core", "Explanation.__post_init__", None, before=_construct),
    Wrap("core", "write_json", _PERSIST),
    Wrap("experiments", "build_attack_bundle", "experiments.bundle_build"),
    Wrap("experiments", "run_fairwash_detection", "experiments.detect"),
    Wrap("experiments", "run_region_grid", "experiments.region_grid"),
    Wrap("experiments", "write_region_grid", "experiments.write_region_grid"),
    Wrap("experiments", "principle_matrix", "experiments.principles"),
    Wrap("data", "generate_synthetic", "data.generate"),
    Wrap("data", "load_csv", "data.load"),
)


def _wrapper(rec: Recorder, w: Wrap, fn: Callable) -> Callable:
    sig = inspect.signature(fn) if w.bind else None

    def run_hooks_before(args, kwargs):
        if w.before is None:
            return
        if sig is None:
            w.before(rec, args)
        else:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            w.before(rec, bound.arguments)

    if w.span is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            run_hooks_before(args, kwargs)
            result = fn(*args, **kwargs)
            if w.after is not None:
                w.after(rec, result)
            return result
        return counted

    calls_key = w.span + ".calls"

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        rec.count[calls_key] += 1
        run_hooks_before(args, kwargs)
        stack, spans = rec.stack, rec.spans
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        rec.explainer_depth += w.scope
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            rec.explainer_depth -= w.scope
            stack.pop()
            spans[index] = (w.span, start, end, parent, rec.pass_id)
    return spanned


class Tracer:
    """Installs the :data:`WRAPS` onto the loaded axebench modules and removes them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[Callable[[], None]] = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        functions: dict[int, tuple[Callable, Callable]] = {}
        for w in WRAPS:
            module = importlib.import_module(f"axebench.{w.module}")
            owner_name, _, attr = w.path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, _wrapper(self.recorder, w, original))
                self._undo.append(functools.partial(setattr, owner, attr, original))
            else:
                original = getattr(module, attr)
                functions[id(original)] = (original, _wrapper(self.recorder, w, original))
        # module-level functions are rebound wherever a module or a module-level
        # dict (such as REFERENCE_METRICS) refers to them
        for name, module in list(sys.modules.items()):
            if name != "axebench" and not name.startswith("axebench."):
                continue
            for key, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._undo.append(functools.partial(setattr, module, key, value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = functions.get(id(v))
                        if hit is not None and hit[0] is v:
                            value[k] = hit[1]
                            self._undo.append(functools.partial(value.__setitem__, k, v))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, pass_id: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    own, covered = rec.self_times(pass_id)
    c = rec.counts[pass_id]
    calls = Counter({name[:-len(".calls")]: n for name, n in c.items() if name.endswith(".calls")})
    return {
        "trees.predict_calls": calls["trees.predict"],
        "trees.predict_points": c["trees.predict_points"],
        "trees.predict_s": own["trees.predict"],
        "trees.fit_s": own["trees.fit"],
        "models.scaffold_batch_points": c["models.scaffold_batch_points"],
        "models.scaffold_self_s": own["models.scaffold_batch"],
        "models.flagged_fraction": _ratio(c["models.flagged"], c["models.flag_points"]),
        "models.detector_fit_s": own["models.detector_fit"],
        "models.mlp_points": c["models.mlp_points"],
        "models.mlp_s": own["models.mlp"],
        "models.gradient_calls": calls["models.gradient"],
        "models.gradient_s": own["models.gradient"],
        "models.scalar_proba_calls": c["models.scalar_proba_calls"],
        "models.train_s": own["models.train"],
        "models.load_s": own["models.load"],
        "metrics_sensitivity.report_calls": calls["metrics_sensitivity.report"],
        "metrics_sensitivity.distinct_ratio": _ratio(
            len(rec.distinct[pass_id]["metrics_sensitivity"]), calls["metrics_sensitivity.report"]),
        "metrics_sensitivity.perturbed_points": c["metrics_sensitivity.perturbed_points"],
        "metrics_sensitivity.self_s": own["metrics_sensitivity.report"],
        "axe.quality_calls": calls["axe.quality"],
        "axe.quality_rows": c["axe.quality_rows"],
        "axe.quality_s": own["axe.quality"],
        "axe.distinct_subsets": c["axe.distinct_subsets"],
        "axe.onehot_calls": calls["axe.onehot"],
        "axe.onehot_s": own["axe.onehot"],
        "axe.onehot_table_reuse_ratio": _ratio(c["axe.onehot_table_hits"], calls["axe.onehot"]),
        "explainers.rows": sum(calls[name] for name in ROW_SPANS),
        "explainers.model_points": c["explainers.model_points"],
        "explainers.self_s": sum(own[name] for name in ROW_SPANS) + own["explainers.dataset"],
        "explainers.load_s": own["explainers.load"],
        "metrics_reference.pair_evals": calls["metrics_reference.pair"],
        "metrics_reference.pair_s": own["metrics_reference.pair"],
        "metrics_reference.rank_vector_calls": calls["metrics_reference.rank_vector"],
        "metrics_reference.rank_vector_s": own["metrics_reference.rank_vector"],
        "core.explanation_objects": c["core.explanation_objects"],
        "core.top_n_calls": calls["core.top_n"],
        "core.top_n_s": own["core.top_n"],
        "experiments.bundle_build_s": own["experiments.bundle_build"],
        "experiments.detect_s": own["experiments.detect"],
        "experiments.region_grid_s": own["experiments.region_grid"],
        "experiments.write_region_grid_s": own["experiments.write_region_grid"],
        "experiments.principles_s": own["experiments.principles"],
        "cli.persist_s": own[_PERSIST],
        "data.generate_s": own["data.generate"],
        "data.load_s": own["data.load"],
        "trace.uncovered_share": _ratio(wall_s - covered, wall_s),
    }


def row_percentiles_ms(rec: Recorder) -> dict[str, float]:
    """p50/p99 of per-row explainer latency, pooled over every traced pass."""
    out = {}
    for short in ("kernel_shapley", "integrated_gradients"):
        samples = rec.durations_ms(f"explainers.{short}_row")
        p50, p99 = np.percentile(samples, [50, 99]) if samples else (0.0, 0.0)
        out[f"explainers.{short}_row_ms_p50"] = float(p50)
        out[f"explainers.{short}_row_ms_p99"] = float(p99)
    return out
