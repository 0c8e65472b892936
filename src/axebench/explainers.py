"""Feature-importance explainers: gradients, integrated gradients, a sampled local
surrogate, kernel-weighted Shapley values, and manual one-hot constructions.

All sampled explainers draw from ``numpy.random.default_rng`` seeded through the
config, so a fixed seed fully determines the output. Explanations target
``predict_proba`` (the smooth surface), not the binarized label.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb, isfinite

import numpy as np

from .core import (Dataset, Explanation, ExplanationSet, Predictor, _coalition_sizes,
                   check_fields, check_type, distinct_rows, one_row, row_seed, write_csv,
                   write_json)

_LOADED_TAG = "loaded"  # the explainer_tag of every CSV row, and of a JSON row naming none
_SURROGATE_RIDGE = 1.0  # the local surrogate's first ridge penalty; raised tenfold until stable


@dataclass
class ExplainerConfig:
    """Hyperparameters shared by the explainer family; seed fixes all randomness."""

    kind: str = "gradient"
    samples: int = 1000
    sigma_perturb: float = 0.5
    baseline: np.ndarray | None = None
    ig_steps: int = 64
    seed: int = 0
    background_size: int = 100

    KINDS = ("gradient", "integrated-gradients", "local-surrogate", "kernel-shapley")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown explainer kind {self.kind!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.ig_steps < 1:
            raise ValueError("ig_steps must be >= 1")
        if self.background_size < 1:
            raise ValueError("background_size must be >= 1")
        if not (isfinite(self.sigma_perturb) and self.sigma_perturb >= 0):  # 0 is degenerate
            raise ValueError(f"sigma_perturb must be finite and >= 0, not {self.sigma_perturb!r}")

    def with_seed(self, seed: int) -> "ExplainerConfig":
        return replace(self, seed=seed)


def explain_gradient(m: Predictor, x) -> Explanation:
    """e = gradient of predict_proba at x."""
    g = m.gradient_batch(one_row(x))
    if g is None:
        raise ValueError("gradient not supported")
    return Explanation(importances=g[0], explainer_tag="gradient")


def explain_integrated_gradients(m: Predictor, x, cfg: ExplainerConfig) -> Explanation:
    """Midpoint-rule path integral of the gradient from a baseline to x, in one call."""
    x = np.asarray(x, dtype=float)
    baseline = np.zeros_like(x) if cfg.baseline is None else np.asarray(cfg.baseline, dtype=float)
    if baseline.shape != x.shape:
        raise ValueError("baseline length must match the datapoint")
    ts = (np.arange(cfg.ig_steps) + 0.5) / cfg.ig_steps
    grads = m.gradient_batch(baseline + ts[:, None] * (x - baseline))
    if grads is None:
        raise ValueError("gradient not supported")
    e = (x - baseline) * grads.sum(axis=0) / cfg.ig_steps  # adds the steps in path order
    return Explanation(importances=e, explainer_tag="integrated-gradients")


def _weighted_ridge(Z, y, w, alpha):
    """Weighted least squares with an intercept; the ridge penalty spares the intercept."""
    A = np.column_stack([np.ones(Z.shape[0]), Z])
    WA = A * w[:, None]
    reg = np.eye(A.shape[1]) * alpha
    reg[0, 0] = 0.0
    theta = np.linalg.solve(A.T @ WA + reg, WA.T @ y)
    return theta[1:]


def explain_local_surrogate(m: Predictor, x, d: Dataset, cfg: ExplainerConfig) -> Explanation:
    """Slopes of a kernel-weighted ridge fit over Gaussian perturbations around x."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if cfg.samples < n + 2:
        raise ValueError("samples must be at least n_features + 2")
    rng = np.random.default_rng(cfg.seed)
    Z = x + rng.normal(0.0, cfg.sigma_perturb, (cfg.samples, n))
    y = m.predict_proba_batch(Z)
    width = 0.75 * np.sqrt(n)
    w = np.exp(-np.sum((Z - x) ** 2, axis=1) / width**2)

    alpha = _SURROGATE_RIDGE
    tag = "local-surrogate"
    for _ in range(8):
        try:
            slopes = _weighted_ridge(Z, y, w, alpha)
        except np.linalg.LinAlgError:
            slopes = None
        if slopes is not None and np.all(np.isfinite(slopes)):
            break
        alpha *= 10.0  # ridge floor escalation instead of failing
    else:
        raise RuntimeError("surrogate regression did not stabilize")
    if alpha != _SURROGATE_RIDGE:
        tag = "local-surrogate[ridge-floor]"
    if np.max(np.abs(Z - x)) < 1e-8:
        tag = "local-surrogate[degenerate-sampling]"  # no local variation to fit
    return Explanation(importances=slopes, explainer_tag=tag)


def _kernel_weight(n: int, s: int) -> float:
    return (n - 1) / (comb(n, s) * s * (n - s))


@lru_cache(maxsize=None)
def _all_coalitions(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every non-trivial coalition of n features as 0/1 mask rows in binary
    order, with the weighted design and the root kernel weights of the least
    squares; read-only, built once per n and shared by every row."""
    masks = ((np.arange(1, 2**n - 1)[:, None] >> np.arange(n)) & 1).astype(float)
    sw = np.sqrt([_kernel_weight(n, int(s)) for s in masks.sum(axis=1)])
    design = (masks[:, :-1] - masks[:, -1:]) * sw[:, None]
    for a in (masks, design, sw):
        a.flags.writeable = False
    return masks, design, sw


def _coalition_masks(n: int, budget: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks (rows of 0/1), their weighted design and root regression weights.

    Enumerates every non-trivial coalition when the budget allows; otherwise
    samples coalition sizes proportionally to the Shapley kernel (which makes
    the subsequent least squares unweighted).
    """
    if 2**n - 2 <= budget:
        return _all_coalitions(n)
    sizes, p = _coalition_sizes(n)
    masks = np.zeros((budget, n))
    drawn = rng.choice(sizes, size=budget, p=p)
    for i, s in enumerate(drawn):
        masks[i, rng.permutation(n)[:s]] = 1.0
    return masks, masks[:, :-1] - masks[:, -1:], np.ones(budget)


def _fill_enumerated(composite: np.ndarray, background: np.ndarray, x: np.ndarray) -> None:
    """composite[r] = the background with x_j in every column j of bit j of
    mask r, by doubling: row 0 is the background (the empty coalition), and
    rows 2**j .. 2**(j+1) - 1 copy rows 0 .. 2**j - 1, with x_j down column j."""
    composite[0] = background
    for j in range(x.size):
        first = 2**j
        end = min(2 * first, composite.shape[0])  # the full mask is not a coalition
        composite[first:end] = composite[:end - first]
        composite[first:end, :, j] = x[j]


def _buffer(workspace: dict, shape: tuple[int, ...]) -> np.ndarray:
    """The workspace's float array of this shape, made on first use; contents are stale."""
    if shape not in workspace:
        workspace[shape] = np.empty(shape)
    return workspace[shape]


def explain_kernel_shapley(m: Predictor, x, d: Dataset, cfg: ExplainerConfig,
                           workspace: dict | None = None) -> Explanation:
    """Shapley values via the kernel-weighted least squares with the efficiency constraint.

    Masked features are replaced by values from seeded background rows of the
    dataset; coalition values average over that background.

    The model scores each distinct coalition's (background, N) composite once.
    An enumeration is filled by doubling in its binary order
    (``_fill_enumerated``); every row is a copy of a background row or of an
    earlier row with x copied over some columns, so it holds the bits a fill
    column by column writes. Sampled masks repeat, so only the distinct ones
    are scored, and each mask takes its distinct mask's value through the
    inverse index. That changes the batch's height and nothing else: rules,
    trees and the MLP the command line trains score a row to the same bits at
    any height (``models.py`` names the loaded MLP shapes whose last bit can
    move), so the values, and the least squares over every mask, keep theirs.

    The composite is written into an array held by ``workspace``: the caller
    owns that dict and may pass the same one to every row it explains, one
    thread at a time. Its row 0 holds the empty coalition, where the doubling
    starts, and is not scored: ``v_empty`` stays its own call (README "Explain
    cost"). Sampled masks fill the rows after it, a prefix of the array sized
    for every mask, so one array serves every row. Without one, the call makes
    its own array. The output does not depend on which it is. Sharing pays from
    N = 42 at the default settings: the composite then exceeds glibc's 32 MiB
    ceiling on its mmap threshold, so a fresh one per row faults its pages in
    anew (README "Explain cost").
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if cfg.samples < 2 * n:
        raise ValueError("samples must be at least 2 * n_features")
    rng = np.random.default_rng(cfg.seed)
    bg_count = min(cfg.background_size, d.nu)
    background = d.features[rng.choice(d.nu, size=bg_count, replace=False)]

    v_empty = float(m.predict_proba_batch(background).mean())
    v_full = float(m.predict_proba_batch(one_row(x))[0])
    delta = v_full - v_empty

    masks, design, sw = _coalition_masks(n, cfg.samples, rng)
    buffer = _buffer({} if workspace is None else workspace, (masks.shape[0] + 1, bg_count, n))
    # buffer[1 + c, b, j] = x_j when feature j is in coalition c, else background row b
    if 2**n - 2 <= cfg.samples:
        _fill_enumerated(buffer, background, x)
        composite, inverse = buffer[1:], slice(None)  # every coalition is distinct
    else:
        distinct, inverse = distinct_rows(masks)
        composite = buffer[1:len(distinct) + 1]
        composite[...] = background
        keep = distinct.astype(bool)
        for j in range(n):
            composite[keep[:, j], :, j] = x[j]
    values = m.predict_proba_batch(composite.reshape(-1, n)).reshape(-1, bg_count).mean(axis=1)

    # substitute the efficiency constraint: phi_n = delta - sum(phi_1..phi_{n-1})
    target = values[inverse] - v_empty - masks[:, -1] * delta
    phi_head, *_ = np.linalg.lstsq(design, target * sw, rcond=None)
    phi = np.append(phi_head, delta - phi_head.sum())
    return Explanation(importances=phi, explainer_tag="kernel-shapley")


def make_manual_explanations(d: Dataset, important_index: int) -> ExplanationSet:
    """One explanation per row marking a single feature as solely important."""
    if not 0 <= important_index < d.n_features:
        raise ValueError("important_index out of range")
    importances = np.zeros((d.nu, d.n_features))
    importances[:, important_index] = 1.0
    return ExplanationSet(importances=importances,
                          explainer_tag=f"manual[{d.feature_names[important_index]}]")


def explain_dataset(m: Predictor, d: Dataset, cfg: ExplainerConfig) -> ExplanationSet:
    """Explain every row with one call of the row explainer; per-row seeds
    derive from cfg.seed, so row i is exactly that call's output. Kernel-Shapley
    rows share one composite array, which lives as long as this call."""
    workspace: dict = {}

    def one(i: int) -> Explanation:
        x = d.features[i]
        if cfg.kind == "gradient":
            return explain_gradient(m, x)
        local = cfg.with_seed(row_seed(cfg.seed, i))
        if cfg.kind == "integrated-gradients":
            return explain_integrated_gradients(m, x, local)
        if cfg.kind == "local-surrogate":
            return explain_local_surrogate(m, x, d, local)
        return explain_kernel_shapley(m, x, d, local, workspace)

    rows = [one(i) for i in range(d.nu)]
    return _stack(range(d.nu), [r.importances for r in rows], [r.explainer_tag for r in rows])


def _stack(indices, rows, tags) -> ExplanationSet:
    """Per-row vectors in datapoint_index order, which must list every row
    0..rows-1 exactly once; the tag is the rows' common tag, or "mixed"."""
    if sorted(indices) != list(range(len(indices))):  # in Python: no int64 overflow
        raise ValueError(f"datapoint_index must list every row 0..{len(indices) - 1} "
                         "exactly once")
    order = np.argsort(indices)
    widths = sorted({len(r) for r in rows})
    if len(widths) > 1:
        raise ValueError(f"length mismatch: explanation widths {widths} differ")
    distinct = set(tags)
    return ExplanationSet(importances=[rows[i] for i in order],
                          explainer_tag=distinct.pop() if len(distinct) == 1 else "mixed")


def save_explanations_csv(explanations: ExplanationSet, path, feature_names=None) -> None:
    """Row index plus one importance column per feature."""
    n = explanations.importances.shape[1]
    names = list(feature_names) if feature_names is not None else [f"f{i}" for i in range(n)]
    rows = explanations.importances.tolist()
    write_csv(path, ["datapoint_index"] + names,
              ([i] + [repr(v) for v in row] for i, row in enumerate(rows)))


def load_explanations_csv(path, feature_names) -> ExplanationSet:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh)) or [[]]
    try:
        indices = [int(row[0]) for row in body]
    except IndexError:  # only a blank line has no first cell
        blank = next(i for i, row in enumerate(body) if not row)
        raise ValueError(f"explanations CSV line {blank + 2} is blank") from None
    if header != ["datapoint_index", *feature_names]:  # the columns are read by position
        raise ValueError(f"explanations CSV header {header} must be "
                         f"{['datapoint_index', *feature_names]}, the features in order")
    return _stack(indices, [[float(v) for v in row[1:]] for row in body], [_LOADED_TAG])


def save_explanations_json(explanations: ExplanationSet, path) -> None:
    write_json(path, [{"datapoint_index": i, "explainer_tag": explanations.explainer_tag,
                       "importances": row}
                      for i, row in enumerate(explanations.importances.tolist())])


def load_explanations_json(path) -> ExplanationSet:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    check_type("explanations JSON", payload, list)
    for pos, item in enumerate(payload):
        check_fields(f"explanations JSON row {pos}", item,
                     {"datapoint_index": int, "importances": list[float], "explainer_tag": str},
                     optional=("explainer_tag",))
    return _stack([item["datapoint_index"] for item in payload],
                  [item["importances"] for item in payload],
                  [item.get("explainer_tag", _LOADED_TAG) for item in payload])
