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
from math import comb
from pathlib import Path

import numpy as np

from .core import Dataset, Explanation, ExplanationSet, Predictor, one_row, row_seed, write_json


@dataclass
class ExplainerConfig:
    """Hyperparameters shared by the explainer family; seed fixes all randomness."""

    kind: str = "gradient"
    samples: int = 1000
    sigma_perturb: float = 0.5
    kernel_width: float | None = None  # default 0.75 * sqrt(N), resolved per call
    baseline: np.ndarray | None = None
    ig_steps: int = 64
    seed: int = 0
    background_size: int = 100
    ridge: float = 1.0

    KINDS = ("gradient", "integrated-gradients", "local-surrogate", "kernel-shapley")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown explainer kind {self.kind!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.ig_steps < 1:
            raise ValueError("ig_steps must be >= 1")

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
    width = cfg.kernel_width if cfg.kernel_width is not None else 0.75 * np.sqrt(n)
    w = np.exp(-np.sum((Z - x) ** 2, axis=1) / width**2)

    alpha = cfg.ridge
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
    if alpha != cfg.ridge:
        tag = "local-surrogate[ridge-floor]"
    if np.max(np.abs(Z - x)) < 1e-8:
        tag = "local-surrogate[degenerate-sampling]"  # no local variation to fit
    return Explanation(importances=slopes, explainer_tag=tag)


def _kernel_weight(n: int, s: int) -> float:
    return (n - 1) / (comb(n, s) * s * (n - s))


@lru_cache(maxsize=None)
def _all_coalitions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every non-trivial coalition of n features as read-only 0/1 mask rows,
    with their kernel weights; built once per n and shared by every row."""
    masks = ((np.arange(1, 2**n - 1)[:, None] >> np.arange(n)) & 1).astype(float)
    weights = np.array([_kernel_weight(n, int(s)) for s in masks.sum(axis=1)])
    masks.flags.writeable = False
    weights.flags.writeable = False
    return masks, weights


def _coalition_masks(n: int, budget: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Masks (rows of 0/1) and their regression weights.

    Enumerates every non-trivial coalition when the budget allows; otherwise
    samples coalition sizes proportionally to the Shapley kernel (which makes
    the subsequent least squares unweighted).
    """
    if 2**n - 2 <= budget:
        return _all_coalitions(n)
    sizes = np.arange(1, n)
    p = (n - 1) / (sizes * (n - sizes))  # kernel weight summed over coalitions of each size
    p = p / p.sum()
    masks = np.zeros((budget, n))
    drawn = rng.choice(sizes, size=budget, p=p)
    for i, s in enumerate(drawn):
        masks[i, rng.permutation(n)[:s]] = 1.0
    return masks, np.ones(budget)


def explain_kernel_shapley(m: Predictor, x, d: Dataset, cfg: ExplainerConfig) -> Explanation:
    """Shapley values via the kernel-weighted least squares with the efficiency constraint.

    Masked features are replaced by values from seeded background rows of the
    dataset; coalition values average over that background.
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

    masks, weights = _coalition_masks(n, cfg.samples, rng)
    n_masks = masks.shape[0]
    # composite[c, b, j] = x_j when feature j is in coalition c, else background row b
    composite = np.repeat(background[None, :, :], n_masks, axis=0)
    keep = masks.astype(bool)
    for j in range(n):
        composite[keep[:, j], :, j] = x[j]
    values = m.predict_proba_batch(composite.reshape(-1, n)).reshape(n_masks, bg_count).mean(axis=1)

    # substitute the efficiency constraint: phi_n = delta - sum(phi_1..phi_{n-1})
    z_last = masks[:, -1]
    design = masks[:, :-1] - z_last[:, None]
    target = values - v_empty - z_last * delta
    sw = np.sqrt(weights)
    phi_head, *_ = np.linalg.lstsq(design * sw[:, None], target * sw, rcond=None)
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
    derive from cfg.seed, so row i is exactly that call's output."""
    def one(i: int) -> Explanation:
        x = d.features[i]
        if cfg.kind == "gradient":
            return explain_gradient(m, x)
        local = cfg.with_seed(row_seed(cfg.seed, i))
        if cfg.kind == "integrated-gradients":
            return explain_integrated_gradients(m, x, local)
        if cfg.kind == "local-surrogate":
            return explain_local_surrogate(m, x, d, local)
        return explain_kernel_shapley(m, x, d, local)

    rows = [one(i) for i in range(d.nu)]
    return _stack(range(d.nu), [r.importances for r in rows], [r.explainer_tag for r in rows])


def _stack(indices, rows, tags) -> ExplanationSet:
    """Per-row vectors in datapoint_index order, which must list every row
    0..rows-1 exactly once; the tag is the rows' common tag, or "mixed"."""
    indices = np.asarray(indices, dtype=int)
    order = np.argsort(indices, kind="stable")
    if not np.array_equal(indices[order], np.arange(indices.size)):
        raise ValueError(f"datapoint_index must list every row 0..{indices.size - 1} "
                         "exactly once")
    try:
        widths = sorted({len(r) for r in rows})
    except TypeError:
        raise ValueError("importances must be a list of numbers on every row") from None
    if len(widths) > 1:
        raise ValueError(f"length mismatch: explanation widths {widths} differ")
    distinct = set(tags)
    return ExplanationSet(importances=[rows[i] for i in order],
                          explainer_tag=distinct.pop() if len(distinct) == 1 else "mixed")


def save_explanations_csv(explanations: ExplanationSet, path, feature_names=None) -> None:
    """Row index plus one importance column per feature."""
    n = explanations.importances.shape[1]
    names = list(feature_names) if feature_names is not None else [f"f{i}" for i in range(n)]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["datapoint_index"] + names)
        for i, row in enumerate(explanations.importances.tolist()):
            writer.writerow([i] + [repr(v) for v in row])


def load_explanations_csv(path, explainer_tag: str = "loaded") -> ExplanationSet:
    with open(path, newline="", encoding="utf-8") as fh:
        body = list(csv.reader(fh))[1:]
    return _stack([int(row[0]) for row in body], [[float(v) for v in row[1:]] for row in body],
                  [explainer_tag])


def save_explanations_json(explanations: ExplanationSet, path) -> None:
    write_json(path, [{"datapoint_index": i, "explainer_tag": explanations.explainer_tag,
                       "importances": row}
                      for i, row in enumerate(explanations.importances.tolist())])


def load_explanations_json(path) -> ExplanationSet:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list):
        raise ValueError("explanations JSON must be a list of row objects")
    for pos, item in enumerate(payload):
        if not isinstance(item, dict):
            raise ValueError(f"explanations JSON row {pos} is not an object")
        for key in ("datapoint_index", "importances"):
            if key not in item:
                raise ValueError(f"explanations JSON row {pos} lacks {key!r}")
        index = item["datapoint_index"]
        if not isinstance(index, int) or isinstance(index, bool):
            raise ValueError(f"explanations JSON row {pos}: datapoint_index {index!r} "
                             "is not an integer")
    return _stack([item["datapoint_index"] for item in payload],
                  [item["importances"] for item in payload],
                  [item.get("explainer_tag", "loaded") for item in payload])
