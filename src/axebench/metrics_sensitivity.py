"""Perturbation-gap metrics: mean absolute output change when jittering the
most important (PGI) or least important (PGU) features of an explanation.

Perturbed points are fed to the model raw, off-manifold by design — that
exposure is exactly what the detection experiment probes. The perturbation law
is Gaussian with configurable scale; every knob lives in :class:`PerturbConfig`
because the metric's verdicts depend on it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import (Dataset, ExplanationSet, Predictor, QualityReport, _magnitude_order,
                   bottom_n_features, check_explanations, one_row, row_seed, top_n_features)


@dataclass
class PerturbConfig:
    n: int = 1
    num_perturbations: int = 100
    sigma: float = 0.5
    seed: int = 0
    negate_pgu: bool = True

    def __post_init__(self):
        if self.num_perturbations < 1:
            raise ValueError("num_perturbations must be >= 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.n < 0:
            raise ValueError("n must be non-negative")

    def with_seed(self, seed: int) -> "PerturbConfig":
        return replace(self, seed=seed)


def _draws(seed: int, num_perturbations: int, sigma: float, size: int) -> np.ndarray:
    """The one noise source: (num_perturbations, size) Gaussian draws of one seed."""
    return np.random.default_rng(seed).normal(0.0, sigma, (num_perturbations, size))


@lru_cache(maxsize=4)
def _row_draws(seed: int, rows: int, num_perturbations: int, sigma: float,
               size: int) -> np.ndarray:
    """Read-only (rows, num_perturbations, size) draws of row seeds 0..rows-1 of ``seed``.

    Reports on one dataset under one config share them, whatever their index sets.
    """
    draws = np.stack([_draws(row_seed(seed, i), num_perturbations, sigma, size)
                      for i in range(rows)])
    draws.flags.writeable = False
    return draws


def _gaps(m: Predictor, X: np.ndarray, sets: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Per-row mean |proba change| when each draw of draws[i] is added to features sets[i]."""
    rows, count, _ = draws.shape
    points = np.repeat(X[:, None, :], count, axis=1)
    points[np.arange(rows)[:, None, None], np.arange(count)[None, :, None],
           sets[:, None, :]] += draws
    base = m.predict_proba_batch(X)
    stacked = m.predict_proba_batch(points.reshape(-1, X.shape[1]))
    return np.abs(stacked.reshape(rows, count) - base[:, None]).mean(axis=1)


def _point_gap(m: Predictor, x, index_set: list[int], cfg: PerturbConfig) -> float:
    """The gap of one datapoint under the draws of cfg.seed itself."""
    if not index_set:
        return 0.0
    draws = _draws(cfg.seed, cfg.num_perturbations, cfg.sigma, len(index_set))
    return float(_gaps(m, one_row(x), np.sort(index_set)[None], draws[None])[0])


def pgi(m: Predictor, x, e, cfg: PerturbConfig) -> float:
    """Mean |proba change| when perturbing the top-n most important features."""
    return _point_gap(m, x, top_n_features(e, cfg.n), cfg)


def pgu(m: Predictor, x, e, cfg: PerturbConfig) -> float:
    """Mean |proba change| when perturbing the n least important features.

    With negate_pgu the sign is flipped so that higher is better, aligning
    the direction with PGI and other quality scores; a zero gap stays +0.0.
    """
    value = _point_gap(m, x, bottom_n_features(e, cfg.n), cfg)
    return 0.0 - value if cfg.negate_pgu else value


SENSITIVITY_METRICS = {"pgi": pgi, "pgu": pgu}


def perturbed_index_sets(metric_name: str, explanations: ExplanationSet, n: int) -> np.ndarray:
    """(rows, n) ascending feature indices each row's explanation perturbs under the metric."""
    if metric_name not in SENSITIVITY_METRICS:
        raise ValueError(f"unknown sensitivity metric {metric_name!r}")
    return np.sort(_magnitude_order(explanations.importances, n, largest=metric_name == "pgi"),
                   axis=1)


def sensitivity_quality_report(metric_name: str, m: Predictor, d: Dataset,
                               explanations: ExplanationSet, cfg: PerturbConfig) -> QualityReport:
    """Dataset-level report; per-row seeds are cfg.seed XOR row index.

    Every row is perturbed exactly as the single-point functions would do it,
    and all rows' perturbed copies go through one batched model call.
    """
    check_explanations(d, explanations)
    sets = perturbed_index_sets(metric_name, explanations, cfg.n)
    per_point = np.zeros(d.nu)
    if cfg.n:
        draws = _row_draws(cfg.seed, d.nu, cfg.num_perturbations, cfg.sigma, cfg.n)
        per_point = _gaps(m, d.features, sets, draws)
    if metric_name == "pgu" and cfg.negate_pgu:
        per_point = 0.0 - per_point  # not -per_point: a zero gap stays +0.0

    return QualityReport.build(
        metric_name=metric_name,
        hyperparams={"n": cfg.n, "num_perturbations": cfg.num_perturbations,
                     "sigma": cfg.sigma, "seed": cfg.seed,
                     "negate_pgu": cfg.negate_pgu},
        per_point_q=per_point,
        dataset_id=d.dataset_id,
        model_descriptor=m.descriptor,
        explainer_tag=explanations.explainer_tag)
