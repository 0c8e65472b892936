"""Perturbation-gap metrics: mean absolute output change when jittering the
most important (PGI) or least important (PGU) features of an explanation.

Perturbed points are fed to the model raw, off-manifold by design — that
exposure is exactly what the detection experiment probes. The perturbation law
is Gaussian with configurable scale; every knob lives in :class:`PerturbConfig`
because the metric's verdicts depend on it.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np

from .core import (Dataset, ExplanationSet, Predictor, QualityReport, _magnitude_order,
                   check_explanations, importances_of, one_row, row_seed)


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
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, not {self.sigma!r}")
        if self.n < 0:
            raise ValueError("n must be non-negative")

    def with_seed(self, seed: int) -> "PerturbConfig":
        return replace(self, seed=seed)


@lru_cache(maxsize=4)
def _row_draws(seed: int, rows: int, num_perturbations: int, sigma: float,
               size: int) -> np.ndarray:
    """The one noise source: read-only (rows, num_perturbations, size) Gaussian draws,
    row i from seed ``row_seed(seed, i)``. Reports on one dataset under one config share
    them, whatever their index sets. An infinite draw is refused: a model that only
    compares would score an infinite feature as if it were finite."""
    draws = np.stack([np.random.default_rng(row_seed(seed, i)).normal(
        0.0, sigma, (num_perturbations, size)) for i in range(rows)])
    if not np.isfinite(draws).all():
        raise ValueError(f"sigma is too large: {sigma!r} draws infinite perturbations")
    draws.flags.writeable = False
    return draws


def _gaps(m: Predictor, X: np.ndarray, sets: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Per-row mean |proba change| when each draw of draws[i] is added to features sets[i]."""
    base = m.predict_proba_batch(X)
    try:  # finite copies that overflow the model give noise, not its sensitivity
        with np.errstate(over="raise", invalid="raise"):
            copies = m.predict_proba_copies(X, sets, draws)
    except FloatingPointError as exc:
        raise ValueError("sigma is too large: the model overflows on the perturbed "
                         f"copies ({exc})") from exc
    return np.abs(copies - base[:, None]).mean(axis=1)


def _point_score(metric_name: str, m: Predictor, x, e, cfg: PerturbConfig) -> float:
    """Row 0 of the one-row report on x: its seed is ``row_seed(cfg.seed, 0) == cfg.seed``."""
    x = one_row(x)
    d = Dataset(features=x, feature_names=[str(j) for j in range(x.shape[1])])
    explanations = ExplanationSet(importances_of(e)[None])
    return float(sensitivity_quality_report(metric_name, m, d, explanations, cfg).per_point_q[0])


def pgi(m: Predictor, x, e, cfg: PerturbConfig) -> float:
    """Mean |proba change| when perturbing the top-n most important features."""
    return _point_score("pgi", m, x, e, cfg)


def pgu(m: Predictor, x, e, cfg: PerturbConfig) -> float:
    """Mean |proba change| when perturbing the n least important features,
    signed by :func:`signed_gap`."""
    return _point_score("pgu", m, x, e, cfg)


def signed_gap(metric_name: str, cfg: PerturbConfig, gap):
    """A metric's score from its gap, a float or an array. Under negate_pgu, PGU's sign is
    flipped so that higher is better, as for PGI; ``0.0 - gap`` keeps a zero gap +0.0."""
    return 0.0 - gap if metric_name == "pgu" and cfg.negate_pgu else gap


def perturbed_index_sets(metric_name: str, explanations: ExplanationSet, n: int) -> np.ndarray:
    """(rows, n) ascending feature indices each row's explanation perturbs under the metric."""
    if metric_name not in ("pgi", "pgu"):
        raise ValueError(f"unknown sensitivity metric {metric_name!r}")
    return np.sort(_magnitude_order(explanations.importances, n, largest=metric_name == "pgi"),
                   axis=1)


def sensitivity_quality_report(metric_name: str, m: Predictor, d: Dataset,
                               explanations: ExplanationSet, cfg: PerturbConfig) -> QualityReport:
    """Dataset-level report; per-row seeds are cfg.seed XOR row index.

    All rows' perturbed copies go through one batched model call. The
    single-point :func:`pgi` and :func:`pgu` are one-row reports.
    """
    check_explanations(d, explanations)
    sets = perturbed_index_sets(metric_name, explanations, cfg.n)
    per_point = np.zeros(d.nu)
    if cfg.n:
        draws = _row_draws(cfg.seed, d.nu, cfg.num_perturbations, cfg.sigma, cfg.n)
        per_point = _gaps(m, d.features, sets, draws)

    return QualityReport(
        metric_name=metric_name,
        hyperparams=asdict(cfg),
        per_point_q=signed_gap(metric_name, cfg, per_point),
        dataset_id=d.dataset_id,
        model_descriptor=m.descriptor,
        explainer_tag=explanations.explainer_tag)
