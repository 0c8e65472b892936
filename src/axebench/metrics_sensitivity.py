"""Perturbation-gap metrics: mean absolute output change when jittering the
most important (PGI) or least important (PGU) features of an explanation.

Perturbed points are fed to the model raw, off-manifold by design — that
exposure is exactly what the detection experiment probes. The perturbation law
is Gaussian with configurable scale; every knob lives in :class:`PerturbConfig`
because the metric's verdicts depend on it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Dataset, Explanation, Predictor, QualityReport,
                   bottom_n_features, check_explanations, row_seed,
                   top_n_features)


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
        return PerturbConfig(n=self.n, num_perturbations=self.num_perturbations,
                             sigma=self.sigma, seed=seed, negate_pgu=self.negate_pgu)


def _perturbed_copies(x: np.ndarray, index_set: list[int], cfg: PerturbConfig) -> np.ndarray:
    """Noise draws depend only on (seed, set size), so identical index sets share draws."""
    rng = np.random.default_rng(cfg.seed)
    draws = rng.normal(0.0, cfg.sigma, (cfg.num_perturbations, len(index_set)))
    points = np.repeat(x[None, :], cfg.num_perturbations, axis=0)
    points[:, index_set] += draws
    return points


def _gap(m: Predictor, x: np.ndarray, index_set: list[int], cfg: PerturbConfig) -> float:
    if not index_set:
        return 0.0
    base = m.predict_proba(x)
    points = _perturbed_copies(x, index_set, cfg)
    return float(np.abs(m.predict_proba_batch(points) - base).mean())


def pgi(m: Predictor, x, e, cfg: PerturbConfig) -> float:
    """Mean |proba change| when perturbing the top-n most important features."""
    x = np.asarray(x, dtype=float)
    return _gap(m, x, sorted(top_n_features(e, cfg.n)), cfg)


def pgu(m: Predictor, x, e, cfg: PerturbConfig) -> float:
    """Mean |proba change| when perturbing the n least important features.

    With negate_pgu the sign is flipped so that higher is better, aligning
    the direction with PGI and other quality scores.
    """
    x = np.asarray(x, dtype=float)
    value = _gap(m, x, sorted(bottom_n_features(e, cfg.n)), cfg)
    return -value if cfg.negate_pgu else value


SENSITIVITY_METRICS = {"pgi": pgi, "pgu": pgu}


def sensitivity_quality_report(metric_name: str, m: Predictor, d: Dataset,
                               explanations: list[Explanation], cfg: PerturbConfig) -> QualityReport:
    """Dataset-level report; per-row seeds are cfg.seed XOR row index.

    The per-row perturbations are generated exactly as the single-point
    functions would, but evaluated through one batched model call.
    """
    check_explanations(d, explanations)
    if metric_name not in SENSITIVITY_METRICS:
        raise ValueError(f"unknown sensitivity metric {metric_name!r}")
    pick = top_n_features if metric_name == "pgi" else bottom_n_features

    blocks = []
    sets = []
    for i, e in enumerate(explanations):
        index_set = sorted(pick(e, cfg.n))
        sets.append(index_set)
        local = cfg.with_seed(row_seed(cfg.seed, i))
        blocks.append(_perturbed_copies(d.features[i], index_set, local)
                      if index_set else d.features[i][None, :])
    base = m.predict_proba_batch(d.features)
    stacked = m.predict_proba_batch(np.vstack(blocks))

    per_point = np.empty(d.nu)
    offset = 0
    for i in range(d.nu):
        count = blocks[i].shape[0]
        if sets[i]:
            per_point[i] = np.abs(stacked[offset:offset + count] - base[i]).mean()
        else:
            per_point[i] = 0.0
        offset += count
    if metric_name == "pgu" and cfg.negate_pgu:
        per_point = -per_point

    tags = {e.explainer_tag for e in explanations}
    return QualityReport.build(
        metric_name=metric_name,
        hyperparams={"n": cfg.n, "num_perturbations": cfg.num_perturbations,
                     "sigma": cfg.sigma, "seed": cfg.seed,
                     "negate_pgu": cfg.negate_pgu},
        per_point_q=per_point,
        dataset_id=d.dataset_id,
        model_descriptor=m.descriptor,
        explainer_tag=tags.pop() if len(tags) == 1 else "mixed")
