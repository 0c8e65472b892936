"""Agreement metrics comparing an explanation against a reference vector:
feature / rank / sign / signed-rank agreement, rank correlation, and pairwise
rank agreement.

All six consume only the rank and sign structure of the two vectors, so they
are invariant to independent positive rescaling of either side. Denominators
are n (not the intersection size).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ExplanationSet, QualityReport, _magnitude_order, importances_of,
                   rank_vector)


@dataclass
class GroundTruthPair:
    """One explanation vector, or a (rows, N) matrix of them, the reference each
    row is judged against, and the top-n cutoff. A matrix scores as a (rows,)
    array, with NaN where a single pair would give None."""

    e: np.ndarray
    e_star: np.ndarray
    n: int

    def __post_init__(self):
        self.e = importances_of(self.e)
        self.e_star = importances_of(self.e_star)
        if (self.e.ndim not in (1, 2) or self.e_star.ndim != 1
                or self.e.shape[-1] != self.e_star.size):
            raise ValueError("length mismatch between explanation and reference")
        if not (np.all(np.isfinite(self.e)) and np.all(np.isfinite(self.e_star))):
            raise ValueError("importances must be finite")
        self.n = int(self.n)
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.n > self.e_star.size:
            raise ValueError("n exceeds feature count")


def _scores(p: GroundTruthPair, q):
    """The (rows,) scores of a matrix pair, or one float (None if NaN) for a vector."""
    if p.e.ndim == 2:
        return q
    return None if np.isnan(q) else float(q)


def _top_mask(imp: np.ndarray, n: int) -> np.ndarray:
    """True on the n largest-|importance| entries along the last axis, ties to the lower index."""
    mask = np.zeros(imp.shape, dtype=bool)
    np.put_along_axis(mask, _magnitude_order(imp, n, largest=True), True, axis=-1)
    return mask


def _top_n_share(p: GroundTruthPair, agree=True) -> float | np.ndarray:
    """Count of features in both top-n sets for which ``agree`` holds, over n; 0 when n = 0."""
    shared = _top_mask(p.e, p.n) & _top_mask(p.e_star, p.n) & agree
    return _scores(p, np.count_nonzero(shared, axis=-1) / max(p.n, 1))


def feature_agreement(p: GroundTruthPair) -> float | np.ndarray:
    """Fraction of the top-n features shared by both sides; 0 when n = 0."""
    return _top_n_share(p)


def rank_agreement(p: GroundTruthPair) -> float | np.ndarray:
    """Fraction of top-n features shared and sitting at the same rank position."""
    return _top_n_share(p, rank_vector(p.e) == rank_vector(p.e_star))


def sign_agreement(p: GroundTruthPair) -> float | np.ndarray:
    """Fraction of top-n features shared with matching importance signs."""
    return _top_n_share(p, np.sign(p.e) == np.sign(p.e_star))


def signed_rank_agreement(p: GroundTruthPair) -> float | np.ndarray:
    """Fraction of top-n features shared with matching rank and matching sign."""
    return _top_n_share(p, (rank_vector(p.e) == rank_vector(p.e_star))
                        & (np.sign(p.e) == np.sign(p.e_star)))


def rank_correlation(p: GroundTruthPair) -> float | None | np.ndarray:
    """Spearman correlation of the fractional rank vectors over all features.

    Undefined (None, or NaN in a matrix result) when either rank vector is constant.
    """
    r_e, r_s = rank_vector(p.e), rank_vector(p.e_star)
    ce = r_e - r_e.mean(axis=-1, keepdims=True)
    cs = r_s - r_s.mean()
    # fractional ranks are half-integers, so these sums are exact in any order
    num = (ce * cs).sum(axis=-1)
    den = np.sqrt((ce * ce).sum(axis=-1) * (cs * cs).sum())
    defined = (np.ptp(r_e, axis=-1) != 0.0) & (np.ptp(r_s) != 0.0)
    return _scores(p, np.divide(num, den, out=np.full(np.shape(num), np.nan), where=defined))


def pairwise_rank_agreement(p: GroundTruthPair) -> float | np.ndarray:
    """Fraction of feature pairs ordered identically by |e| and |e*|.

    A tie counts as agreeing only with a tie.
    """
    n = p.e_star.size
    if n < 2:
        raise ValueError("pairwise rank agreement needs at least two features")
    a, b = np.abs(p.e), np.abs(p.e_star)
    agree = np.zeros(p.e.shape[:-1], dtype=int)
    for i in range(n - 1):  # pairs (i, j > i), one leading feature at a time
        agree += np.count_nonzero(np.sign(a[..., i:i + 1] - a[..., i + 1:])
                                  == np.sign(b[i] - b[i + 1:]), axis=-1)
    return _scores(p, agree / (n * (n - 1) // 2))


REFERENCE_METRICS = {
    "fa": feature_agreement,
    "ra": rank_agreement,
    "sa": sign_agreement,
    "sra": signed_rank_agreement,
    "rc": rank_correlation,
    "pra": pairwise_rank_agreement,
}


def reference_quality_report(metric_name: str, explanations: ExplanationSet,
                             e_star, n: int, dataset_id: str = "dataset",
                             model_descriptor: str = "model") -> QualityReport:
    """Score every explanation against one shared reference vector.

    Rank-correlation rows with the undefined marker become NaN per-point
    entries; the aggregate averages the defined rows only.
    """
    if metric_name not in REFERENCE_METRICS:
        raise ValueError(f"unknown reference metric {metric_name!r}")
    pair = GroundTruthPair(e=explanations.importances, e_star=e_star, n=n)
    per_point = REFERENCE_METRICS[metric_name](pair)
    return QualityReport(
        metric_name=metric_name,
        hyperparams={"n": n},
        per_point_q=per_point,
        dataset_id=dataset_id,
        model_descriptor=model_descriptor,
        explainer_tag=explanations.explainer_tag)
