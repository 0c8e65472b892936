"""Ground-truth-agnostic explanation quality: per-datapoint k-NN recovery of
model predictions from the explanation's top-n features.

Each datapoint is scored by a k-NN restricted to the feature subset its own
explanation marks as most important; a shared global surrogate would defeat
the purpose. Neighbor targets are the model's predictions on the dataset, not
the data labels, and evaluation never leaves the dataset rows.

Rows whose explanations pick the same subset share one neighbor search: the
rows are grouped by their top-n subset in rank order (not as a sorted set,
because column order changes the float sum of squared differences once n >= 3
and would move ties). One kernel, :func:`_nearest_rows`, serves every search.
It takes the query rows in blocks of a fixed element budget and computes each
block's squared Euclidean distances to all rows. Per query row it then keeps
only the rows it needs: a partition finds the distance at the last kept
place, every row strictly closer is kept, and the slots left over go to the
lowest-index rows tied at that distance. Only those kept rows are
stable-sorted, so the table is in (distance, row index) order, exactly as a
full stable sort would give, at O(nu) selection cost per row. In
leave-one-out mode the query row itself is then dropped. The k nearest rows
vote; an even split votes 0.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, ExplanationSet, QualityReport, _magnitude_order, check_explanations

# Query rows per block are sized so one block's (rows, nu, |subset|) difference
# tensor holds about this many floats.
_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class AxeConfig:
    """Hyperparameters: top-n cutoff, neighbor count, and self-inclusion mode.

    include_self=False (leave-one-out) is the default: with the query row in
    its own candidate pool, k=1 is degenerately perfect for any explanation.
    The literal mode remains available and is stamped into every report.
    """

    n: int = 1
    k: int = 5
    include_self: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n out of range: need n >= 1")
        if self.k < 1:
            raise ValueError("k out of range: need k >= 1")


def _nearest_rows(d: Dataset, subset, rows: np.ndarray, max_k: int,
                  include_self: bool) -> np.ndarray:
    """(len(rows), max_k) indices of each query row's nearest dataset rows on
    ``subset``, in stable (distance, row index) order.

    Per row, the ``width`` nearest (max_k, plus one for the query row in
    leave-one-out mode) are selected without sorting all nu distances:
    ``np.partition`` gives the cut-off distance, rows below it are kept, the
    lowest-index rows tied at it fill the remaining slots, and only the kept
    rows are stable-sorted by distance."""
    cand = d.features[:, list(subset)]
    width = max_k if include_self else max_k + 1
    out = np.empty((rows.size, max_k), dtype=int)
    step = max(1, _BLOCK_ELEMENTS // cand.size)
    for start in range(0, rows.size, step):
        block = rows[start:start + step]
        d2 = ((cand[None] - cand[block][:, None]) ** 2).sum(axis=2)
        cut = np.partition(d2, width - 1, axis=1)[:, width - 1:width]
        below = d2 < cut
        tied = d2 == cut
        fill = width - below.sum(axis=1, keepdims=True)
        take = below | (tied & (np.cumsum(tied, axis=1) <= fill))
        kept = np.nonzero(take)[1].reshape(block.size, width)
        order = np.argsort(np.take_along_axis(d2, kept, axis=1), axis=1, kind="stable")
        head = np.take_along_axis(kept, order, axis=1)
        if not include_self:
            keep = head != block[:, None]
            keep[keep.all(axis=1), -1] = False
            head = head[keep].reshape(block.size, max_k)
        out[start:start + block.size] = head
    return out


def _recovered(y: np.ndarray, table: np.ndarray, k: int) -> np.ndarray:
    """Majority vote of the first k neighbors per row; an even split votes 0."""
    return (y[table[:, :k]].sum(axis=1) * 2 > k).astype(int)


def _check_candidates(nu: int, k: int, include_self: bool) -> None:
    if k > (nu if include_self else nu - 1):
        raise ValueError("k out of range: exceeds candidate count")


def _validate_inputs(d: Dataset, y_preds, cfg: AxeConfig) -> np.ndarray:
    y = np.asarray(y_preds, dtype=int)
    if y.shape != (d.nu,):
        raise ValueError("length mismatch: predictions must cover every dataset row")
    if y.size and not np.isin(y, (0, 1)).all():
        raise ValueError("predictions must be 0/1")
    if cfg.n > d.n_features:
        raise ValueError("n out of range: exceeds feature count")
    _check_candidates(d.nu, cfg.k, cfg.include_self)
    return y


def axe_quality(d: Dataset, y_preds, explanations: ExplanationSet, cfg: AxeConfig,
                model_descriptor: str = "model", trace_path=None) -> QualityReport:
    """Score one explanation set: accuracy of per-row top-n k-NN prediction recovery."""
    y = _validate_inputs(d, y_preds, cfg)
    check_explanations(d, explanations)
    subsets = _magnitude_order(explanations.importances, cfg.n, largest=True)
    distinct, group = np.unique(subsets, axis=0, return_inverse=True)
    recovered = np.empty(d.nu, dtype=int)
    for g, subset in enumerate(distinct):
        rows = np.flatnonzero(group.ravel() == g)
        table = _nearest_rows(d, subset, rows, cfg.k, cfg.include_self)
        recovered[rows] = _recovered(y, table, cfg.k)
    per_point = (recovered == y).astype(float)

    if trace_path is not None:
        _write_trace(trace_path, subsets, recovered, y, per_point)

    return QualityReport.build(
        metric_name="axe",
        hyperparams={"n": cfg.n, "k": cfg.k, "include_self": cfg.include_self},
        per_point_q=per_point,
        dataset_id=d.dataset_id,
        model_descriptor=model_descriptor,
        explainer_tag=explanations.explainer_tag)


def one_hot_axe_aggregates(d: Dataset, feature: int, y_preds, ks, include_self: bool = False,
                           _table_cache: dict | None = None) -> dict[int, float]:
    """Aggregates for a one-hot explanation set over several k values at once.

    Semantically identical to running :func:`axe_quality` with the one-hot set
    per k; the neighbor order for a single-feature subset does not depend on k
    or on the targets, so it is computed once (and optionally cached across
    models scoring the same dataset).
    """
    y = np.asarray(y_preds, dtype=int)
    ks = sorted(set(int(k) for k in ks))
    max_k = ks[-1]
    if min(ks) < 1:
        raise ValueError("k out of range: need k >= 1")
    _check_candidates(d.nu, max_k, include_self)

    key = (feature, include_self, max_k)
    table = _table_cache.get(key) if _table_cache is not None else None
    if table is None:
        table = _nearest_rows(d, (feature,), np.arange(d.nu), max_k, include_self)
        if _table_cache is not None:
            _table_cache[key] = table
    return {k: float((_recovered(y, table, k) == y).mean()) for k in ks}


def _write_trace(path, subsets, recovered, y, per_point) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "chosen_features", "recovered", "target", "q"])
        for i in range(len(per_point)):
            writer.writerow([i, " ".join(map(str, subsets[i])),
                             int(recovered[i]), int(y[i]), int(per_point[i])])
