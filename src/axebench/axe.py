"""Ground-truth-agnostic explanation quality: per-datapoint k-NN recovery of
model predictions from the explanation's top-n features.

Each datapoint is scored by a k-NN restricted to the feature subset its own
explanation marks as most important; a shared global surrogate would defeat
the purpose. Neighbor targets are the model's predictions on the dataset, not
the data labels, and evaluation never leaves the dataset rows.

Rows whose explanations pick the same subset share one neighbor search: the
rows are grouped by their top-n subset in rank order (not as a sorted set,
because column order changes the float sum of squared differences once n >= 3
and would move ties). A search does not depend on the targets or on k, so
:func:`axe_quality_many` scores several targets (one model's predictions
each) under several configs with one table per (row group, include_self),
built at the widest k; each (target, k) votes on the table's first k columns,
which equal the k table. :func:`axe_quality` is its one-target, one-config
call.

One kernel, :func:`_nearest_rows`, serves every search. It takes the query
rows in blocks of a fixed element budget. A block's squared Euclidean
distances to all rows start as the first subset column's ``(c - q) * (c - q)``
and each further column's square is added in place, in subset order: the
order the oracle sums in, and below 8 columns the same bits as numpy's sum
over the subset axis (which adds pairwise from 8 terms on). Per query row
``np.argpartition`` then takes the ``width`` nearest rows, which are put in
index order and then stably sorted by distance, so the table is in (distance,
row index) order, exactly as a full stable sort would give, at O(nu)
selection cost per row. Only where an unselected row ties the distance at the
last kept place is the selection redone: every row strictly closer is kept,
and the slots left over go to the lowest-index rows tied at that distance. In
leave-one-out mode the query row itself is then dropped. The k nearest rows
vote; an even split votes 0.
"""
from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, ExplanationSet, QualityReport, _magnitude_order, check_explanations
from .explainers import make_manual_explanations

# Query rows per block are sized so that rows x nu x |subset| is about this many.
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

    Distances are added column by column in subset order. Per row, the
    ``width`` nearest (max_k, plus one for the query row in leave-one-out
    mode) are picked by ``np.argpartition`` and stably sorted by distance
    from index order. Rows where a row left out ties the cut-off distance are
    re-selected: rows below it, then the lowest-index rows tied at it."""
    cols = [np.ascontiguousarray(d.features[:, j]) for j in subset]
    width = max_k if include_self else max_k + 1
    out = np.empty((rows.size, max_k), dtype=int)
    step = max(1, _BLOCK_ELEMENTS // (d.nu * len(cols)))
    for start in range(0, rows.size, step):
        block = rows[start:start + step]
        d2 = np.subtract(cols[0], cols[0][block, None])
        np.multiply(d2, d2, out=d2)
        term = np.empty_like(d2)
        for col in cols[1:]:
            np.subtract(col, col[block, None], out=term)
            np.multiply(term, term, out=term)
            d2 += term
        kept = np.argpartition(d2, width - 1, axis=1)[:, :width]
        kept.sort(axis=1)
        near = np.take_along_axis(d2, kept, axis=1)
        cut = near.max(axis=1, keepdims=True)
        redo = np.flatnonzero(np.count_nonzero(d2 <= cut, axis=1) != width)
        if redo.size:  # a row left out ties the cut: keep the lowest-index tied rows
            part, at = d2[redo], cut[redo]
            below, tied = part < at, part == at
            fill = width - below.sum(axis=1, keepdims=True)
            take = below | (tied & (np.cumsum(tied, axis=1) <= fill))
            kept[redo] = np.nonzero(take)[1].reshape(redo.size, width)
            near[redo] = np.take_along_axis(part, kept[redo], axis=1)
        order = np.argsort(near, axis=1, kind="stable")
        head = np.take_along_axis(kept, order, axis=1)
        if not include_self:
            keep = head != block[:, None]
            keep[keep.all(axis=1), -1] = False
            head = head[keep].reshape(block.size, max_k)
        out[start:start + block.size] = head
    return out


def _recovered(y: np.ndarray, table: np.ndarray, k: int) -> np.ndarray:
    """Majority vote of the first k neighbors per row, for each target along
    y's leading axes; an even split votes 0."""
    return (y[..., table[:, :k]].sum(axis=-1) * 2 > k).astype(int)


def _check_candidates(nu: int, k: int, include_self: bool) -> None:
    if k > (nu if include_self else nu - 1):
        raise ValueError("k out of range: exceeds candidate count")


def _validate_target(d: Dataset, y_preds) -> np.ndarray:
    y = np.asarray(y_preds, dtype=int)
    if y.shape != (d.nu,):
        raise ValueError("length mismatch: predictions must cover every dataset row")
    if y.size and not np.isin(y, (0, 1)).all():
        raise ValueError("predictions must be 0/1")
    return y


def _validate_config(d: Dataset, cfg: AxeConfig) -> None:
    if cfg.n > d.n_features:
        raise ValueError("n out of range: exceeds feature count")
    _check_candidates(d.nu, cfg.k, cfg.include_self)


def axe_quality_many(d: Dataset, targets, explanations: ExplanationSet, cfgs,
                     model_descriptors=None) -> list[list[QualityReport]]:
    """reports[t][c]: :func:`axe_quality` of ``targets[t]`` under ``cfgs[c]``.

    A neighbour table depends on the rows, their top-n subset and the
    self-inclusion mode, not on the targets or k. So each (row group,
    include_self) gets one table at the widest k among its configs, and every
    (target, k) votes on that table's first k columns, which equal the k
    table."""
    ys = np.array([_validate_target(d, y) for y in targets], dtype=int).reshape(-1, d.nu)
    cfgs = list(cfgs)
    for cfg in cfgs:
        _validate_config(d, cfg)
    check_explanations(d, explanations)
    descriptors = ["model"] * len(ys) if model_descriptors is None else list(model_descriptors)
    if len(descriptors) != len(ys):
        raise ValueError("length mismatch: one model descriptor per target")

    recovered = np.empty((len(cfgs), *ys.shape), dtype=int)
    for n in dict.fromkeys(cfg.n for cfg in cfgs):
        subsets = _magnitude_order(explanations.importances, n, largest=True)
        distinct, group = np.unique(subsets, axis=0, return_inverse=True)
        for include_self in (False, True):
            at = [c for c, cfg in enumerate(cfgs) if (cfg.n, cfg.include_self) == (n, include_self)]
            if not at:
                continue
            max_k = max(cfgs[c].k for c in at)
            for g, subset in enumerate(distinct):
                rows = np.flatnonzero(group.ravel() == g)
                table = _nearest_rows(d, subset, rows, max_k, include_self)
                for c in at:
                    recovered[c][:, rows] = _recovered(ys, table, cfgs[c].k)
    return [[QualityReport(
                metric_name="axe",
                hyperparams=asdict(cfg),
                per_point_q=(recovered[c, t] == y).astype(float),
                dataset_id=d.dataset_id,
                model_descriptor=descriptor,
                explainer_tag=explanations.explainer_tag)
             for c, cfg in enumerate(cfgs)]
            for t, (y, descriptor) in enumerate(zip(ys, descriptors))]


def axe_quality(d: Dataset, y_preds, explanations: ExplanationSet, cfg: AxeConfig,
                model_descriptor: str = "model") -> QualityReport:
    """Score one explanation set: accuracy of per-row top-n k-NN prediction recovery."""
    report, = axe_quality_many(d, [y_preds], explanations, [cfg], [model_descriptor])[0]
    return report


def one_hot_axe_aggregates(d: Dataset, feature: int, y_preds, ks, include_self: bool = False,
                           _table_cache: dict | None = None) -> dict[int, float]:
    """Aggregates for a one-hot explanation set over several k values at once:
    :func:`axe_quality_many` with one target and one config per k.
    ``_table_cache`` is accepted and unused; the call already shares one table
    across the k values."""
    ks = sorted(set(int(k) for k in ks))
    cfgs = [AxeConfig(n=1, k=k, include_self=include_self) for k in ks]
    reports = axe_quality_many(d, [y_preds], make_manual_explanations(d, feature), cfgs)[0]
    return {k: r.aggregate_q for k, r in zip(ks, reports)}


def write_trace(path, report: QualityReport, y_preds, explanations: ExplanationSet) -> None:
    """One CSV line per row of an :func:`axe_quality` report: its top-n subset (n from
    the report), recovered vote (the target where the row scored 1), target and score."""
    subsets = _magnitude_order(explanations.importances, report.hyperparams["n"], largest=True)
    y, per_point = np.asarray(y_preds, dtype=int), report.per_point_q
    recovered = np.where(per_point == 1.0, y, 1 - y)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "chosen_features", "recovered", "target", "q"])
        for i in range(len(per_point)):
            writer.writerow([i, " ".join(map(str, subsets[i])),
                             int(recovered[i]), int(y[i]), int(per_point[i])])
