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

One kernel, :func:`_nearest_rows`, serves every search. A query row's squared
Euclidean distances to its candidate rows start as the first subset column's
``(c - q) * (c - q)`` and each further column's square is added in place, in
subset order: the order the oracle sums in, and below 8 columns the same bits
as numpy's sum over the subset axis (which adds pairwise from 8 terms on).
``np.argpartition`` then takes the ``width`` nearest candidates (k, plus one
for the query row in leave-one-out mode), which are put in (distance, row
index) order, exactly as a full stable sort would give. In leave-one-out mode
the query row itself is then dropped. The k nearest rows vote; an even split
votes 0.

The search runs in stages (the projection search of Friedman, Baskett and
Shustek, IEEE Trans. Computers 1975). The rows are sorted stably on one key
column of the subset, the one with the most distinct values, and a query
row's candidates are a window: the ``span`` rows around its own place in key
order, clipped to the ends. A window's table is certified, and final, when no
unselected row of the window lies at or below the cut (the largest kept
distance) and each row just outside the window has a key term
``(v - q) * (v - q)`` strictly above the cut. That is exact at any subset
width: the key term only grows as the key moves away from the query in sorted
order, and adding a non-negative term never lowers a rounded float sum, so
every row beyond the window lies strictly beyond the cut. The first window
holds ``nu * (width / nu) ** (1 / |subset|)`` rows each side, rounded up: the
share of the key order that a cube holding ``width`` of nu evenly spread rows
spans. A row a stage does not certify is retried on a window 4 times as wide;
a row whose key value is shared by at least ``span`` rows skips the window.
The last stage takes every row as a candidate, in index order, and certifies
every query row: where an unselected row ties the cut there, every row
strictly closer is kept and the slots left over go to the lowest-index rows
tied at the cut. A window opens only when it spans at most a quarter of the
rows and the search holds more than a fixed budget of distance terms
(query rows x nu x |subset|); smaller searches run as that last stage alone,
because on them a stage's fixed cost outweighs what a window saves.

Every stage takes its query rows in blocks of about a fixed number of
candidate slots (rows x span), whatever the subset width, and of one row at
least: a block's distances, the column term added to them, the window copied
out of a sorted column and the comparison with the cut each hold one entry per
slot. Blocks change no table: each query row's distances, selection and order
come from its own row of each temporary.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (Dataset, ExplanationSet, QualityReport, _magnitude_order, check_explanations,
                   distinct_rows, spans, write_csv)
from .explainers import make_manual_explanations

# A search whose query rows x nu x |subset| is at most this many runs as the
# last stage alone.
_BLOCK_ELEMENTS = 1 << 20
# Query rows per block are sized so that rows x span is about this many: each
# temporary of a block holds one entry per query row and candidate.
_QUERY_ELEMENTS = 1 << 16
# A window spans at most 1/_WINDOW_SHARE of the rows; a row a window does not
# certify is retried on one _WIDEN times as wide.
_WINDOW_SHARE = 4
_WIDEN = 4


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

    Stages of widening windows in key order, then one stage over every row in
    index order; each query row takes its table from the first stage that
    certifies it (see the module docstring)."""
    cols = [np.ascontiguousarray(d.features[:, j]) for j in subset]
    width = max_k if include_self else max_k + 1
    out = np.empty((rows.size, max_k), dtype=int)
    pending = np.ones(rows.size, dtype=bool)
    half = math.ceil(d.nu * (width / d.nu) ** (1 / len(cols)))
    if rows.size * d.nu * len(cols) <= _BLOCK_ELEMENTS:
        half = d.nu  # a search within one block runs as the last stage alone
    if (2 * half + 1) * _WINDOW_SHARE <= d.nu:
        key = max(range(len(cols)), key=lambda j: _distinct(cols[j]))
        order = np.argsort(cols[key], kind="stable")
        position = np.empty(d.nu, dtype=int)
        position[order] = np.arange(d.nu)
        ordered = [col[order] for col in cols]
        line = ordered[key]
        run = np.diff(np.flatnonzero(np.r_[True, line[1:] != line[:-1], True]))
        tie_group = np.repeat(run, run)[position]
    while pending.any():
        todo = np.flatnonzero(pending)
        span = 2 * half + 1
        if span * _WINDOW_SHARE > d.nu:  # the last stage: every row, in index order
            span, order, ordered, key = d.nu, None, cols, None
            at, lo = todo, np.zeros(todo.size, dtype=int)
        else:  # a row whose key value fills the window skips it
            at = todo[tie_group[rows[todo]] < span]
            lo = np.clip(position[rows[at]] - half, 0, d.nu - span)
        step = max(1, _QUERY_ELEMENTS // span)
        for start, end in spans(at.size, step):
            block = at[start:end]
            ok, head = _search(cols, ordered, order, key, rows[block], lo[start:end],
                               span, width, include_self)
            out[block[ok]] = head
            pending[block[ok]] = False
        half *= _WIDEN
    return out


def _search(cols, ordered, order, key, query, lo, span, width, include_self):
    """One stage for the ``query`` rows: each one's candidates are the ``span``
    rows from ``lo`` on in ``order`` (``ordered`` holds the columns in that
    order). Returns which query rows are certified, and their tables.

    ``key`` indexes the column ``order`` sorts; it is None in the stage that
    spans every row in index order, which certifies every query row."""
    d2 = np.subtract(_window(ordered[0], lo, span), cols[0][query, None])
    np.multiply(d2, d2, out=d2)
    term = np.empty_like(d2)
    for line, col in zip(ordered[1:], cols[1:]):
        np.subtract(_window(line, lo, span), col[query, None], out=term)
        np.multiply(term, term, out=term)
        d2 += term
    kept = np.argpartition(d2, width - 1, axis=1)[:, :width]
    near = np.take_along_axis(d2, kept, axis=1)
    cut = near.max(axis=1)
    ok = np.count_nonzero(d2 <= cut[:, None], axis=1) == width
    if key is None:  # every row is a candidate, in index order
        redo = np.flatnonzero(~ok)
        if redo.size:  # a row left out ties the cut: keep the lowest-index tied rows
            part, at = d2[redo], cut[redo, None]
            below, tied = part < at, part == at
            fill = width - below.sum(axis=1, keepdims=True)
            take = below | (tied & (np.cumsum(tied, axis=1) <= fill))
            kept[redo] = np.nonzero(take)[1].reshape(redo.size, width)
            near[redo] = np.take_along_axis(part, kept[redo], axis=1)
        ok[:], found = True, kept
    else:  # the rows just outside the window must lie beyond the cut on the key alone
        line = ordered[key]
        for edge in (lo - 1, lo + span):
            gap = line[np.clip(edge, 0, line.size - 1)] - cols[key][query]
            ok &= (edge < 0) | (edge >= line.size) | (gap * gap > cut)
        near, query = near[ok], query[ok]
        found = order[lo[ok, None] + kept[ok]]
    head = np.take_along_axis(found, np.lexsort((found, near), axis=1), axis=1)
    if not include_self:
        keep = head != query[:, None]
        keep[keep.all(axis=1), -1] = False
        head = head[keep].reshape(query.size, width - 1)
    return ok, head


def _distinct(values) -> int:
    """How many distinct values a column holds. Not np.unique: on a float column
    it imports numpy.ma under numpy 2.4, 15 ms on its first call."""
    ordered = np.sort(values)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def _window(line, lo, span):
    """The ``span`` entries of ``line`` from each ``lo`` on, one row per ``lo``;
    a window over all of ``line`` is the line itself, broadcast."""
    return line if span == line.size else sliding_window_view(line, span)[lo]


def _recovered(y: np.ndarray, table: np.ndarray, k: int) -> np.ndarray:
    """Majority vote of the first k neighbors per row, for each target along
    y's leading axes; an even split votes 0."""
    return (y[..., table[:, :k]].sum(axis=-1) * 2 > k).astype(int)


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
    if cfg.k > (d.nu if cfg.include_self else d.nu - 1):
        raise ValueError("k out of range: exceeds candidate count")


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
        distinct, group = distinct_rows(subsets)
        for include_self in (False, True):
            at = [c for c, cfg in enumerate(cfgs) if (cfg.n, cfg.include_self) == (n, include_self)]
            if not at:
                continue
            max_k = max(cfgs[c].k for c in at)
            for g, subset in enumerate(distinct):
                rows = np.flatnonzero(group == g)
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
    write_csv(path, ["row", "chosen_features", "recovered", "target", "q"],
              ([i, " ".join(map(str, subsets[i])), int(recovered[i]), int(y[i]), int(per_point[i])]
               for i in range(len(per_point))))
