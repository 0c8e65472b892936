"""Core domain types, ranking primitives and batch rules shared by every other module.

Five small objects carry all state: an immutable tabular :class:`Dataset`,
signed importances for one datapoint (:class:`Explanation`) or for every row
(:class:`ExplanationSet`), a behavioral :class:`Predictor` interface for
deterministic binary classifiers, and a per-datapoint :class:`QualityReport`.
Everything here is immutable after construction and safe to share across
concurrent workers.

The batch rules live here too, each once: :func:`labels_of` is the one 0.5
threshold, :func:`spans` cuts every block loop, and :func:`distinct_rows`
groups equal rows.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1
# The package's one batch granularity: the MLP scores batches in blocks of this many
# rows, and a perturbation-gap report scores its copies in chunks that start on them.
_BLOCK_ROWS = 2048


def _frozen_array(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def _importances(values, ndim: int) -> np.ndarray:
    imp = _frozen_array(values)
    if imp.ndim != ndim or imp.size == 0:
        raise ValueError(f"importances must be a non-empty {ndim}-D array")
    if not np.all(np.isfinite(imp)):
        raise ValueError("importances contain non-finite entries")
    return imp


@dataclass(frozen=True)
class Dataset:
    """Immutable tabular dataset: a (nu, n_features) working matrix plus bookkeeping.

    ``features`` holds the model-ready values (z-scored for CSV loads, generator
    units for synthetic data). ``standardization`` keeps the per-column
    (mean, stddev) pairs that map ``raw_features`` onto ``features``, so values
    can always be traced back to their original units.
    """

    features: np.ndarray
    feature_names: tuple[str, ...]
    labels: np.ndarray | None = None
    standardization: tuple[np.ndarray, np.ndarray] | None = None
    protected_index: int | None = None
    foil_indices: tuple[int, ...] = ()
    dataset_id: str = "dataset"
    raw_features: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        feats = _frozen_array(self.features)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite entries")
        object.__setattr__(self, "features", feats)

        names = tuple(str(n) for n in self.feature_names)
        if len(names) != feats.shape[1]:
            raise ValueError("feature_names length does not match feature count")
        object.__setattr__(self, "feature_names", names)

        if self.labels is not None:
            labels = _frozen_array(self.labels, dtype=int)
            if labels.shape != (feats.shape[0],):
                raise ValueError("labels length does not match row count")
            if labels.size and not np.isin(labels, (0, 1)).all():
                raise ValueError("labels must be 0/1")
            object.__setattr__(self, "labels", labels)

        if self.standardization is None:
            stats = (_frozen_array(np.zeros(feats.shape[1])),
                     _frozen_array(np.ones(feats.shape[1])))
        else:
            means, stds = self.standardization
            means, stds = _frozen_array(means), _frozen_array(stds)
            if means.shape != (feats.shape[1],) or stds.shape != (feats.shape[1],):
                raise ValueError("standardization stats must supply one (mean, stddev) per feature")
            if not np.all(stds > 0):
                raise ValueError("stddev entries must be strictly positive")
            stats = (means, stds)
        object.__setattr__(self, "standardization", stats)

        marked = []
        if self.protected_index is not None:
            p = int(self.protected_index)
            if not 0 <= p < feats.shape[1]:
                raise ValueError("protected_index out of range")
            object.__setattr__(self, "protected_index", p)
            marked.append(p)
        foils = tuple(int(i) for i in self.foil_indices)
        for f in foils:
            if not 0 <= f < feats.shape[1]:
                raise ValueError("foil index out of range")
        marked.extend(foils)
        if len(set(marked)) != len(marked):
            raise ValueError("protected and foil indices must be mutually distinct")
        object.__setattr__(self, "foil_indices", foils)

        if self.raw_features is not None:
            raw = _frozen_array(self.raw_features)
            if raw.shape != feats.shape:
                raise ValueError("raw_features shape does not match features")
            object.__setattr__(self, "raw_features", raw)

    @property
    def nu(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Explanation:
    """Signed feature-importance vector for one datapoint."""

    importances: np.ndarray
    explainer_tag: str = "manual"

    def __post_init__(self):
        object.__setattr__(self, "importances", _importances(self.importances, ndim=1))

    def __len__(self) -> int:
        return self.importances.size


@dataclass(frozen=True)
class ExplanationSet:
    """Signed feature-importance matrix of a whole dataset: row i explains
    dataset row i, and one tag names the explainer of every row."""

    importances: np.ndarray
    explainer_tag: str = "manual"

    def __post_init__(self):
        object.__setattr__(self, "importances", _importances(self.importances, ndim=2))

    def __len__(self) -> int:
        return self.importances.shape[0]

    def __iter__(self):
        return iter(self.importances)


def one_row(x) -> np.ndarray:
    """A single feature vector as a (1, N) batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected one feature vector, got shape {x.shape}")
    return x[None, :]


class Predictor:
    """Batch-first behavioral interface for a deterministic binary classifier.

    Subclasses implement ``predict_proba_batch`` and, for a differentiable probability,
    ``gradient_batch`` (None: no gradient); package code queries models only through
    these two, and ``predict_proba(x)``/``gradient(x)`` are their one-row calls.
    Predictions threshold the probability at 0.5, so they never disagree.
    """

    descriptor: str = "predictor"

    def predict_proba_batch(self, X) -> np.ndarray:
        raise NotImplementedError

    def gradient_batch(self, X) -> np.ndarray | None:
        return None

    def predict_proba(self, x) -> float:
        return float(self.predict_proba_batch(one_row(x))[0])

    def gradient(self, x) -> np.ndarray | None:
        g = self.gradient_batch(one_row(x))
        return None if g is None else g[0]

    def predict(self, x) -> int:
        return int(labels_of(self.predict_proba(x)))

    def predict_batch(self, X) -> np.ndarray:
        return labels_of(self.predict_proba_batch(X))

    def predict_proba_copies(self, X, sets, draws) -> np.ndarray:
        """(rows, count) probabilities of :func:`perturbed_copies` of X. An override
        may skip materialising or scoring copies but must return the same bits."""
        rows, count = draws.shape[:2]
        return self.predict_proba_batch(perturbed_copies(X, sets, draws)).reshape(rows, count)


def labels_of(proba) -> np.ndarray:
    """0/1 predictions from probabilities, or from one probability: 1 from 0.5 up."""
    return (np.asarray(proba) >= 0.5).astype(int)


def spans(n: int, step: int) -> list[tuple[int, int]]:
    """The (start, end) spans that cut ``n`` rows into blocks of ``step``, in
    order: every span starts at a multiple of ``step``, and ``n == 0`` gives none.

    A final remainder of one row joins the span before it, so no span holds
    more than ``step + 1`` rows. A one-row matrix product takes a different
    BLAS routine (matrix-vector) from a taller one: left as a block of its own,
    a last row moved the last bit of the MLP's gradient at 2,049 rows at every
    input width tested. The MLP's blocks and a gap report's chunks of copies
    both cut by this rule, so a chunk meets the blocks of one whole-batch call."""
    ends = [*range(step, n - 1, step), n] if n else []
    return list(zip([0, *ends], ends))


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a non-empty 2-D array in lexicographic order, and
    the index of each row among them: the rows and the inverse of
    ``np.unique(rows, axis=0, return_inverse=True)``. A sort, not np.unique:
    on floats that imports numpy.ma under numpy 2.4."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _coalition_sizes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sizes 1..n-1 and their chance: (n-1) / (s(n-s)), the kernel-Shapley weight
    summed over the coalitions of each size, normalised."""
    sizes = np.arange(1, n)
    p = (n - 1) / (sizes * (n - sizes))
    return sizes, p / p.sum()


def perturbed_copies(X: np.ndarray, sets: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """(rows * count, width) copies of X's rows, row-major: copy (i, j) adds
    draws[i, j] to features sets[i] of row i."""
    rows, count, _ = draws.shape
    points = np.repeat(X[:, None, :], count, axis=1)
    row = np.arange(rows)
    base = X[row[:, None], sets]
    # one write per column of the index sets, each from the row's own values:
    # where a set repeats a feature, its last draw stands
    for c in range(sets.shape[1]):
        points[row, :, sets[:, c]] = base[:, c, None] + draws[:, :, c]
    return points.reshape(-1, X.shape[1])


def importances_of(e) -> np.ndarray:
    """Accept an Explanation or a plain vector and return the importance array."""
    if isinstance(e, Explanation):
        return e.importances
    return np.asarray(e, dtype=float)


def _magnitude_order(imp: np.ndarray, n, largest: bool) -> np.ndarray:
    """First n feature indices along the last axis by |importance|, ties to the lower index."""
    n = int(n)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > imp.shape[-1]:
        raise ValueError("n exceeds feature count")
    mag = np.abs(imp)  # a stable sort keeps tied magnitudes in index order
    return np.argsort(-mag if largest else mag, axis=-1, kind="stable")[..., :n]


def top_n_features(e, n: int) -> list[int]:
    """Indices of the n largest-|importance| features, ties broken by lower index."""
    return _magnitude_order(importances_of(e), n, largest=True).tolist()


def bottom_n_features(e, n: int) -> list[int]:
    """Indices of the n smallest-|importance| features, ties broken by lower index."""
    return _magnitude_order(importances_of(e), n, largest=False).tolist()


def check_explanations(d: Dataset, explanations: ExplanationSet) -> None:
    """One explanation per dataset row, each exactly as wide as the feature count."""
    rows, width = explanations.importances.shape
    if rows != d.nu:
        raise ValueError(f"length mismatch: {rows} explanations for {d.nu} rows; "
                         "one per dataset row required")
    if width != d.n_features:
        raise ValueError(f"length mismatch: explanation width {width} differs from "
                         f"the feature count {d.n_features}")


def rank_vector(e) -> np.ndarray:
    """Fractional ranks by |importance| along the last axis: rank 1 is the largest,
    ties share the mean position."""
    imp = np.abs(importances_of(e))
    width = imp.shape[-1]
    order = _magnitude_order(imp, width, largest=True)
    magnitudes = np.take_along_axis(imp, order, axis=-1)
    # first and last sorted position of the tie group holding each sorted position
    new_group = np.ones(imp.shape, dtype=bool)
    new_group[..., 1:] = magnitudes[..., 1:] != magnitudes[..., :-1]
    pos = np.arange(width)
    first = np.maximum.accumulate(np.where(new_group, pos, 0), axis=-1)
    last = np.where(np.roll(new_group, -1, axis=-1), pos, width - 1)
    last = np.minimum.accumulate(last[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(imp.shape)
    np.put_along_axis(ranks, order, (first + last + 2) / 2, axis=-1)
    return ranks


@dataclass(frozen=True)
class QualityReport:
    """Per-datapoint quality scores for one (dataset, model, explanations, metric) run.

    ``per_point_q`` may contain NaN for metrics with an undefined marker (rank
    correlation on constant rankings); ``aggregate_q`` is derived, never passed:
    the mean of the defined entries and NaN when none are defined. A report file
    must store that same aggregate, and ``undefined_count`` if it holds one.
    """

    metric_name: str
    hyperparams: dict
    per_point_q: np.ndarray
    aggregate_q: float = field(init=False)
    dataset_id: str = "dataset"
    model_descriptor: str = "model"
    explainer_tag: str = "manual"

    def __post_init__(self):
        q = _frozen_array(self.per_point_q)
        if q.ndim != 1 or q.size == 0:
            raise ValueError("per_point_q must be a non-empty vector")
        object.__setattr__(self, "per_point_q", q)
        defined = q[np.isfinite(q)]
        object.__setattr__(self, "aggregate_q",
                           float(defined.mean()) if defined.size else float("nan"))

    @property
    def undefined_count(self) -> int:
        return int(np.count_nonzero(~np.isfinite(self.per_point_q)))

    def to_dict(self) -> dict:
        per_point = [None if not math.isfinite(v) else float(v) for v in self.per_point_q]
        agg = None if math.isnan(self.aggregate_q) else self.aggregate_q
        return {
            "schema_version": SCHEMA_VERSION,
            "metric_name": self.metric_name,
            "hyperparams": self.hyperparams,
            "per_point_q": per_point,
            "aggregate_q": agg,
            "undefined_count": self.undefined_count,
            "dataset_id": self.dataset_id,
            "model_descriptor": self.model_descriptor,
            "explainer_tag": self.explainer_tag,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QualityReport":
        tags = ("dataset_id", "model_descriptor", "explainer_tag")
        check_fields("quality report", d, {"metric_name": str, "hyperparams": dict,
                                           "per_point_q": list[float | None],
                                           "aggregate_q": float | None,
                                           "undefined_count": int,
                                           "schema_version": int | None,
                                           **dict.fromkeys(tags, str)},
                     optional=(*tags, "undefined_count", "schema_version"))
        version = d.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"report schema_version {version!r} is not supported; "
                             f"this version reads schema_version {SCHEMA_VERSION}")
        per_point = [float("nan") if v is None else float(v) for v in d["per_point_q"]]
        report = cls(metric_name=d["metric_name"], hyperparams=dict(d["hyperparams"]),
                     per_point_q=per_point, **{tag: d[tag] for tag in tags if tag in d})
        stored, agg = d["aggregate_q"], report.aggregate_q
        if (stored is None) != math.isnan(agg) or (
                stored is not None and not abs(stored - agg) <= 1e-12):
            raise ValueError("aggregate_q must be the mean of the defined per-point scores, "
                             "or null when none is defined")
        if d.get("undefined_count", report.undefined_count) != report.undefined_count:
            raise ValueError(f"undefined_count must be {report.undefined_count}, the number "
                             f"of undefined per-point scores")
        return report

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path) -> "QualityReport":
        return cls.from_dict(read_json(path))


def write_json(path, payload) -> None:
    """Deterministic JSON dump: sorted keys, fixed layout, trailing newline.

    The one guard against non-JSON output: a NaN or infinity anywhere in
    ``payload`` raises ``ValueError``. The payload is encoded before any
    directory is made, and a refused one leaves no file at ``path``, not even
    one an earlier write left there, so a stale file never reads as its output."""
    path = Path(path)
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        path.unlink(missing_ok=True)
        raise ValueError(f"cannot write {path.name}: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def read_json(path):
    """The JSON value in the UTF-8 file at ``path``; :func:`write_json` writes such files."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path) -> list[list[str]]:
    """Every row of the UTF-8 CSV file at ``path``, as ``csv.reader`` reads them."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_csv(path, header, rows) -> None:
    """The header, then ``rows`` (lists of cells), in UTF-8 as ``csv.writer`` writes them."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _conforms(value, tp) -> bool:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return any(_conforms(value, a) for a in args)
    if origin in (list, tuple):
        return isinstance(value, (list, tuple)) and all(_conforms(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _conforms(k, args[0]) and _conforms(v, args[1]) for k, v in value.items())
    if isinstance(value, bool) and tp is not bool:
        return False
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return False
    return isinstance(value, (int, float) if tp is float else tp)


def check_type(label: str, value, tp) -> None:
    """Raise ValueError naming ``label`` unless the JSON value ``value`` has type ``tp``:
    str, int, float, bool, ``list``/``tuple``/``dict`` of these, or ``X | None``. A bool
    is never an int, an int is also a float, an int beyond float range is neither, and a
    list stands for a tuple."""
    if not _conforms(value, tp):
        name = str(tp) if typing.get_origin(tp) else tp.__name__
        raise ValueError(f"{label} must be {name}, not {type(value).__name__}")


def check_fields(label: str, d, types: dict, optional=()) -> None:
    """Raise ValueError naming ``label`` unless ``d`` is a JSON object that holds every
    key of ``types`` not in ``optional``, each value of the type ``check_type`` accepts
    for it. Keys outside ``types`` are left to the caller."""
    check_type(label, d, dict)
    missing = [key for key in types if key not in d and key not in optional]
    if missing:
        raise ValueError(f"{label} lacks {', '.join(map(repr, missing))}")
    for key, tp in types.items():
        if key in d:
            check_type(f"{label} {key!r}", d[key], tp)


def record_from_dict(cls, d):
    """Dataclass ``cls`` from a dict of exactly its fields, each of its annotated type;
    a non-object, a missing required field, an unknown key (a misspelt one too), a
    mistyped value, or a derived (``init=False``) field other than the value the
    record's other fields give raises ValueError naming it."""
    kind = f"{cls.__name__} record"
    hints = typing.get_type_hints(cls)
    check_fields(kind, d, {f.name: hints[f.name] for f in fields(cls)},
                 optional=[f.name for f in fields(cls)
                           if f.default is not MISSING or f.default_factory is not MISSING])
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{kind} has unknown field {', '.join(map(repr, unknown))}")
    record = cls(**{f.name: d[f.name] for f in fields(cls) if f.init and f.name in d})
    for f in fields(cls):
        if not f.init and d[f.name] != getattr(record, f.name):
            raise ValueError(f"{kind} {f.name!r} must be {getattr(record, f.name)!r}, "
                             "as its other fields give")
    return record


def row_seed(base_seed: int, row_index: int) -> int:
    """Per-row RNG seed: XOR of the base seed with the row index."""
    return int(base_seed) ^ int(row_index)


def component_seed(base_seed: int, label: str) -> int:
    """Stable per-component seed: hash of the component label mixed with the base seed."""
    digest = hashlib.sha256(f"{label}:{int(base_seed)}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def ordered_parallel_map(fn, items, jobs: int = 1) -> list:
    """Apply ``fn`` over ``items`` on ``jobs`` threads, preserving item order."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
