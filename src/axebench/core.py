"""Core domain types and ranking primitives shared by every other module.

Five small objects carry all state: an immutable tabular :class:`Dataset`,
signed importances for one datapoint (:class:`Explanation`) or for every row
(:class:`ExplanationSet`), a behavioral :class:`Predictor` interface for
deterministic binary classifiers, and a per-datapoint :class:`QualityReport`.
Everything here is immutable after construction and safe to share across
concurrent workers.
"""
from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


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
    these two. Predictions threshold the probability at 0.5, so they never disagree.
    """

    descriptor: str = "predictor"

    def predict_proba_batch(self, X) -> np.ndarray:
        raise NotImplementedError

    def gradient_batch(self, X) -> np.ndarray | None:
        return None

    def gradient(self, x) -> np.ndarray | None:
        return None

    def predict(self, x) -> int:
        return int(self.predict_proba(x) >= 0.5)

    def predict_batch(self, X) -> np.ndarray:
        return (self.predict_proba_batch(X) >= 0.5).astype(int)


def importances_of(e) -> np.ndarray:
    """Accept an Explanation or a plain vector and return the importance array."""
    if isinstance(e, Explanation):
        return e.importances
    return np.asarray(e, dtype=float)


def aggregate_quality(per_point_q) -> float:
    """Arithmetic mean of per-datapoint quality scores."""
    q = np.asarray(per_point_q, dtype=float)
    if q.size == 0:
        raise ValueError("empty quality list")
    if not np.all(np.isfinite(q)):
        raise ValueError("quality values must be finite")
    return float(q.mean())


def _magnitude_order(imp: np.ndarray, n, largest: bool) -> np.ndarray:
    """First n feature indices along the last axis by |importance|, ties to the lower index."""
    n = int(n)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > imp.shape[-1]:
        raise ValueError("n exceeds feature count")
    mag = np.abs(imp)
    cols = np.arange(mag.shape[-1])
    if mag.ndim > 1:  # lexsort keys must share one shape
        cols = np.broadcast_to(cols, mag.shape)
    return np.lexsort((cols, -mag if largest else mag), axis=-1)[..., :n]


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
    correlation on constant rankings); ``aggregate_q`` is the mean of the
    defined entries and NaN when none are defined.
    """

    metric_name: str
    hyperparams: dict
    per_point_q: np.ndarray
    aggregate_q: float
    dataset_id: str = "dataset"
    model_descriptor: str = "model"
    explainer_tag: str = "manual"

    def __post_init__(self):
        q = _frozen_array(self.per_point_q)
        if q.ndim != 1 or q.size == 0:
            raise ValueError("per_point_q must be a non-empty vector")
        object.__setattr__(self, "per_point_q", q)
        agg = float(self.aggregate_q)
        defined = q[np.isfinite(q)]
        if defined.size:
            if abs(agg - float(defined.mean())) > 1e-12:
                raise ValueError("aggregate_q must equal the mean of the defined per-point scores")
        elif not math.isnan(agg):
            raise ValueError("aggregate_q must be NaN when every per-point score is undefined")
        object.__setattr__(self, "aggregate_q", agg)

    @classmethod
    def build(cls, metric_name, hyperparams, per_point_q, dataset_id="dataset",
              model_descriptor="model", explainer_tag="manual") -> "QualityReport":
        q = np.asarray(per_point_q, dtype=float)
        defined = q[np.isfinite(q)]
        agg = float(defined.mean()) if defined.size else float("nan")
        return cls(metric_name=metric_name, hyperparams=dict(hyperparams),
                   per_point_q=q, aggregate_q=agg, dataset_id=dataset_id,
                   model_descriptor=model_descriptor, explainer_tag=explainer_tag)

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
        version = d.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"report schema_version {version!r} is not supported; "
                             f"this version reads schema_version {SCHEMA_VERSION}")
        per_point = [float("nan") if v is None else float(v) for v in d["per_point_q"]]
        agg = float("nan") if d["aggregate_q"] is None else float(d["aggregate_q"])
        return cls(metric_name=d["metric_name"], hyperparams=dict(d["hyperparams"]),
                   per_point_q=np.asarray(per_point), aggregate_q=agg,
                   dataset_id=d.get("dataset_id", "dataset"),
                   model_descriptor=d.get("model_descriptor", "model"),
                   explainer_tag=d.get("explainer_tag", "manual"))

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path) -> "QualityReport":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def write_json(path, payload) -> None:
    """Deterministic JSON dump: sorted keys, fixed layout, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
