"""Dataset ingestion from CSV and deterministic synthetic generators."""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import Dataset, record_from_dict, write_json

GENERATOR_KINDS = ("gaussian-blobs", "threshold-rule", "correlated-foil")
_BLOBS_SEPARATION = 2.0  # distance between the gaussian-blobs class centres


@dataclass
class DatasetSchema:
    """How a CSV maps onto a Dataset: column roles and categorical encodings.
    A schema file is a JSON object holding exactly these fields."""

    name: str
    column_names: list[str]
    target_column: str
    protected_column: str | None = None
    foil_columns: list[str] = field(default_factory=list)
    categorical_columns: dict[str, dict[str, int]] = field(default_factory=dict)
    drop_columns: list[str] = field(default_factory=list)
    notes: str = ""

    def __post_init__(self):
        known = set(self.column_names)
        if self.target_column not in known:
            raise ValueError(f"schema mismatch: target column {self.target_column!r} missing")
        if self.protected_column is not None and self.protected_column not in known:
            raise ValueError(f"schema mismatch: protected column {self.protected_column!r} missing")
        for col in list(self.foil_columns) + list(self.drop_columns) + list(self.categorical_columns):
            if col not in known:
                raise ValueError(f"schema mismatch: column {col!r} missing")

    @classmethod
    def from_json(cls, path) -> "DatasetSchema":
        with open(path, encoding="utf-8") as fh:
            return record_from_dict(cls, json.load(fh))

    def to_json(self, path) -> None:
        write_json(path, asdict(self))


def _parse_cell(cell: str, col: str, row_num: int, encoding: dict | None) -> float:
    cell = cell.strip()
    if encoding is not None:
        if cell not in encoding:
            raise ValueError(f"parse error at row {row_num}, col {col}: unmapped category {cell!r}")
        return float(encoding[cell])
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"parse error at row {row_num}, col {col}: {cell!r} is not numeric") from None


def _standardized_dataset(raw, names, labels, *, protected_name=None, foil_names=(),
                          dataset_id="dataset", metadata=None) -> Dataset:
    """Shared assembly path: drop constant columns, z-score, resolve marked indices."""
    raw = np.asarray(raw, dtype=float)
    names = list(names)
    metadata = dict(metadata or {})
    warnings = list(metadata.get("warnings", []))

    stds = raw.std(axis=0)
    constant = [names[j] for j in range(raw.shape[1]) if stds[j] == 0.0]
    if constant:
        if protected_name in constant:
            raise ValueError(f"protected column {protected_name!r} is constant")
        for f in foil_names:
            if f in constant:
                raise ValueError(f"foil column {f!r} is constant")
        keep = [j for j in range(raw.shape[1]) if names[j] not in constant]
        raw = raw[:, keep]
        names = [names[j] for j in keep]
        warnings.extend(f"dropped constant column {c!r}" for c in constant)
    if raw.shape[1] == 0:
        raise ValueError("no usable feature columns remain")

    means = raw.mean(axis=0)
    stds = raw.std(axis=0)
    features = (raw - means) / stds
    metadata["dropped_constant_columns"] = constant
    metadata["warnings"] = warnings

    protected_index = names.index(protected_name) if protected_name is not None else None
    foil_indices = tuple(names.index(f) for f in foil_names)
    return Dataset(features=features, feature_names=tuple(names), labels=labels,
                   standardization=(means, stds), protected_index=protected_index,
                   foil_indices=foil_indices, dataset_id=dataset_id,
                   raw_features=raw, metadata=metadata)


def load_csv(path, schema: DatasetSchema) -> Dataset:
    """Load an RFC-4180 CSV per the schema: encode categoricals, z-score, mark roles."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("schema mismatch: file is empty")
    header, data = rows[0], rows[1:]
    if header != list(schema.column_names):
        raise ValueError("schema mismatch: header differs from schema column_names")
    if not data:
        raise ValueError("dataset has no rows")

    excluded = set(schema.drop_columns) | {schema.target_column}
    feature_cols = [c for c in header if c not in excluded]
    if schema.protected_column in schema.drop_columns:
        raise ValueError("schema mismatch: protected column is dropped")
    col_pos = {c: i for i, c in enumerate(header)}

    target_enc = schema.categorical_columns.get(schema.target_column)
    raw = np.empty((len(data), len(feature_cols)))
    labels = np.empty(len(data), dtype=int)
    for r, row in enumerate(data, start=1):
        if len(row) != len(header):
            raise ValueError(f"parse error at row {r}: expected {len(header)} cells, got {len(row)}")
        for j, col in enumerate(feature_cols):
            raw[r - 1, j] = _parse_cell(row[col_pos[col]], col, r,
                                        schema.categorical_columns.get(col))
        y = _parse_cell(row[col_pos[schema.target_column]], schema.target_column, r, target_enc)
        if y not in (0.0, 1.0):
            raise ValueError(f"parse error at row {r}, col {schema.target_column}: "
                             f"target must be 0/1, got {y!r}")
        labels[r - 1] = int(y)
    bad = np.argwhere(~np.isfinite(raw))
    if bad.size:
        r, j = bad[0]
        raise ValueError(f"parse error at row {r + 1}, col {feature_cols[j]}: "
                         f"{raw[r, j]} is not finite")

    return _standardized_dataset(
        raw, feature_cols, labels,
        protected_name=schema.protected_column, foil_names=tuple(schema.foil_columns),
        dataset_id=schema.name,
        metadata={"source": str(path), "schema_name": schema.name})


def save_csv(d: Dataset, path) -> None:
    """Write raw feature values (plus labels) back to CSV; floats round-trip exactly."""
    raw = d.raw_features if d.raw_features is not None else d.features
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(d.feature_names) + (["label"] if d.labels is not None else [])
        writer.writerow(header)
        for i in range(d.nu):
            row = [repr(float(v)) for v in raw[i]]
            if d.labels is not None:
                row.append(str(int(d.labels[i])))
            writer.writerow(row)


@dataclass
class SyntheticSpec:
    """Fully seed-determined synthetic dataset recipe."""

    nu: int
    n_features: int
    seed: int
    generator_kind: str = "threshold-rule"

    def __post_init__(self):
        if self.nu < 2 or self.n_features < 2:
            raise ValueError("synthetic spec needs nu >= 2 and n_features >= 2")
        if self.generator_kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator_kind {self.generator_kind!r}")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic data; features stay in generator units (identity stats)."""
    rng = np.random.default_rng(spec.seed)
    nu, nf = spec.nu, spec.n_features
    metadata = {"generator_kind": spec.generator_kind, "seed": spec.seed}
    foil_indices: tuple[int, ...] = ()

    if spec.generator_kind == "threshold-rule":
        X = rng.standard_normal((nu, nf))
        labels = (X[:, 0] > 0).astype(int)
    elif spec.generator_kind == "gaussian-blobs":
        labels = rng.integers(0, 2, size=nu)
        centers = np.where(labels[:, None] == 1, _BLOBS_SEPARATION / 2.0, -_BLOBS_SEPARATION / 2.0)
        X = centers + rng.standard_normal((nu, nf))
    else:  # correlated-foil
        X = rng.standard_normal((nu, nf))
        labels = (X[:, 0] > 0).astype(int)
        foil = nf - 1
        if labels.min() == labels.max():
            raise ValueError(f"correlated-foil at nu={nu}, seed={spec.seed} drew labels "
                             "of one class only; use more rows")
        # redraw until the foil column is empirically uncorrelated with the labels;
        # a constant draw has no correlation and is redrawn
        for attempt in range(20):
            X[:, foil] = rng.choice([-1.0, 1.0], size=nu)
            if X[:, foil].min() == X[:, foil].max():
                continue
            corr = abs(float(np.corrcoef(X[:, foil], labels)[0, 1]))
            if corr < 0.15:
                break
        else:
            raise ValueError(f"correlated-foil at nu={nu}, seed={spec.seed}: no label-"
                             "uncorrelated foil column in 20 draws; use more rows")
        metadata["foil_label_correlation"] = corr
        metadata["foil_redraws"] = attempt
        foil_indices = (foil,)

    # named after the draws, which refuse a column count no array can hold
    names = tuple(f"f{i}" for i in range(nf))
    dataset_id = f"synthetic:{spec.generator_kind}:nu={nu}:N={nf}:seed={spec.seed}"
    return Dataset(features=X, feature_names=names, labels=labels,
                   protected_index=0 if spec.generator_kind != "gaussian-blobs" else None,
                   foil_indices=foil_indices, dataset_id=dataset_id,
                   raw_features=X.copy(), metadata=metadata)


# ---------------------------------------------------------------------------
# Offline benchmark stand-ins for the fairwashing experiment. Each mirrors the
# column roles of the lending / criminal-justice benchmark it is named after:
# one protected feature that drives the biased decision rule and two appended
# unrelated columns that serve as foils.

def _proxy_german_credit(rng: np.random.Generator, nu: int):
    cols = {
        "checking_status": rng.integers(0, 4, nu),
        "duration_months": rng.integers(4, 73, nu),
        "credit_history": rng.integers(0, 5, nu),
        "purpose": rng.integers(0, 10, nu),
        "credit_amount": np.round(np.exp(rng.normal(7.8, 0.9, nu))),
        "savings_status": rng.integers(0, 5, nu),
        "employment_years": rng.integers(0, 5, nu),
        "installment_rate": rng.integers(1, 5, nu),
        "gender": (rng.random(nu) < 0.69).astype(float),
        "other_parties": rng.integers(0, 3, nu),
        "residence_since": rng.integers(1, 5, nu),
        "property_magnitude": rng.integers(0, 4, nu),
        "age_years": rng.integers(19, 76, nu),
        "other_payment_plans": rng.integers(0, 3, nu),
        "housing": rng.integers(0, 3, nu),
        "existing_credits": rng.integers(1, 5, nu),
        "job": rng.integers(0, 4, nu),
        "num_dependents": rng.integers(1, 3, nu),
        "own_telephone": rng.integers(0, 2, nu),
        "foreign_worker": (rng.random(nu) < 0.96).astype(float),
    }
    return cols, "gender"


def _proxy_compas(rng: np.random.Generator, nu: int):
    cols = {
        "age": rng.integers(18, 71, nu),
        "priors_count": rng.geometric(0.35, nu) - 1,
        "length_of_stay": np.round(np.exp(rng.normal(2.2, 1.0, nu))),
        "charge_degree": rng.integers(0, 2, nu),
        "sex": (rng.random(nu) < 0.81).astype(float),
        "age_category": rng.integers(0, 3, nu),
        "juvenile_felonies": np.minimum(rng.geometric(0.7, nu) - 1, 4),
        "juvenile_misdemeanors": np.minimum(rng.geometric(0.7, nu) - 1, 4),
        "two_year_recid": rng.integers(0, 2, nu),
        "race_is_white": (rng.random(nu) < 0.45).astype(float),
    }
    return cols, "race_is_white"


def _proxy_communities_and_crime(rng: np.random.Generator, nu: int):
    names = ["race_pct_white", "median_income", "pct_poverty", "pct_unemployed",
             "pct_young_adults", "pop_density", "pct_vacant_housing",
             "pct_owner_occupied", "prior_violent_rate", "pct_high_school",
             "pct_college", "avg_household_size", "pct_urban",
             "police_per_capita", "pct_single_parent"]
    # community statistics are percentages recorded at fixed precision
    cols = {name: np.round(rng.standard_normal(nu), 2) for name in names}
    return cols, "race_pct_white"


_PROXY_BUILDERS = {
    "german_credit": _proxy_german_credit,
    "compas": _proxy_compas,
    "communities_and_crime": _proxy_communities_and_crime,
}

BENCHMARK_PROXIES = tuple(_PROXY_BUILDERS)


def benchmark_proxy(name: str, seed: int = 0, nu: int = 800) -> Dataset:
    """Synthetic stand-in for one of the three fairness benchmarks.

    Deterministic per seed. The protected column drives the favorable label
    (gender for lending, race for criminal justice) and two unrelated columns
    are appended as foil candidates, mirroring the adversarial setup the
    detection experiment expects.
    """
    if name not in _PROXY_BUILDERS:
        raise ValueError(f"unknown benchmark proxy {name!r}")
    rng = np.random.default_rng(seed)
    cols, protected = _PROXY_BUILDERS[name](rng, nu)
    if name == "communities_and_crime":
        cols["unrelated_one"] = np.round(rng.standard_normal(nu), 2)
        cols["unrelated_two"] = np.round(rng.standard_normal(nu), 2)
    else:
        cols["unrelated_one"] = (rng.random(nu) < 0.5).astype(float)
        cols["unrelated_two"] = (rng.random(nu) < 0.5).astype(float)

    names = list(cols)
    raw = np.column_stack([np.asarray(cols[c], dtype=float) for c in names])
    protected_raw = raw[:, names.index(protected)]
    # favorable outcome exactly when the standardized protected value is positive,
    # matching the biased threshold rule the attack wraps
    labels = (protected_raw > protected_raw.mean()).astype(int)
    return _standardized_dataset(
        raw, names, labels,
        protected_name=protected, foil_names=("unrelated_one", "unrelated_two"),
        dataset_id=name, metadata={"proxy_seed": seed, "synthetic_proxy": True})
