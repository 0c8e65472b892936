import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from axebench.core import Dataset
from axebench.data import (BENCHMARK_PROXIES, DatasetSchema, SyntheticSpec,
                           benchmark_proxy, generate_synthetic, load_csv, save_csv)

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "axebench" / "schemas"


def tiny_schema(**overrides):
    base = dict(name="tiny", column_names=["a", "b", "y"], target_column="y")
    base.update(overrides)
    return DatasetSchema(**base)


class TestLoadCsv:
    def test_three_row_csv(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
        d = load_csv(path, tiny_schema())
        assert (d.nu, d.n_features) == (3, 2)
        assert d.labels.tolist() == [0, 1, 0]
        assert d.feature_names == ("a", "b")
        # loaded columns are z-scored with the stats stored for the way back
        assert np.allclose(d.features.mean(axis=0), 0.0, atol=1e-12)
        means, stds = d.standardization
        assert np.allclose(d.raw_features, d.features * stds + means)

    def test_constant_column_dropped_with_warning(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("a,b,y\n7,2,0\n7,4,1\n7,6,0\n")
        d = load_csv(path, tiny_schema())
        assert d.feature_names == ("b",)
        assert d.metadata["dropped_constant_columns"] == ["a"]
        assert any("constant" in w for w in d.metadata["warnings"])

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,c,y\n1,2,0\n")
        with pytest.raises(ValueError, match="schema mismatch"):
            load_csv(path, tiny_schema())

    def test_parse_error_names_row_and_col(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,0\n1,oops,1\n")
        with pytest.raises(ValueError, match="parse error at row 2, col b"):
            load_csv(path, tiny_schema())

    def test_categorical_encoding_and_unmapped_value(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("a,b,y\nred,2,0\nblue,4,1\nred,6,0\n")
        schema = tiny_schema(categorical_columns={"a": {"red": 0, "blue": 1}})
        d = load_csv(path, schema)
        means, stds = d.standardization
        assert (d.raw_features[:, 0]).tolist() == [0.0, 1.0, 0.0]

        path.write_text("a,b,y\nred,2,0\ngreen,4,1\n")
        with pytest.raises(ValueError, match="parse error at row 2, col a"):
            load_csv(path, schema)

    def test_protected_and_foils_resolved(self, tmp_path):
        path = tmp_path / "roles.csv"
        path.write_text("a,b,c,y\n1,0,5,0\n2,1,6,1\n3,0,7,0\n")
        schema = DatasetSchema(name="roles", column_names=["a", "b", "c", "y"],
                               target_column="y", protected_column="b",
                               foil_columns=["c"])
        d = load_csv(path, schema)
        assert d.protected_index == 1
        assert d.foil_indices == (2,)

    def test_roundtrip_is_bit_exact(self, tmp_path):
        path = tmp_path / "round.csv"
        path.write_text("a,b,y\n0.1,2.25,0\n-3.7,4.5,1\n5.125,6.875,0\n")
        d = load_csv(path, tiny_schema())
        out = tmp_path / "saved.csv"
        save_csv(d, out)
        schema = DatasetSchema(name="round2", column_names=["a", "b", "label"],
                               target_column="label")
        reloaded = load_csv(out, schema)
        assert np.array_equal(reloaded.raw_features, d.raw_features)
        assert np.array_equal(reloaded.labels, d.labels)

    def test_feature_named_like_the_label_column_is_not_saved(self, tmp_path):
        # its header would read label,b,label, and a reload would drop the feature
        d = Dataset(features=[[1.0, 2.0], [3.0, 5.0]], feature_names=("label", "b"), labels=[0, 1])
        with pytest.raises(ValueError, match="feature column named 'label'"):
            save_csv(d, tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()
        save_csv(Dataset(features=d.features, feature_names=d.feature_names), tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_text().splitlines()[0] == "label,b"

    @pytest.mark.parametrize("roles, message", [
        ({"protected_column": "b", "drop_columns": ["b"]}, "protected column 'b' is dropped"),
        ({"protected_column": "a", "foil_columns": ["c"], "drop_columns": ["c"]},
         "foil column 'c' is dropped"),
        ({"protected_column": "y"}, "protected column 'y' is the target"),
        ({"protected_column": "a", "foil_columns": ["b", "y"]}, "foil column 'y' is the target"),
    ], ids=["protected-dropped", "foil-dropped", "protected-is-target", "foil-is-target"])
    def test_dropped_protected_column_rejected(self, tmp_path, roles, message):
        # the schema itself is refused, before any CSV is read, and so is its file
        fields = dict(name="d", column_names=["a", "b", "c", "y"], target_column="y", **roles)
        with pytest.raises(ValueError, match=f"schema mismatch: {message}"):
            DatasetSchema(**fields)
        (tmp_path / "s.json").write_text(json.dumps(fields))
        with pytest.raises(ValueError, match=f"schema mismatch: {message}"):
            DatasetSchema.from_json(tmp_path / "s.json")

    @pytest.mark.skipif(not Path("/root/pkg/datasets/german_credit.csv").exists(),
                        reason="published lending CSV not available offline")
    def test_german_credit_row_count(self):
        schema = DatasetSchema.from_json(SCHEMA_DIR / "german_credit.json")
        d = load_csv("/root/pkg/datasets/german_credit.csv", schema)
        assert d.nu == 1000
        assert d.protected_index is not None


class TestShippedSchemas:
    @pytest.mark.parametrize("name", BENCHMARK_PROXIES)
    def test_schema_files_parse(self, name):
        schema = DatasetSchema.from_json(SCHEMA_DIR / f"{name}.json")
        assert schema.protected_column in schema.column_names
        assert len(schema.foil_columns) == 2

    def test_schema_field_validation(self):
        with pytest.raises(ValueError, match="target"):
            DatasetSchema(name="x", column_names=["a"], target_column="y")
        with pytest.raises(ValueError, match="protected"):
            DatasetSchema(name="x", column_names=["a", "y"], target_column="y",
                          protected_column="ghost")
        with pytest.raises(ValueError, match="missing"):
            DatasetSchema(name="x", column_names=["a", "y"], target_column="y",
                          foil_columns=["ghost"])

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ValueError, match="schema mismatch: column 'label' appears twice"):
            DatasetSchema(name="x", column_names=["label", "b", "label"], target_column="label")

    def test_schema_json_roundtrip(self, tmp_path):
        schema = DatasetSchema.from_json(SCHEMA_DIR / "compas.json")
        schema.to_json(tmp_path / "s.json")
        back = DatasetSchema.from_json(tmp_path / "s.json")
        assert back == schema


class TestSynthetic:
    def test_threshold_rule_labels_by_construction(self):
        d = generate_synthetic(SyntheticSpec(nu=100, n_features=3, seed=1,
                                             generator_kind="threshold-rule"))
        assert np.array_equal(d.labels, (d.features[:, 0] > 0).astype(int))

    def test_determinism(self):
        spec = SyntheticSpec(nu=50, n_features=4, seed=2, generator_kind="gaussian-blobs")
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_correlated_foil_is_label_uncorrelated(self):
        d = generate_synthetic(SyntheticSpec(nu=200, n_features=4, seed=3,
                                             generator_kind="correlated-foil"))
        foil = d.foil_indices[0]
        corr = abs(np.corrcoef(d.features[:, foil], d.labels)[0, 1])
        assert corr < 0.15
        assert d.metadata["foil_label_correlation"] == pytest.approx(corr)

    @pytest.mark.parametrize("nu", [2, 3, 4, 5, 6, 7])
    def test_correlated_foil_small_nu_raises_value_error_naming_the_spec(self, nu):
        for seed in range(20):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    d = generate_synthetic(SyntheticSpec(nu=nu, n_features=3, seed=seed,
                                                         generator_kind="correlated-foil"))
                except ValueError as exc:
                    assert f"nu={nu}, seed={seed}" in str(exc)
                    continue
            assert d.labels.min() != d.labels.max()
            assert d.metadata["foil_label_correlation"] < 0.15

    def test_correlated_foil_bytes_kept_where_a_constant_foil_was_redrawn(self):
        # specs whose redraw loop met a constant foil column and still succeeded;
        # the digest and redraw counts were recorded before the constant check
        specs = [(4, 1, 3), (4, 7, 5), (4, 10, 8), (4, 12, 6), (6, 0, 11), (6, 10, 10),
                 (6, 11, 11), (6, 12, 12), (7, 2, 1), (7, 9, 5), (7, 10, 7), (7, 14, 7)]
        h = hashlib.sha256()
        for nu, seed, redraws in specs:
            d = generate_synthetic(SyntheticSpec(nu=nu, n_features=3, seed=seed,
                                                 generator_kind="correlated-foil"))
            assert d.metadata["foil_redraws"] == redraws
            h.update(d.features.tobytes())
            h.update(d.labels.astype(np.int64).tobytes())
        assert h.hexdigest() == ("ce1ce5606a54b7eafbb4ef1ce2fac242"
                                 "7515fc5cd3e12e8583a41d7f5f92cb07")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown generator_kind"):
            SyntheticSpec(nu=10, n_features=2, seed=0, generator_kind="mystery")

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            SyntheticSpec(nu=1, n_features=2, seed=0)


class TestBenchmarkProxies:
    @pytest.mark.parametrize("name", BENCHMARK_PROXIES)
    def test_roles_and_labels(self, name):
        d = benchmark_proxy(name, seed=0, nu=300)
        assert d.dataset_id == name
        assert d.protected_index is not None
        assert len(d.foil_indices) == 2
        # favorable label tracks the standardized protected column's sign
        assert np.array_equal(d.labels, (d.features[:, d.protected_index] > 0).astype(int))

    def test_determinism(self):
        a = benchmark_proxy("compas", seed=3, nu=200)
        b = benchmark_proxy("compas", seed=3, nu=200)
        assert np.array_equal(a.features, b.features)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown benchmark proxy"):
            benchmark_proxy("lending_club")
