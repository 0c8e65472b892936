"""The batch-first predictor protocol: every predictor's scalar methods are
one-row calls of its batch methods, and package code queries models only
through ``predict_proba_batch`` and ``gradient_batch``."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axebench import models
from axebench.axe import AxeConfig
from axebench.core import Dataset, ExplanationSet, Predictor, perturbed_copies
from axebench.experiments import (AttackConfig, build_attack_bundle, principle_matrix,
                                  run_fairwash_detection)
from axebench.explainers import ExplainerConfig, explain_dataset
from axebench.metrics_sensitivity import PerturbConfig, pgi, pgu, sensitivity_quality_report
from axebench.models import (LinearModelSpec, MlpPredictor, OffManifoldFlipPredictor,
                             RuleModelSpec, ScaffoldSpec, build_scaffold,
                             make_linear_predictor, make_rule_predictor)

N = 6


def _anchors() -> np.ndarray:
    """Rows on a half-unit grid, so exact zeros are common, with duplicates."""
    rows = np.random.default_rng(0).integers(-3, 4, (150, N)) / 2.0
    return np.vstack([rows, rows[:30]])


ANCHORS = _anchors()


def _mlp(hidden, activation, seed) -> MlpPredictor:
    rng = np.random.default_rng(seed)
    sizes = (N, *hidden, 1)
    weights = [rng.normal(0, 1.0, (sizes[i], sizes[i + 1])) for i in range(len(sizes) - 1)]
    biases = [rng.normal(0, 0.5, sizes[i + 1]) for i in range(len(sizes) - 1)]
    return MlpPredictor(weights, biases, activation, f"mlp{hidden}-{activation}")


class _BatchOnly(Predictor):
    """A subclass implementing only the batch protocol: its scalar methods are
    the ones ``Predictor`` defines."""

    def __init__(self, base: Predictor):
        self.base = base

    def predict_proba_batch(self, X) -> np.ndarray:
        return self.base.predict_proba_batch(X)

    def gradient_batch(self, X) -> np.ndarray:
        return self.base.gradient_batch(X)


def _predictors() -> dict[str, Predictor]:
    mlp = _mlp((5,), "tanh", 1)
    scaffold = build_scaffold(
        Dataset(features=ANCHORS, feature_names=tuple(f"f{j}" for j in range(N))),
        ScaffoldSpec(biased=RuleModelSpec(0), foils=(RuleModelSpec(3), RuleModelSpec(5)),
                     sigma_ood=1.0, seed=2, detector_trees=4, detector_depth=6))
    return {
        "linear": make_linear_predictor(LinearModelSpec((0.7, -0.3, 0.2, 0.0, -1.1, 0.05), 0.1)),
        "mlp-1-tanh": mlp,
        "mlp-1-sigmoid": _mlp((5,), "sigmoid", 2),
        "mlp-2-tanh": _mlp((5, 4), "tanh", 3),
        "mlp-2-sigmoid": _mlp((5, 4), "sigmoid", 4),
        "rule": make_rule_predictor(RuleModelSpec(1, 0.0, False)),
        "scaffold": scaffold,
        "offmanifold-flip": OffManifoldFlipPredictor(mlp, ANCHORS),
        "batch-only": _BatchOnly(mlp),
    }


PREDICTORS = _predictors()


@st.composite
def query_rows(draw) -> np.ndarray:
    """Rounded rows, anchor rows (duplicates included), and anchor rows whose
    zeros carry either sign."""
    source = draw(st.sampled_from(["rounded", "anchor", "signed-zero"]))
    if source == "rounded":
        return np.array(draw(st.lists(st.integers(-30, 30), min_size=N, max_size=N))) / 10.0
    x = ANCHORS[draw(st.integers(0, len(ANCHORS) - 1))].copy()
    if source == "signed-zero":
        signs = draw(st.lists(st.booleans(), min_size=N, max_size=N))
        x[x == 0.0] = np.where(np.array(signs)[x == 0.0], -0.0, 0.0)
    return x


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("kind", list(PREDICTORS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(x=query_rows())
def test_scalar_methods_are_one_row_batches(kind, x):
    m = PREDICTORS[kind]
    assert _bits(m.predict_proba(x)) == _bits(m.predict_proba_batch(x[None])[0])
    assert m.predict(x) == m.predict_batch(x[None])[0]
    g, g_batch = m.gradient(x), m.gradient_batch(x[None])
    if g is None or g_batch is None:
        assert g is None and g_batch is None
    else:
        assert g.shape == (N,) and _bits(g) == _bits(g_batch[0])


@pytest.mark.parametrize("kind", list(PREDICTORS))
def test_scalar_methods_are_the_base_methods(kind):
    # one body per scalar query: a class may bind Predictor's, never restate it
    cls = type(PREDICTORS[kind])
    assert cls.predict_proba is Predictor.predict_proba
    assert cls.gradient is Predictor.gradient


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("kind", list(PREDICTORS))
def test_copies_are_the_batch_of_the_materialised_copies(kind, width):
    m = PREDICTORS[kind]
    rng = np.random.default_rng(width)
    X = ANCHORS[rng.integers(0, len(ANCHORS), 40)]
    sets = np.sort(np.argsort(rng.random((len(X), N)), axis=1)[:, :width], axis=1)
    draws = rng.normal(0.0, 0.5, (len(X), 15, width))
    draws[::3] = -np.take_along_axis(X, sets, axis=1)[::3, None, :]  # copies on exact zeros
    expected = m.predict_proba_batch(perturbed_copies(X, sets, draws)).reshape(len(X), 15)
    assert _bits(m.predict_proba_copies(X, sets, draws)) == _bits(expected)


def test_flip_membership_is_exact_row_bytes():
    twin = PREDICTORS["offmanifold-flip"]
    base = twin.base.predict_proba_batch(ANCHORS)
    assert np.array_equal(twin.predict_proba_batch(ANCHORS), base)
    signed = ANCHORS.copy()
    signed[signed == 0.0] = -0.0
    moved = np.flatnonzero((ANCHORS == 0.0).any(axis=1))
    assert moved.size
    flipped = twin.predict_proba_batch(signed)
    # a -0.0 where the anchor holds 0.0 is a different row, so the twin flips it
    assert np.array_equal(flipped[moved], 1.0 - twin.base.predict_proba_batch(signed)[moved])
    kept = np.setdiff1d(np.arange(len(ANCHORS)), moved)
    assert np.array_equal(flipped[kept], base[kept])


def test_scalar_input_must_be_one_row():
    with pytest.raises(ValueError, match="one feature vector"):
        PREDICTORS["linear"].predict_proba(ANCHORS[:2])


@pytest.fixture
def no_scalar_queries(monkeypatch):
    """Every package predictor's scalar methods raise when called."""
    def refuse(self, x):
        raise AssertionError(f"scalar query on {type(self).__name__}")

    classes = [Predictor] + [c for c in vars(models).values()
                             if isinstance(c, type) and issubclass(c, Predictor)]
    for cls in classes:
        for name in ("predict_proba", "gradient", "predict"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, refuse)


def _small_attack_dataset(nu=120) -> Dataset:
    rng = np.random.default_rng(5)
    raw = np.column_stack([rng.integers(0, 3, nu), rng.integers(0, 5, nu),
                           (rng.random(nu) < 0.6).astype(float),
                           rng.integers(0, 2, nu), rng.integers(0, 2, nu),
                           rng.integers(0, 4, nu)]).astype(float)
    features = (raw - raw.mean(0)) / raw.std(0)
    return Dataset(features=features, feature_names=("c0", "c1", "prot", "fa", "fb", "c5"),
                   labels=(features[:, 2] > 0).astype(int), protected_index=2,
                   foil_indices=(3, 4), dataset_id="guard-attack")


def test_package_code_makes_no_scalar_query(no_scalar_queries):
    d = Dataset(features=ANCHORS[:40], feature_names=tuple(f"f{j}" for j in range(N)))
    mlp, linear = PREDICTORS["mlp-2-tanh"], PREDICTORS["linear"]
    for kind in ExplainerConfig.KINDS:
        expls = explain_dataset(mlp, d, ExplainerConfig(kind=kind, samples=80, seed=1,
                                                        background_size=10, ig_steps=8))
        assert expls.importances.shape == (d.nu, N)
    expls = ExplanationSet(importances=np.tile(np.arange(1.0, N + 1), (d.nu, 1)))
    cfg = PerturbConfig(n=2, num_perturbations=10, seed=3)
    for m in (linear, mlp, PREDICTORS["scaffold"], PREDICTORS["offmanifold-flip"]):
        for metric in ("pgi", "pgu"):
            sensitivity_quality_report(metric, m, d, expls, cfg)
        pgi(m, d.features[0], expls.importances[0], cfg)
        pgu(m, d.features[0], expls.importances[0], cfg)
    bundle = build_attack_bundle(_small_attack_dataset(),
                                 AttackConfig("small-attack", 7, two_foils=True))
    verdicts = run_fairwash_detection(bundle, axe_cfgs=(AxeConfig(n=1, k=5),),
                                      perturb_cfg=PerturbConfig(n=1, num_perturbations=5))
    assert verdicts
    assert set(principle_matrix(["axe", "pgi", "fa"], seed=0)) == {"axe", "pgi", "fa"}
