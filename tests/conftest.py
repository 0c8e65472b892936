import numpy as np
import pytest

from axebench.core import Predictor
from axebench.data import SyntheticSpec, generate_synthetic

from oracles import fa_oracle, pra_oracle, ra_oracle, rc_oracle, sa_oracle, sra_oracle


class AffineProbaPredictor(Predictor):
    """Test model whose probability is exactly affine inside [0, 1].

    Keeps the surrogate and path-integral checks free of link-function
    curvature; callers are responsible for probing it in the linear zone.
    """

    def __init__(self, slopes, intercept=0.5):
        self.slopes = np.asarray(slopes, dtype=float)
        self.intercept = float(intercept)
        self.descriptor = "affine-proba"

    def predict_proba(self, x):
        return float(np.clip(self.intercept + self.slopes @ np.asarray(x, dtype=float), 0.0, 1.0))

    def predict_proba_batch(self, X):
        return np.clip(self.intercept + np.asarray(X, dtype=float) @ self.slopes, 0.0, 1.0)

    def gradient(self, x):
        return self.slopes.copy()

    def gradient_batch(self, X):
        return np.tile(self.slopes, (np.asarray(X).shape[0], 1))


class ConstantPredictor(Predictor):
    def __init__(self, proba=0.5):
        self.proba = float(proba)
        self.descriptor = f"constant({proba})"

    def predict_proba(self, x):
        return self.proba

    def predict_proba_batch(self, X):
        return np.full(np.asarray(X).shape[0], self.proba)

    def gradient(self, x):
        return np.zeros(np.asarray(x).shape[0])

    def gradient_batch(self, X):
        return np.zeros(np.asarray(X).shape)


class AdditiveProbaPredictor(Predictor):
    """proba = clip(intercept + sum_i g_i(x_i)) with per-feature callables."""

    def __init__(self, parts, intercept=0.5):
        self.parts = list(parts)
        self.intercept = float(intercept)
        self.descriptor = "additive-proba"

    def predict_proba(self, x):
        x = np.asarray(x, dtype=float)
        total = self.intercept + sum(g(x[i]) for i, g in enumerate(self.parts))
        return float(np.clip(total, 0.0, 1.0))

    def predict_proba_batch(self, X):
        X = np.asarray(X, dtype=float)
        total = self.intercept + sum(g(X[:, i]) for i, g in enumerate(self.parts))
        return np.clip(total, 0.0, 1.0)


@pytest.fixture(scope="session")
def threshold_data():
    return generate_synthetic(SyntheticSpec(nu=500, n_features=5, seed=11,
                                            generator_kind="threshold-rule"))


@pytest.fixture(scope="session")
def small_threshold_data():
    return generate_synthetic(SyntheticSpec(nu=80, n_features=4, seed=3,
                                            generator_kind="threshold-rule"))


REFERENCE_ORACLES = {
    "fa": fa_oracle, "ra": ra_oracle, "sa": sa_oracle, "sra": sra_oracle,
    "rc": lambda e, s, n: rc_oracle(e, s), "pra": lambda e, s, n: pra_oracle(e, s),
}


def assert_matches_oracle(metric, q, e, e_star, n):
    """Exact agreement with the oracle; rank correlation to 1e-12, NaN for its None."""
    ref = REFERENCE_ORACLES[metric](e, e_star, n)
    if ref is None:
        assert np.isnan(q)
    elif metric == "rc":
        assert q == pytest.approx(ref, abs=1e-12)
    else:
        assert q == ref
