"""Working-memory bounds of the two metric stages whose arrays could grow with
the data: a perturbation-gap report (rows x perturbations copies) and an AXE
neighbour search (query rows x candidate rows distances). Each bound is about
half the traced peak the whole-batch code took on the same call (25.6 MB and
13.3 MB), so a return to whole-batch arrays fails here."""
import math
import tracemalloc

import numpy as np
import pytest

from axebench import metrics_sensitivity
from axebench.axe import AxeConfig, axe_quality
from axebench.core import ExplanationSet
from axebench.data import SyntheticSpec, generate_synthetic
from axebench.metrics_sensitivity import PerturbConfig, sensitivity_quality_report
from axebench.models import MlpPredictor

MB = 1 << 20


@pytest.fixture(scope="module")
def evaluate_like():
    """3,000 x 8 correlated-foil rows, an MLP of hidden layer (8,) and its
    gradient explanations, as the evaluate benchmark scores them."""
    d = generate_synthetic(SyntheticSpec(nu=3000, n_features=8, seed=0,
                                         generator_kind="correlated-foil"))
    rng = np.random.default_rng(0)
    weights = [rng.normal(0, 1 / math.sqrt(8), (8, 8)), rng.normal(0, 1 / math.sqrt(8), (8, 1))]
    m = MlpPredictor(weights, [rng.normal(0, 0.1, 8), [0.0]], "tanh", "mlp(8)")
    return d, m, ExplanationSet(m.gradient_batch(d.features))


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pgi_report_peak(evaluate_like):
    d, m, expls = evaluate_like
    metrics_sensitivity._row_draws.cache_clear()  # the draws count: 4.8 MB of them
    peak = traced_peak(lambda: sensitivity_quality_report(
        "pgi", m, d, expls, PerturbConfig(n=2, num_perturbations=100, seed=0)))
    assert peak < 12.5 * MB, f"{peak / MB:.2f} MB"


def test_axe_quality_peak(evaluate_like):
    d, m, expls = evaluate_like
    y = m.predict_batch(d.features)
    peak = traced_peak(lambda: axe_quality(d, y, expls, AxeConfig(n=2, k=5)))
    assert peak < 6.5 * MB, f"{peak / MB:.2f} MB"
