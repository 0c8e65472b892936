import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from axebench import metrics_sensitivity
from axebench.core import _BLOCK_ROWS, ExplanationSet, perturbed_copies, row_seed
from axebench.data import SyntheticSpec, generate_synthetic
from axebench.explainers import make_manual_explanations
from axebench.metrics_sensitivity import (PerturbConfig, pgi, pgu,
                                          sensitivity_quality_report)
from axebench.models import (LinearModelSpec, MlpPredictor, RuleModelSpec, ScaffoldSpec,
                             build_scaffold, make_linear_predictor, make_rule_predictor,
                             train_logistic)

from conftest import AdditiveProbaPredictor, ConstantPredictor
from oracles import pgi_oracle, pgu_oracle


class TestPgi:
    def test_constant_model_zero(self):
        cfg = PerturbConfig(n=1, num_perturbations=20, seed=0)
        assert pgi(ConstantPredictor(0.7), np.zeros(3), [0.9, 0.1, 0.0], cfg) == 0.0

    def test_zero_coefficient_feature_zero_gap(self):
        # the perturbed feature has no influence on the linear score
        m = make_linear_predictor(LinearModelSpec((0.0, 1.5)))
        e = [0.9, 0.1]  # top-1 is the dead feature
        cfg = PerturbConfig(n=1, num_perturbations=50, seed=1)
        assert pgi(m, np.array([0.2, -0.4]), e, cfg) == 0.0

    def test_rule_feature_in_top_set_raises_gap(self):
        m = make_rule_predictor(RuleModelSpec(0, 0.0, True))
        x = np.array([0.1, 2.0, -1.0])
        cfg = PerturbConfig(n=1, num_perturbations=200, sigma=0.5, seed=2)
        with_rule = pgi(m, x, [1.0, 0.0, 0.0], cfg)
        without_rule = pgi(m, x, [0.0, 1.0, 0.0], cfg)
        assert with_rule > without_rule

    def test_scale_invariance_of_importances(self):
        m = make_linear_predictor(LinearModelSpec((0.5, -0.4, 0.1)))
        x = np.array([0.3, 0.1, -0.2])
        cfg = PerturbConfig(n=2, num_perturbations=30, seed=3)
        e = np.array([0.5, -0.2, 0.1])
        assert pgi(m, x, e, cfg) == pgi(m, x, 7.3 * e, cfg)


class TestPgu:
    def test_constant_model_zero(self):
        cfg = PerturbConfig(n=1, num_perturbations=20, seed=4)
        assert pgu(ConstantPredictor(0.2), np.zeros(3), [0.9, 0.1, 0.0], cfg) == 0.0

    def test_unused_features_give_zero_gap(self):
        m = make_rule_predictor(RuleModelSpec(0, 0.0, True))
        e = [1.0, 0.0, 0.0]  # marks the only used feature as important
        cfg = PerturbConfig(n=2, num_perturbations=50, seed=5)
        assert pgu(m, np.array([0.4, 0.0, 0.0]), e, cfg) == 0.0

    def test_negation_flag(self):
        m = make_linear_predictor(LinearModelSpec((0.8, 0.2)))
        x = np.array([0.1, 0.2])
        e = [0.1, 0.9]
        raw = pgu(m, x, e, PerturbConfig(n=1, seed=6, negate_pgu=False))
        neg = pgu(m, x, e, PerturbConfig(n=1, seed=6, negate_pgu=True))
        assert raw > 0
        assert neg == -raw

    def test_zero_gap_negates_to_positive_zero(self):
        # the bottom feature is unused by the rule, so the gap is exactly zero
        m = make_rule_predictor(RuleModelSpec(0, 0.0, True))
        q = pgu(m, np.array([0.4, 0.0, 0.0]), [1.0, 0.5, 0.0], PerturbConfig(n=1, seed=5))
        assert q == 0.0 and math.copysign(1.0, q) == 1.0

    def test_full_width_equals_pgi_exactly(self):
        m = make_linear_predictor(LinearModelSpec((0.8, -0.3, 0.1)))
        x = np.array([0.1, 0.2, -0.5])
        e = [0.5, -0.2, 0.05]
        cfg = PerturbConfig(n=3, num_perturbations=40, seed=7, negate_pgu=False)
        assert pgi(m, x, e, cfg) == pgu(m, x, e, cfg)


@pytest.fixture(scope="module")
def setup():
    d = generate_synthetic(SyntheticSpec(nu=40, n_features=3, seed=8))
    m = make_rule_predictor(RuleModelSpec(0, 0.0, True))
    return d, m


class TestReport:

    def test_report_matches_per_point_calls(self, setup):
        d, m = setup
        expls = make_manual_explanations(d, 0)
        cfg = PerturbConfig(n=1, num_perturbations=25, seed=9)
        report = sensitivity_quality_report("pgi", m, d, expls, cfg)
        for i in (0, 7, 39):
            direct = pgi(m, d.features[i], expls.importances[i],
                         cfg.with_seed(row_seed(cfg.seed, i)))
            assert report.per_point_q[i] == direct
        assert report.aggregate_q == pytest.approx(report.per_point_q.mean())

    def test_zero_gaps_stay_positive_zero(self, setup):
        d, m = setup
        cfg = PerturbConfig(n=1, num_perturbations=10, seed=11)
        # every row's bottom feature is one the rule on feature 0 never reads
        report = sensitivity_quality_report("pgu", m, d, make_manual_explanations(d, 0), cfg)
        assert np.all(report.per_point_q == 0.0)
        assert not np.signbit(report.per_point_q).any()
        assert not np.signbit(report.aggregate_q)

    def test_with_seed_changes_only_the_seed(self):
        cfg = PerturbConfig(n=2, num_perturbations=7, sigma=0.3, seed=1, negate_pgu=False)
        assert cfg.with_seed(9) == PerturbConfig(n=2, num_perturbations=7, sigma=0.3,
                                                 seed=9, negate_pgu=False)

    def test_length_mismatch(self, setup):
        d, m = setup
        with pytest.raises(ValueError, match="length mismatch"):
            sensitivity_quality_report("pgi", m, d, ExplanationSet(np.ones((d.nu - 1, 3))),
                                       PerturbConfig(n=1))

    def test_explanation_width_must_match_feature_count(self, setup):
        d, m = setup
        for width in (d.n_features - 1, d.n_features + 2):
            # the wider vector ranks its last, nonexistent feature first
            expls = ExplanationSet(np.tile(np.arange(1.0, width + 1), (d.nu, 1)))
            with pytest.raises(ValueError, match="length mismatch"):
                sensitivity_quality_report("pgi", m, d, expls, PerturbConfig(n=1))

    def test_schedule_independent_row_seeds(self, setup):
        d, m = setup
        expls = make_manual_explanations(d, 1)
        cfg = PerturbConfig(n=1, num_perturbations=15, seed=10)
        a = sensitivity_quality_report("pgu", m, d, expls, cfg)
        b = sensitivity_quality_report("pgu", m, d, expls, cfg)
        assert np.array_equal(a.per_point_q, b.per_point_q)


    @pytest.mark.parametrize("metric", ["pgi", "pgu"])
    def test_vectorised_rows_match_single_point_calls(self, metric):
        rng = np.random.default_rng(12)
        d = generate_synthetic(SyntheticSpec(nu=30, n_features=4, seed=13))
        # element-wise arithmetic only, so batch and single-point calls agree bit for bit
        m = AdditiveProbaPredictor([lambda v: 0.09 * v, lambda v: -0.06 * v,
                                    lambda v: 0.03 * v * v, lambda v: 0.015 * v])
        # rounding makes many rows tie on |importance|; the first rows tie on every feature
        importances = np.round(rng.normal(size=(d.nu, d.n_features)), 1)
        importances[:3] = [[0.5, -0.5, 0.5, -0.5], [0.0] * 4, [0.2, 0.2, -0.7, 0.2]]
        expls = ExplanationSet(importances)
        single = pgi if metric == "pgi" else pgu

        def check(cfg):
            report = sensitivity_quality_report(metric, m, d, expls, cfg)
            direct = [single(m, d.features[i], importances[i],
                             cfg.with_seed(row_seed(cfg.seed, i))) for i in range(d.nu)]
            assert report.per_point_q.tolist() == direct
            return report.per_point_q

        for n in (0, 1, 2, d.n_features):
            base = PerturbConfig(n=n, num_perturbations=17, sigma=0.5, seed=14)
            first = check(base)
            # same everything but sigma, then but the draw count: fresh noise each time
            wider = check(PerturbConfig(n=n, num_perturbations=17, sigma=1.5, seed=14))
            more = check(PerturbConfig(n=n, num_perturbations=23, sigma=0.5, seed=14))
            if n:
                assert not np.array_equal(first, wider)
                assert not np.array_equal(first, more)
        check(PerturbConfig(n=2, num_perturbations=17, sigma=0.5, seed=14, negate_pgu=False))

    def test_report_is_independent_of_earlier_calls(self, setup):
        d, m = setup
        expls = make_manual_explanations(d, 0)
        cfg = PerturbConfig(n=1, num_perturbations=25, seed=15)
        before = sensitivity_quality_report("pgi", m, d, expls, cfg).per_point_q
        for sigma in (0.25, 0.75, 1.0, 2.0, 3.0):  # more keys than the draw cache holds
            sensitivity_quality_report("pgi", m, d, expls, PerturbConfig(
                n=1, num_perturbations=25, seed=15, sigma=sigma))
        assert np.array_equal(sensitivity_quality_report("pgi", m, d, expls, cfg).per_point_q,
                              before)
    def test_threads_sharing_the_draw_cache(self, setup):
        d, m = setup
        expls = make_manual_explanations(d, 0)
        cfgs = [PerturbConfig(n=1, num_perturbations=20 + i % 3, sigma=0.25 + i % 5, seed=16)
                for i in range(40)]  # 15 keys churn a cache of four
        serial = [sensitivity_quality_report("pgi", m, d, expls, c).per_point_q for c in cfgs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(sensitivity_quality_report, "pgi", m, d, expls, c)
                           for c in cfgs]
                threaded = [f.result(timeout=60).per_point_q for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


class TestAgainstOracle:
    def test_matches_brute_force_with_shared_draws(self):
        rng = np.random.default_rng(11)
        m = make_linear_predictor(LinearModelSpec((0.9, -0.5, 0.3, 0.1)))
        for trial in range(60):
            x = rng.normal(size=4)
            e = np.round(rng.normal(size=4), 1)
            n = int(rng.integers(1, 5))
            cfg = PerturbConfig(n=n, num_perturbations=12, sigma=0.5, seed=trial)
            assert pgi(m, x, e, cfg) == pytest.approx(
                pgi_oracle(m.predict_proba, x, e, n, 12, 0.5, trial), abs=1e-12)
            assert pgu(m, x, e, cfg) == pytest.approx(
                pgu_oracle(m.predict_proba, x, e, n, 12, 0.5, trial), abs=1e-12)


class TestScalarInputs:
    """The single-point metrics are one-row reports, so they check their inputs as one."""

    @pytest.mark.parametrize("metric", [pgi, pgu])
    @pytest.mark.parametrize("x, e", [
        ([0.2, -0.4, 1.0], [0.9, 0.1, 0.0, 0.5]),
        ([0.2, -0.4, 1.0], [0.9, 0.1]),
        ([0.2, -0.4, 1.0], [0.9, math.nan, 0.0]),
        ([0.2, math.nan, 1.0], [0.9, 0.1, 0.0]),
    ], ids=["wider-e", "narrower-e", "nan-importance", "nan-x"])
    def test_refuses_what_a_report_refuses(self, metric, x, e):
        m = make_linear_predictor(LinearModelSpec((0.9, -0.5, 0.3)))
        with pytest.raises(ValueError):
            metric(m, np.array(x), e, PerturbConfig(n=1, num_perturbations=5))


class TestHugeSigma:
    def test_infinite_draws_are_refused(self, setup):
        # a rule only compares, so infinite copies would score as finite ones
        d, m = setup
        cfg = PerturbConfig(n=1, num_perturbations=10, sigma=1e308)
        with pytest.raises(ValueError, match=r"^sigma is too large: 1e\+308 draws infinite"):
            sensitivity_quality_report("pgi", m, d, make_manual_explanations(d, 0), cfg)

    @pytest.mark.filterwarnings("error")
    def test_finite_copies_that_overflow_the_model_are_refused(self):
        # base rows stay in range; copies pushed past 3.6 overflow the product
        d = generate_synthetic(SyntheticSpec(nu=60, n_features=3, seed=0,
                                             generator_kind="threshold-rule"))
        m = make_linear_predictor(LinearModelSpec((5e307, 0.0, 0.0)))
        with pytest.raises(ValueError, match="^sigma is too large: the model overflows"):
            sensitivity_quality_report("pgi", m, d, make_manual_explanations(d, 0),
                                       PerturbConfig(n=1))


def whole_batch_gaps(m, X, sets, draws):
    """The reference: every copy in one model call, then each row's mean |gap|."""
    rows, count = draws.shape[:2]
    copies = m.predict_proba_batch(perturbed_copies(X, sets, draws)).reshape(rows, count)
    return np.abs(copies - m.predict_proba_batch(X)[:, None]).mean(axis=1)


def gap_model(kind: str, width: int):
    rng = np.random.default_rng(width)
    if kind == "linear":
        return make_linear_predictor(LinearModelSpec(tuple(rng.normal(size=width)), 0.3))
    if kind == "logistic":
        return train_logistic(generate_synthetic(SyntheticSpec(nu=200, n_features=width,
                                                               seed=width)))
    if kind.startswith("mlp"):
        hidden = int(kind[3:])
        return MlpPredictor([rng.normal(0, 1 / math.sqrt(width), (width, hidden)),
                             rng.normal(0, 1 / math.sqrt(hidden), (hidden, 1))],
                            [rng.normal(0, 0.1, hidden), [0.1]], "tanh", kind)
    d = generate_synthetic(SyntheticSpec(nu=200, n_features=width, seed=width))
    return build_scaffold(d, ScaffoldSpec(biased=RuleModelSpec(0), foils=(
        RuleModelSpec(1), RuleModelSpec(2)), seed=width, detector_trees=4, detector_depth=6))


def counted_chunks(m, monkeypatch) -> list[int]:
    """The rows of each ``m.predict_proba_copies`` call, appended as it is made."""
    calls, score = [], m.predict_proba_copies

    def counting(X, sets, draws):
        calls.append(len(X))
        return score(X, sets, draws)

    monkeypatch.setattr(m, "predict_proba_copies", counting)
    return calls


# (copies per row, rows, feature width, set width): every case scores at least three
# chunks of the smallest block-aligned size; 1 and 100 copies end on a one-row remainder
CHUNK_CASES = [(1, 3 * 2048 + 1, 40, 1), (7, 2 * 2048 + 2, 16, 2),
               (33, 2 * 2048 + 2, 3, 2), (100, 3 * 512 + 1, 8, 3)]


class TestChunkedGaps:
    """A report scores its copies in row chunks that start on the MLP's block
    boundaries; its gaps are the bits of one whole-batch call."""

    def test_chunks_fill_whole_blocks(self):
        for count in range(1, 300):
            rows = metrics_sensitivity._chunk_rows(count)
            assert rows * count % _BLOCK_ROWS == 0
            assert rows * count <= max(metrics_sensitivity._CHUNK_COPIES,
                                       _BLOCK_ROWS * count // math.gcd(count, _BLOCK_ROWS))
        assert [metrics_sensitivity._chunk_rows(c) for c in (1, 7, 33, 100, 4096)] == [
            65536, 8192, 2048, 512, 16]

    @staticmethod
    def chunked(m, count, rows, width, set_width, monkeypatch):
        rng = np.random.default_rng(count)
        X = rng.normal(size=(rows, width))
        sets = np.sort(np.argsort(rng.random((rows, width)), axis=1)[:, :set_width], axis=1)
        draws = rng.normal(0.0, 0.5, (rows, count, set_width))
        calls = counted_chunks(m, monkeypatch)
        with monkeypatch.context() as mp:
            mp.setattr(metrics_sensitivity, "_CHUNK_COPIES", 1)  # the smallest chunks
            got = metrics_sensitivity._gaps(m, X, sets, draws)
        assert len(calls) >= 3 and sum(calls) == rows
        assert calls[-1] != 1  # a one-row remainder joins the chunk before it
        return got, whole_batch_gaps(m, X, sets, draws)

    # a scaffold scores one free column by its leaf-cell override, more by the base protocol
    @pytest.mark.parametrize("kind", ["linear", "logistic", "mlp8", "mlp3", "mlp32", "scaffold"])
    @pytest.mark.parametrize("count, rows, width, set_width", CHUNK_CASES)
    def test_chunks_give_the_whole_batch_bits(self, kind, count, rows, width, set_width,
                                              monkeypatch):
        got, expected = self.chunked(gap_model(kind, width), count, rows, width, set_width,
                                     monkeypatch)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_overflow_in_a_later_chunk_is_refused(self, monkeypatch):
        # rows from 1,024 on, the third 512-row chunk at 100 copies, perturb the
        # feature whose coefficient overflows; the rows before perturb a dead one
        d = generate_synthetic(SyntheticSpec(nu=1100, n_features=3, seed=0))
        m = make_linear_predictor(LinearModelSpec((1e307, 0.0, 0.0)))
        marked = np.where(np.arange(d.nu)[:, None] < 1024, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        calls = counted_chunks(m, monkeypatch)
        with pytest.raises(ValueError, match="^sigma is too large: the model overflows"):
            sensitivity_quality_report("pgi", m, d, ExplanationSet(marked),
                                       PerturbConfig(n=1, sigma=10.0))
        assert calls == [512, 512, 76]


def test_config_validation():
    with pytest.raises(ValueError):
        PerturbConfig(n=1, num_perturbations=0)
    with pytest.raises(ValueError):
        PerturbConfig(n=1, sigma=0.0)
    for sigma in (-1.0, -float("inf")):
        with pytest.raises(ValueError, match="sigma must be positive"):
            PerturbConfig(n=1, sigma=sigma)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma must be finite"):
            PerturbConfig(n=1, sigma=sigma)
    with pytest.raises(ValueError):
        PerturbConfig(n=-1)
