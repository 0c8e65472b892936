import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from axebench.core import ExplanationSet
from axebench.metrics_reference import (REFERENCE_METRICS, GroundTruthPair,
                                        feature_agreement,
                                        pairwise_rank_agreement, rank_agreement,
                                        rank_correlation,
                                        reference_quality_report, sign_agreement,
                                        signed_rank_agreement)

from conftest import assert_matches_oracle
from oracles import (fa_oracle, pra_oracle, ra_oracle, rc_oracle, sa_oracle,
                     sra_oracle)


def pair(e, e_star, n):
    return GroundTruthPair(e=np.asarray(e, float), e_star=np.asarray(e_star, float), n=n)


class TestFeatureAgreement:
    def test_n_zero_is_zero(self):
        assert feature_agreement(pair([0.9, -0.4], [0.1, 0.2], 0)) == 0.0

    def test_full_n_two_features_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            e, s = rng.normal(size=2), rng.normal(size=2)
            assert feature_agreement(pair(e, s, 2)) == 1.0

    def test_single_pair_n1_is_zero_or_one(self):
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(50):
            q = feature_agreement(pair(rng.normal(size=2), rng.normal(size=2), 1))
            seen.add(q)
        assert seen <= {0.0, 1.0}

    def test_aggregate_mean_can_hit_half(self):
        expls = ExplanationSet([[0.9, 0.1], [0.1, 0.9]])
        report = reference_quality_report("fa", expls, [0.7, 0.3], n=1)
        assert report.aggregate_q == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pair([1.0, 2.0], [1.0], 1)


class TestRankAgreement:
    def test_same_order_full_agreement(self):
        assert rank_agreement(pair([0.6, 0.2], [0.7, 0.3], 2)) == 1.0

    def test_swapped_order_zero(self):
        assert rank_agreement(pair([0.2, 0.6], [0.7, 0.3], 2)) == 0.0

    def test_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            e = rng.normal(size=4)
            for n in range(5):
                assert rank_agreement(pair(e, e, n)) == (0.0 if n == 0 else 1.0)


class TestSignAgreement:
    def test_both_positive(self):
        assert sign_agreement(pair([0.6, 0.2], [0.7, 0.3], 2)) == 1.0

    def test_one_sign_flip_gives_half(self):
        assert sign_agreement(pair([-0.6, 0.2], [0.7, 0.3], 2)) == 0.5

    def test_identity(self):
        assert sign_agreement(pair([0.5, -0.1, 0.2], [0.5, -0.1, 0.2], 3)) == 1.0


class TestSignedRankAgreement:
    def test_rank_and_sign_match(self):
        assert signed_rank_agreement(pair([0.6, 0.2], [0.7, 0.3], 2)) == 1.0

    def test_rank_match_sign_flip_zero(self):
        assert signed_rank_agreement(pair([-0.6, -0.2], [0.7, 0.3], 2)) == 0.0

    def test_identity(self):
        assert signed_rank_agreement(pair([0.9, 0.1], [0.9, 0.1], 2)) == 1.0


class TestRankCorrelation:
    def test_identical_rankings(self):
        assert rank_correlation(pair([0.5, 0.3, 0.1], [0.9, 0.5, 0.2], 3)) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert rank_correlation(pair([0.1, 0.3, 0.5], [0.9, 0.5, 0.2], 3)) == pytest.approx(-1.0)

    def test_constant_magnitudes_undefined(self):
        assert rank_correlation(pair([0.4, -0.4, 0.4], [0.9, 0.5, 0.2], 3)) is None
        assert rank_correlation(pair([0.9, 0.5, 0.2], [1.0, 1.0, 1.0], 3)) is None

    def test_undefined_marks_report(self):
        expls = ExplanationSet([[1.0, 1.0, 1.0], [0.5, 0.2, 0.1]])
        report = reference_quality_report("rc", expls, [0.9, 0.5, 0.2], n=3)
        assert report.undefined_count == 1
        assert np.isnan(report.per_point_q[0])
        assert report.aggregate_q == pytest.approx(1.0)


class TestPairwiseRankAgreement:
    def test_identity(self):
        assert pairwise_rank_agreement(pair([0.5, -0.3, 0.1], [0.5, -0.3, 0.1], 2)) == 1.0

    def test_three_feature_swap(self):
        # rank patterns (1,2,3) vs (2,1,3): only the (0,1) pair disagrees
        assert pairwise_rank_agreement(pair([0.9, 0.5, 0.1], [0.5, 0.9, 0.1], 2)) \
            == pytest.approx(2 / 3)

    def test_needs_two_features(self):
        with pytest.raises(ValueError, match="two features"):
            pairwise_rank_agreement(pair([1.0], [1.0], 1))

    def test_two_feature_identities(self):
        # without ties: FA at n=1, RA at n=2 and the single pair all agree
        rng = np.random.default_rng(3)
        for _ in range(60):
            e, s = rng.normal(size=2), rng.normal(size=2)
            if abs(e[0]) == abs(e[1]) or abs(s[0]) == abs(s[1]):
                continue
            fa1 = feature_agreement(pair(e, s, 1))
            ra2 = rank_agreement(pair(e, s, 2))
            pra = pairwise_rank_agreement(pair(e, s, 2))
            assert fa1 == ra2 == pra


class TestOrderingAndInvariance:
    def test_sra_below_ra_sa_below_fa(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            nf = int(rng.integers(2, 6))
            e, s = rng.normal(size=nf), rng.normal(size=nf)
            n = int(rng.integers(0, nf + 1))
            fa = feature_agreement(pair(e, s, n))
            ra = rank_agreement(pair(e, s, n))
            sa = sign_agreement(pair(e, s, n))
            sra = signed_rank_agreement(pair(e, s, n))
            assert sra <= min(ra, sa) <= max(ra, sa) <= fa

    def test_invariance_under_independent_positive_scaling(self):
        rng = np.random.default_rng(5)
        metrics = (feature_agreement, rank_agreement, sign_agreement,
                   signed_rank_agreement, pairwise_rank_agreement)
        for _ in range(50):
            e, s = rng.normal(size=4), rng.normal(size=4)
            c1, c2 = rng.uniform(0.01, 50, size=2)
            for fn in metrics:
                assert fn(pair(e, s, 2)) == fn(pair(c1 * e, c2 * s, 2))
            rc_a = rank_correlation(pair(e, s, 2))
            rc_b = rank_correlation(pair(c1 * e, c2 * s, 2))
            assert rc_a == pytest.approx(rc_b)

    def test_region_equivalence_for_dominant_positive_explanations(self):
        """Explanations with i1 > i2 > 0 all score identically, and swapping the
        reference for another vector with the same ordering changes nothing."""
        rng = np.random.default_rng(6)
        metrics = (feature_agreement, rank_agreement, sign_agreement,
                   signed_rank_agreement, pairwise_rank_agreement)
        reference = np.array([0.7, 0.3])
        alternate = np.array([0.5, 0.3])
        baseline = [fn(pair([0.6, 0.2], reference, 2)) for fn in metrics]
        for _ in range(40):
            i2 = rng.uniform(0.01, 0.98)
            i1 = rng.uniform(i2 + 0.01, 1.0)
            for fn, expected in zip(metrics, baseline):
                assert fn(pair([i1, i2], reference, 2)) == expected
                assert fn(pair([i1, i2], alternate, 2)) == expected


class TestRanges:
    def test_agreement_scores_stay_in_unit_interval(self):
        rng = np.random.default_rng(8)
        metrics = (feature_agreement, rank_agreement, sign_agreement,
                   signed_rank_agreement, pairwise_rank_agreement)
        for _ in range(200):
            nf = int(rng.integers(2, 7))
            e, s = rng.normal(size=nf), rng.normal(size=nf)
            n = int(rng.integers(0, nf + 1))
            for fn in metrics:
                assert 0.0 <= fn(pair(e, s, n)) <= 1.0
            rc = rank_correlation(pair(e, s, n))
            assert rc is None or -1.0 - 1e-12 <= rc <= 1.0 + 1e-12


    @pytest.mark.parametrize("n, message", [(-1, "n must be non-negative"),
                                            (4, "n exceeds feature count")])
    def test_n_out_of_range_names_its_bound(self, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pair([0.5, 0.2, 0.1], [0.4, 0.3, 0.2], n)


class TestAgainstOracle:
    def test_random_instances_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            nf = int(rng.integers(2, 5))
            # occasional rounding creates ties on purpose
            e = np.round(rng.normal(size=nf), rng.integers(0, 2))
            s = np.round(rng.normal(size=nf), rng.integers(0, 2))
            n = int(rng.integers(0, nf + 1))
            p = pair(e, s, n)
            assert feature_agreement(p) == fa_oracle(e, s, n)
            assert rank_agreement(p) == ra_oracle(e, s, n)
            assert sign_agreement(p) == sa_oracle(e, s, n)
            assert signed_rank_agreement(p) == sra_oracle(e, s, n)
            assert pairwise_rank_agreement(p) == pra_oracle(e, s)
            mine, ref = rank_correlation(p), rc_oracle(e, s)
            if ref is None:
                assert mine is None
            else:
                assert mine == pytest.approx(ref, abs=1e-12)


def bits(q) -> bytes:
    return np.float64(np.nan if q is None else q).tobytes()


def _force_ties(draw, m: np.ndarray) -> None:
    """Copy entries onto others along the last axis, sometimes sign-flipped."""
    rows = m.reshape(-1, m.shape[-1])
    width = rows.shape[1]
    for r, src, dst, flip in draw(st.lists(
            st.tuples(st.integers(0, len(rows) - 1), st.integers(0, width - 1),
                      st.integers(0, width - 1), st.booleans()), max_size=2 * len(rows))):
        rows[r, dst] = -rows[r, src] if flip else rows[r, src]


@st.composite
def tied_matrices(draw):
    """(rows, N <= 6) explanations and a reference, in tenths, with forced ties."""
    width = draw(st.integers(2, 6))
    tenths = st.integers(-10, 10).map(lambda v: v / 10)
    e = draw(arrays(float, (draw(st.integers(1, 8)), width), elements=tenths))
    e_star = draw(arrays(float, width, elements=tenths))
    _force_ties(draw, e)
    _force_ties(draw, e_star)
    return e, e_star, draw(st.integers(0, width))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tied_matrices())
def test_matrix_rows_equal_single_pairs_and_oracles(instance):
    e, e_star, n = instance
    for metric, fn in REFERENCE_METRICS.items():
        q = fn(GroundTruthPair(e=e, e_star=e_star, n=n))
        assert isinstance(q, np.ndarray) and q.shape == (len(e),)
        for row, q_row in zip(e, q):
            single = fn(GroundTruthPair(e=row, e_star=e_star, n=n))
            assert single is None or type(single) is float
            assert bits(single) == bits(q_row)
            assert_matches_oracle(metric, q_row, row, e_star, n)


class TestReport:
    def test_rows_equal_single_pairs(self):
        rng = np.random.default_rng(9)
        e_star = np.round(rng.normal(size=4), 1)
        rows = np.round(rng.normal(size=(31, 4)), 1)
        rows[30] = [0.3, -0.3, 0.3, 0.3]  # undefined rank correlation
        for metric, fn in REFERENCE_METRICS.items():
            report = reference_quality_report(metric, ExplanationSet(rows), e_star, n=2)
            singles = [fn(pair(x, e_star, 2)) for x in rows]
            assert [bits(q) for q in report.per_point_q] == [bits(q) for q in singles]

    def test_empty_list_rejected(self):
        # a report needs at least one row, and the set type cannot hold none
        with pytest.raises(ValueError, match="non-empty"):
            reference_quality_report("fa", ExplanationSet(np.empty((0, 2))), [0.7, 0.3], n=1)

    def test_unequal_widths_rejected(self):
        # a matrix has one width, so rows of two widths never reach the report
        with pytest.raises(ValueError):
            ExplanationSet([[0.9, 0.1], [0.9, 0.1, 0.2]])

    def test_width_other_than_reference_rejected(self):
        expls = ExplanationSet([[0.9, 0.1, 0.2], [0.9, 0.1, 0.2]])
        with pytest.raises(ValueError, match="length mismatch"):
            reference_quality_report("fa", expls, [0.7, 0.3], n=1)
