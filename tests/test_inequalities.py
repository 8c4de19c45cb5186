"""Tests for the oriented-gap inequality checkers."""

import math

import numpy as np
import pytest

from spdfinsler import (
    CHECKERS,
    CheckerRangeError,
    HermitianMatrix,
    SampleConfig,
    SpdMatrix,
    UnprovenRangeError,
    check_clarkson_mccarthy,
    check_conde_2uc,
    check_distance_lower_bound,
    check_hanner_matrix,
    check_log_majorization_lemma,
    check_p_convexity_high,
    check_p_convexity_low,
    check_sphere_2uc,
    check_sphere_high,
    check_sphere_low,
    check_two_uniform_convexity_norm,
    delta_p,
    gamma_commute,
    geometric_mean,
    identity,
    project_to_unit_sphere,
    run_campaign,
    schatten_norm,
)
from spdfinsler.inequalities import _satisfied

import oracles
from conftest import make_rng, random_hermitian, random_invertible, random_spd


def lp(v, p):
    return float((np.abs(np.asarray(v, dtype=float)) ** p).sum() ** (1.0 / p))


def scalar_conde_gap(a, b, c, p):
    m = (a + b) / 2.0
    return (0.5 * lp(a - c, p) ** 2 + 0.5 * lp(b - c, p) ** 2
            - (p - 1.0) / 4.0 * lp(a - b, p) ** 2 - lp(m - c, p) ** 2)


def scalar_high_gap(a, b, c, p):
    m = (a + b) / 2.0
    return (0.5 * (lp(a - c, p) ** p + lp(b - c, p) ** p)
            - 2.0 ** (-p) * lp(a - b, p) ** p - lp(m - c, p) ** p)


def scalar_low_gap(a, b, c, p):
    m = (a + b) / 2.0
    return (lp(a - c, p) ** p + lp(b - c, p) ** p
            - 0.5 * lp(a - b, p) ** p - 2.0 ** (p - 1.0) * lp(m - c, p) ** p)


def diag_triple(a, b, c):
    return (SpdMatrix(np.diag(np.exp(a))), SpdMatrix(np.diag(np.exp(b))),
            SpdMatrix(np.diag(np.exp(c))))


def gamma_triple(rng, dim):
    x = random_invertible(rng, dim)
    return tuple(
        SpdMatrix(x @ np.diag(np.exp(rng.standard_normal(dim))) @ x.conj().T)
        for _ in range(3)
    )


class TestClarksonMcCarthy:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_disjoint_supports_tight_lower(self, p):
        x = HermitianMatrix(np.diag([1.0, 0.0]))
        y = HermitianMatrix(np.diag([0.0, 1.0]))
        lower, upper = check_clarkson_mccarthy(x, y, p)
        assert abs(lower.gap) <= 1e-10
        assert upper.satisfied

    @pytest.mark.parametrize("p", [1.25, 3.0])
    def test_zero_second_operand(self, p):
        x = random_hermitian(make_rng(1), 3)
        y = HermitianMatrix(np.zeros((3, 3)))
        lower, upper = check_clarkson_mccarthy(x, y, p)
        assert abs(lower.gap) <= 1e-10 * max(1.0, abs(lower.lhs))
        norm_p = float((np.abs(np.linalg.eigvalsh(x.array)) ** p).sum())
        expected_upper = abs(2.0 ** (p - 1.0) - 2.0) * norm_p
        assert upper.gap == pytest.approx(expected_upper, rel=1e-10)

    def test_random_pair_both_satisfied(self):
        rng = make_rng(2)
        for _ in range(20):
            x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
            lower, upper = check_clarkson_mccarthy(x, y, 3.0)
            assert lower.satisfied and upper.satisfied
            assert lower.gap >= -1e-12 and upper.gap >= -1e-12

    def test_orientation_branch_names(self):
        x, y = np.eye(2), np.zeros((2, 2))
        lower, _ = check_clarkson_mccarthy(x, y, 3.0)
        assert lower.name.endswith("p_ge_2")
        lower, _ = check_clarkson_mccarthy(x, y, 1.5)
        assert lower.name.endswith("p_le_2")

    def test_symmetric_under_negation(self):
        rng = make_rng(3)
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
        for p in (1.5, 3.0):
            first = check_clarkson_mccarthy(x, y, p)
            second = check_clarkson_mccarthy(x, -1.0 * y, p)
            for a, b in zip(first, second):
                assert a.gap == pytest.approx(b.gap, rel=1e-9, abs=1e-12)

    def test_rejects_p_below_one(self):
        with pytest.raises(CheckerRangeError):
            check_clarkson_mccarthy(np.eye(2), np.eye(2), 0.5)


class TestTwoUniformConvexity:
    def test_parallelogram_identity_at_p2(self):
        rng = make_rng(4)
        x, y = random_hermitian(rng, 4), random_hermitian(rng, 4)
        report = check_two_uniform_convexity_norm(x, y, 2.0)
        assert abs(report.gap) <= 1e-10 * max(1.0, report.lhs)

    def test_zero_second_operand(self):
        x = random_hermitian(make_rng(5), 3)
        report = check_two_uniform_convexity_norm(x, HermitianMatrix(np.zeros((3, 3))), 1.5)
        assert abs(report.gap) <= 1e-10 * max(1.0, report.lhs)

    def test_commuting_diagonals_match_scalar_oracle(self):
        rng = make_rng(6)
        xv, yv = rng.standard_normal(4), rng.standard_normal(4)
        x, y = HermitianMatrix(np.diag(xv)), HermitianMatrix(np.diag(yv))
        p = 1.5
        report = check_two_uniform_convexity_norm(x, y, p)
        oracle = (0.5 * (lp(xv + yv, p) ** 2 + lp(xv - yv, p) ** 2)
                  - lp(xv, p) ** 2 - (p - 1.0) * lp(yv, p) ** 2)
        assert report.gap == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_range_gate(self, p):
        with pytest.raises(CheckerRangeError):
            check_two_uniform_convexity_norm(np.eye(2), np.eye(2), p)

    def test_random_pairs_satisfied(self):
        rng = make_rng(7)
        for _ in range(20):
            x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
            assert check_two_uniform_convexity_norm(x, y, 1.3).satisfied

    @pytest.mark.parametrize("dim", [2, 3, 5, 16])
    def test_norms_are_schatten_norms_bit_for_bit(self, dim):
        # One singular-value path: a Hermitian operand, its array and the
        # checker's batched spectra give one norm.
        rng = make_rng(dim + 40)
        for _ in range(5):
            x, y = random_hermitian(rng, dim).array, random_hermitian(rng, dim).array
            norm = check_two_uniform_convexity_norm(x, y, 1.5).diagnostics["norm_plus"]
            assert schatten_norm(HermitianMatrix(x + y), 1.5) == schatten_norm(x + y, 1.5) == norm


class TestDistanceLowerBound:
    def test_commuting_pair_equality(self):
        a = SpdMatrix(np.diag([1.0, 4.0, 2.0]))
        b = SpdMatrix(np.diag([3.0, 0.5, 5.0]))
        report = check_distance_lower_bound(a, b, 2.0)
        assert abs(report.gap) <= 1e-9 * (1.0 + report.lhs)
        assert report.diagnostics["commutator_defect"] <= 1e-12

    def test_equal_arguments(self):
        a = random_spd(make_rng(8), 3)
        assert abs(check_distance_lower_bound(a, a, 2.0).gap) <= 1e-10

    def test_witness_gap_matches_frozen_oracle(self, witness_pair):
        a, b = witness_pair
        for p, (_, _, gap_ref) in oracles.FROZEN_WITNESS.items():
            report = check_distance_lower_bound(a, b, p)
            assert report.gap == pytest.approx(gap_ref, rel=1e-8)
            assert report.gap > 0.0
            assert report.diagnostics["commutator_defect"] == pytest.approx(3 * np.sqrt(2))


class TestConde2uc:
    def test_midpoint_third_argument(self):
        rng = make_rng(9)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        c = geometric_mean(a, b)
        p = 1.5
        report = check_conde_2uc(a, b, c, p)
        d_ab = delta_p(a, b, p)
        assert report.gap == pytest.approx((2.0 - p) / 4.0 * d_ab**2, rel=1e-6)
        assert report.satisfied

    def test_gamma_commuting_parallelogram_at_p2(self):
        rng = make_rng(10)
        for _ in range(10):
            a, b, c = gamma_triple(rng, 3)
            assert gamma_commute(a, b, c).holds
            assert abs(check_conde_2uc(a, b, c, 2.0).gap) <= 1e-8

    def test_random_noncommuting_strictly_positive(self):
        rng = make_rng(11)
        for _ in range(20):
            a, b, c = (random_spd(rng, 3) for _ in range(3))
            report = check_conde_2uc(a, b, c, 1.5)
            assert report.gap > 0.0
            assert {"gamma_defect_product", "gamma_defect_bracket"} <= set(report.diagnostics)

    def test_commuting_diagonals_match_scalar_oracle(self):
        rng = make_rng(12)
        av, bv, cv = (rng.standard_normal(4) for _ in range(3))
        a, b, c = diag_triple(av, bv, cv)
        for p in (1.1, 1.5, 2.0):
            got = check_conde_2uc(a, b, c, p).gap
            want = scalar_conde_gap(av, bv, cv, p)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.2])
    def test_range_gate(self, p):
        a = identity(2)
        with pytest.raises(CheckerRangeError):
            check_conde_2uc(a, a, a, p)


class TestSphereForms:
    def test_sphere_2uc_same_point(self):
        a = project_to_unit_sphere(random_spd(make_rng(13), 3), 1.5)
        report = check_sphere_2uc(a, a, 1.5)
        assert abs(report.gap) <= 1e-9

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
    def test_sphere_2uc_antipodal_closed_form(self, p):
        s = 2.0 ** (-1.0 / p)
        a = SpdMatrix(np.diag([np.exp(s), np.exp(-s)]))
        b = SpdMatrix(np.diag([np.exp(-s), np.exp(s)]))
        report = check_sphere_2uc(a, b, p)
        assert report.gap == pytest.approx(1.0 - (p - 1.0) / 2.0, abs=1e-10)

    def test_sphere_2uc_random_projected(self):
        rng = make_rng(14)
        for _ in range(10):
            a = project_to_unit_sphere(random_spd(rng, 3), 1.5)
            b = project_to_unit_sphere(random_spd(rng, 3), 1.5)
            report = check_sphere_2uc(a, b, 1.5)
            assert report.satisfied and report.gap > 0.0

    def test_sphere_gate_rejects_off_sphere(self):
        a = SpdMatrix(np.diag([np.exp(2.0), np.exp(-2.0)]))
        with pytest.raises(ValueError, match="sphere"):
            check_sphere_2uc(a, a, 1.5)
        for p, check in ((1.5, check_sphere_2uc), (3.0, check_sphere_high),
                         (1.5, check_sphere_low)):
            on = project_to_unit_sphere(a, p)
            with pytest.raises(ValueError, match="^A is off the exponential unit sphere"):
                check(a, on, p)
            with pytest.raises(ValueError, match="^B is off the exponential unit sphere"):
                check(on, a, p)

    def test_sphere_high_and_low_random(self):
        rng = make_rng(15)
        for _ in range(10):
            for p, check in ((3.0, check_sphere_high), (1.5, check_sphere_low)):
                a = project_to_unit_sphere(random_spd(rng, 3), p)
                b = project_to_unit_sphere(random_spd(rng, 3), p)
                assert check(a, b, p).satisfied

    def test_sphere_high_and_low_same_point(self):
        # A # A = A stays on the sphere, so the d(A,B) terms vanish
        rng = make_rng(32)
        a3 = project_to_unit_sphere(random_spd(rng, 3), 3.0)
        high = check_sphere_high(a3, a3, 3.0)
        assert high.rhs <= 1e-30
        assert abs(high.gap) <= 1e-12
        a15 = project_to_unit_sphere(random_spd(rng, 3), 1.5)
        low = check_sphere_low(a15, a15, 1.5)
        assert low.rhs <= 1e-30
        assert low.gap == pytest.approx(1.0 - 2.0 ** (1.5 - 2.0), abs=1e-10)

    def test_sphere_range_gates(self):
        a = project_to_unit_sphere(random_spd(make_rng(16), 2), 2.0)
        with pytest.raises(CheckerRangeError):
            check_sphere_high(a, a, 1.5)
        with pytest.raises(CheckerRangeError):
            check_sphere_low(a, a, 3.0)


class TestPConvexityHigh:
    def test_equal_first_pair(self):
        rng = make_rng(17)
        a, c = random_spd(rng, 3), random_spd(rng, 3)
        assert abs(check_p_convexity_high(a, a, c, 3.0).gap) <= 1e-9

    def test_commuting_diagonals_match_scalar_oracle(self):
        rng = make_rng(18)
        av, bv, cv = (rng.standard_normal(4) for _ in range(3))
        a, b, c = diag_triple(av, bv, cv)
        for p in (2.0, 3.0, 4.0):
            got = check_p_convexity_high(a, b, c, p).gap
            assert got == pytest.approx(scalar_high_gap(av, bv, cv, p), rel=1e-9, abs=1e-12)

    def test_random_strictly_positive(self):
        rng = make_rng(19)
        for _ in range(20):
            a, b, c = (random_spd(rng, 3) for _ in range(3))
            report = check_p_convexity_high(a, b, c, 4.0)
            assert report.satisfied and report.gap > 0.0

    def test_range_gate(self):
        a = identity(2)
        with pytest.raises(CheckerRangeError):
            check_p_convexity_high(a, a, a, 1.5)


class TestPConvexityLow:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_equal_first_pair_closed_form(self, p):
        rng = make_rng(20)
        a, c = random_spd(rng, 3), random_spd(rng, 3)
        report = check_p_convexity_low(a, a, c, p)
        d = delta_p(a, c, p)
        assert report.gap == pytest.approx((2.0 - 2.0 ** (p - 1.0)) * d**p, rel=1e-8)
        assert report.gap >= -1e-12

    def test_commuting_diagonals_match_scalar_oracle(self):
        rng = make_rng(21)
        av, bv, cv = (rng.standard_normal(4) for _ in range(3))
        a, b, c = diag_triple(av, bv, cv)
        for p in (1.1, 1.5, 2.0):
            got = check_p_convexity_low(a, b, c, p).gap
            assert got == pytest.approx(scalar_low_gap(av, bv, cv, p), rel=1e-9, abs=1e-12)

    def test_gamma_commuting_parallelogram_at_p2(self):
        rng = make_rng(22)
        for _ in range(10):
            a, b, c = gamma_triple(rng, 3)
            assert abs(check_p_convexity_low(a, b, c, 2.0).gap) <= 1e-8

    def test_range_gate(self):
        a = identity(2)
        with pytest.raises(CheckerRangeError):
            check_p_convexity_low(a, a, a, 3.0)


class TestLogMajorizationLemma:
    def test_zero_second_argument(self):
        h = random_hermitian(make_rng(23), 3)
        verdict = check_log_majorization_lemma(h, HermitianMatrix(np.zeros((3, 3))))
        assert verdict.holds
        assert np.abs(verdict.slack).max() <= 1e-10

    def test_commuting_pair_tight_everywhere(self):
        rng = make_rng(24)
        d1, d2 = rng.standard_normal(4), rng.standard_normal(4)
        h, k = HermitianMatrix(np.diag(d1)), HermitianMatrix(np.diag(d2))
        verdict = check_log_majorization_lemma(h, k)
        assert verdict.holds
        assert np.abs(verdict.slack).max() <= 1e-10 * (1.0 + np.abs(d1 + d2).sum())

    def test_random_pairs_hold_with_vanishing_trace_difference(self):
        rng = make_rng(25)
        for _ in range(30):
            h, k = random_hermitian(rng, 4), random_hermitian(rng, 4)
            verdict = check_log_majorization_lemma(h, k)
            assert verdict.holds
            assert abs(verdict.slack[-1]) <= 1e-9 * (h.frobenius() + k.frobenius())

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            check_log_majorization_lemma(
                HermitianMatrix(np.eye(2)), HermitianMatrix(np.eye(3))
            )
        for pair_fn in (check_clarkson_mccarthy, check_distance_lower_bound):
            with pytest.raises(ValueError, match="dimension mismatch"):
                pair_fn(identity(2), identity(3), 1.5)


class TestHanner:
    def test_zero_second_operand(self):
        x = random_hermitian(make_rng(26), 3)
        report = check_hanner_matrix(x, HermitianMatrix(np.zeros((3, 3))), 1.25)
        assert abs(report.gap) <= 1e-10 * max(1.0, report.lhs)

    def test_equal_operands(self):
        x = random_hermitian(make_rng(27), 3)
        report = check_hanner_matrix(x, x, 4.0 / 3.0)
        assert abs(report.gap) <= 1e-9 * max(1.0, report.lhs)

    @pytest.mark.parametrize("p", [1.0, 1.25, 4.0 / 3.0, 1.5])
    def test_random_pairs_satisfied(self, p):
        rng = make_rng(28)
        for _ in range(15):
            x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
            assert check_hanner_matrix(x, y, p).satisfied

    @pytest.mark.parametrize("p", [0.9, 1.4, 2.0, 3.0])
    def test_unproven_range_rejected(self, p):
        with pytest.raises(UnprovenRangeError, match="unproven-range"):
            check_hanner_matrix(np.eye(2), np.eye(2), p)

    def test_unproven_range_is_checker_range_error(self):
        with pytest.raises(CheckerRangeError):
            check_hanner_matrix(np.eye(2), np.eye(2), 1.45)


class TestReportContract:
    def test_satisfied_matches_gap_rule(self):
        rng = make_rng(29)
        for _ in range(20):
            a, b, c = (random_spd(rng, 3) for _ in range(3))
            for report in (
                check_conde_2uc(a, b, c, 1.5),
                check_p_convexity_high(a, b, c, 3.0),
                check_distance_lower_bound(a, b, 2.0),
            ):
                threshold = -1e-9 * max(1.0, abs(report.lhs), abs(report.rhs))
                assert report.satisfied == (report.gap >= threshold)

    def test_swap_symmetry_of_triple_checkers(self):
        rng = make_rng(30)
        a, b, c = (random_spd(rng, 3) for _ in range(3))
        for check, p in ((check_conde_2uc, 1.5), (check_p_convexity_low, 1.5),
                         (check_p_convexity_high, 3.0)):
            g1, g2 = check(a, b, c, p).gap, check(b, a, c, p).gap
            assert g1 == pytest.approx(g2, rel=1e-8, abs=1e-10)

    def test_hanner_swap_symmetry(self):
        rng = make_rng(32)
        for _ in range(4):
            x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
            g1 = check_hanner_matrix(x, y, 1.25).gap
            g2 = check_hanner_matrix(y, x, 1.25).gap
            assert g1 == pytest.approx(g2, rel=1e-9, abs=1e-10)

    def test_distance_bound_swap_symmetry(self):
        rng = make_rng(31)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        g1 = check_distance_lower_bound(a, b, 2.0).gap
        g2 = check_distance_lower_bound(b, a, 2.0).gap
        assert g1 == pytest.approx(g2, rel=1e-8, abs=1e-10)


RANGE_PROBES = (0.5, 1.0, 1.0 + 1e-9, 4.0 / 3.0, 1.4, 1.5, 2.0, 3.0, np.inf, np.nan)
ABOVE_ONE_TO_TWO = {1.0 + 1e-9, 4.0 / 3.0, 1.4, 1.5, 2.0}
# Each gated checker's in-range probes, as the README states its range.
TABLE_RANGES = {
    "clarkson_mccarthy": {1.0, 1.0 + 1e-9, 4.0 / 3.0, 1.4, 1.5, 2.0, 3.0},
    "two_uniform_convexity": ABOVE_ONE_TO_TWO,
    "hanner": {1.0, 1.0 + 1e-9, 4.0 / 3.0, 1.5},
    "distance_lower_bound": {1.0 + 1e-9, 4.0 / 3.0, 1.4, 1.5, 2.0, 3.0},
    "conde_2uc": ABOVE_ONE_TO_TWO,
    "sphere_2uc": ABOVE_ONE_TO_TWO,
    "p_convexity_high": {2.0, 3.0},
    "sphere_high": {2.0, 3.0},
    "p_convexity_low": ABOVE_ONE_TO_TWO,
    "sphere_low": ABOVE_ONE_TO_TWO,
}


def _call_public(name, p):
    rng = make_rng(33)
    x, y = random_hermitian(rng, 2), random_hermitian(rng, 2)
    a, b, c = (random_spd(rng, 2) for _ in range(3))
    if name.startswith("sphere"):
        # out-of-range orders must fail at the gate, before the sphere check
        q = p if p in TABLE_RANGES[name] else 2.0
        a, b = project_to_unit_sphere(a, q), project_to_unit_sphere(b, q)
    calls = {
        "clarkson_mccarthy": lambda: check_clarkson_mccarthy(x, y, p),
        "two_uniform_convexity": lambda: check_two_uniform_convexity_norm(x, y, p),
        "hanner": lambda: check_hanner_matrix(x, y, p),
        "distance_lower_bound": lambda: check_distance_lower_bound(a, b, p),
        "conde_2uc": lambda: check_conde_2uc(a, b, c, p),
        "sphere_2uc": lambda: check_sphere_2uc(a, b, p),
        "p_convexity_high": lambda: check_p_convexity_high(a, b, c, p),
        "sphere_high": lambda: check_sphere_high(a, b, p),
        "p_convexity_low": lambda: check_p_convexity_low(a, b, c, p),
        "sphere_low": lambda: check_sphere_low(a, b, p),
    }
    return calls[name]()


class TestCheckerTable:
    def test_every_gated_checker_is_probed(self):
        gated = {name for name, checker in CHECKERS.items() if checker.p_range is not None}
        assert gated == set(TABLE_RANGES)
        assert CHECKERS["log_majorization"].orders(RANGE_PROBES) != []

    @pytest.mark.parametrize("name", sorted(TABLE_RANGES))
    def test_public_gate_and_campaign_agree_with_table(self, name):
        expected = TABLE_RANGES[name]
        assert {p for p in RANGE_PROBES if p in CHECKERS[name].p_range} == expected
        for p in RANGE_PROBES:
            if name == "distance_lower_bound":
                # the public checker accepts every Schatten order p >= 1
                if np.isnan(p) or p < 1.0:
                    with pytest.raises(ValueError):
                        _call_public(name, p)
                else:
                    _call_public(name, p)
            elif p in expected:
                _call_public(name, p)
            else:
                with pytest.raises(CheckerRangeError):
                    _call_public(name, p)
        records = run_campaign(SampleConfig(dim=2, seed=34), [name], RANGE_PROBES, 1)
        assert {r.p for r in records} == expected


# Fixed operands of the diagnostics pins.
PIN_X = np.array([[2.0, 0.5], [0.5, -1.0]])
PIN_Y = np.array([[0.3, -0.2], [-0.2, 1.5]])
PIN_A = SpdMatrix([[2.0, 0.5], [0.5, 1.0]])
PIN_B = SpdMatrix([[1.0, -0.3], [-0.3, 3.0]])
PIN_C = SpdMatrix([[1.5, 0.2], [0.2, 0.7]])


class TestDiagnostics:
    """Each public report's diagnostics: its keys in order, values frozen to
    1e-12, and equal bit for bit to the report's sides or to the public
    quantities they name."""

    @staticmethod
    def _pinned(report, expected):
        assert list(report.diagnostics) == list(expected)
        for key, value in expected.items():
            assert report.diagnostics[key] == pytest.approx(value, rel=1e-12), key
            assert type(report.diagnostics[key]) is float

    def test_clarkson_mccarthy(self):
        frozen = {1.5: (10.570310038866472, 6.161877189644343),
                  3.0: (36.86627533638824, 13.895402395547238)}
        for p, (combined, separate) in frozen.items():
            lower, upper = check_clarkson_mccarthy(PIN_X, PIN_Y, p)
            for report in (lower, upper):
                self._pinned(report, {"combined_power_sum": combined,
                                      "separate_power_sum": separate})
            combined = lower.diagnostics["combined_power_sum"]
            separate = lower.diagnostics["separate_power_sum"]
            assert (lower.lhs, lower.rhs, upper.lhs) == (2.0 * separate, combined, combined)
            assert upper.rhs == 2.0 ** (p - 1.0) * separate
            assert upper.diagnostics == lower.diagnostics

    def test_two_uniform_convexity_norm(self):
        report = check_two_uniform_convexity_norm(PIN_X, PIN_Y, 1.5)
        self._pinned(report, {"norm_x": 2.5726624034263814, "norm_y": 1.606103792953181,
                              "norm_plus": 2.4787898183037393,
                              "norm_minus": 3.542547249468374})
        d = report.diagnostics
        assert report.lhs == 0.5 * (d["norm_plus"]**2 + d["norm_minus"]**2)
        assert report.rhs == d["norm_x"]**2 + 0.5 * d["norm_y"]**2

    def test_conde_2uc(self):
        report = check_conde_2uc(PIN_A, PIN_B, PIN_C, 1.5)
        self._pinned(report, {"d_ac": 0.48091997201383163, "d_bc": 1.7093223212168416,
                              "d_ab": 1.7081121751822654, "d_mid": 0.9089977167898168,
                              "gamma_defect_product": 0.1046690201264452,
                              "gamma_defect_bracket": 0.13675656233237216})
        d = report.diagnostics
        assert (d["d_ac"], d["d_bc"], d["d_ab"]) == (
            delta_p(PIN_A, PIN_C, 1.5), delta_p(PIN_B, PIN_C, 1.5), delta_p(PIN_A, PIN_B, 1.5))
        assert d["d_mid"] == delta_p(geometric_mean(PIN_A, PIN_B), PIN_C, 1.5)
        gamma = gamma_commute(PIN_A, PIN_B, PIN_C)
        assert (d["gamma_defect_product"], d["gamma_defect_bracket"]) == (
            gamma.defect_product, gamma.defect_bracket)


def test_verdicts_follow_the_scalar_rule():
    # The vectorized verdict against gap >= -rtol * max(1, |lhs|, |rhs|)
    # on Python floats, NaN and infinite sides included.
    edges = [0.0, -0.0, 1.0, -1.0, 1e-9, -1e-9, 1.5e9, -2e300, math.inf, -math.inf, math.nan]
    lhs, rhs = zip(*[(l, r) for l in edges for r in edges])
    for gap in ([l - r for l, r in zip(lhs, rhs)], [-1e-9] * len(lhs), [-2e-9] * len(lhs)):
        for rtol in (1e-9, 0.0, 1e-3):
            expected = [g >= -rtol * max(1.0, abs(l), abs(r)) for l, r, g in zip(lhs, rhs, gap)]
            got = _satisfied(list(lhs), list(rhs), gap, rtol)
            assert got == expected
            assert all(type(verdict) is bool for verdict in got)
