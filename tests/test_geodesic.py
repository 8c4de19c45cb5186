"""Tests for geodesics, geometric means, delta_p, and Gamma-commuting."""

import math

import numpy as np
import pytest

from spdfinsler import (
    GeodesicCurve,
    SampleConfig,
    SpdMatrix,
    arc_length,
    conjugate,
    delta_p,
    delta_p_to_identity,
    gamma_commute,
    geodesic_speed,
    geometric_mean,
    identity,
    is_commuting,
    log_euclidean_dist,
    mat_log,
    mat_pow,
    on_unit_sphere,
    project_to_unit_sphere,
    sample_bundle,
    weighted_mean,
)

import oracles
from conftest import make_rng, random_invertible, random_spd, random_unitary

P_GRID = (1.1, 1.5, 2.0, 3.0, 4.0)


class TestWeightedMean:
    @pytest.mark.parametrize("dim", [2, 3, 5, 16])
    def test_curve_is_the_mean(self, dim):
        # One factorization serves both: GeodesicCurve.eval is weighted_mean
        # bit for bit, and on A = B both give A's exact bits.
        for index in range(3):
            s = sample_bundle(SampleConfig(dim=dim, seed=dim), index)
            curve, flat = GeodesicCurve(s.a, s.b), GeodesicCurve(s.a, s.a)
            for t in (-0.5, 0.0, 0.3, 0.5, 1.0, 1.5):
                assert np.array_equal(curve.eval(t).array, weighted_mean(s.a, s.b, t).array)
                assert np.array_equal(flat.eval(t).array, s.a.array)

    def test_same_endpoints(self, witness_pair):
        # A #_t A is A's exact bits, as delta_p(A, A) is exactly 0.
        for a in (witness_pair[0], random_spd(make_rng(1), 5)):
            assert np.array_equal(geometric_mean(a, a).array, a.array)
            for t in (-0.5, 0.0, 0.3, 1.0, 2.0):
                assert np.array_equal(weighted_mean(a, a, t).array, a.array)

    def test_constant_curve_has_exact_zero_log_and_velocity(self, witness_pair):
        # log_m and the velocity are exact zeros on A = A, as eval is A's
        # bits, not the sandwich's roundoff (4.4e-16 and 8.7e-16 on the witness).
        a = witness_pair[0]
        curve = GeodesicCurve(a, SpdMatrix(np.array(a.array)))
        assert not curve.log_m.array.any()
        for t in (-0.5, 0.0, 0.3, 1.0, 2.0):
            assert not curve.derivative(t).array.any()
            assert geodesic_speed(curve, t, 2.0) == 0.0
        assert arc_length(curve, 2.0, 8) == 0.0

    def test_commuting_reduction(self):
        a = SpdMatrix(np.diag([1.0, 4.0]))
        b = SpdMatrix(np.diag([9.0, 16.0]))
        assert np.allclose(weighted_mean(a, b, 0.5).array, np.diag([3.0, 8.0]))
        # commuting case is A^{1-t} B^t
        t = 0.3
        expected = np.diag([1.0**0.7 * 9.0**0.3, 4.0**0.7 * 16.0**0.3])
        assert np.allclose(weighted_mean(a, b, t).array, expected)

    def test_witness_midpoint_matches_high_precision_oracle(self, witness_pair):
        a, b = witness_pair
        mean = weighted_mean(a, b, 0.5).array.real
        frozen = np.array(oracles.FROZEN_WITNESS_MEAN)
        assert np.abs(mean - frozen).max() <= 1e-10 * np.abs(frozen).max()

    def test_endpoint_conditions(self):
        rng = make_rng(2)
        for _ in range(5):
            a, b = random_spd(rng, 4), random_spd(rng, 4)
            curve = GeodesicCurve(a, b)
            assert np.linalg.norm(curve.eval(0.0).array - a.array) <= 1e-9 * a.frobenius()
            assert np.linalg.norm(curve.eval(1.0).array - b.array) <= 1e-9 * b.frobenius()

    def test_spd_outside_unit_interval(self):
        rng = make_rng(3)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        curve = GeodesicCurve(a, b)
        for t in (-1.0, -0.2, 1.5, 3.0):
            assert isinstance(curve.eval(t), SpdMatrix)

    def test_swap_reverses_parameter(self):
        rng = make_rng(4)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        for t in (0.2, 0.5, 0.9):
            lhs = weighted_mean(a, b, t).array
            rhs = weighted_mean(b, a, 1.0 - t).array
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_one_eigh_per_mean(self, kernel_calls):
        rng = make_rng(8)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        a.eig(), b.eig()
        kernel_calls["eigh"] = 0
        weighted_mean(a, b, 0.3)
        assert kernel_calls["eigh"] == 1

    def test_derived_condition_not_gated(self):
        # diag(1, 1e-4) #_3 I = diag(1, 1e-12): kappa 1e12, above the SPD gate.
        mean = weighted_mean(identity(2), SpdMatrix(np.diag([1.0, 1e-4])), 3.0)
        lam = mean.eig().eigenvalues
        assert lam[0] / lam[-1] == pytest.approx(1e12, rel=1e-6)

    def test_positivity_kept(self):
        curve = GeodesicCurve(identity(2), SpdMatrix(np.diag([1.0, 1e-4])))
        with pytest.raises(ValueError, match="positiv"):
            curve.eval(200.0)
        with pytest.raises(ValueError, match="positive definite"):
            sample_bundle(SampleConfig(dim=2, spread=20.0), 0)

    def test_dim_mismatch(self):
        for pair_fn in (lambda a, b: weighted_mean(a, b, 0.5),
                        lambda a, b: delta_p(a, b, 2.0),
                        lambda a, b: log_euclidean_dist(a, b, 2.0)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                pair_fn(identity(2), identity(3))


class TestGeometricMean:
    def test_mean_with_inverse_is_identity(self):
        a = random_spd(make_rng(5), 3)
        mean = geometric_mean(a, mat_pow(a, -1.0))
        assert np.linalg.norm(mean.array - np.eye(3)) <= 1e-10

    def test_commuting_square_roots(self):
        mean = geometric_mean(SpdMatrix(np.diag([1.0, 4.0])), SpdMatrix(np.diag([9.0, 16.0])))
        assert np.allclose(mean.array, np.diag([3.0, 8.0]))

    def test_symmetry_both_orderings(self):
        rng = make_rng(6)
        for _ in range(10):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            ab, ba = geometric_mean(a, b).array, geometric_mean(b, a).array
            assert np.linalg.norm(ab - ba) <= 1e-9 * np.linalg.norm(ab)

    def test_inversion_equivariance(self):
        rng = make_rng(7)
        for _ in range(10):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            lhs = geometric_mean(mat_pow(a, -1.0), mat_pow(b, -1.0)).array
            rhs = mat_pow(geometric_mean(a, b), -1.0).array
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_ill_conditioned_sandwich_matches_oracle(self):
        # kappa(A^{-1/2} B A^{-1/2}) = 1.02e10 here, above the SPD gate that A
        # and B pass; the mean is still accurate.  The oracle is real-only, so
        # it runs on the real embedding [[Re, -Im], [Im, Re]] of each matrix.
        bundle = sample_bundle(SampleConfig(dim=16), 3)
        embed = lambda m: np.block([[m.real, -m.imag], [m.imag, m.real]]).tolist()
        ref = oracles.weighted_mean_ref(embed(bundle.a.array), embed(bundle.b.array), 0.5)
        ref = np.array(ref.tolist(), dtype=float)
        expected = ref[:16, :16] + 1j * ref[16:, :16]
        mean = geometric_mean(bundle.a, bundle.b).array
        assert np.abs(mean - expected).max() <= 1e-7 * np.abs(expected).max()

    def test_congruence_equivariance(self):
        # X (A # B) X^H = (X A X^H) # (X B X^H); conjugating by the inverse
        # square root of the midpoint therefore sends the midpoint to I and
        # the endpoints to a pair with opposite logarithms.
        rng = make_rng(27)
        for _ in range(10):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            x = random_invertible(rng, 3)
            lhs = geometric_mean(conjugate(x, a), conjugate(x, b)).array
            rhs = conjugate(x, geometric_mean(a, b)).array
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)
        mid = geometric_mean(a, b)
        s = mat_pow(mid, -0.5).array
        a_tilde = conjugate(s, a)
        b_tilde = conjugate(s, b)
        assert np.linalg.norm(geometric_mean(a_tilde, b_tilde).array - np.eye(3)) <= 1e-9
        log_sum = mat_log(a_tilde).array + mat_log(b_tilde).array
        assert np.linalg.norm(log_sum) <= 1e-9


class TestDeltaP:
    def test_zero_on_equal_arguments(self):
        a = random_spd(make_rng(8), 4)
        for p in P_GRID:
            assert delta_p(a, a, p) <= 1e-12

    @pytest.mark.parametrize("p", P_GRID)
    def test_exponential_diagonal(self, p):
        a = SpdMatrix(np.diag([np.exp(2.0), np.exp(-2.0)]))
        assert delta_p(a, identity(2), p) == pytest.approx(2.0 * 2.0 ** (1.0 / p))

    def test_witness_matches_high_precision_oracle(self, witness_pair):
        a, b = witness_pair
        for p, (d_ref, le_ref, _) in oracles.FROZEN_WITNESS.items():
            assert abs(delta_p(a, b, p) - d_ref) <= 1e-10 * d_ref
            assert abs(log_euclidean_dist(a, b, p) - le_ref) <= 1e-10 * le_ref

    def test_symmetry(self):
        rng = make_rng(9)
        for _ in range(10):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            for p in P_GRID:
                d = delta_p(a, b, p)
                assert abs(d - delta_p(b, a, p)) <= 1e-9 * (1.0 + d)

    def test_conjugation_invariance(self):
        rng = make_rng(10)
        for _ in range(10):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            x = random_invertible(rng, 3)
            for p in P_GRID:
                base = delta_p(a, b, p)
                moved = delta_p(conjugate(x, a), conjugate(x, b), p)
                assert abs(moved - base) <= 1e-8 * (1.0 + base)

    def test_rejects_p_below_one(self):
        a = random_spd(make_rng(11), 2)
        with pytest.raises(ValueError, match="p >= 1"):
            delta_p(a, a, 0.9)

    def test_infinity_order(self):
        a = SpdMatrix(np.diag([np.e, 1.0]))
        assert delta_p(a, identity(2), math.inf) == pytest.approx(1.0)


class TestLogEuclideanBound:
    def test_commuting_equality(self):
        a = SpdMatrix(np.diag([1.0, 4.0]))
        b = SpdMatrix(np.diag([9.0, 16.0]))
        expected = np.hypot(np.log(9.0), np.log(4.0))
        assert log_euclidean_dist(a, b, 2) == pytest.approx(expected)
        assert delta_p(a, b, 2) == pytest.approx(expected)

    def test_zero_on_equal(self):
        a = random_spd(make_rng(12), 3)
        assert log_euclidean_dist(a, a, 2) <= 1e-12

    def test_strictly_below_delta_on_witness(self, witness_pair):
        a, b = witness_pair
        for p in P_GRID:
            gap = delta_p(a, b, p) - log_euclidean_dist(a, b, p)
            assert gap > 1e-10

    def test_lower_bound_generic(self):
        rng = make_rng(13)
        for _ in range(20):
            a, b = random_spd(rng, 4), random_spd(rng, 4)
            for p in P_GRID:
                assert delta_p(a, b, p) >= log_euclidean_dist(a, b, p) - 1e-10


class TestInterpolation:
    def test_interpolation_law(self):
        rng = make_rng(14)
        for _ in range(10):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            for p in (1.5, 2.0, 3.0):
                full = delta_p(a, b, p)
                for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                    part = delta_p(a, weighted_mean(a, b, t), p)
                    assert abs(part - t * full) <= 1e-9 * (1.0 + full)

    def test_midpoint_equidistance(self):
        rng = make_rng(15)
        for _ in range(10):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            mid = geometric_mean(a, b)
            for p in (1.5, 2.0, 3.0):
                full = delta_p(a, b, p)
                assert abs(delta_p(a, mid, p) - 0.5 * full) <= 1e-9 * (1.0 + full)
                assert abs(delta_p(b, mid, p) - 0.5 * full) <= 1e-9 * (1.0 + full)


class TestSpeedAndArcLength:
    def test_speed_equals_distance_on_grid(self):
        rng = make_rng(16)
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        curve = GeodesicCurve(a, b)
        for p in (1.5, 2.0, 3.0):
            d = delta_p(a, b, p)
            speeds = [geodesic_speed(curve, t, p) for t in np.linspace(0, 1, 21)]
            assert max(speeds) - min(speeds) <= 1e-8 * max(speeds)
            assert speeds[7] == pytest.approx(d, rel=1e-9)

    def test_zero_speed_on_constant_geodesic(self):
        a = random_spd(make_rng(17), 3)
        curve = GeodesicCurve(a, a)
        for t in (0.0, 0.5, 1.0):
            assert geodesic_speed(curve, t, 2) <= 1e-12

    def test_commuting_diagonal_speed(self):
        a = SpdMatrix(np.diag([1.0, 4.0]))
        b = SpdMatrix(np.diag([9.0, 16.0]))
        curve = GeodesicCurve(a, b)
        expected = log_euclidean_dist(a, b, 2)
        for t in (0.1, 0.5, 0.9):
            assert geodesic_speed(curve, t, 2) == pytest.approx(expected)

    def test_arc_length_matches_delta(self):
        rng = make_rng(18)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        curve = GeodesicCurve(a, b)
        for p in (1.5, 2.0, 3.0):
            d = delta_p(a, b, p)
            assert abs(arc_length(curve, p) - d) <= 1e-6 * (1.0 + d)

    def test_constant_curve_zero_length(self):
        a = random_spd(make_rng(19), 3)
        assert arc_length(GeodesicCurve(a, a), 2) <= 1e-12

    def test_straight_line_not_shorter_than_geodesic(self):
        a = SpdMatrix(np.diag([1.0, 4.0]))
        b = SpdMatrix(np.diag([9.0, 16.0]))

        def line(t):
            return SpdMatrix((1.0 - t) * a.array + t * b.array)

        quad = arc_length(line, 2, intervals=128)
        assert quad >= delta_p(a, b, 2) - 1e-6

    def test_finite_difference_matches_analytic_on_geodesic(self):
        rng = make_rng(20)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        curve = GeodesicCurve(a, b)
        analytic = arc_length(curve, 2)
        numeric = arc_length(lambda t: curve.eval(t), 2)
        assert abs(analytic - numeric) <= 1e-7 * (1.0 + analytic)

    def test_rejects_odd_interval_count(self):
        a = random_spd(make_rng(21), 2)
        with pytest.raises(ValueError, match="even"):
            arc_length(GeodesicCurve(a, a), 2, intervals=5)

    def test_log_m_norm_is_distance(self):
        from spdfinsler import schatten_norm

        rng = make_rng(22)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        curve = GeodesicCurve(a, b)
        for p in (1.5, 2.0):
            assert schatten_norm(curve.log_m, p) == pytest.approx(delta_p(a, b, p), rel=1e-10)


class TestGammaCommute:
    def test_diagonal_triple(self):
        triple = [SpdMatrix(np.diag(v)) for v in ([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])]
        report = gamma_commute(*triple)
        assert report.holds
        assert report.defect_product <= 1e-14
        assert report.defect_bracket <= 1e-14

    def test_identity_third_reduces_to_commuting(self):
        rng = make_rng(23)
        for _ in range(10):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            report = gamma_commute(a, b, identity(3))
            assert report.holds == is_commuting(a, b, tol=1e-8 * a.frobenius() * b.frobenius())
        # and a genuinely commuting pair with identity
        u = random_unitary(rng, 3)
        a = SpdMatrix(u @ np.diag([1.0, 2.0, 3.0]) @ u.conj().T)
        b = SpdMatrix(u @ np.diag([5.0, 1.0, 2.0]) @ u.conj().T)
        assert gamma_commute(a, b, identity(3)).holds

    def test_constructed_conjugated_triple(self):
        rng = make_rng(24)
        for _ in range(10):
            x = random_invertible(rng, 3)
            mats = [
                SpdMatrix(x @ np.diag(np.exp(rng.standard_normal(3))) @ x.conj().T)
                for _ in range(3)
            ]
            assert gamma_commute(*mats).holds

    def test_generic_triple_rejected_by_both_defects(self):
        rng = make_rng(25)
        a, b, c = (random_spd(rng, 3) for _ in range(3))
        report = gamma_commute(a, b, c)
        assert not report.holds
        assert report.defect_product > 1e-4
        assert report.defect_bracket > 1e-4

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            gamma_commute(identity(2), identity(2), identity(3))


class TestUnitSphere:
    @pytest.mark.parametrize("p", P_GRID)
    def test_closed_form_sphere_point(self, p):
        s = 2.0 ** (-1.0 / p)
        u = SpdMatrix(np.diag([np.exp(s), np.exp(-s)]))
        assert on_unit_sphere(u, p, tol=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_projection_of_exponential_diagonal(self, p):
        a = SpdMatrix(np.diag([np.exp(2.0), np.exp(-2.0)]))
        s = 2.0 ** (-1.0 / p)
        projected = project_to_unit_sphere(a, p)
        assert np.allclose(projected.array, np.diag([np.exp(s), np.exp(-s)]), atol=1e-12)

    def test_random_projection_lands_on_sphere(self):
        rng = make_rng(26)
        for _ in range(10):
            a = random_spd(rng, 4)
            for p in (1.1, 2.0, 3.0):
                proj = project_to_unit_sphere(a, p)
                assert abs(delta_p_to_identity(proj, p) - 1.0) <= 1e-10

    def test_projecting_identity_fails(self):
        with pytest.raises(ValueError, match="direction"):
            project_to_unit_sphere(identity(3), 2)
