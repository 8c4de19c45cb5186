"""Tests for spectra, Schatten norms, and majorization predicates."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdfinsler import (
    HermitianMatrix,
    Spectrum,
    eigenvalue_spectrum,
    eigh,
    is_permutation_of,
    mat_exp,
    power_sum,
    schatten_norm,
    singular_values,
    weak_log_majorizes,
    weak_majorizes,
)

from conftest import make_rng, random_hermitian, random_unitary


class TestSpectrum:
    def test_sorts_descending(self):
        s = Spectrum([1.0, 3.0, 2.0])
        assert np.array_equal(s.values, [3.0, 2.0, 1.0])

    def test_singular_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Spectrum([1.0, -0.5], kind="singular")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Spectrum([1.0], kind="other")


class TestSingularValues:
    def test_hermitian_diagonal_absolute_values(self):
        s = singular_values(HermitianMatrix(np.diag([3.0, -4.0])))
        assert np.allclose(s.values, [4.0, 3.0])

    def test_zero_matrix(self):
        assert np.array_equal(singular_values(np.zeros((3, 3))).values, np.zeros(3))

    def test_nilpotent_against_gram_oracle(self):
        m = np.array([[0.0, 2.0], [0.0, 0.0]])
        # Gram oracle: eigenvalues of M^H M = diag(0, 4) are (4, 0)
        gram_eigs = np.sort(np.linalg.eigvalsh(m.conj().T @ m))[::-1]
        assert np.allclose(singular_values(m).values, np.sqrt(gram_eigs))
        assert np.allclose(singular_values(m).values, [2.0, 0.0])

    def test_rectangular_accepted(self):
        s = singular_values(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
        assert np.allclose(s.values, [2.0, 1.0])


class TestSchattenNorm:
    def test_diagonal_values(self):
        m = HermitianMatrix(np.diag([3.0, -4.0]))
        assert schatten_norm(m, 1) == pytest.approx(7.0)
        assert schatten_norm(m, 2) == pytest.approx(5.0)
        assert schatten_norm(m, math.inf) == pytest.approx(4.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0])
    def test_identity(self, p):
        assert schatten_norm(np.eye(5), p) == pytest.approx(5.0 ** (1.0 / p))

    def test_p2_matches_entrywise_frobenius_oracle(self):
        h = random_hermitian(make_rng(2), 3)
        oracle = np.sqrt((np.abs(h.array) ** 2).sum())
        assert abs(schatten_norm(h, 2) - oracle) <= 1e-12 * oracle

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="p >= 1"):
            schatten_norm(np.eye(2), 0.5)

    @given(st.integers(0, 10_000))
    def test_monotone_in_p(self, seed):
        h = random_hermitian(make_rng(seed), 4)
        norms = [schatten_norm(h, p) for p in (1.0, 1.3, 2.0, 2.7, 4.0, math.inf)]
        for lo, hi in zip(norms, norms[1:]):
            assert lo >= hi - 1e-12 * max(1.0, lo)

    @given(st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        rng = make_rng(seed)
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
        for p in (1.0, 1.5, 2.0, 3.0):
            lhs = schatten_norm(x + y, p)
            rhs = schatten_norm(x, p) + schatten_norm(y, p)
            assert lhs <= rhs + 1e-10 * max(1.0, rhs)

    def test_unitary_invariance(self):
        rng = make_rng(5)
        for _ in range(10):
            h = random_hermitian(rng, 4).array
            u, v = random_unitary(rng, 4), random_unitary(rng, 4)
            for p in (1.0, 1.7, 2.0, 3.5):
                base = schatten_norm(h, p)
                assert abs(schatten_norm(u @ h @ v, p) - base) <= 1e-10 * max(1.0, base)


class TestMajorization:
    def test_holds_example(self):
        verdict = weak_majorizes((3.0, 1.0), (4.0, 0.0))
        assert verdict.holds and verdict.weak and verdict.tight_at_end
        assert verdict.first_violation_index is None
        assert np.allclose(verdict.slack, [1.0, 0.0])

    def test_weak_fails_at_first_index(self):
        verdict = weak_majorizes((4.0, 0.0), (3.0, 1.0))
        assert not verdict.weak and not verdict.holds
        assert verdict.first_violation_index == 0

    def test_weak_without_tight_end(self):
        verdict = weak_majorizes((1.0, 1.0), (3.0, 1.0))
        assert verdict.weak and not verdict.tight_at_end and not verdict.holds

    def test_length_mismatch(self):
        for pair_fn in (weak_majorizes, weak_log_majorizes, is_permutation_of):
            with pytest.raises(ValueError, match="length mismatch"):
                pair_fn((1.0,), (1.0, 2.0))

    def test_verdict_invariant_holds_implies_weak_and_tight(self):
        rng = make_rng(7)
        for _ in range(50):
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            v = weak_majorizes(a, b)
            if v.holds:
                assert v.weak and v.tight_at_end

    @given(st.integers(0, 10_000))
    def test_transfer_construction_majorizes(self, seed):
        # averaging over permutations is doubly stochastic, so Pi b ≺ b
        rng = make_rng(seed)
        b = np.sort(rng.standard_normal(5))[::-1]
        mixed = np.zeros(5)
        weights = rng.dirichlet(np.ones(3))
        for w in weights:
            mixed += w * rng.permutation(b)
        assert weak_majorizes(mixed, b).weak
        assert weak_majorizes(mixed, b).holds  # sums preserved exactly up to roundoff

    def test_bch_pair_majorization(self):
        # both sides evaluated directly; this is the derived oracle pairing
        rng = make_rng(11)
        for _ in range(25):
            h, k = random_hermitian(rng, 3), random_hermitian(rng, 3)
            a = eigenvalue_spectrum(h + k)
            half = mat_exp(0.5 * k).array
            inner = half @ mat_exp(h).array @ half
            b = Spectrum(np.log(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))))
            assert weak_majorizes(a, b).holds


class TestLogMajorization:
    def test_holds_example(self):
        verdict = weak_log_majorizes((4.0, 1.0), (8.0, 0.5))
        assert verdict.holds

    def test_equal_spectra_tight_everywhere(self):
        verdict = weak_log_majorizes((3.0, 2.0, 1.0), (3.0, 2.0, 1.0))
        assert verdict.holds
        assert np.abs(verdict.slack).max() == 0.0

    def test_weak_but_not_strict(self):
        verdict = weak_log_majorizes((5.0, 2.0), (6.0, 2.0))
        assert verdict.weak and not verdict.holds and not verdict.tight_at_end

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            weak_log_majorizes((2.0, -1.0), (2.0, 1.0))

    def test_trailing_zeros(self):
        verdict = weak_log_majorizes((2.0, 0.0), (4.0, 0.0))
        assert verdict.weak and verdict.tight_at_end  # final products both zero
        bad = weak_log_majorizes((2.0, 1.0), (4.0, 0.0))
        assert not bad.weak and bad.first_violation_index == 1
        loose = weak_log_majorizes((2.0, 0.0), (4.0, 1.0))  # zero only in a
        assert loose.weak and not loose.tight_at_end
        assert loose.slack[-1] == np.inf

    @given(st.integers(0, 10_000))
    def test_log_majorization_implies_weak_majorization(self, seed):
        # transfers in log space build pairs satisfying the antecedent
        rng = make_rng(seed)
        log_b = np.sort(rng.standard_normal(4))[::-1]
        weights = rng.dirichlet(np.ones(3))
        log_a = np.zeros(4)
        for w in weights:
            log_a += w * rng.permutation(log_b)
        a, b = np.exp(log_a), np.exp(log_b)
        assert weak_log_majorizes(a, b).holds
        assert weak_majorizes(a, b).weak


class TestPowerSum:
    def test_simple_values(self):
        assert power_sum((2.0, -2.0), 2) == pytest.approx(8.0)
        assert power_sum((1.0, 1.0, 1.0), 3) == pytest.approx(3.0)

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError, match="p > 1"):
            power_sum((1.0,), 1.0)

    def test_against_mpmath_oracle(self):
        rng = make_rng(13)
        values = rng.standard_normal(6)
        for p in (1.1, 2.0, 3.7):
            with mp.workdps(50):
                oracle = float(mp.fsum(mp.power(abs(mp.mpf(v)), mp.mpf(p)) for v in values))
            assert abs(power_sum(values, p) - oracle) <= 1e-12 * oracle


class TestPermutationEquality:
    def test_exact(self):
        assert is_permutation_of((3.0, 1.0), (1.0, 3.0))

    def test_within_tolerance(self):
        assert is_permutation_of((3.0, 1.0), (3.0, 1.0 + 2e-9), tol=1e-8)

    def test_distinct(self):
        assert not is_permutation_of((3.0, 1.0), (2.0, 2.0))

    def test_strict_convexity_lemma_consequence(self):
        # if a ≺ b and some power sum agrees, the spectra must coincide
        rng = make_rng(17)
        checked = 0
        for _ in range(60):
            b = np.sort(rng.standard_normal(4))[::-1]
            mixed = np.zeros(4)
            for w in rng.dirichlet(np.ones(2)):
                mixed += w * rng.permutation(b)
            a = np.sort(mixed)[::-1]
            if not weak_majorizes(a, b).holds:
                continue
            for p in (1.5, 2.0, 3.0):
                if abs(power_sum(a, p) - power_sum(b, p)) <= 1e-10 * power_sum(b, p):
                    checked += 1
                    assert is_permutation_of(a, b, tol=1e-8)
        # commuting-style identical spectra must occur; force one explicitly
        b = np.array([2.0, 1.0, -1.0])
        assert weak_majorizes(b, b).holds
        assert is_permutation_of(b, b, tol=1e-8)


def test_eigenvalue_spectrum_matches_eigh():
    h = random_hermitian(make_rng(19), 4)
    assert np.array_equal(eigenvalue_spectrum(h).values, eigh(h).eigenvalues)
