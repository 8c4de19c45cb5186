"""Tests for the Hermitian/SPD substrate and spectral matrix functions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdfinsler import (
    EigenDecomposition,
    HermitianMatrix,
    MatrixFunctionDomainError,
    SpdMatrix,
    commutator_defect,
    conjugate,
    eigh,
    identity,
    is_commuting,
    mat_exp,
    mat_fn,
    mat_inv_sqrt,
    mat_log,
    mat_pow,
    mat_sqrt,
)
from spdfinsler.geodesic import _sandwich_log_eigs
from spdfinsler.matcore import _assemble, _eigh_array, _hermitian_part

from conftest import make_rng, random_hermitian, random_spd


def eig2x2_sym(a, b, d):
    """Characteristic-polynomial eigenvalues of [[a, b], [b, d]], descending."""
    mean = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), b)
    return mean + radius, mean - radius


class TestConstruction:
    def test_symmetrizes_and_freezes(self):
        h = HermitianMatrix([[1.0, 2.0 + 1e-14j], [2.0 - 1e-14j, 3.0]])
        assert np.allclose(h.array, h.array.conj().T)
        with pytest.raises(ValueError):
            h.array[0, 0] = 5.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_spd_gate_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            SpdMatrix(np.diag([1.0, -1.0]))

    def test_spd_gate_rejects_ill_conditioned(self):
        with pytest.raises(ValueError, match="positive definite"):
            SpdMatrix(np.diag([1.0, 1e-11]))

    def test_spd_accepts_hermitian_wrapper(self):
        h = HermitianMatrix(np.diag([2.0, 3.0]))
        assert SpdMatrix(h).dim == 2


class TestEigh:
    def test_identity(self):
        dec = eigh(identity(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
        assert np.allclose(dec.unitary @ dec.unitary.conj().T, np.eye(3))

    def test_diagonal(self):
        dec = eigh(HermitianMatrix(np.diag([3.0, 1.0])))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])

    def test_2x2_against_charpoly_oracle(self):
        dec = eigh(HermitianMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert dec.eigenvalues == pytest.approx(eig2x2_sym(2.0, 1.0, 2.0), abs=1e-14)

    def test_descending_and_phase_fixed(self):
        rng = make_rng(3)
        for _ in range(20):
            dec = eigh(random_hermitian(rng, 4))
            assert np.all(np.diff(dec.eigenvalues) <= 0)
            pivots = dec.unitary[np.argmax(np.abs(dec.unitary), axis=0), np.arange(4)]
            assert np.all(pivots.real > 0)
            assert np.abs(pivots.imag).max() < 1e-12

    @given(st.integers(0, 10_000))
    def test_reconstruction(self, seed):
        h = random_hermitian(make_rng(seed), 4)
        dec = eigh(h)
        rebuilt = (dec.unitary * dec.eigenvalues) @ dec.unitary.conj().T
        assert np.linalg.norm(rebuilt - h.array) <= 1e-10 * max(1.0, h.frobenius())
        assert np.linalg.norm(
            dec.unitary @ dec.unitary.conj().T - np.eye(4)
        ) <= 1e-10 * np.sqrt(4)

    def test_deterministic_for_identical_bits(self):
        h = random_hermitian(make_rng(5), 5)
        d1, d2 = eigh(HermitianMatrix(h.array)), eigh(HermitianMatrix(h.array))
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.unitary, d2.unitary)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32])
    def test_stack_matches_each_matrix(self, dim):
        # A stacked decomposition and assembly give each matrix's own bits.
        rng = make_rng(dim)
        raw = rng.standard_normal((11, dim, dim)) + 1j * rng.standard_normal((11, dim, dim))
        stack = _hermitian_part(raw)
        dec = _eigh_array(stack)
        rebuilt = _assemble(dec.unitary, dec.eigenvalues)
        for k in range(11):
            assert np.array_equal(stack[k], _hermitian_part(raw[k]))
            one = eigh(HermitianMatrix._adopt(stack[k].copy()))
            assert np.array_equal(dec.eigenvalues[k], one.eigenvalues)
            assert np.array_equal(dec.unitary[k], one.unitary)
            assert np.array_equal(rebuilt[k], _assemble(one.unitary, one.eigenvalues))
        # So does the stacked sandwich spectrum; its row equal to A is exactly 0.
        spd = _hermitian_part(raw @ raw.conj().mT) + np.eye(dim)
        a = SpdMatrix(spd[0])
        logs = _sandwich_log_eigs(a, spd)
        assert logs.shape == (11, dim) and not logs[0].any()
        for k in range(1, 11):
            assert np.array_equal(logs[k], _sandwich_log_eigs(a, SpdMatrix(spd[k])))

    def test_returns_eigendecomposition(self):
        assert isinstance(eigh(identity(2)), EigenDecomposition)

    def test_convergence_failure_is_wrapped(self, monkeypatch):
        from spdfinsler import EigenConvergenceError

        def explode(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", explode)
        with pytest.raises(EigenConvergenceError, match="iteration cap"):
            eigh(HermitianMatrix(np.eye(2)))


class TestMatFn:
    def test_sqrt_diagonal(self):
        assert np.allclose(mat_sqrt(SpdMatrix(np.diag([4.0, 9.0]))).array, np.diag([2.0, 3.0]))

    def test_log_identity(self):
        assert np.allclose(mat_log(identity(4)).array, np.zeros((4, 4)))

    def test_pow_half_spectral_oracle(self):
        root = mat_pow(SpdMatrix([[2.0, 1.0], [1.0, 2.0]]), 0.5)
        # same eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2, eigenvalues sqrt(3) and 1
        s3 = np.sqrt(3.0)
        expected = np.array([[(s3 + 1) / 2, (s3 - 1) / 2], [(s3 - 1) / 2, (s3 + 1) / 2]])
        assert np.allclose(root.array, expected, atol=1e-14)
        assert eigh(root).eigenvalues == pytest.approx((s3, 1.0))

    def test_exp_log_roundtrip(self):
        rng = make_rng(11)
        for _ in range(10):
            a = random_spd(rng, 4)
            back = mat_exp(mat_log(a))
            assert np.linalg.norm(back.array - a.array) <= 1e-9 * a.frobenius()

    def test_power_additivity(self):
        rng = make_rng(13)
        for _ in range(10):
            a = random_spd(rng, 3)
            s, t = rng.uniform(-2, 2, size=2)
            lhs = mat_pow(a, s).array @ mat_pow(a, t).array
            rhs = mat_pow(a, s + t).array
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_inv_sqrt(self):
        a = SpdMatrix(np.diag([4.0, 16.0]))
        assert np.allclose(mat_inv_sqrt(a).array, np.diag([0.5, 0.25]))

    def test_domain_error_on_log_of_indefinite(self):
        h = HermitianMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(MatrixFunctionDomainError):
            mat_fn(h, np.log)

    def test_scalar_only_callable(self):
        import math

        a = SpdMatrix(np.diag([1.0, 4.0]))
        out = mat_fn(a, lambda x: math.sqrt(x) if np.ndim(x) == 0 else (_ for _ in ()).throw(TypeError))
        assert np.allclose(out.array, np.diag([1.0, 2.0]))

    def test_basis_independence_under_degeneracy(self):
        # degenerate spectrum: the function of the matrix is still well defined
        a = SpdMatrix(np.eye(3) * 4.0)
        assert np.allclose(mat_sqrt(a).array, np.eye(3) * 2.0)


class TestDerivedMatrices:
    """Derived results are adopted: no gate eigh, no condition gate, but
    their spectral values must stay positive."""

    def test_no_gate_eigh(self, kernel_calls):
        mat_exp(random_hermitian(make_rng(41), 3))
        assert kernel_calls["eigh"] == 1
        a = SpdMatrix(np.diag([1.0, 2.0, 3.0]))
        kernel_calls["eigh"] = 0
        mat_pow(a, 2.0)
        assert kernel_calls["eigh"] == 0

    def test_condition_not_gated(self):
        square = mat_pow(SpdMatrix(np.diag([1.0, 1e-6])), 2.0)
        lam = eigh(square).eigenvalues
        assert lam[0] / lam[-1] == pytest.approx(1e12, rel=1e-9)

    def test_positivity_kept(self):
        with pytest.raises(ValueError, match="positiv"):
            mat_exp(HermitianMatrix(np.diag([0.0, -800.0])))


class TestConjugate:
    def test_identity_conjugation(self):
        a = random_spd(make_rng(17), 3)
        assert np.allclose(conjugate(np.eye(3), a).array, a.array)

    def test_diagonal_arithmetic(self):
        out = conjugate(np.diag([2.0, 1.0]), SpdMatrix(np.diag([1.0, 1.0])))
        assert np.allclose(out.array, np.diag([4.0, 1.0]))

    def test_against_triple_product_oracle(self):
        rng = make_rng(19)
        a = random_spd(rng, 3)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = conjugate(x, a).array
        n = 3
        oracle = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                oracle[i, j] = sum(
                    x[i, k] * a.array[k, l] * np.conj(x[j, l])
                    for k in range(n)
                    for l in range(n)
                )
        assert np.allclose(out, oracle, atol=1e-12 * np.abs(oracle).max())

    def test_rejects_singular(self):
        a = identity(2)
        with pytest.raises(ValueError, match="singular|ill-conditioned"):
            conjugate(np.array([[1.0, 1.0], [1.0, 1.0]]), a)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            conjugate(np.eye(3), identity(2))


class TestCommutator:
    def test_diagonal_pair_commutes(self):
        assert commutator_defect(np.diag([1.0, 2.0]), np.diag([5.0, 7.0])) == 0.0

    def test_fixed_pair_oracle(self):
        # AB - BA computed by hand: [[0, 3], [-3, 0]], Frobenius 3*sqrt(2)
        a = HermitianMatrix([[2.0, 1.0], [1.0, 2.0]])
        b = HermitianMatrix(np.diag([1.0, 4.0]))
        assert commutator_defect(a, b) == pytest.approx(3.0 * np.sqrt(2.0))

    def test_identity_commutes_with_anything(self):
        h = random_hermitian(make_rng(23), 4)
        assert commutator_defect(h, np.eye(4)) == pytest.approx(0.0, abs=1e-14)
        assert is_commuting(h, np.eye(4))

    def test_symmetry(self):
        rng = make_rng(29)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        assert commutator_defect(a, b) == commutator_defect(b, a)

    def test_polynomial_commutes(self):
        a = random_spd(make_rng(31), 4)
        poly = mat_fn(a, lambda x: 2.0 - x + 0.3 * x**2)
        assert is_commuting(a, poly)

    def test_dim_mismatch(self):
        for pair_fn in (commutator_defect, is_commuting):
            with pytest.raises(ValueError, match="dimension mismatch"):
                pair_fn(np.eye(2), np.eye(3))


def test_immutability_and_arithmetic():
    rng = make_rng(37)
    h, k = random_hermitian(rng, 3), random_hermitian(rng, 3)
    total = h + k
    assert isinstance(total, HermitianMatrix)
    assert np.allclose(total.array, h.array + k.array)
    assert np.allclose((h - k).array, h.array - k.array)
    assert np.allclose((-h).array, -h.array)
    assert np.allclose((2.0 * h).array, 2.0 * h.array)

    # The constructors accept their own types, sharing entries and spectrum.
    spd = mat_exp(h)
    assert issubclass(SpdMatrix, HermitianMatrix)
    for copy, source in ((SpdMatrix(spd), spd), (HermitianMatrix(h), h),
                         (HermitianMatrix(spd), spd)):
        assert copy.array is source.array
        assert copy.eig() is source.eig()
    assert type(SpdMatrix(spd)) is SpdMatrix and type(HermitianMatrix(spd)) is HermitianMatrix
    assert repr(spd) == "SpdMatrix(dim=3)" and repr(h) == "HermitianMatrix(dim=3)"
    with pytest.raises(ValueError, match="not safely positive definite"):
        SpdMatrix(-spd)

    # Arithmetic on SPD operands returns a HermitianMatrix.
    for result, expected in ((spd + h, spd.array + h.array), (h - spd, h.array - spd.array),
                             (spd - spd, np.zeros((3, 3))), (-spd, -spd.array),
                             (2.0 * spd, 2.0 * spd.array)):
        assert type(result) is HermitianMatrix
        assert np.allclose(result.array, expected)
