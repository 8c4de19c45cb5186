"""Dense Hermitian / SPD matrices and spectral matrix functions.

All types are immutable value objects backed by read-only ``complex128``
numpy arrays, and every operation is pure, so everything here can be shared
freely across threads.  The eigensolver contract is: descending eigenvalues,
and within degenerate clusters a deterministic eigenvector phase fixed by
making each vector's largest-magnitude component real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermitianMatrix",
    "SpdMatrix",
    "EigenDecomposition",
    "EigenConvergenceError",
    "MatrixFunctionDomainError",
    "eigh",
    "mat_fn",
    "mat_log",
    "mat_exp",
    "mat_pow",
    "mat_sqrt",
    "mat_inv_sqrt",
    "conjugate",
    "commutator_defect",
    "is_commuting",
    "identity",
]

# Absolute Hermiticity tolerance, relative to the largest entry magnitude.
HERMITICITY_RTOL = 1e-12
# Constructor gate: lambda_min must exceed this fraction of lambda_max.
SPD_EIGENVALUE_FLOOR = 1e-10
# Conjugation rejects X whose 2-norm condition estimate reaches this.
CONDITION_LIMIT = 1e12
# Derived matrices are checked for positivity only (see HermitianMatrix._adopt).
_LOST_POSITIVITY = "derived matrix lost positivity numerically; inputs are too ill-conditioned"


class EigenConvergenceError(RuntimeError):
    """The Hermitian eigensolver hit its iteration cap without converging."""


class MatrixFunctionDomainError(ValueError):
    """A scalar function was undefined (non-finite or non-real) at an eigenvalue."""


def as_matrix(value) -> np.ndarray:
    """Entries of a HermitianMatrix or array-like as complex128."""
    if isinstance(value, HermitianMatrix):
        return value.array
    arr = np.asarray(value, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {arr.ndim}")
    return arr


def _matching(X, Y, stack: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Entries of two operands that must share one shape; with ``stack``, Y
    may also be a ``(k, d, d)`` array, a stack of matrices shaped like X."""
    Xa = as_matrix(X)
    Ya = Y if stack and isinstance(Y, np.ndarray) and Y.ndim == 3 else as_matrix(Y)
    if Xa.shape != Ya.shape[-2:]:
        raise ValueError(f"dimension mismatch: {Xa.shape} vs {Ya.shape}")
    return Xa, Ya


def _hermitian_part(arr: np.ndarray) -> np.ndarray:
    """The Hermitian part (arr + arr^H) / 2 of a square array or a stack of them."""
    return 0.5 * (arr + arr.conj().mT)


class HermitianMatrix:
    """Dense complex Hermitian matrix, exactly symmetrized at construction.

    Parameters
    ----------
    entries : HermitianMatrix or array-like, shape (dim, dim)
        A HermitianMatrix shares its entries and eigendecomposition cache.
        Otherwise a square complex matrix that must satisfy
        ``entries[i][j] == conj(entries[j][i])`` within an absolute
        tolerance of ``1e-12`` times the largest entry magnitude; the
        stored array is ``(entries + entries^H) / 2``.

    Raises
    ------
    ValueError
        If the input is not square, has dim < 1, or is not Hermitian
        within tolerance.
    """

    __slots__ = ("_array", "_eig")

    def __init__(self, entries):
        if not isinstance(entries, HermitianMatrix):
            arr = np.array(entries, dtype=np.complex128)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError(f"expected a square matrix, got shape {arr.shape}")
            if arr.shape[0] < 1:
                raise ValueError("matrix dimension must be at least 1")
            if not np.all(np.isfinite(arr)):
                raise ValueError("matrix entries must be finite")
            scale = float(np.abs(arr).max())
            asym = float(np.abs(arr - arr.conj().T).max())
            if asym > HERMITICITY_RTOL * scale:
                raise ValueError(
                    f"input is not Hermitian: max |A - A^H| = {asym:.3e} exceeds "
                    f"{HERMITICITY_RTOL:.0e} * max|entry| = {HERMITICITY_RTOL * scale:.3e}"
                )
            entries = HermitianMatrix._adopt(_hermitian_part(arr))
        # The one-element list is the decomposition cache, shared by wrappers.
        self._array, self._eig = entries._array, entries._eig

    @classmethod
    def _adopt(cls, arr: np.ndarray, values: np.ndarray | None = None,
               dec: "EigenDecomposition | None" = None):
        """Wrap, unchecked, an array the package built exactly Hermitian: an
        ``_assemble``, ``_congruence`` or ``_hermitian_part`` result, or a real
        multiple or sum of such arrays.  An SpdMatrix adopted here is derived,
        the spectrum ``values`` taken through a congruence; its condition can
        reach the product of its sources' (kappa(A) kappa(B) for a geodesic
        point), so it is checked for ``0 < values < inf`` only, not gated.
        ``dec``, when given, is the array's decomposition (from a batched
        gate, say): it is cached, and supplies the values.
        """
        if cls is SpdMatrix:
            _require_positive(values if dec is None else dec.eigenvalues)
        self = object.__new__(cls)
        arr.flags.writeable = False
        self._array, self._eig = arr, [dec]
        return self

    @property
    def array(self) -> np.ndarray:
        """Read-only complex128 entries."""
        return self._array

    @property
    def dim(self) -> int:
        return self._array.shape[0]

    def eig(self) -> "EigenDecomposition":
        """Cached eigendecomposition (descending eigenvalues)."""
        if self._eig[0] is None:
            self._eig[0] = _eigh_array(self._array)
        return self._eig[0]

    def frobenius(self) -> float:
        return float(np.linalg.norm(self._array))

    def __add__(self, other):
        if isinstance(other, HermitianMatrix):
            return HermitianMatrix(self._array + other._array)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, HermitianMatrix):
            return HermitianMatrix(self._array - other._array)
        return NotImplemented

    def __neg__(self):
        return HermitianMatrix(-self._array)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return HermitianMatrix(self._array * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class SpdMatrix(HermitianMatrix):
    """Hermitian matrix verified strictly positive definite at construction.

    This is the SPD gate, run on user-supplied and sampled matrices: it
    requires ``lambda_min > 1e-10 * lambda_max``, rejecting ill-conditioned
    inputs rather than regularizing them; the gate's eigendecomposition is
    cached for the spectral functions.  Derived results (``mat_exp``,
    ``mat_pow``, geodesic points) are checked for positivity only, so their
    condition may exceed 1e10.  Arithmetic returns a HermitianMatrix.
    """

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        values = self.eig().eigenvalues
        lam_max, lam_min = float(values[0]), float(values[-1])
        if not _passes_gate(lam_max, lam_min):
            raise _gate_error(lam_max, lam_min)


def _passes_gate(lam_max, lam_min):
    """The SPD gate lambda_min > 1e-10 * lambda_max, on floats or on arrays
    of them (one pair per matrix of a stack)."""
    return (lam_max > 0.0) & (lam_min > SPD_EIGENVALUE_FLOOR * lam_max)


def _gate_error(lam_max: float, lam_min: float) -> ValueError:
    """The error for a matrix that fails the SPD gate."""
    return ValueError(
        f"matrix is not safely positive definite: lambda_min = {lam_min:.6e}, "
        f"lambda_max = {lam_max:.6e} (gate: lambda_min > 1e-10 * lambda_max)"
    )


def _require_positive(values: np.ndarray) -> np.ndarray:
    """The spectral values of a derived SPD matrix, checked 0 < values < inf."""
    if not (values.min() > 0.0 and values.max() < np.inf):
        raise ValueError(_LOST_POSITIVITY)
    return values


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral factorization H = U diag(eigenvalues) U^H, of one matrix or,
    with a leading axis, of each matrix in a stack.

    Attributes
    ----------
    eigenvalues : ndarray, shape (dim,) or (count, dim)
        Real eigenvalues sorted descending.
    unitary : ndarray, shape (dim, dim) or (count, dim, dim)
        Columns are the corresponding eigenvectors; each column's
        largest-magnitude component is real and positive.
    """

    eigenvalues: np.ndarray
    unitary: np.ndarray

    def __getitem__(self, index) -> "EigenDecomposition":
        """The decompositions of the selected matrices of a stack."""
        return EigenDecomposition(self.eigenvalues[index], self.unitary[index])


def _eigh_array(arr: np.ndarray) -> EigenDecomposition:
    """Decomposition of a Hermitian array, or of a stack in one batched call."""
    try:
        w, v = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"Hermitian eigensolver did not converge within the LAPACK iteration cap "
            f"(30 sweeps per off-diagonal element) on a {arr.shape[-1]}x{arr.shape[-1]} input"
        ) from exc
    w = np.ascontiguousarray(w[..., ::-1])
    v = np.ascontiguousarray(v[..., ::-1])
    # Deterministic phase: make each column's largest-|.| component real
    # positive.  In a stack, a pivot's index also names its matrix.
    matrices = () if v.ndim == 2 else (np.arange(len(v))[:, None],)
    pivots = v[(*matrices, np.argmax(np.abs(v), axis=-2), np.arange(v.shape[-1]))]
    mags = np.abs(pivots)
    phases = np.where(mags > 0, pivots / np.where(mags > 0, mags, 1.0), 1.0)
    v = v * phases.conj()[..., None, :]
    w.flags.writeable = False
    v.flags.writeable = False
    return EigenDecomposition(eigenvalues=w, unitary=v)


def eigh(H) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, descending and phase-fixed.

    Accepts a HermitianMatrix, SpdMatrix, or Hermitian array-like.
    Deterministic for identical input bits.

    Raises
    ------
    EigenConvergenceError
        If the underlying solver fails to converge.
    """
    return HermitianMatrix(H).eig()


def _assemble(basis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hermitian part of ``basis @ diag(values) @ basis^H``, or of each such
    product over a stack of bases and value rows, in one batched call.

    The one spectral-assembly routine: matrix functions, geodesic factors
    and the sampled ensembles all build their matrices here.
    """
    return _hermitian_part((basis * values[..., None, :]) @ basis.conj().mT)


def mat_fn(A, f) -> HermitianMatrix:
    """Apply a scalar real function to a Hermitian/SPD matrix spectrally.

    Returns ``U diag(f(lambda_i)) U^H``.  The callable should accept a 1-D
    float array; plain scalar callables are applied elementwise.

    Raises
    ------
    MatrixFunctionDomainError
        If ``f`` is undefined (raises, or yields a non-finite or non-real
        value) at any eigenvalue.
    """
    return _spectral(A, f, HermitianMatrix)


def _spectral(A, f, cls):
    """f(A) adopted as a ``cls``: the one spectral-function path."""
    dec = eigh(A)
    vals = _function_values(dec.eigenvalues, f)
    return cls._adopt(_assemble(dec.unitary, vals), vals)


def _function_values(eigs: np.ndarray, f) -> np.ndarray:
    """f on one spectrum, or on each row of a ``(k, d)`` stack of spectra,
    checked real and finite.  A stack runs row by row, because a vectorized
    scalar function need not round a whole stack the same as its rows."""
    if eigs.ndim == 2:
        return np.array([_function_values(row, f) for row in eigs]).reshape(eigs.shape)
    with np.errstate(all="ignore"):
        try:
            vals = np.asarray(f(eigs))
            if vals.shape != eigs.shape:
                raise TypeError
        except (TypeError, ValueError):
            try:
                vals = np.asarray([f(float(x)) for x in eigs])
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise MatrixFunctionDomainError(
                    f"scalar function undefined on spectrum {eigs}: {exc}"
                ) from exc
    if np.iscomplexobj(vals):
        if np.abs(vals.imag).max() > 0.0:
            raise MatrixFunctionDomainError(
                f"scalar function produced non-real values on spectrum {eigs}"
            )
        vals = vals.real
    vals = vals.astype(np.float64)
    if not np.all(np.isfinite(vals)):
        bad = eigs[~np.isfinite(vals)]
        raise MatrixFunctionDomainError(
            f"scalar function undefined (non-finite) at eigenvalue(s) {bad}"
        )
    return vals


def _gated_exp_stack(logs: np.ndarray) -> tuple[np.ndarray, EigenDecomposition,
                                                 ValueError | None]:
    """``exp(H_k)`` through the SPD gate for each H_k of a Hermitian stack:
    the one gated exponential, each step one batched call over the stack but
    exp, which runs one spectrum at a time as in ``mat_exp``.

    Returns the arrays and gate decompositions of the leading matrices that
    pass exp's checks and the SPD gate, and the error of the first matrix
    that fails (None when none does), as a loop over the matrices would
    raise it.  The error is returned, not raised, so that a caller running
    later steps on the kept matrices can raise their errors first.
    """
    dec = _eigh_array(logs)
    values, error = [], None
    for eigs in dec.eigenvalues:
        try:
            values.append(_require_positive(_function_values(eigs, np.exp)))
        except ValueError as exc:
            error = exc
            break
    count = len(values)
    arrays = _assemble(dec.unitary[:count], np.reshape(values, (count, logs.shape[-1])))
    gate = _eigh_array(arrays)
    lam_max, lam_min = gate.eigenvalues[:, 0], gate.eigenvalues[:, -1]
    passed = _passes_gate(lam_max, lam_min)
    if not passed.all():
        count = int(np.argmin(passed))
        error = _gate_error(lam_max[count], lam_min[count])
    return arrays[:count], gate[:count], error


def mat_log(A) -> HermitianMatrix:
    """Matrix logarithm of a positive-definite matrix."""
    return mat_fn(A, np.log)


def mat_exp(H) -> SpdMatrix:
    """Matrix exponential of a Hermitian matrix; raises if exp underflows to 0."""
    return _spectral(H, np.exp, SpdMatrix)


def mat_pow(A, t: float) -> SpdMatrix:
    """Real matrix power A^t of an SPD matrix."""
    t = float(t)
    return _spectral(A, lambda x: x**t, SpdMatrix)


def mat_sqrt(A) -> SpdMatrix:
    """Principal square root of an SPD matrix."""
    return mat_pow(A, 0.5)


def mat_inv_sqrt(A) -> SpdMatrix:
    """Inverse principal square root of an SPD matrix."""
    return mat_pow(A, -0.5)


def conjugate(X, A) -> SpdMatrix:
    """Congruence X A X^H of an SPD matrix by an invertible X.

    Parameters
    ----------
    X : array-like, shape (dim, dim)
        Square matrix with 2-norm condition estimate below 1e12.
    A : SpdMatrix

    Raises
    ------
    ValueError
        If X is singular or too ill-conditioned, or dimensions mismatch.
    """
    Xa, Aa = _matching(X, A)
    cond = np.linalg.cond(Xa)
    if not np.isfinite(cond) or cond >= CONDITION_LIMIT:
        raise ValueError(
            f"conjugating matrix is singular or ill-conditioned (cond estimate {cond:.3e})"
        )
    return SpdMatrix(_hermitian_part(Xa @ Aa @ Xa.conj().T))


def commutator_defect(A, B) -> float:
    """Frobenius norm of the commutator AB - BA.

    Zero exactly when A and B commute; symmetric in its arguments.
    """
    Aa, Ba = _matching(A, B)
    return float(np.linalg.norm(Aa @ Ba - Ba @ Aa))


def is_commuting(A, B, tol: float | None = None) -> bool:
    """Whether ||AB - BA||_F <= tol, defaulting tol to 1e-9 ||A||_F ||B||_F."""
    Aa, Ba = _matching(A, B)
    if tol is None:
        tol = 1e-9 * float(np.linalg.norm(Aa)) * float(np.linalg.norm(Ba))
    return commutator_defect(Aa, Ba) <= tol


def identity(dim: int) -> SpdMatrix:
    """The dim x dim identity as an SpdMatrix."""
    return SpdMatrix(np.eye(dim, dtype=np.complex128))
