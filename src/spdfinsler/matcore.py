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
# SPD gate (_gate): lambda_min must exceed this fraction of lambda_max.
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


def _matching(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Entries of two operands that must share one shape."""
    Xa, Ya = as_matrix(X), as_matrix(Y)
    if Xa.shape != Ya.shape:
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
        multiple or sum of such arrays.  An SpdMatrix adopted with spectral
        ``values`` is derived, the spectrum taken through a congruence; its
        condition can reach the product of its sources' (kappa(A) kappa(B)
        for a geodesic point), so it is checked for ``0 < values < inf``
        only, not gated.  ``dec``, when given, is the array's decomposition
        (from the batched gate of a sample): it is cached, and supplies the
        values.
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
            self._eig[0] = _eigh_array(self._array[None])[0]
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

    The constructor runs the SPD gate ``_gate`` on caller input (sampled
    matrices pass it in batched calls): ``lambda_min > 1e-10 * lambda_max``,
    rejecting ill-conditioned inputs rather than regularizing them; the
    gate's eigendecomposition is cached for the spectral functions.  Derived
    results (``mat_exp``, ``mat_pow``, geodesic points) are checked for
    positivity only, so their condition may exceed 1e10.  Arithmetic
    returns a HermitianMatrix.
    """

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        self._eig[0] = _gate(self._array[None])[0]


def _gate(arrays: np.ndarray) -> "EigenDecomposition":
    """The SPD gate lambda_min > 1e-10 * lambda_max on each matrix of a
    ``(k, d, d)`` stack, from one batched eigh.  Returns the decompositions,
    or raises the first failing matrix's error, as a per-matrix loop would."""
    dec = _eigh_array(arrays)
    lam = dec.eigenvalues
    passed = (lam[:, 0] > 0.0) & (lam[:, -1] > SPD_EIGENVALUE_FLOOR * lam[:, 0])
    if not passed.all():
        lam_max, lam_min = lam[np.argmin(passed)][[0, -1]]
        raise ValueError(
            f"matrix is not safely positive definite: lambda_min = {lam_min:.6e}, "
            f"lambda_max = {lam_max:.6e} (gate: lambda_min > 1e-10 * lambda_max)"
        )
    return dec


def _require_positive(values: np.ndarray) -> np.ndarray:
    """Spectral values checked 0 < values < inf: the one positivity test."""
    if values.size and not (values.min() > 0.0 and values.max() < np.inf):
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
    """Decomposition of each matrix of a ``(k, d, d)`` Hermitian stack, in one call."""
    try:
        w, v = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"Hermitian eigensolver did not converge within the LAPACK iteration cap "
            f"(30 sweeps per off-diagonal element) on a {arr.shape[-1]}x{arr.shape[-1]} input"
        ) from exc
    w = np.ascontiguousarray(w[..., ::-1])
    v = v[..., ::-1]
    # Deterministic phase: make each column's largest-|.| component real
    # positive.  A pivot's index also names its matrix.  The product is a
    # new C-contiguous array, so the reversed view needs no copy of its own.
    pivots = v[np.arange(len(v))[:, None], np.argmax(np.abs(v), axis=-2), np.arange(v.shape[-1])]
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
    """f(A) adopted as a ``cls``: the one-row case of ``_Stack.apply``."""
    arrays, values = _Stack.of(HermitianMatrix(A)).apply(f)
    return cls._adopt(arrays[0], values[0])


def _function_values(eigs: np.ndarray, f) -> np.ndarray:
    """f on one spectrum or a ``(k, d)`` stack of them, called once on all the
    values as one 1-D array (a matrix's own spectrum), checked real and
    finite; a stack's error names its first failing row.  exp, log and real
    powers round each value as alone, so a stack's rows keep their bits."""
    flat = eigs.ravel()
    with np.errstate(all="ignore"):
        try:
            vals = np.asarray(f(flat))
            if vals.shape != flat.shape:
                raise TypeError
        except (TypeError, ValueError):
            try:
                vals = np.asarray([f(float(x)) for x in flat])
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise MatrixFunctionDomainError(
                    f"scalar function undefined on spectrum {eigs}: {exc}"
                ) from exc
    vals = vals.reshape(eigs.shape)
    rows = eigs.reshape(-1, eigs.shape[-1])
    if np.iscomplexobj(vals):
        real = ~(np.abs(vals.imag) > 0.0).reshape(rows.shape).any(axis=1)
        if not real.all():
            raise MatrixFunctionDomainError(
                f"scalar function produced non-real values on spectrum {rows[np.argmin(real)]}"
            )
        vals = vals.real
    vals = vals.astype(np.float64)
    finite = np.isfinite(vals).reshape(rows.shape)
    if not finite.all():
        row = np.argmin(finite.all(axis=1))
        raise MatrixFunctionDomainError(
            f"scalar function undefined (non-finite) at eigenvalue(s) {rows[row][~finite[row]]}"
        )
    return vals


def _gated_exp_stack(bases, log_spectra) -> tuple[np.ndarray, EigenDecomposition]:
    """``U_k diag(exp(l_k)) U_k^H`` through the SPD gate for each basis U_k
    of a stack and log-spectrum row l_k: the one gated exponential, each
    step one batched call over the stack.  Returns the arrays and their gate
    decompositions; raises the error of the first matrix whose exp is not
    finite and positive or that fails the gate, as a loop over the matrices
    would.
    """
    with np.errstate(all="ignore"):
        values = np.exp(log_spectra)
    ok = np.isfinite(values).all(axis=1) & (values.min(axis=1) > 0.0)
    count = len(values) if ok.all() else int(np.argmin(ok))
    arrays = _assemble(bases[:count], values[:count])
    gate = _gate(arrays)
    if count < len(values):
        _require_positive(_function_values(log_spectra[count], np.exp))
    return arrays, gate


class _Stack:
    """Hermitian matrices along a leading axis (SPD but in ``mat_fn`` and
    ``mat_exp``), with their decomposition and the powers and logs asked of
    them cached: the one form every private spectral stage takes.  A stack
    of one matrix broadcasts against a longer stack."""

    __slots__ = ("array", "_dec", "_source", "_cache")

    def __init__(self, array: np.ndarray, dec: EigenDecomposition | None = None):
        self.array, self._dec, self._source, self._cache = array, dec, None, {}

    @classmethod
    def of(cls, A: HermitianMatrix) -> "_Stack":
        """A as one row, sharing its decomposition, taken only if asked for."""
        stack = cls(A.array[None])
        stack._source = A
        return stack

    def __len__(self) -> int:
        return len(self.array)

    def eig(self) -> EigenDecomposition:
        """The decomposition of every matrix, from one batched eigh."""
        if self._dec is None:
            self._dec = (_eigh_array(self.array) if self._source is None
                         else self._source.eig()[None])
        return self._dec

    def apply(self, f) -> tuple[np.ndarray, np.ndarray]:
        """f(A) of every matrix and its values f(lambda): the one spectral assembly."""
        dec = self.eig()
        values = _function_values(dec.eigenvalues, f)
        return _assemble(dec.unitary, values), values

    def power(self, t: float) -> np.ndarray:
        """A^t of every matrix, as ``mat_pow`` computes it."""
        t = float(t)
        if t not in self._cache:
            arrays, values = self.apply(lambda x: x**t)
            _require_positive(values)
            self._cache[t] = arrays
        return self._cache[t]

    def log(self) -> np.ndarray:
        """log A of every matrix, as ``mat_log`` computes it."""
        if "log" not in self._cache:
            self._cache["log"] = self.apply(np.log)[0]
        return self._cache["log"]

    def repeat(self, count: int) -> "_Stack":
        """Each matrix repeated ``count`` times in place, with the powers and
        logs computed so far: a factor asked of the stack before the repeat
        is computed once per matrix, not once per copy."""
        stack = _Stack(np.repeat(self.array, count, axis=0))
        stack._cache = {key: np.repeat(value, count, axis=0) for key, value in self._cache.items()}
        return stack


def _operands(*matrices) -> list[_Stack]:
    """The SPD operands of a public function, of one shape, as one-row
    stacks: the one boundary where they enter.  An SpdMatrix passes as it
    is, anything else through ``SpdMatrix(...)`` and so the SPD gate."""
    spd = [M if isinstance(M, SpdMatrix) else SpdMatrix(M) for M in matrices]
    for M in spd[1:]:
        _matching(spd[0], M)
    return [_Stack.of(M) for M in spd]


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
    A : SpdMatrix or array-like
        An array passes the Hermitian check and the SPD gate.

    Raises
    ------
    ValueError
        If X is singular or too ill-conditioned, dimensions mismatch, or an
        array A is not Hermitian or fails the gate.
    """
    (A,) = _operands(A)
    Xa, Aa = _matching(X, A.array[0])
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
    return _defects(Aa[None], Ba[None])[0]


def _defects(X: np.ndarray, Y: np.ndarray) -> list[float]:
    """||XY - YX||_F for each row pair of two stacks (or a matrix and a
    stack): one batched pair of products and one stacked norm."""
    return _frobenius(X @ Y - Y @ X).tolist()


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each matrix of a row-major ``(k, d, d)`` complex
    stack (every stack the package builds), by its own steps: the root of
    the dot products of the real and imaginary parts of each matrix's
    entries raveled.  ``np.vecdot``'s float64 loop and ``ndarray.dot`` call
    the same strided BLAS dot, so each row keeps the bits of its own norm;
    ``sum`` and ``einsum`` would add in another order."""
    x = stack.reshape(len(stack), -1)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def is_commuting(A, B, tol: float | None = None) -> bool:
    """Whether ||AB - BA||_F <= tol, defaulting tol to 1e-9 ||A||_F ||B||_F."""
    Aa, Ba = _matching(A, B)
    if tol is None:
        tol = 1e-9 * float(np.linalg.norm(Aa)) * float(np.linalg.norm(Ba))
    return commutator_defect(Aa, Ba) <= tol


def identity(dim: int) -> SpdMatrix:
    """The dim x dim identity as an SpdMatrix."""
    return SpdMatrix(np.eye(dim, dtype=np.complex128))
