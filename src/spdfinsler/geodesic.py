"""Geodesics, weighted geometric means, and the Schatten-p distance delta_p.

The unique geodesic from A to B is ``gamma(t) = A^{1/2} M^t A^{1/2}`` with
``M = A^{-1/2} B A^{-1/2}``, giving distance
``delta_p(A, B) = ||log M||_p``.  When A and B commute this reduces to
``gamma(t) = A^{1-t} B^t`` and ``delta_p = ||log A - log B||_p``; in general
``delta_p >= ||log A - log B||_p``, strictly for noncommuting pairs and p > 1.

Note the inner sandwich uses B itself, not B^{1/2}: only that choice makes
the commuting reduction and the endpoint conditions identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .matcore import (
    EigenDecomposition,
    HermitianMatrix,
    SpdMatrix,
    _Stack,
    _assemble,
    _frobenius,
    _function_values,
    _hermitian_part,
    _operands,
    _require_positive,
    mat_pow,
)
from .schatten import _lp_rows, _validate_p, schatten_norm

__all__ = [
    "GeodesicCurve",
    "GammaCommuteReport",
    "weighted_mean",
    "geometric_mean",
    "delta_p",
    "delta_p_to_identity",
    "log_euclidean_dist",
    "geodesic_speed",
    "arc_length",
    "gamma_commute",
    "on_unit_sphere",
    "project_to_unit_sphere",
]

GAMMA_COMMUTE_TOL = 1e-8
SPHERE_TOL = 1e-8
# Central-difference step for curves without an analytic derivative.
FINITE_DIFF_STEP = 1e-5


def _congruence(S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Hermitian part of S X S, for Hermitian S and X a matrix or a stack."""
    return _hermitian_part(S @ X @ S)


def _descending_logs(w: np.ndarray) -> np.ndarray:
    """log of each ascending row of a ``(k, d)`` stack, rows reversed to
    descending.  The log runs over one reversed 1-D view, the strided path
    that ``np.log(row[::-1])`` takes for each row alone (a contiguous stack
    would take the vectorized path, whose roundings differ)."""
    return np.log(np.ascontiguousarray(w).ravel()[::-1])[::-1].reshape(w.shape)[:, ::-1]


def _log_euclidean_eigs(A: _Stack, B: _Stack) -> np.ndarray:
    """Eigenvalues of log A - log B, for each row of B (A one matrix or one
    per row): their l^p norm is the log-Euclidean distance."""
    return np.linalg.eigvalsh(A.log() - B.log())


def _radii(U: _Stack, p: float) -> list[float]:
    """delta_p(U, I) = ||log U||_p of each row, from its spectrum."""
    return _lp_rows(np.log(U.eig().eigenvalues), p)


def _project(A: _Stack, p: float) -> tuple[np.ndarray, np.ndarray]:
    """A^(1 / ||log A||_p), the radial projection onto the exponential unit
    sphere of order p, of each matrix: its arrays and their spectral
    values, each power from the stack's one decomposition."""
    dec = A.eig()
    eigs = dec.eigenvalues
    radii = _lp_rows(np.log(eigs), p)
    if any(radius <= 1e-12 for radius in radii):
        raise ValueError("cannot project the identity onto the unit sphere (no direction)")
    exponents = 1.0 / np.array(radii)

    def powers(flat: np.ndarray) -> np.ndarray:
        """Each row to its exponent, as ``row ** (1.0 / radius)`` rounds: one
        broadcast power, but numpy takes a Python float exponent of 0.5 or 2
        to sqrt or square, whose roundings differ from its pow."""
        rows = flat.reshape(eigs.shape)
        out = rows ** exponents[:, None]
        for k in np.flatnonzero((exponents == 0.5) | (exponents == 2.0)):
            out[k] = rows[k] ** (1.0 / radii[k])
        return out.ravel()

    values = _require_positive(_function_values(eigs, powers))
    return _assemble(dec.unitary, values), values


def _gamma_defects(A: _Stack, B: _Stack, C: _Stack) -> tuple[list[float], list[float]]:
    """The normalized defects of ``gamma_commute`` for each row triple,
    each norm one stacked Frobenius norm."""
    b_inv = B.power(-1.0)
    product = A.array @ b_inv @ C.array
    S = A.power(-0.5)
    X = S @ B.array @ S
    Y = S @ C.array @ S
    asymmetry, bracket = product - product.conj().mT, X @ Y - Y @ X
    norm = _frobenius
    return (
        (norm(asymmetry) / (norm(A.array) * norm(b_inv) * norm(C.array))).tolist(),
        (norm(bracket) / (norm(X) * norm(Y))).tolist(),
    )


class GeodesicCurve:
    """The geodesic t -> A^{1/2} M^t A^{1/2}, M = A^{-1/2} B A^{-1/2}.

    The one place a pair's sandwich M is formed: its log-spectrum (whose
    l^p norm is delta_p(A, B)), its decomposition and the curve's points
    all read it.  The public curve is factored eagerly at construction,
    after which it is immutable.  ``eval`` accepts any real t; values
    outside [0, 1] extrapolate the geodesic line.  The private methods run
    on stacks, one geodesic per row; the public ones are their one-row case.
    """

    __slots__ = ("_a", "_b", "_equal", "_mid", "_dec", "_logs")

    def __init__(self, A: SpdMatrix, B: SpdMatrix):
        self._start(*_operands(A, B))
        self._eig()

    @classmethod
    def _of(cls, A: _Stack, B: _Stack) -> "GeodesicCurve":
        """The geodesic from each row of A (one matrix, or one per row) to
        the row of B: its sandwich, decomposition, log-spectrum and A^{1/2}
        are each computed on first use."""
        curve = object.__new__(cls)
        curve._start(A, B)
        return curve

    def _start(self, A: _Stack, B: _Stack) -> None:
        """The ends and the rows where B equals A; nothing computed yet."""
        self._a, self._b = A, B
        self._equal = (B.array == A.array).all(axis=(1, 2))
        self._mid = self._dec = self._logs = None

    def _m(self) -> _Stack:
        """The sandwiches M of every row, formed on first use."""
        if self._mid is None:
            self._mid = _Stack(_congruence(self._a.power(-0.5), self._b.array))
        return self._mid

    def _eig(self) -> EigenDecomposition:
        """M's decomposition, taken on first use and checked positive there,
        before any power of it, but on the rows where B equals A."""
        if self._dec is None:
            dec = self._m().eig()
            _require_positive(dec.eigenvalues[~self._equal])
            self._dec = dec
        return self._dec

    def _log_eigs(self) -> np.ndarray:
        """log of M's eigenvalues, descending, for each row, from one
        eigvalsh (not the decomposition's eigh: their bits differ), checked
        positive.  A row whose B equals A gives the exact zero spectrum, and
        M is not formed when every row does, so delta_p(A, A) is exactly 0."""
        if self._logs is None:
            logs = np.zeros(self._equal.shape + self._b.array.shape[-1:])
            if not self._equal.all():
                w = np.linalg.eigvalsh(self._m().array)[~self._equal]
                logs[~self._equal] = _descending_logs(_require_positive(w))
            self._logs = logs
        return self._logs

    def _inner(self, values: np.ndarray) -> np.ndarray:
        """A^{1/2} f(M) A^{1/2} of each row, for the spectral values f(lambda) of M."""
        return _congruence(self._a.power(0.5), _assemble(self._eig().unitary, values))

    def _points(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The point at t of each row and its M^t's values (A where B equals A)."""
        values = self._eig().eigenvalues ** float(t)
        points = self._inner(values)
        _require_positive(values[~self._equal])
        points[self._equal] = np.broadcast_to(self._a.array, points.shape)[self._equal]
        return points, values

    def _zero_where_equal(self, arrays: np.ndarray) -> np.ndarray:
        """The arrays with exact zeros on the rows where B equals A."""
        return np.where(self._equal[:, None, None], 0.0, arrays)

    @property
    def log_m(self) -> HermitianMatrix:
        """log(A^{-1/2} B A^{-1/2}); its p-norm is delta_p(A, B).  Exactly
        zero when B equals A."""
        return HermitianMatrix._adopt(self._zero_where_equal(self._m().log())[0])

    def eval(self, t: float) -> SpdMatrix:
        """Point on the geodesic at parameter t (SPD for every real t); A
        itself, bit for bit, when B equals A."""
        points, values = self._points(t)
        return SpdMatrix._adopt(points[0], values[0])

    __call__ = eval

    def derivative(self, t: float) -> HermitianMatrix:
        """Analytic velocity A^{1/2} M^t log(M) A^{1/2} at parameter t;
        exactly zero when B equals A."""
        lam = self._eig().eigenvalues
        velocity = self._inner(lam ** float(t) * np.log(lam))
        return HermitianMatrix._adopt(self._zero_where_equal(velocity)[0])


def weighted_mean(A: SpdMatrix, B: SpdMatrix, t: float) -> SpdMatrix:
    """Weighted geometric mean: the geodesic point A #_t B.

    ``t = 0`` gives A and ``t = 1`` gives B; values outside [0, 1]
    extrapolate the geodesic line.  Equal arrays give A itself, so A #_t A
    is exactly A for every real t rather than the roundoff of the curve.
    """
    A, B = _operands(A, B)
    if np.array_equal(A.array, B.array):
        return A._source
    points, values = GeodesicCurve._of(A, B)._points(t)
    return SpdMatrix._adopt(points[0], values[0])


def geometric_mean(A: SpdMatrix, B: SpdMatrix) -> SpdMatrix:
    """Geodesic midpoint A # B, the matrix geometric mean."""
    return weighted_mean(A, B, 0.5)


def delta_p(A: SpdMatrix, B: SpdMatrix, p) -> float:
    """Geodesic distance ||log(A^{-1/2} B A^{-1/2})||_p, p in [1, inf].

    Symmetric in (A, B) and zero exactly when A = B.
    """
    p = _validate_p(p)
    return _lp_rows(GeodesicCurve._of(*_operands(A, B))._log_eigs(), p)[0]


def delta_p_to_identity(U: SpdMatrix, p) -> float:
    """delta_p(U, I) = ||log U||_p, via the cached spectrum of U."""
    p = _validate_p(p)
    return _radii(*_operands(U), p)[0]


def log_euclidean_dist(A: SpdMatrix, B: SpdMatrix, p) -> float:
    """The log-Euclidean lower bound ||log(A) - log(B)||_p."""
    p = _validate_p(p)
    return _lp_rows(_log_euclidean_eigs(*_operands(A, B)), p)[0]


def _speed_from_arrays(point: SpdMatrix, velocity: np.ndarray, p: float) -> float:
    tangent = _congruence(mat_pow(point, -0.5).array, velocity)
    return schatten_norm(HermitianMatrix._adopt(tangent), p)


def geodesic_speed(curve: GeodesicCurve, t: float, p) -> float:
    """Finsler speed ||gamma^{-1/2} gamma' gamma^{-1/2}||_p at parameter t.

    Constant along a geodesic and equal to delta_p of the endpoints.
    """
    p = _validate_p(p)
    return _speed_from_arrays(curve.eval(t), curve.derivative(t).array, p)


CurveLike = Union[GeodesicCurve, Callable[[float], SpdMatrix]]


def arc_length(curve: CurveLike, p, intervals: int = 64) -> float:
    """Composite-Simpson arc length of a smooth SPD-valued curve on [0, 1].

    GeodesicCurve inputs use the analytic velocity; other callables use
    central differences with step 1e-5 (the curve must evaluate to an SPD
    matrix slightly outside [0, 1]).  A non-SPD evaluation at any grid
    point raises.
    """
    p = _validate_p(p)
    if intervals < 2 or intervals % 2 != 0:
        raise ValueError(f"Simpson rule needs an even interval count >= 2, got {intervals}")

    if isinstance(curve, GeodesicCurve):
        def speed(t: float) -> float:
            return geodesic_speed(curve, t, p)
    else:
        h = FINITE_DIFF_STEP

        def speed(t: float) -> float:
            point = SpdMatrix(curve(t))
            ahead, behind = SpdMatrix(curve(t + h)), SpdMatrix(curve(t - h))
            velocity = (ahead.array - behind.array) / (2.0 * h)
            return _speed_from_arrays(point, velocity, p)

    step = 1.0 / intervals
    total = speed(0.0) + speed(1.0)
    for k in range(1, intervals):
        total += (4.0 if k % 2 else 2.0) * speed(k * step)
    return total * step / 3.0


@dataclass(frozen=True)
class GammaCommuteReport:
    """Both defect characterizations of simultaneous congruence-commuting.

    ``defect_product`` is ||A B^{-1} C - C B^{-1} A||_F normalized by
    ||A||_F ||B^{-1}||_F ||C||_F;  ``defect_bracket`` is the normalized
    commutator of the two A-sandwiches.  ``holds`` requires both defects
    at or below ``tolerance``.
    """

    defect_product: float
    defect_bracket: float
    holds: bool
    tolerance: float


def gamma_commute(A: SpdMatrix, B: SpdMatrix, C: SpdMatrix,
                  tol: float = GAMMA_COMMUTE_TOL) -> GammaCommuteReport:
    """Test whether A, B, C commute after congruence by a common invertible X.

    Equivalent characterizations: ``A B^{-1} C = C B^{-1} A`` and
    ``[A^{-1/2} B A^{-1/2}, A^{-1/2} C A^{-1/2}] = 0``.  Both normalized
    defects are reported; with ``C = I`` the predicate reduces to ordinary
    commuting of A and B.
    """
    (defect_product,), (defect_bracket,) = _gamma_defects(*_operands(A, B, C))
    return GammaCommuteReport(
        defect_product=defect_product,
        defect_bracket=defect_bracket,
        holds=bool(defect_product <= tol and defect_bracket <= tol),
        tolerance=float(tol),
    )


def on_unit_sphere(U: SpdMatrix, p, tol: float = SPHERE_TOL) -> bool:
    """Whether U lies on the exponential unit sphere: |delta_p(U, I) - 1| <= tol."""
    return abs(delta_p_to_identity(U, p) - 1.0) <= tol


def project_to_unit_sphere(A: SpdMatrix, p) -> SpdMatrix:
    """Radially project A != I onto the exponential unit sphere.

    Returns ``A^(1 / ||log A||_p)``, which satisfies the sphere predicate
    up to roundoff.  Raises for A = I, where no direction exists.
    """
    p = _validate_p(p)
    arrays, values = _project(*_operands(A), p)
    return SpdMatrix._adopt(arrays[0], values[0])
