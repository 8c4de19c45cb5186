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
    _LOST_POSITIVITY,
    HermitianMatrix,
    SpdMatrix,
    _assemble,
    _hermitian_part,
    _matching,
    commutator_defect,
    mat_log,
    mat_pow,
)
from .schatten import _lp, _validate_p, schatten_norm

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


def _sandwich_log_eigs(A: SpdMatrix, B) -> np.ndarray:
    """log of the eigenvalues of A^{-1/2} B A^{-1/2}, descending, for one SPD
    matrix B or, row by row, for each matrix of a ``(k, d, d)`` stack.

    One eigvalsh serves the whole stack; log runs one spectrum at a time.  A
    matrix equal to A gives the exact zero spectrum, so delta_p(A, A) is
    exactly 0 rather than the roundoff of the sandwich.
    """
    Aa, Ba = _matching(A, B, stack=True)
    equal = (Ba == Aa).reshape(-1, Aa.size).all(axis=1).tolist()
    if all(equal):
        return np.zeros(Ba.shape[:-1])
    w = np.linalg.eigvalsh(_congruence(mat_pow(A, -0.5).array, Ba))
    logs = [np.zeros(A.dim) if same else _log_descending(row)
            for same, row in zip(equal, w.reshape(-1, A.dim))]
    return logs[0] if Ba.ndim == 2 else np.array(logs)


def _log_descending(w: np.ndarray) -> np.ndarray:
    """log of an ascending sandwich spectrum, descending; raises if the
    sandwich lost positivity."""
    if w[0] <= 0.0:
        raise ValueError(_LOST_POSITIVITY)
    return np.log(w[::-1])


def _log_euclidean_eigs(A: SpdMatrix, log_B: np.ndarray) -> np.ndarray:
    """Eigenvalues of log A - log B, whose l^p norm is the log-Euclidean
    distance, for log B one Hermitian array or, from one batched eigvalsh,
    each of a ``(k, d, d)`` stack of them."""
    return np.linalg.eigvalsh(mat_log(A).array - log_B)


class GeodesicCurve:
    """The geodesic t -> A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}.

    Factor matrices are cached eagerly at construction, after which the
    curve is immutable.  ``eval`` accepts any real t; values outside [0, 1]
    extrapolate the geodesic line.
    """

    __slots__ = ("_sqrt_a", "_mid")

    def __init__(self, A: SpdMatrix, B: SpdMatrix):
        _, Ba = _matching(A, B)
        self._sqrt_a = mat_pow(A, 0.5).array
        self._mid = HermitianMatrix._adopt(_congruence(mat_pow(A, -0.5).array, Ba))
        if not self._mid.eig().eigenvalues[-1] > 0.0:
            raise ValueError(_LOST_POSITIVITY)

    @property
    def log_m(self) -> HermitianMatrix:
        """log(A^{-1/2} B A^{-1/2}); its p-norm is delta_p(A, B)."""
        return mat_log(self._mid)

    def _inner(self, values: np.ndarray) -> np.ndarray:
        """A^{1/2} f(M) A^{1/2} for the spectral values f(lambda_i) of M."""
        return _congruence(self._sqrt_a, _assemble(self._mid.eig().unitary, values))

    def eval(self, t: float) -> SpdMatrix:
        """Point on the geodesic at parameter t (SPD for every real t)."""
        values = self._mid.eig().eigenvalues ** float(t)
        return SpdMatrix._adopt(self._inner(values), values)

    __call__ = eval

    def derivative(self, t: float) -> HermitianMatrix:
        """Analytic velocity A^{1/2} M^t log(M) A^{1/2} at parameter t."""
        lam = self._mid.eig().eigenvalues
        return HermitianMatrix._adopt(self._inner(lam ** float(t) * np.log(lam)))


def weighted_mean(A: SpdMatrix, B: SpdMatrix, t: float) -> SpdMatrix:
    """Weighted geometric mean: the geodesic point A #_t B.

    ``t = 0`` gives A and ``t = 1`` gives B; values outside [0, 1]
    extrapolate the geodesic line.  Equal arrays give A itself, so A #_t A
    is exactly A for every real t rather than the roundoff of the curve.
    """
    if np.array_equal(*_matching(A, B)):
        return A
    return GeodesicCurve(A, B).eval(t)


def geometric_mean(A: SpdMatrix, B: SpdMatrix) -> SpdMatrix:
    """Geodesic midpoint A # B, the matrix geometric mean."""
    return weighted_mean(A, B, 0.5)


def delta_p(A: SpdMatrix, B: SpdMatrix, p) -> float:
    """Geodesic distance ||log(A^{-1/2} B A^{-1/2})||_p, p in [1, inf].

    Symmetric in (A, B) and zero exactly when A = B.
    """
    p = _validate_p(p)
    return _lp(_sandwich_log_eigs(A, B), p)


def delta_p_to_identity(U: SpdMatrix, p) -> float:
    """delta_p(U, I) = ||log U||_p, via the cached spectrum of U."""
    p = _validate_p(p)
    return _lp(np.log(U.eig().eigenvalues), p)


def log_euclidean_dist(A: SpdMatrix, B: SpdMatrix, p) -> float:
    """The log-Euclidean lower bound ||log(A) - log(B)||_p."""
    p = _validate_p(p)
    _matching(A, B)
    return _lp(_log_euclidean_eigs(A, mat_log(B).array), p)


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
    _matching(A, B)
    _matching(A, C)
    b_inv = mat_pow(B, -1.0).array
    product = A.array @ b_inv @ C.array
    defect_product = float(np.linalg.norm(product - product.conj().T)) / (
        float(np.linalg.norm(A.array))
        * float(np.linalg.norm(b_inv))
        * float(np.linalg.norm(C.array))
    )
    S = mat_pow(A, -0.5).array
    X = S @ B.array @ S
    Y = S @ C.array @ S
    defect_bracket = commutator_defect(X, Y) / (
        float(np.linalg.norm(X)) * float(np.linalg.norm(Y))
    )
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
    radius = delta_p_to_identity(A, p)
    if radius <= 1e-12:
        raise ValueError("cannot project the identity onto the unit sphere (no direction)")
    return mat_pow(A, 1.0 / radius)
