"""Oriented-gap checkers for every implemented norm and distance inequality.

Every checker is one row of the table ``CHECKERS``: its valid p-range, the
family of p-independent values it reads, and its formulas.  A family is built
once from raw inputs: a public ``check_*`` call builds it for one evaluation,
and a campaign builds it once per sample and evaluates every requested order
against it.  Each report's gap is oriented so that nonnegative means
satisfied, matching the inequality exactly as conventionally printed.
p-range gates are hard errors: a checker never silently coerces an
out-of-range order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .matcore import (
    HermitianMatrix,
    SpdMatrix,
    _hermitian_part,
    _matching,
    as_matrix,
    commutator_defect,
    mat_exp,
    mat_log,
)
from .schatten import (
    MajorizationVerdict,
    Spectrum,
    _lp,
    _validate_p,
    singular_values,
    weak_majorizes,
)
from .geodesic import (
    SPHERE_TOL,
    _log_euclidean_eigs,
    _sandwich_log_eigs,
    delta_p_to_identity,
    gamma_commute,
    geometric_mean,
    on_unit_sphere,
)

__all__ = [
    "InequalityReport",
    "CheckerRangeError",
    "UnprovenRangeError",
    "PRange",
    "Checker",
    "CHECKERS",
    "check_clarkson_mccarthy",
    "check_two_uniform_convexity_norm",
    "check_distance_lower_bound",
    "check_conde_2uc",
    "check_sphere_2uc",
    "check_p_convexity_high",
    "check_sphere_high",
    "check_p_convexity_low",
    "check_sphere_low",
    "check_log_majorization_lemma",
    "check_hanner_matrix",
]

# A report is satisfied when gap >= -REPORT_RTOL * max(1, |lhs|, |rhs|).
REPORT_RTOL = 1e-9

HANNER_PROVEN_UPPER = 4.0 / 3.0
HANNER_EXTRA_POINT = 1.5


class CheckerRangeError(ValueError):
    """The requested Schatten order is outside the checker's valid range."""


class UnprovenRangeError(CheckerRangeError):
    """The matrix Hanner inequality is unproven at the requested order."""


@dataclass(frozen=True)
class InequalityReport:
    """One evaluated inequality instance with an oriented gap.

    ``gap`` is (greater side) - (lesser side) in the inequality's
    conventional orientation, so ``gap >= 0`` means satisfied;
    ``satisfied`` allows the slack ``REPORT_RTOL * max(1, |lhs|, |rhs|)``.
    ``lhs`` and ``rhs`` are the two sides as conventionally printed.
    """

    name: str
    p: float
    lhs: float
    rhs: float
    gap: float
    satisfied: bool
    diagnostics: dict[str, float] = field(default_factory=dict)


def _satisfied(gap: float, lhs: float, rhs: float, rtol: float = REPORT_RTOL) -> bool:
    """The verdict rule: gap >= -rtol * max(1, |lhs|, |rhs|)."""
    return bool(gap >= -rtol * max(1.0, abs(lhs), abs(rhs)))


def _report(name: str, p: float, lhs: float, rhs: float, gap: float,
            diagnostics: dict[str, float] | None = None) -> InequalityReport:
    return InequalityReport(
        name=name,
        p=float(p),
        lhs=float(lhs),
        rhs=float(rhs),
        gap=float(gap),
        satisfied=_satisfied(gap, lhs, rhs),
        diagnostics=dict(diagnostics or {}),
    )


@dataclass(frozen=True)
class PRange:
    """Schatten orders a checker accepts: an interval with open or closed
    ends, plus an optional isolated ``point`` matched within 1e-12.
    NaN is never inside."""

    low: float
    high: float
    low_open: bool = False
    high_open: bool = False
    point: float | None = None

    def __contains__(self, p) -> bool:
        if self.point is not None and abs(p - self.point) <= 1e-12:
            return True
        above_low = p > self.low if self.low_open else p >= self.low
        below_high = p < self.high if self.high_open else p <= self.high
        return above_low and below_high

    def __str__(self) -> str:
        interval = (f"{'(' if self.low_open else '['}{self.low}, "
                    f"{self.high}{')' if self.high_open else ']'}")
        return interval if self.point is None else f"{interval} and {{{self.point}}}"


@dataclass(frozen=True)
class Checker:
    """One row of the checker table.

    ``p_range`` is the single definition of the orders the checker accepts
    (None for the p-independent log-majorization lemma).  ``family`` names
    the values it reads (see the family builders below); ``evaluate(values,
    p)`` turns that family's values into the checker's reports at order p.
    """

    p_range: PRange | None
    family: str
    evaluate: Callable[[object, float], tuple[InequalityReport, ...]]

    def orders(self, p_values) -> list[float]:
        """The requested orders a campaign evaluates this checker at: those
        inside its range, or ``[nan]`` when it does not depend on p."""
        if self.p_range is None:
            return [math.nan]
        return [float(p) for p in p_values if float(p) in self.p_range]


# Family builders.  Each returns the p-independent values its checkers read:
# a spectrum per named quantity, whose l^p norm is that quantity at order p.
# "sphere" is the exception: its inputs are projected per order, so a sphere
# family is built once per (sample, p).

def _pair_spectra(X, Y) -> dict[str, np.ndarray]:
    """The "norms" family: singular spectra of X, Y, X+Y and X-Y."""
    Xa, Ya = _matching(X, Y)
    return {
        "norm_x": singular_values(Xa).values,
        "norm_y": singular_values(Ya).values,
        "norm_plus": singular_values(Xa + Ya).values,
        "norm_minus": singular_values(Xa - Ya).values,
    }


def _distance_spectra(A: SpdMatrix, B, log_B: np.ndarray) -> dict[str, np.ndarray]:
    """The "distance" family: the log-spectra behind delta_p(A, B) and
    ||log A - log B||_p, given log B.  B and log B may also be ``(k, d, d)``
    stacks, giving one spectrum per row."""
    return {"delta_p": _sandwich_log_eigs(A, B), "log_euclidean": _log_euclidean_eigs(A, log_B)}


def _triple_spectra(A: SpdMatrix, B: SpdMatrix, C: SpdMatrix) -> dict[str, np.ndarray]:
    """The "triple" family: sandwich log-spectra of (A,C), (B,C), (A,B) and (A#B,C)."""
    mid = geometric_mean(A, B)
    d_ac, d_ab = _sandwich_log_eigs(A, np.array(_matching(C, B)))
    return {
        "d_ac": d_ac,
        "d_bc": _sandwich_log_eigs(B, C),
        "d_ab": d_ab,
        "d_mid": _sandwich_log_eigs(mid, C),
    }


def _sphere_spectra(A: SpdMatrix, B: SpdMatrix, p: float) -> dict[str, np.ndarray]:
    """The "sphere" family at order p: log-spectra behind delta_p(A#B, I) and
    delta_p(A, B), for A and B on the exponential unit sphere of order p."""
    return {
        "d_mid_identity": np.log(geometric_mean(A, B).eig().eigenvalues),
        "d_ab": _sandwich_log_eigs(A, B),
    }


def _norms(spectra: dict[str, np.ndarray], p: float) -> dict[str, float]:
    return {name: _lp(values, p) for name, values in spectra.items()}


def _ge(name: str, lhs, rhs):
    """evaluate() of one inequality printed ``lhs >= rhs``; both sides are
    formulas in the family's norms ``q`` at order ``p``."""
    def evaluate(spectra: dict[str, np.ndarray], p: float) -> tuple[InequalityReport]:
        q = _norms(spectra, p)
        left, right = lhs(q, p), rhs(q, p)
        return (_report(name, p, left, right, left - right, q),)

    return evaluate


def _clarkson_mccarthy(spectra: dict[str, np.ndarray], p: float):
    """Two reports, lower and upper bound, whose orientation flips at p = 2."""
    q = _norms(spectra, p)
    combined = q["norm_plus"] ** p + q["norm_minus"] ** p
    separate = q["norm_x"] ** p + q["norm_y"] ** p
    diagnostics = {"combined_power_sum": combined, "separate_power_sum": separate}
    if p >= 2.0:
        lower = _report("clarkson_mccarthy_lower_p_ge_2", p,
                        2.0 * separate, combined, combined - 2.0 * separate, diagnostics)
        upper = _report("clarkson_mccarthy_upper_p_ge_2", p,
                        combined, 2.0 ** (p - 1.0) * separate,
                        2.0 ** (p - 1.0) * separate - combined, diagnostics)
    else:
        lower = _report("clarkson_mccarthy_lower_p_le_2", p,
                        2.0 * separate, combined, 2.0 * separate - combined, diagnostics)
        upper = _report("clarkson_mccarthy_upper_p_le_2", p,
                        combined, 2.0 ** (p - 1.0) * separate,
                        combined - 2.0 ** (p - 1.0) * separate, diagnostics)
    return lower, upper


def _log_majorization(pair: tuple[HermitianMatrix, HermitianMatrix], p: float):
    """The lemma as one report: lhs and rhs are the traces of H + K and of
    the BCH side, the gap is the smallest prefix slack."""
    H, K = pair
    verdict = check_log_majorization_lemma(H, K)
    sum_trace = float(np.trace(as_matrix(H) + as_matrix(K)).real)
    bch_trace = sum_trace + float(verdict.slack[-1])
    return (InequalityReport("log_majorization", float(p), sum_trace, bch_trace,
                             float(verdict.slack.min()), verdict.holds),)


_ABOVE_1_TO_2 = PRange(1.0, 2.0, low_open=True)
_FROM_2 = PRange(2.0, math.inf, high_open=True)

CHECKERS: dict[str, Checker] = {
    "clarkson_mccarthy": Checker(
        PRange(1.0, math.inf, high_open=True), "norms", _clarkson_mccarthy),
    "two_uniform_convexity": Checker(_ABOVE_1_TO_2, "norms", _ge(
        "two_uniform_convexity",
        lambda q, p: 0.5 * (q["norm_plus"]**2 + q["norm_minus"]**2),
        lambda q, p: q["norm_x"]**2 + (p - 1.0) * q["norm_y"]**2)),
    "hanner": Checker(PRange(1.0, HANNER_PROVEN_UPPER, point=HANNER_EXTRA_POINT), "norms", _ge(
        "hanner_matrix",
        lambda q, p: q["norm_plus"] ** p + q["norm_minus"] ** p,
        lambda q, p: (q["norm_x"] + q["norm_y"]) ** p + abs(q["norm_x"] - q["norm_y"]) ** p)),
    # Narrower than check_distance_lower_bound accepts: see its docstring.
    "distance_lower_bound": Checker(
        PRange(1.0, math.inf, low_open=True, high_open=True), "distance", _ge(
            "distance_lower_bound",
            lambda q, p: q["delta_p"],
            lambda q, p: q["log_euclidean"])),
    "conde_2uc": Checker(_ABOVE_1_TO_2, "triple", _ge(
        "conde_2uc",
        lambda q, p: 0.5 * (q["d_ac"]**2 + q["d_bc"]**2),
        lambda q, p: q["d_mid"]**2 + (p - 1.0) / 4.0 * q["d_ab"]**2)),
    "sphere_2uc": Checker(_ABOVE_1_TO_2, "sphere", _ge(
        "sphere_2uc",
        lambda q, p: 1.0 - q["d_mid_identity"],
        lambda q, p: (p - 1.0) / 8.0 * q["d_ab"]**2)),
    "p_convexity_high": Checker(_FROM_2, "triple", _ge(
        "p_convexity_high",
        lambda q, p: 0.5 * (q["d_ac"]**p + q["d_bc"]**p),
        lambda q, p: 2.0 ** (-p) * q["d_ab"]**p + q["d_mid"]**p)),
    "sphere_high": Checker(_FROM_2, "sphere", _ge(
        "sphere_high",
        lambda q, p: 1.0 - q["d_mid_identity"]**p,
        lambda q, p: 2.0 ** (-p) * q["d_ab"]**p)),
    "p_convexity_low": Checker(_ABOVE_1_TO_2, "triple", _ge(
        "p_convexity_low",
        lambda q, p: q["d_ac"]**p + q["d_bc"]**p,
        lambda q, p: 0.5 * q["d_ab"]**p + 2.0 ** (p - 1.0) * q["d_mid"]**p)),
    "sphere_low": Checker(_ABOVE_1_TO_2, "sphere", _ge(
        "sphere_low",
        lambda q, p: 1.0 - 2.0 ** (p - 2.0) * q["d_mid_identity"]**p,
        lambda q, p: 0.25 * q["d_ab"]**p)),
    "log_majorization": Checker(None, "hermitian_pair", _log_majorization),
}


def _checked_order(name: str, p) -> float:
    p = float(p)
    p_range = CHECKERS[name].p_range
    if p not in p_range:
        raise CheckerRangeError(f"{name}: p = {p} outside valid range {p_range}")
    return p


def _check_triple(name: str, A: SpdMatrix, B: SpdMatrix, C: SpdMatrix, p) -> InequalityReport:
    p = _checked_order(name, p)
    (report,) = CHECKERS[name].evaluate(_triple_spectra(A, B, C), p)
    gamma = gamma_commute(A, B, C)
    report.diagnostics.update(gamma_defect_product=gamma.defect_product,
                              gamma_defect_bracket=gamma.defect_bracket)
    return report


def _check_sphere(name: str, A: SpdMatrix, B: SpdMatrix, p) -> InequalityReport:
    p = _checked_order(name, p)
    for label, U in (("A", A), ("B", B)):
        if not on_unit_sphere(U, p, SPHERE_TOL):
            raise ValueError(
                f"{label} is off the exponential unit sphere of order {p} by more than "
                f"{SPHERE_TOL:.0e} (delta_p to identity = {delta_p_to_identity(U, p):.12g})"
            )
    (report,) = CHECKERS[name].evaluate(_sphere_spectra(A, B, p), p)
    return report


def check_clarkson_mccarthy(X, Y, p) -> tuple[InequalityReport, InequalityReport]:
    """Both Clarkson-McCarthy bounds on ||X+Y||_p^p + ||X-Y||_p^p.

    For p >= 2 the sum is bounded below by 2(||X||^p + ||Y||^p) and above
    by 2^{p-1}(||X||^p + ||Y||^p); both bounds reverse for 1 <= p <= 2.
    Returns (lower_report, upper_report).
    """
    p = _checked_order("clarkson_mccarthy", p)
    return CHECKERS["clarkson_mccarthy"].evaluate(_pair_spectra(X, Y), p)


def check_two_uniform_convexity_norm(X, Y, p) -> InequalityReport:
    """2-uniform convexity at the norm level, 1 < p <= 2:

    (||X+Y||_p^2 + ||X-Y||_p^2) / 2  >=  ||X||_p^2 + (p-1) ||Y||_p^2.
    """
    p = _checked_order("two_uniform_convexity", p)
    (report,) = CHECKERS["two_uniform_convexity"].evaluate(_pair_spectra(X, Y), p)
    return report


def check_distance_lower_bound(A: SpdMatrix, B: SpdMatrix, p) -> InequalityReport:
    """delta_p(A, B) >= ||log A - log B||_p, equality iff [A, B] = 0.

    Accepts every Schatten order p in [1, inf].  The table range of
    ``distance_lower_bound``, 1 < p < inf, only filters campaign orders;
    this is the one checker whose public domain is wider than its row.
    """
    p = _validate_p(p)
    spectra = _distance_spectra(A, B, mat_log(B).array)
    (report,) = CHECKERS["distance_lower_bound"].evaluate(spectra, p)
    report.diagnostics["commutator_defect"] = commutator_defect(A, B)
    return report


def check_conde_2uc(A: SpdMatrix, B: SpdMatrix, C: SpdMatrix, p) -> InequalityReport:
    """2-uniform convexity of delta_p, 1 < p <= 2:

    (delta_p(A,C)^2 + delta_p(B,C)^2) / 2
        >=  delta_p(A#B, C)^2 + (p-1)/4 * delta_p(A,B)^2.

    Equality only at p = 2 with a commuting pair; strict unless the triple
    Gamma-commutes.
    """
    return _check_triple("conde_2uc", A, B, C, p)


def check_sphere_2uc(A: SpdMatrix, B: SpdMatrix, p) -> InequalityReport:
    """Unit-sphere form of 2-uniform convexity, 1 < p <= 2:

    1 - delta_p(A#B, I)  >=  (p-1)/8 * delta_p(A,B)^2    for A, B on the sphere.
    """
    return _check_sphere("sphere_2uc", A, B, p)


def check_p_convexity_high(A: SpdMatrix, B: SpdMatrix, C: SpdMatrix, p) -> InequalityReport:
    """p-uniform convexity of delta_p for p >= 2:

    (delta_p(A,C)^p + delta_p(B,C)^p) / 2
        >=  2^{-p} delta_p(A,B)^p + delta_p(A#B, C)^p.
    """
    return _check_triple("p_convexity_high", A, B, C, p)


def check_sphere_high(A: SpdMatrix, B: SpdMatrix, p) -> InequalityReport:
    """Unit-sphere form for p >= 2:

    1 - delta_p(A#B, I)^p  >=  2^{-p} delta_p(A,B)^p    for A, B on the sphere.
    """
    return _check_sphere("sphere_high", A, B, p)


def check_p_convexity_low(A: SpdMatrix, B: SpdMatrix, C: SpdMatrix, p) -> InequalityReport:
    """p-uniform convexity of delta_p for 1 < p <= 2:

    delta_p(A,C)^p + delta_p(B,C)^p
        >=  delta_p(A,B)^p / 2 + 2^{p-1} delta_p(A#B, C)^p.
    """
    return _check_triple("p_convexity_low", A, B, C, p)


def check_sphere_low(A: SpdMatrix, B: SpdMatrix, p) -> InequalityReport:
    """Unit-sphere form for 1 < p <= 2:

    1 - 2^{p-2} delta_p(A#B, I)^p  >=  delta_p(A,B)^p / 4   on the sphere.
    """
    return _check_sphere("sphere_low", A, B, p)


def check_log_majorization_lemma(H: HermitianMatrix, K: HermitianMatrix) -> MajorizationVerdict:
    """Majorization of eigenvalue vectors:

    lambda(H + K)  ≺  lambda(log(e^{K/2} e^H e^{K/2})).

    Both sides share their total sum (the trace), so the verdict's final
    slack entry is the trace difference and must vanish; the verdict is
    tight everywhere exactly when H and K commute.
    """
    Ha, Ka = (_hermitian_part(M) for M in _matching(H, K))
    sum_spectrum = Spectrum(np.linalg.eigvalsh(Ha + Ka))
    # lambda(e^{K/2} e^H e^{K/2}) = sigma(e^{H/2} e^{K/2})^2; the half-factor
    # product halves the condition-number amplification of the formed matrix.
    exp_h, exp_k = (mat_exp(HermitianMatrix._adopt(0.5 * M)).array for M in (Ha, Ka))
    sing = np.linalg.svd(exp_h @ exp_k, compute_uv=False)
    if sing[-1] <= 0.0:
        raise ValueError("exponential product lost rank numerically")
    bch_spectrum = Spectrum(2.0 * np.log(sing))
    return weak_majorizes(sum_spectrum, bch_spectrum)


def check_hanner_matrix(X, Y, p) -> InequalityReport:
    """Matrix Hanner inequality on its proven range p in [1, 4/3] or p = 3/2:

    ||X+Y||_p^p + ||X-Y||_p^p
        >=  (||X||_p + ||Y||_p)^p + | ||X||_p - ||Y||_p |^p.
    """
    p = float(p)
    p_range = CHECKERS["hanner"].p_range
    if p not in p_range:
        raise UnprovenRangeError(f"hanner_matrix: unproven-range: p = {p} outside {p_range}")
    (report,) = CHECKERS["hanner"].evaluate(_pair_spectra(X, Y), p)
    return report
