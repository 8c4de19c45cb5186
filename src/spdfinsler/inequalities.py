"""Oriented-gap checkers for every implemented norm and distance inequality.

Every checker is one row of the table ``CHECKERS``: its valid p-range, the
family of p-independent values it reads, and its formulas.  A family is built
from raw inputs by one stacked builder: a public ``check_*`` call builds it
for one sample, a campaign once for all the samples of a chunk, and every
requested order is evaluated against it.  Each report's gap is oriented so
that nonnegative means satisfied, matching the inequality exactly as
conventionally printed.
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
    _Stack,
    _defects,
    _hermitian_part,
    _matching,
    _operands,
    _require_positive,
)
from .schatten import (
    MajorizationVerdict,
    _descending,
    _lp_rows,
    _majorization_slack,
    _prefix_verdicts,
    _validate_p,
    _verdict,
)
from .geodesic import (
    SPHERE_TOL,
    GeodesicCurve,
    _gamma_defects,
    _log_euclidean_eigs,
    _radii,
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


def _satisfied(lhs: list[float], rhs: list[float], gap: list[float],
               rtol: float) -> list[bool]:
    """The verdict rule, row by row: gap >= -rtol * max(1, |lhs|, |rhs|),
    over float64 arrays; fmax skips a NaN side as Python's max does."""
    scale = np.fmax(np.fmax(1.0, np.abs(lhs)), np.abs(rhs))
    with np.errstate(invalid="ignore"):  # 0 * inf is NaN, as on Python floats
        return (np.asarray(gap) >= -rtol * scale).tolist()


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
    the values it reads (see the family builders below).  ``names(p)`` are
    the names of its reports at order p, which depend on p alone, and
    ``evaluate(inputs, p, rtol)`` turns the family's inputs at order p (see
    ``_inputs``), columns with one entry per sample, into one report per
    name: columns ``(lhs, rhs, gap, satisfied)``, the formulas run on
    Python floats and the verdicts by the gap rule at relative tolerance
    ``rtol`` (see ``_satisfied``), plus its diagnostics as a dict of
    columns.  A campaign reads the four columns only; a public ``check_*``
    report takes its ``diagnostics`` from the first entry of each
    diagnostic column.
    """

    p_range: PRange | None
    family: str
    names: Callable[[float], tuple[str, ...]]
    evaluate: Callable[[dict, float, float], tuple[tuple, ...]]

    def orders(self, p_values) -> list[float]:
        """The requested orders a campaign evaluates this checker at: those
        inside its range, or ``[nan]`` when it does not depend on p."""
        if self.p_range is None:
            return [math.nan]
        return [float(p) for p in p_values if float(p) in self.p_range]


# Family builders.  Each takes stacks, one row per sample (one matrix each
# for a public check_* call), and returns the p-independent values its
# checkers read, one row per sample: a spectrum per named quantity, whose
# l^p norm is that quantity at order p.  A sphere family's inputs are
# projected per order, so it is built from the projections of each order.

def _pair_spectra(X: np.ndarray, Y: np.ndarray) -> dict[str, np.ndarray]:
    """The "norms" family: singular spectra of X, Y, X+Y and X-Y for each
    row pair of two ``(k, d, d)`` stacks, from one batched svd."""
    sing = _descending(np.linalg.svd(np.stack([X, Y, X + Y, X - Y], axis=1),
                                     compute_uv=False), "singular")
    return dict(zip(("norm_x", "norm_y", "norm_plus", "norm_minus"), sing.swapaxes(0, 1)))


def _distance_spectra(ab: GeodesicCurve) -> dict[str, np.ndarray]:
    """The "distance" family: the log-spectra behind delta_p(A, B) and
    ||log A - log B||_p for each row of the curves from A to B."""
    return {"delta_p": ab._log_eigs(), "log_euclidean": _log_euclidean_eigs(ab._a, ab._b)}


def _triple_spectra(ab: GeodesicCurve, C: _Stack) -> dict[str, np.ndarray]:
    """The "triple" family: sandwich log-spectra of (A,C), (B,C), (A,B) and
    (A#B,C), for each row of the curves from A to B and of C."""
    mean = _Stack(ab._points(0.5)[0])
    return {
        "d_ac": GeodesicCurve._of(ab._a, C)._log_eigs(),
        "d_bc": GeodesicCurve._of(ab._b, C)._log_eigs(),
        "d_ab": ab._log_eigs(),
        "d_mid": GeodesicCurve._of(mean, C)._log_eigs(),
    }


def _sphere_spectra(ab: GeodesicCurve) -> dict[str, np.ndarray]:
    """The "sphere" family: log-spectra behind delta_p(A#B, I) and
    delta_p(A, B), for each row of the curves from A to B, both ends on the
    exponential unit sphere of order p."""
    mean = _Stack(ab._points(0.5)[0])
    return {"d_mid_identity": np.log(mean.eig().eigenvalues), "d_ab": ab._log_eigs()}


def _lemma_spectra(H: np.ndarray, K: np.ndarray) -> dict[str, np.ndarray]:
    """The "hermitian_pair" family: the spectra compared by the
    log-majorization lemma, lambda(H + K) and the BCH side
    lambda(log(e^{K/2} e^H e^{K/2})) = 2 log sigma(e^{H/2} e^{K/2}), plus
    tr(H + K), for each row pair of two stacks of Hermitian arrays.  The
    half-factor product halves the condition-number amplification of the
    formed matrix."""
    Ha, Ka = _hermitian_part(H), _hermitian_part(K)
    sums = np.linalg.eigvalsh(Ha + Ka)
    halves, values = _Stack(np.concatenate([0.5 * Ha, 0.5 * Ka])).apply(np.exp)
    _require_positive(values)
    sing = np.linalg.svd(halves[:len(Ha)] @ halves[len(Ha):], compute_uv=False)
    if (sing[:, -1] <= 0.0).any():
        raise ValueError("exponential product lost rank numerically")
    return {"sum": sums, "bch": 2.0 * np.log(sing),
            "trace": np.trace(H + K, axis1=-2, axis2=-1).real}


def _lemma_slack(values: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Each row's majorization slack of lambda(H + K) against the BCH side,
    with its tolerance, as ``weak_majorizes`` computes them."""
    return _majorization_slack(_descending(values["sum"], "eigenvalue"),
                               _descending(values["bch"], "eigenvalue"))


def _inputs(family: str, values: dict[str, np.ndarray], p: float) -> dict:
    """What a checker of the family evaluates at order p: the lemma's values
    as they are, or else the norms of the family's spectra at p, one column
    of Python floats (one per sample) per named quantity."""
    if family == "hermitian_pair":
        return values
    return {name: _lp_rows(spectra, p) for name, spectra in values.items()}


def _report_columns(lhs: list[float], rhs: list[float], gap: list[float],
                    diagnostics: dict[str, list], rtol: float) -> tuple:
    """One report's columns: the sides, the gap and the verdicts at relative
    tolerance ``rtol``, one entry per sample, then its diagnostics as a dict
    of columns."""
    return lhs, rhs, gap, _satisfied(lhs, rhs, gap, rtol), diagnostics


def _ge(p_range: PRange, family: str, name: str, lhs, rhs) -> Checker:
    """The checker of one inequality printed ``lhs >= rhs``.  Each side is a
    pair ``(norms, formula)``: the names of the family's norms it reads,
    and ``formula(p, *norms)`` at order p on Python floats, mapped over the
    columns of those norms.  The report's diagnostics are the family's
    norm columns."""
    (left_names, left_formula), (right_names, right_formula) = lhs, rhs

    def evaluate(norms: dict[str, list[float]], p: float, rtol: float) -> tuple[tuple]:
        orders = [p] * len(norms[left_names[0]])
        left = list(map(left_formula, orders, *[norms[q] for q in left_names]))
        right = list(map(right_formula, orders, *[norms[q] for q in right_names]))
        return (_report_columns(left, right, [l - r for l, r in zip(left, right)], norms, rtol),)

    return Checker(p_range, family, lambda p: (name,), evaluate)


def _clarkson_mccarthy_names(p: float) -> tuple[str, str]:
    side = "p_ge_2" if p >= 2.0 else "p_le_2"
    return f"clarkson_mccarthy_lower_{side}", f"clarkson_mccarthy_upper_{side}"


def _clarkson_mccarthy(norms: dict[str, list[float]], p: float, rtol: float):
    """Two reports, lower and upper bound, whose orientation flips at p = 2."""
    combined = [a ** p + b ** p for a, b in zip(norms["norm_plus"], norms["norm_minus"])]
    separate = [x ** p + y ** p for x, y in zip(norms["norm_x"], norms["norm_y"])]
    twice = [2.0 * s for s in separate]
    bound = [2.0 ** (p - 1.0) * s for s in separate]
    diagnostics = {"combined_power_sum": combined, "separate_power_sum": separate}
    if p >= 2.0:
        lower = [c - t for c, t in zip(combined, twice)]
        upper = [b - c for b, c in zip(bound, combined)]
    else:
        lower = [t - c for c, t in zip(combined, twice)]
        upper = [c - b for b, c in zip(bound, combined)]
    return (_report_columns(twice, combined, lower, diagnostics, rtol),
            _report_columns(combined, bound, upper, diagnostics, rtol))


def _log_majorization(values: dict[str, np.ndarray], p: float, rtol: float):
    """The lemma as one report: lhs and rhs are the traces of H + K and of
    the BCH side, the gap is the smallest prefix slack, and the verdict is
    full majorization at the majorization tolerance (``rtol``, the gap
    rule's, does not apply)."""
    slack, tol = _lemma_slack(values)
    weak, tight = _prefix_verdicts(slack, tol)
    traces = values["trace"].tolist()
    return ((traces, [t + s for t, s in zip(traces, slack[:, -1].tolist())],
             slack.min(axis=-1).tolist(), (weak & tight).tolist(), {}),)


_ABOVE_1_TO_2 = PRange(1.0, 2.0, low_open=True)
_FROM_2 = PRange(2.0, math.inf, high_open=True)

CHECKERS: dict[str, Checker] = {
    "clarkson_mccarthy": Checker(PRange(1.0, math.inf, high_open=True), "norms",
                                 _clarkson_mccarthy_names, _clarkson_mccarthy),
    "two_uniform_convexity": _ge(
        _ABOVE_1_TO_2, "norms", "two_uniform_convexity",
        (("norm_plus", "norm_minus"), lambda p, a, b: 0.5 * (a**2 + b**2)),
        (("norm_x", "norm_y"), lambda p, x, y: x**2 + (p - 1.0) * y**2)),
    "hanner": _ge(
        PRange(1.0, HANNER_PROVEN_UPPER, point=HANNER_EXTRA_POINT), "norms", "hanner_matrix",
        (("norm_plus", "norm_minus"), lambda p, a, b: a ** p + b ** p),
        (("norm_x", "norm_y"), lambda p, x, y: (x + y) ** p + abs(x - y) ** p)),
    # Narrower than check_distance_lower_bound accepts: see its docstring.
    "distance_lower_bound": _ge(
        PRange(1.0, math.inf, low_open=True, high_open=True), "distance", "distance_lower_bound",
        (("delta_p",), lambda p, d: d),
        (("log_euclidean",), lambda p, e: e)),
    "conde_2uc": _ge(
        _ABOVE_1_TO_2, "triple", "conde_2uc",
        (("d_ac", "d_bc"), lambda p, ac, bc: 0.5 * (ac**2 + bc**2)),
        (("d_mid", "d_ab"), lambda p, mid, ab: mid**2 + (p - 1.0) / 4.0 * ab**2)),
    "sphere_2uc": _ge(
        _ABOVE_1_TO_2, "sphere", "sphere_2uc",
        (("d_mid_identity",), lambda p, mid: 1.0 - mid),
        (("d_ab",), lambda p, ab: (p - 1.0) / 8.0 * ab**2)),
    "p_convexity_high": _ge(
        _FROM_2, "triple", "p_convexity_high",
        (("d_ac", "d_bc"), lambda p, ac, bc: 0.5 * (ac**p + bc**p)),
        (("d_ab", "d_mid"), lambda p, ab, mid: 2.0 ** (-p) * ab**p + mid**p)),
    "sphere_high": _ge(
        _FROM_2, "sphere", "sphere_high",
        (("d_mid_identity",), lambda p, mid: 1.0 - mid**p),
        (("d_ab",), lambda p, ab: 2.0 ** (-p) * ab**p)),
    "p_convexity_low": _ge(
        _ABOVE_1_TO_2, "triple", "p_convexity_low",
        (("d_ac", "d_bc"), lambda p, ac, bc: ac**p + bc**p),
        (("d_ab", "d_mid"), lambda p, ab, mid: 0.5 * ab**p + 2.0 ** (p - 1.0) * mid**p)),
    "sphere_low": _ge(
        _ABOVE_1_TO_2, "sphere", "sphere_low",
        (("d_mid_identity",), lambda p, mid: 1.0 - 2.0 ** (p - 2.0) * mid**p),
        (("d_ab",), lambda p, ab: 0.25 * ab**p)),
    "log_majorization": Checker(None, "hermitian_pair", lambda p: ("log_majorization",),
                                _log_majorization),
}


def _evaluate(name: str, inputs, p: float, rtol: float = REPORT_RTOL) -> tuple[tuple, ...]:
    """``CHECKERS[name].evaluate``: the one place the formulas and the
    verdicts run, the gap rule at relative tolerance ``rtol``.  An order so
    large that a formula overflows a float raises a ValueError naming the
    checker and the order."""
    try:
        return CHECKERS[name].evaluate(inputs, p, rtol)
    except OverflowError as exc:
        raise ValueError(f"{name}: a side of the inequality overflows a float at p = {p}") from exc


def _reports(name: str, values: dict, p: float) -> tuple[InequalityReport, ...]:
    """The reports of one public check: the checker's columns on one-row
    family values, each report's diagnostics the first entry of its
    diagnostic columns."""
    return tuple(
        InequalityReport(report, float(p), float(lhs), float(rhs), float(gap), satisfied,
                         {key: column[0] for key, column in diagnostics.items()})
        for report, ((lhs,), (rhs,), (gap,), (satisfied,), diagnostics)
        in zip(CHECKERS[name].names(p),
               _evaluate(name, _inputs(CHECKERS[name].family, values, p), p)))


def _checked_order(name: str, p) -> float:
    p = float(p)
    p_range = CHECKERS[name].p_range
    if p not in p_range:
        raise CheckerRangeError(f"{name}: p = {p} outside valid range {p_range}")
    return p


def _pair(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Two operands of one shape as one-row stacks."""
    Xa, Ya = _matching(X, Y)
    return Xa[None], Ya[None]


def _check_triple(name: str, A: SpdMatrix, B: SpdMatrix, C: SpdMatrix, p) -> InequalityReport:
    p = _checked_order(name, p)
    A, B, C = _operands(A, B, C)
    (report,) = _reports(name, _triple_spectra(GeodesicCurve._of(A, B), C), p)
    (product,), (bracket,) = _gamma_defects(A, B, C)
    report.diagnostics.update(gamma_defect_product=product, gamma_defect_bracket=bracket)
    return report


def _check_sphere(name: str, A: SpdMatrix, B: SpdMatrix, p) -> InequalityReport:
    p = _checked_order(name, p)
    stacks = _operands(A, B)
    for label, U in zip("AB", stacks):
        radius = _radii(U, p)[0]
        if not abs(radius - 1.0) <= SPHERE_TOL:
            raise ValueError(
                f"{label} is off the exponential unit sphere of order {p} by more than "
                f"{SPHERE_TOL:.0e} (delta_p to identity = {radius:.12g})"
            )
    (report,) = _reports(name, _sphere_spectra(GeodesicCurve._of(*stacks)), p)
    return report


def check_clarkson_mccarthy(X, Y, p) -> tuple[InequalityReport, InequalityReport]:
    """Both Clarkson-McCarthy bounds on ||X+Y||_p^p + ||X-Y||_p^p.

    For p >= 2 the sum is bounded below by 2(||X||^p + ||Y||^p) and above
    by 2^{p-1}(||X||^p + ||Y||^p); both bounds reverse for 1 <= p <= 2.
    Returns (lower_report, upper_report).
    """
    p = _checked_order("clarkson_mccarthy", p)
    return _reports("clarkson_mccarthy", _pair_spectra(*_pair(X, Y)), p)


def check_two_uniform_convexity_norm(X, Y, p) -> InequalityReport:
    """2-uniform convexity at the norm level, 1 < p <= 2:

    (||X+Y||_p^2 + ||X-Y||_p^2) / 2  >=  ||X||_p^2 + (p-1) ||Y||_p^2.
    """
    p = _checked_order("two_uniform_convexity", p)
    (report,) = _reports("two_uniform_convexity", _pair_spectra(*_pair(X, Y)), p)
    return report


def check_distance_lower_bound(A: SpdMatrix, B: SpdMatrix, p) -> InequalityReport:
    """delta_p(A, B) >= ||log A - log B||_p, equality iff [A, B] = 0.

    Accepts every Schatten order p in [1, inf].  The table range of
    ``distance_lower_bound``, 1 < p < inf, only filters campaign orders;
    this is the one checker whose public domain is wider than its row.
    """
    p = _validate_p(p)
    A, B = _operands(A, B)
    (report,) = _reports("distance_lower_bound", _distance_spectra(GeodesicCurve._of(A, B)), p)
    (report.diagnostics["commutator_defect"],) = _defects(A.array, B.array)
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
    slack, tol = _lemma_slack(_lemma_spectra(*_pair(HermitianMatrix(H), HermitianMatrix(K))))
    return _verdict(slack[0], float(tol[0]))


def check_hanner_matrix(X, Y, p) -> InequalityReport:
    """Matrix Hanner inequality on its proven range p in [1, 4/3] or p = 3/2:

    ||X+Y||_p^p + ||X-Y||_p^p
        >=  (||X||_p + ||Y||_p)^p + | ||X||_p - ||Y||_p |^p.
    """
    p = float(p)
    p_range = CHECKERS["hanner"].p_range
    if p not in p_range:
        raise UnprovenRangeError(f"hanner_matrix: unproven-range: p = {p} outside {p_range}")
    (report,) = _reports("hanner", _pair_spectra(*_pair(X, Y)), p)
    return report
