"""Singular spectra, Schatten p-norms, and (log-)majorization predicates.

Spectra are canonically stored sorted descending, so permutation questions
reduce to elementwise comparisons.  Majorization verdicts carry the full
vector of prefix slacks so callers can distinguish tight and strict prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import as_matrix, eigh

__all__ = [
    "Spectrum",
    "MajorizationVerdict",
    "eigenvalue_spectrum",
    "singular_values",
    "schatten_norm",
    "weak_majorizes",
    "weak_log_majorizes",
    "power_sum",
    "is_permutation_of",
]

_KINDS = ("eigenvalue", "singular")

# Additive tolerance on prefix sums is 1e-10 * (1 + ||b||_1); on summed logs
# it is the bare 1e-10.  Ties at the boundary count as satisfied.
MAJORIZATION_RTOL = 1e-10
LOG_MAJORIZATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real vector sorted descending, tagged eigenvalue or singular.

    Singular spectra must be nonnegative.  Input order is irrelevant; values
    are sorted at construction.
    """

    values: np.ndarray
    kind: str = "eigenvalue"

    def __post_init__(self):
        if np.ndim(self.values) != 1 or np.size(self.values) < 1:
            raise ValueError("spectrum must be a nonempty 1-D real vector")
        vals = _descending(self.values, self.kind)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)


def _descending(values, kind: str) -> np.ndarray:
    """A Spectrum's values: each row of a stack (or one vector) sorted
    descending into a new array, checked finite, and nonnegative when
    ``kind`` is "singular"."""
    vals = np.sort(np.asarray(values, dtype=np.float64), axis=-1)[..., ::-1].copy()
    if not np.all(np.isfinite(vals)):
        raise ValueError("spectrum values must be finite")
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if kind == "singular" and (vals[..., -1] < 0.0).any():
        raise ValueError("singular spectrum must be nonnegative")
    return vals


@dataclass(frozen=True, eq=False)
class MajorizationVerdict:
    """Outcome of a (log-)majorization comparison a vs b.

    Attributes
    ----------
    holds : bool
        Full (log-)majorization: every prefix inequality plus final equality.
    weak : bool
        All prefix inequalities hold.
    tight_at_end : bool
        The final prefix comparison is an equality within tolerance.
    first_violation_index : int or None
        0-based index of the first violated prefix, None when weak holds.
    slack : ndarray
        Per-prefix slack, oriented so nonnegative means satisfied; for the
        log variants this lives in summed-log space.  The final entry is the
        total-sum (or total-log) difference b - a.
    """

    holds: bool
    weak: bool
    tight_at_end: bool
    first_violation_index: int | None
    slack: np.ndarray


def _spectrum_values(a, kind: str = "eigenvalue") -> np.ndarray:
    if isinstance(a, Spectrum):
        return a.values
    return Spectrum(np.asarray(a, dtype=np.float64), kind=kind).values


def _paired_values(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Values of two spectra that must have one length."""
    av, bv = _spectrum_values(a), _spectrum_values(b)
    if av.size != bv.size:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    return av, bv


def eigenvalue_spectrum(H) -> Spectrum:
    """Descending eigenvalues of a Hermitian matrix as a Spectrum."""
    return Spectrum(eigh(H).eigenvalues, kind="eigenvalue")


def singular_values(M) -> Spectrum:
    """Descending singular values of any rectangular complex matrix, from
    one svd for every input, a HermitianMatrix included: the bits do not
    depend on the operand's type."""
    return Spectrum(np.linalg.svd(as_matrix(M), compute_uv=False), kind="singular")


def _validate_p(p) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"Schatten order must satisfy p >= 1 or p = inf, got {p}")
    return p


def _lp_rows(values: np.ndarray, p: float) -> list[float]:
    """l^p norm of each row of a ``(k, n)`` stack, p in [1, inf], as Python
    floats.  Powers and sums run over the whole stack, which rounds each row
    as alone; each final root runs on a Python float, as the scalar root
    rounds.  A row whose power sum overflows to inf, or underflows to 0
    while the row is nonzero, takes the max-scaled form
    m * (sum (|x| / m)^p)^(1/p) with m = max |x|, so large finite orders
    stay finite; every other row keeps the direct form's bits.
    """
    mags = np.abs(values)
    if math.isinf(p):
        return mags.max(axis=-1).tolist()
    if p == 1.0:
        return mags.sum(axis=-1).tolist()
    with np.errstate(over="ignore", under="ignore"):
        sums = (mags**p).sum(axis=-1).tolist()
    root = 1.0 / p
    norms = [total**root for total in sums]
    if math.inf in sums or 0.0 in sums:
        for k, total in enumerate(sums):
            m = float(mags[k].max())
            if total == math.inf or total == 0.0 and m > 0.0:
                with np.errstate(under="ignore"):
                    total = float(((mags[k] / m) ** p).sum())
                norms[k] = m * total**root
    return norms


def _lp(values: np.ndarray, p: float) -> float:
    """l^p norm of a real vector, p in [1, inf]."""
    return _lp_rows(np.reshape(values, (1, -1)), p)[0]


def schatten_norm(M, p) -> float:
    """Schatten p-norm: the l^p norm of the singular values.

    ``p = inf`` gives the spectral norm; ``p = 2`` coincides with the
    Frobenius norm.
    """
    p = _validate_p(p)
    return _lp(singular_values(M).values, p)


def _prefix_verdicts(slack: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray]:
    """(weak, tight) of one slack vector, or of each row of a stack with its
    own tolerance: every prefix slack >= -tol, and the final one within tol."""
    weak = ~(slack < -np.expand_dims(tol, -1)).any(axis=-1)
    return weak, np.abs(slack[..., -1]) <= tol


def _verdict(slack: np.ndarray, tol: float) -> MajorizationVerdict:
    """Verdict from per-prefix slack (nonnegative means satisfied) at tolerance tol."""
    slack.flags.writeable = False
    weak, tight = (bool(flag) for flag in _prefix_verdicts(slack, tol))
    return MajorizationVerdict(
        holds=weak and tight,
        weak=weak,
        tight_at_end=tight,
        first_violation_index=None if weak else int(np.argmax(slack < -tol)),
        slack=slack,
    )


def _majorization_slack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix slack cumsum(b) - cumsum(a) of descending spectra, of one pair
    or row by row over stacks, with the tolerance 1e-10 * (1 + ||b||_1)."""
    tol = MAJORIZATION_RTOL * (1.0 + np.abs(b).sum(axis=-1))
    return np.cumsum(b, axis=-1) - np.cumsum(a, axis=-1), tol


def weak_majorizes(a, b) -> MajorizationVerdict:
    """Compare descending prefix sums of a against b (a ≺ b orientation).

    The returned verdict's ``weak`` field answers weak majorization; the
    ``holds`` field answers full majorization (final sums equal).
    Tolerance is ``1e-10 * (1 + ||b||_1)`` per prefix.
    """
    slack, tol = _majorization_slack(*_paired_values(a, b))
    return _verdict(slack, float(tol))


def _log_prefix_slack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Zeros trail in descending nonnegative vectors, so a prefix log-sum is
    # -inf from the first zero on: a zero only in a gives +inf, only in b
    # -inf, and in both the NaN of -inf - -inf stands for 0 <= 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = np.cumsum(np.log(b)) - np.cumsum(np.log(a))
    return np.where(np.isnan(slack), 0.0, slack)


def weak_log_majorizes(a, b) -> MajorizationVerdict:
    """Prefix-product comparison of nonnegative spectra in log space.

    Entries must be nonnegative (zeros are permitted; being sorted
    descending they are necessarily trailing).  Tolerance is 1e-10 on
    summed logs.
    """
    av, bv = _paired_values(a, b)
    if av[-1] < 0.0 or bv[-1] < 0.0:
        raise ValueError("log majorization requires nonnegative spectra")
    return _verdict(_log_prefix_slack(av, bv), LOG_MAJORIZATION_TOL)


def power_sum(a, p) -> float:
    """Sum of |a_i|^p for p > 1 (the strictly convex power family)."""
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"power_sum requires p > 1, got {p}")
    av = _spectrum_values(a)
    return float((np.abs(av) ** p).sum())


def is_permutation_of(a, b, tol: float = 1e-8) -> bool:
    """Whether two spectra agree entrywise within tol.

    Spectra are stored sorted, so agreement of the sorted vectors is
    exactly existence of a permutation matching.
    """
    av, bv = _paired_values(a, b)
    return bool(np.abs(av - bv).max() <= tol)
