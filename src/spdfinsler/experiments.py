"""Reproducible random ensembles, verification campaigns, and CSV output.

Determinism contract: every sample index gets its own numpy PCG64 generator
seeded by a splitmix64-style mix of the master seed and the index, so a
sample is a pure function of (config, index), and two runs with the same
configuration produce byte-identical CSV files.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .matcore import (
    HermitianMatrix,
    SpdMatrix,
    _assemble,
    _function_values,
    _gated_exp_stack,
    _hermitian_part,
    _matching,
    commutator_defect,
    mat_log,
)
from .geodesic import gamma_commute, project_to_unit_sphere
from .inequalities import (
    CHECKERS,
    CheckerRangeError,
    _distance_spectra,
    _pair_spectra,
    _satisfied,
    _sphere_spectra,
    _triple_spectra,
)
from .schatten import _validate_p

__all__ = [
    "SampleConfig",
    "SampleBundle",
    "ScanRecord",
    "ENSEMBLES",
    "RNG_IDENTITY",
    "CSV_COLUMNS",
    "mix_seed",
    "sample_bundle",
    "run_campaign",
    "gap_scan",
    "render_csv",
    "write_csv",
]

RNG_IDENTITY = "numpy PCG64 via default_rng; per-sample seed = splitmix64(master_seed, index)"

ENSEMBLES = (
    "generic",
    "commuting_pair",
    "commuting_triple",
    "gamma_commuting_triple",
    "near_commuting",
)

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

CONDITION_GUARD = 1e3
CONDITION_GUARD_ATTEMPTS = 100


def mix_seed(master: int, index: int) -> int:
    """splitmix64 finalizer over master_seed advanced by (index + 1) steps."""
    z = (int(master) + (int(index) + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SampleConfig:
    """Ensemble parameters; identical configs yield bit-identical samples.

    ``spread`` is the scale of the Gaussian log-entries; ``epsilon`` is only
    consulted by the near_commuting ensemble.
    """

    dim: int
    spread: float = 1.0
    ensemble: str = "generic"
    seed: int = 0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if not self.spread > 0.0:
            raise ValueError(f"spread must be positive, got {self.spread}")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}; choose from {ENSEMBLES}")
        if not 0 <= int(self.seed) <= _MASK64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")


@dataclass(frozen=True)
class SampleBundle:
    """One sample's matrices: an SPD triple plus the Hermitian logs of (a, b)."""

    a: SpdMatrix
    b: SpdMatrix
    c: SpdMatrix
    log_a: HermitianMatrix
    log_b: HermitianMatrix


def _rng_for(config: SampleConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(mix_seed(config.seed, index))


def _random_hermitian(rng: np.random.Generator, dim: int, sigma: float) -> HermitianMatrix:
    g = sigma * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return HermitianMatrix._adopt(_hermitian_part(g))


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _unit_direction(rng: np.random.Generator, dim: int) -> HermitianMatrix:
    """A random Hermitian direction of unit Frobenius norm."""
    direction = _random_hermitian(rng, dim, 1.0)
    return HermitianMatrix._adopt(direction.array / direction.frobenius())


def _random_invertible(rng: np.random.Generator, dim: int) -> np.ndarray:
    for _ in range(CONDITION_GUARD_ATTEMPTS):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if np.linalg.cond(x) <= CONDITION_GUARD:
            return x
    raise RuntimeError(
        f"no conjugating matrix with condition <= {CONDITION_GUARD:g} found "
        f"in {CONDITION_GUARD_ATTEMPTS} attempts"
    )


def _from_basis(basis: np.ndarray, log_values: np.ndarray) -> tuple[SpdMatrix, HermitianMatrix]:
    """SPD matrix with prescribed eigenbasis and log-spectrum, plus its exact log."""
    spd = SpdMatrix(_assemble(basis, np.exp(log_values)))
    return spd, HermitianMatrix._adopt(_assemble(basis, log_values))


def _gated_exp(logs: list[np.ndarray]) -> list[SpdMatrix]:
    """exp of each Hermitian array, through the SPD gate in one batched
    ``_gated_exp_stack`` call; the first failing matrix's error is raised."""
    arrays, gate, error = _gated_exp_stack(np.array(logs))
    if error is not None:
        raise error
    return [SpdMatrix._adopt(arrays[k], dec=gate[k]) for k in range(len(logs))]


def sample_bundle(config: SampleConfig, index: int) -> SampleBundle:
    """Draw one sample (SPD triple plus logs) for the configured ensemble.

    Draw order within each ensemble is fixed, making samples a pure
    function of (config, index).
    """
    rng = _rng_for(config, index)
    dim, sigma = config.dim, config.spread

    if config.ensemble == "generic":
        h1 = _random_hermitian(rng, dim, sigma)
        h2 = _random_hermitian(rng, dim, sigma)
        h3 = _random_hermitian(rng, dim, sigma)
        a, b, c = _gated_exp([h.array for h in (h1, h2, h3)])
        return SampleBundle(a, b, c, h1, h2)

    if config.ensemble == "commuting_pair":
        basis = _random_unitary(rng, dim)
        a, log_a = _from_basis(basis, sigma * rng.standard_normal(dim))
        b, log_b = _from_basis(basis, sigma * rng.standard_normal(dim))
        h3 = _random_hermitian(rng, dim, sigma)
        return SampleBundle(a, b, *_gated_exp([h3.array]), log_a, log_b)

    if config.ensemble == "commuting_triple":
        basis = _random_unitary(rng, dim)
        a, log_a = _from_basis(basis, sigma * rng.standard_normal(dim))
        b, log_b = _from_basis(basis, sigma * rng.standard_normal(dim))
        c, _ = _from_basis(basis, sigma * rng.standard_normal(dim))
        return SampleBundle(a, b, c, log_a, log_b)

    if config.ensemble == "gamma_commuting_triple":
        x = _random_invertible(rng, dim)
        spectra = [sigma * rng.standard_normal(dim) for _ in range(3)]
        mats = [SpdMatrix(_assemble(x, np.exp(log_values))) for log_values in spectra]
        return SampleBundle(mats[0], mats[1], mats[2], mat_log(mats[0]), mat_log(mats[1]))

    # near_commuting: commuting base pair, then B perturbed along a unit
    # Hermitian direction with magnitude config.epsilon.
    basis = _random_unitary(rng, dim)
    a, log_a = _from_basis(basis, sigma * rng.standard_normal(dim))
    b, log_b = _from_basis(basis, sigma * rng.standard_normal(dim))
    direction = _unit_direction(rng, dim)
    h3 = _random_hermitian(rng, dim, sigma)
    if config.epsilon == 0.0:
        return SampleBundle(a, b, *_gated_exp([h3.array]), log_a, log_b)
    log_b = HermitianMatrix._adopt(log_b.array + config.epsilon * direction.array)
    b, c = _gated_exp([log_b.array, h3.array])
    return SampleBundle(a, b, c, log_a, log_b)


@dataclass(frozen=True)
class ScanRecord:
    """One experiment row: config echo, inequality sides, and defect diagnostics."""

    index: int
    dim: int
    spread: float
    ensemble: str
    seed: int
    epsilon: float
    inequality: str
    p: float
    lhs: float
    rhs: float
    gap: float
    satisfied: bool
    commutator_defect: float
    gamma_defect_product: float
    gamma_defect_bracket: float


def _family(family: str, p, a: SpdMatrix, b: SpdMatrix, c, logs):
    """(values, commutator defect) of one checker family on one sample."""
    if family == "sphere":
        a, b = project_to_unit_sphere(a, p), project_to_unit_sphere(b, p)
        return _sphere_spectra(a, b, p), commutator_defect(a, b)
    if family == "triple":
        return _triple_spectra(a, b, c), commutator_defect(a, b)
    if family == "distance":
        return _distance_spectra(a, b, mat_log(b).array), commutator_defect(a, b)
    values = _pair_spectra(*logs) if family == "norms" else logs
    return values, commutator_defect(*logs)


def _rows(echo: dict, plan, family, tol_rel: float | None = None) -> list[ScanRecord]:
    """The one row builder: each planned (checker, order) on one sample, read
    from ``family(name, order)``, the (values, commutator defect) of that
    checker family (``order`` is None but for the sphere family, built per
    order); ``echo`` fills the configuration and gamma-defect columns."""
    rows = []
    for checker, p in plan:
        values, defect = family(checker.family, p if checker.family == "sphere" else None)
        for report in checker.evaluate(values, p):
            satisfied = report.satisfied if tol_rel is None else _satisfied(
                report.gap, report.lhs, report.rhs, tol_rel)
            rows.append(ScanRecord(
                **echo, inequality=report.name, p=p, lhs=report.lhs, rhs=report.rhs,
                gap=report.gap, satisfied=satisfied, commutator_defect=defect,
            ))
    return rows


def run_campaign(config: SampleConfig, inequalities: Sequence[str],
                 p_values: Sequence[float], count: int, *,
                 tol_rel: float | None = None) -> list[ScanRecord]:
    """Evaluate the requested inequalities on ``count`` ensemble samples.

    Each requested inequality runs at every requested order inside its
    validity range; an inequality left with no valid order raises
    CheckerRangeError before any sampling.  Per sample, each checker family
    the plan needs is built once (sphere families once per order) and every
    (checker, order) row is evaluated against it.  Rows come back sorted by
    (index, inequality, p), and ``tol_rel`` optionally overrides the
    satisfaction tolerance recorded per row.
    """
    for name in inequalities:
        if name not in CHECKERS:
            raise ValueError(f"unknown inequality {name!r}; choose from {sorted(CHECKERS)}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    p_list = [float(p) for p in p_values]
    plan = []
    for name in inequalities:
        orders = CHECKERS[name].orders(p_list)
        if not orders:
            raise CheckerRangeError(
                f"inequality {name!r} accepts none of the requested orders {p_list}"
            )
        plan += [(CHECKERS[name], p) for p in orders]

    records = []
    for index in range(count):
        bundle = sample_bundle(config, index)
        gamma = gamma_commute(bundle.a, bundle.b, bundle.c)
        echo = dict(index=index, dim=config.dim, spread=config.spread,
                    ensemble=config.ensemble, seed=config.seed, epsilon=config.epsilon,
                    gamma_defect_product=gamma.defect_product,
                    gamma_defect_bracket=gamma.defect_bracket)
        logs = (bundle.log_a, bundle.log_b)
        family = functools.cache(
            lambda name, p: _family(name, p, bundle.a, bundle.b, bundle.c, logs))
        records += _rows(echo, plan, family, tol_rel)
    records.sort(key=lambda r: (r.index, r.inequality, -1.0 if math.isnan(r.p) else r.p))
    return records


def gap_scan(A: SpdMatrix, B: SpdMatrix, eps_grid: Sequence[float], p, *,
             seed: int = 0) -> list[ScanRecord]:
    """Distance-lower-bound gap along a noncommutativity ray from (A, B).

    For each epsilon in the finite ascending grid (which must start at 0), B is
    perturbed to ``exp(log B + eps * K)`` with K a seeded unit-Frobenius
    Hermitian direction, and the gap plus commutator defect is recorded.
    The eps = 0 row reproduces the base pair, so its gap vanishes exactly
    when A and B commute.  ``p`` is one order p >= 1 or inf, or a sequence of
    them: the ray is built once, each step one batched call over its points,
    and every order reads it, with rows in (order, epsilon) order.
    """
    grid = [float(e) for e in eps_grid]
    if (not grid or grid[0] != 0.0 or not math.isfinite(grid[-1])
            or any(not b > a for a, b in zip(grid, grid[1:]))):
        raise ValueError("eps grid must be finite, strictly ascending and start at 0")
    orders = [_validate_p(q) for q in np.atleast_1d(p)]
    _matching(A, B)
    direction = _unit_direction(np.random.default_rng(mix_seed(seed, 0)), A.dim)
    log_b = mat_log(B).array
    arrays, gate, error = _gated_exp_stack(
        log_b + np.array(grid[1:])[:, None, None] * direction.array)
    points = np.concatenate([B.array[None], arrays])
    logs = np.concatenate([log_b[None], _assemble(
        gate.unitary, _function_values(gate.eigenvalues, np.log))])
    # A sandwich that lost positivity at a kept point raises before the
    # first failing point's error, as a loop over the points would.
    spectra = _distance_spectra(A, points, logs)
    if error is not None:
        raise error
    defects = [float(np.linalg.norm(m)) for m in A.array @ points - points @ A.array]
    families = [(dict(zip(spectra, values)), defect)
                for values, defect in zip(zip(*spectra.values()), defects)]
    checker, records = CHECKERS["distance_lower_bound"], []
    for q in orders:
        for i, (eps, family) in enumerate(zip(grid, families)):
            echo = dict(index=i, dim=A.dim, spread=math.nan, ensemble="near_commuting",
                        seed=seed, epsilon=eps, gamma_defect_product=math.nan,
                        gamma_defect_bracket=math.nan)
            records += _rows(echo, [(checker, q)], lambda *_: family)
    return records


CSV_COLUMNS = tuple(f.name for f in fields(ScanRecord))


def _record_line(r: ScanRecord) -> str:
    """One CSV row in CSV_COLUMNS order: floats at 17 significant digits."""
    return (f"{r.index},{r.dim},{r.spread:.17g},{r.ensemble},{r.seed},{r.epsilon:.17g},"
            f"{r.inequality},{r.p:.17g},{r.lhs:.17g},{r.rhs:.17g},{r.gap:.17g},"
            f"{'true' if r.satisfied else 'false'},{r.commutator_defect:.17g},"
            f"{r.gamma_defect_product:.17g},{r.gamma_defect_bracket:.17g}")


def render_csv(records: Sequence[ScanRecord], header_comments: Sequence[str] = ()) -> str:
    """Deterministic CSV text: comments, header row, one line per record.

    Floats carry 17 significant digits so a parse-back recovers them exactly.
    """
    lines = [f"# {comment}" for comment in header_comments]
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(_record_line(record) for record in records)
    return "\n".join(lines) + "\n"


def write_csv(records: Sequence[ScanRecord], destination,
              header_comments: Sequence[str] = ()) -> None:
    """Write records as CSV to a path or text stream ('.' decimals, '\\n' endings)."""
    text = render_csv(records, header_comments)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    path = Path(destination)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc
