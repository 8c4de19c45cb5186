"""Reproducible random ensembles, verification campaigns, and CSV output.

Determinism contract: every sample index gets its own numpy PCG64 generator
seeded by a splitmix64-style mix of the master seed and the index, so a
sample is a pure function of (config, index), and two runs with the same
configuration produce byte-identical CSV files.
"""

from __future__ import annotations

import io
import math
import operator
import os
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .matcore import (
    EigenDecomposition,
    HermitianMatrix,
    SpdMatrix,
    _assemble,
    _defects,
    _eigh_array,
    _frobenius,
    _gated_exp_stack,
    _hermitian_part,
    _operands,
    _Stack,
)
from .geodesic import GeodesicCurve, _gamma_defects, _project
from .inequalities import (
    CHECKERS,
    REPORT_RTOL,
    CheckerRangeError,
    _distance_spectra,
    _evaluate,
    _inputs,
    _lemma_spectra,
    _pair_spectra,
    _sphere_spectra,
    _triple_spectra,
)
from .schatten import _validate_p

__all__ = [
    "SampleConfig",
    "SampleBundle",
    "ScanRecord",
    "ScanTable",
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
        for name in ("dim", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if not 0.0 < self.spread < math.inf:
            raise ValueError(f"spread must be positive and finite, got {self.spread}")
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


def _generator(seed: int) -> np.random.Generator:
    """The stream of ``default_rng(seed)``, built without its argument
    dispatch."""
    return np.random.Generator(np.random.PCG64(seed))


def _normals(rng: np.random.Generator, dim: int) -> np.ndarray:
    """The real and imaginary parts of one complex Gaussian matrix, ``(2, d, d)``."""
    return rng.standard_normal((2, dim, dim))


def _hermitians(normals: np.ndarray, sigma: float) -> np.ndarray:
    """The Hermitian part of sigma (n1 + i n2) for each ``(2, d, d)`` pair of
    normal matrices along the last three axes of a stack."""
    return _hermitian_part(sigma * (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]))


def _unitaries(normals: np.ndarray) -> np.ndarray:
    """The random unitary of each ``(2, d, d)`` pair of normal matrices of a
    stack: the Q factor of (n1 + i n2) / sqrt 2, its column phases fixed by
    R's diagonal, from one batched qr."""
    g = (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def _directions(normals: np.ndarray) -> np.ndarray:
    """The random Hermitian direction of unit Frobenius norm of each pair of
    normal matrices of a stack."""
    directions = _hermitians(normals, 1.0)
    return directions / _frobenius(directions)[:, None, None]


def _candidate(rng: np.random.Generator, dim: int) -> np.ndarray:
    """One candidate conjugating matrix of the Gamma triple: a complex Gaussian."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _gamma_draws(rngs: list, config: SampleConfig) -> list[tuple]:
    """The gamma_commuting_triple draws of one generator each: its first
    candidate basis whose condition is at most CONDITION_GUARD, then its
    log-spectra rows.  The first candidates of all generators are tested by
    one ``cond`` call on their stack; only a generator whose candidate fails
    draws more, from its own stream, so every stream is used as if alone.
    Raises the error of the first generator that finds no basis in
    CONDITION_GUARD_ATTEMPTS candidates."""
    dim = config.dim
    candidates = [_candidate(rng, dim) for rng in rngs]
    passed = (np.linalg.cond(np.array(candidates)) <= CONDITION_GUARD).tolist()
    draws = []
    for rng, basis, ok in zip(rngs, candidates, passed):
        attempts = 1
        while not ok and attempts < CONDITION_GUARD_ATTEMPTS:
            basis, attempts = _candidate(rng, dim), attempts + 1
            ok = np.linalg.cond(basis) <= CONDITION_GUARD
        if not ok:
            raise RuntimeError(
                f"no conjugating matrix with condition <= {CONDITION_GUARD:g} found "
                f"in {CONDITION_GUARD_ATTEMPTS} attempts"
            )
        draws.append((basis, config.spread * rng.standard_normal((3, dim))))
    return draws


def _draw(config: SampleConfig, index: int) -> tuple:
    """One sample's random numbers, in its ensemble's fixed draw order: the
    normal matrices of its Hermitian logs, of its unitary basis and of the
    near_commuting direction (each ``(2, d, d)``, finished per chunk by
    ``_sample_stacks``), log-spectra rows, and the Gamma triple's invertible
    basis, whose condition guard decides how much of the stream it uses."""
    rng = _generator(mix_seed(config.seed, index))
    dim, sigma = config.dim, config.spread

    def spectra(count: int) -> np.ndarray:
        return sigma * rng.standard_normal((count, dim))

    if config.ensemble == "generic":
        return (rng.standard_normal((3, 2, dim, dim)),)
    if config.ensemble == "commuting_pair":
        return _normals(rng, dim), spectra(2), _normals(rng, dim)
    if config.ensemble == "commuting_triple":
        return _normals(rng, dim), spectra(3)
    if config.ensemble == "gamma_commuting_triple":
        return _gamma_draws([rng], config)[0]
    return _normals(rng, dim), spectra(2), _normals(rng, dim), _normals(rng, dim)


def _draws(config: SampleConfig, indices: range) -> list[tuple]:
    """The ``(index, draw)`` items of the samples ``indices``, each draw as
    ``_draw`` gives it; raises the error of the first sample whose draw
    fails.  The Gamma triple's condition guard runs once for them all (see
    ``_gamma_draws``); every other ensemble draws sample by sample through
    ``_draw``."""
    if config.ensemble == "gamma_commuting_triple":
        return list(zip(indices, _gamma_draws(
            [_generator(mix_seed(config.seed, index)) for index in indices], config)))
    return [(index, _draw(config, index)) for index in indices]


# Samples stacked one row each: the gated SPD triple (a, b, c ``_Stack``s;
# c is None when only the pair is built) and the Hermitian logs of (a, b).
# A named tuple: a dataclass would add about 1 ms to every import.
_Samples = namedtuple("_Samples", "a b c log_a log_b")


def _gated(bases: np.ndarray, log_spectra: np.ndarray) -> list[_Stack]:
    """exp of each sample's (basis, log-spectrum) rows, log-spectra
    ``(n, roles, d)`` and their bases in the same order, through the SPD
    gate in one batched call: one
    stack per role, holding its gate decompositions.  The first failing
    matrix in (sample, role) order raises."""
    n, roles, dim = log_spectra.shape
    arrays, gate = _gated_exp_stack(bases.reshape(-1, dim, dim), log_spectra.reshape(-1, dim))
    return [_Stack(np.ascontiguousarray(arrays[k::roles]),
                   EigenDecomposition(np.ascontiguousarray(gate.eigenvalues[k::roles]),
                                      np.ascontiguousarray(gate.unitary[k::roles])))
            for k in range(roles)]


def _sample_stacks(config: SampleConfig, draws: list[tuple], roles: int = 3) -> _Samples:
    """The samples of ``draws`` (from ``_draw``), every step one batched
    call over all of them: the bases' qr, the Hermitian parts, eigh of the
    logs, exp and the SPD gate.  With ``roles = 2`` only a and b are built
    and gated (c is None): C's normals are drawn but not used."""
    dim, sigma = config.dim, config.spread
    columns = [np.array(column) for column in zip(*draws)]

    def samples(stacks, logs):
        return _Samples(*stacks, *[None] * (3 - roles), *logs)

    if config.ensemble == "generic":
        logs = _hermitians(columns[0][:, :roles], sigma)
        dec = _eigh_array(logs.reshape(-1, dim, dim))
        return samples(_gated(dec.unitary, dec.eigenvalues.reshape(logs.shape[:-1])),
                       [np.ascontiguousarray(logs[:, k]) for k in range(2)])
    spectra = columns[1]
    basis = columns[0] if config.ensemble == "gamma_commuting_triple" else _unitaries(columns[0])
    logs = [_assemble(basis, spectra[:, k]) for k in range(2)]
    if config.ensemble in ("commuting_triple", "gamma_commuting_triple"):
        stacks = _gated(np.repeat(basis[:, None], roles, axis=1), spectra[:, :roles])
        if config.ensemble == "gamma_commuting_triple":
            logs = [stack.log() for stack in stacks[:2]]
        return samples(stacks, logs)
    # commuting_pair, and near_commuting whose B is perturbed along its
    # unit direction by epsilon: only the B it keeps is gated.
    derived = [_hermitians(columns[-1], sigma)] if roles == 3 else []
    if config.ensemble == "near_commuting" and config.epsilon != 0.0:
        logs[1] = logs[1] + config.epsilon * _directions(columns[2])
        derived.insert(0, logs[1])
    count = len(derived)
    bases, values = np.repeat(basis[:, None], roles - count, axis=1), spectra[:, :roles - count]
    if derived:
        dec = _eigh_array(np.stack(derived, axis=1).reshape(-1, dim, dim))
        bases = np.concatenate([bases, dec.unitary.reshape(len(basis), count, dim, dim)], axis=1)
        values = np.concatenate([values, dec.eigenvalues.reshape(len(basis), count, dim)], axis=1)
    return samples(_gated(bases, values), logs)


def sample_bundle(config: SampleConfig, index: int) -> SampleBundle:
    """Draw one sample (SPD triple plus logs) for the configured ensemble.

    Draw order within each ensemble is fixed, making samples a pure
    function of (config, index).  A campaign builds the same samples in
    batched calls; this is its one-sample case.
    """
    samples = _sample_stacks(config, [_draw(config, index)])
    spd = [SpdMatrix._adopt(m.array[0], dec=m.eig()[0]) for m in (samples.a, samples.b, samples.c)]
    return SampleBundle(*spd, HermitianMatrix._adopt(samples.log_a[0]),
                        HermitianMatrix._adopt(samples.log_b[0]))


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


CSV_COLUMNS = tuple(f.name for f in fields(ScanRecord))


class ScanTable:
    """Experiment rows stored as a grid of ``count`` samples by ``width``
    report slots: row ``k * width + j`` is slot j of sample k.  ``columns``
    maps each name of CSV_COLUMNS to one value, constant over the table, or
    to a list of ``width`` slot entries.  A slot entry is one value, shared
    by every sample in that slot, or a list of ``count`` values, one per
    sample; one such list may serve several slots.  A table of records is
    the one-slot case.  Campaigns and gap scans return one; iterating or
    indexing it yields ScanRecords, and it compares equal to a sequence of
    the same records."""

    __slots__ = ("count", "width", "columns")

    def __init__(self, count: int = 0, width: int = 1, columns: dict | None = None):
        self.count, self.width = count, width
        self.columns = columns if columns is not None else {name: [[]] for name in CSV_COLUMNS}

    @classmethod
    def of(cls, records) -> "ScanTable":
        """A table of ScanRecords, or the table itself."""
        if isinstance(records, ScanTable):
            return records
        records = list(records)
        return cls(len(records), 1, {name: [[getattr(r, name) for r in records]]
                                     for name in CSV_COLUMNS})

    def column(self, name: str) -> list:
        """Each row's value of a column."""
        column = self.columns[name]
        if not isinstance(column, list):
            return [column] * len(self)
        rows = [None] * len(self)
        for j, entry in enumerate(column):
            rows[j::self.width] = entry if isinstance(entry, list) else [entry] * self.count
        return rows

    def __len__(self) -> int:
        return self.count * self.width

    def __iter__(self):
        return map(ScanRecord, *(self.column(name) for name in CSV_COLUMNS))

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other):
        if not isinstance(other, (ScanTable, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


# Work per chunk, in units of d^3: a campaign chunk takes at most CHUNK_WORK
# // d^3 samples through its stages at once (4 at d = 32, where stacking
# spreads numpy's per-call cost over the samples), and a gap-study chunk a
# quarter as many ray points, whole rays at a time: a ray point weighs four
# samples, since rays measured no faster at four times the points a chunk,
# only 5 MB larger in peak memory on the 11-point grid at d <= 5.  A chunk
# also holds at most CHUNK_ROWS rows (and at least one sample), so that the
# rows a stream holds stay bounded at small d, where one sample gives tens
# of rows: 105 samples of the default 39-row campaign plan.  Each sample
# depends only on (config, index), so the chunk size changes no output byte.
CHUNK_WORK = 4 * 32**3
CHUNK_ROWS = 2**12


def _sphere_families(samples: _Samples, orders: list[float]) -> dict:
    """The sphere family at each order, from the projections of a and b onto
    that order's unit sphere, one order at a time: no stage stacks more than
    a few matrices per sample, whatever the number of orders."""
    families = {}
    for p in orders:
        a, b = (_Stack(_project(m, p)[0]) for m in (samples.a, samples.b))
        families[p] = _sphere_spectra(GeodesicCurve._of(a, b)), _defects(a.array, b.array)
    return families


def _families(samples: _Samples, plan) -> dict:
    """Each family the plan reads, built once over all samples in the
    plan's order of first use, with the commutator defect it reports: of
    (a, b), of the logs, or of the projected pair at each sphere order.
    The distance and triple families read one (a, b) geodesic."""
    a, b, logs = samples.a, samples.b, (samples.log_a, samples.log_b)
    ab = GeodesicCurve._of(a, b)
    # The defects two families share, taken on first use.
    log_defects = cache(lambda: _defects(*logs))
    ab_defects = cache(lambda: _defects(a.array, b.array))
    builders = {
        "norms": lambda: (_pair_spectra(*logs), log_defects()),
        "hermitian_pair": lambda: (_lemma_spectra(*logs), log_defects()),
        "distance": lambda: (_distance_spectra(ab), ab_defects()),
        "triple": lambda: (_triple_spectra(ab, samples.c), ab_defects()),
        "sphere": lambda: _sphere_families(samples, list(dict.fromkeys(
            p for _, checker, p in plan if checker.family == "sphere"))),
    }
    families = {}
    for _, checker, _ in plan:
        if checker.family not in families:
            families[checker.family] = builders[checker.family]()
    return families


def _campaign_rows(config: SampleConfig, items: list[tuple], plan, slots,
                   rtol: float) -> ScanTable:
    """The rows of the drawn samples, ``(index, draw)`` items: every stage
    one batched call over all of them, the checker formulas mapped over
    columns of Python floats.  Rows keep each report's four columns (lhs,
    rhs, gap, satisfied), not its diagnostics."""
    indices = [index for index, _ in items]
    samples = _sample_stacks(config, [draw for _, draw in items])
    products, brackets = _gamma_defects(samples.a, samples.b, samples.c)
    families = _families(samples, plan)
    evaluated, defects, inputs = [], [], {}
    for name, checker, p in plan:
        family = families[checker.family]
        values, pair_defects = family[p] if checker.family == "sphere" else family
        key = (checker.family, p)
        if key not in inputs:  # each family's norms once per order, for all its checkers
            inputs[key] = _inputs(checker.family, values, p)
        evaluated.append(_evaluate(name, inputs[key], p, rtol))
        defects.append(pair_defects)
    width = len(slots)
    return ScanTable(len(indices), width, dict(
        index=[indices] * width,
        dim=config.dim, spread=config.spread, ensemble=config.ensemble, seed=config.seed,
        epsilon=config.epsilon,
        inequality=[name for name, _, _, _ in slots],
        p=[p for _, p, _, _ in slots],
        **{side: [evaluated[k][j][column] for _, _, k, j in slots]
           for column, side in enumerate(("lhs", "rhs", "gap", "satisfied"))},
        commutator_defect=[defects[k] for _, _, k, _ in slots],
        gamma_defect_product=[products] * width,
        gamma_defect_bracket=[brackets] * width,
    ))


def _chunked(config: SampleConfig, count: int, rows, rows_per_item: int, weight: int = 1):
    """The stream of ``rows(items)`` tables of samples 0 .. count - 1, one per
    chunk (see CHUNK_WORK and CHUNK_ROWS), each item an (index, draw) pair
    weighing ``weight`` campaign samples and giving ``rows_per_item`` rows.
    A chunk that fails, drawing or after, is rerun one sample at a time, so
    the stream holds the rows of every sample before the first failing one
    and then raises that sample's error, as a loop over the samples would."""
    size = max(1, min(CHUNK_WORK // (weight * config.dim**3), CHUNK_ROWS // rows_per_item))
    for start in range(0, count, size):
        indices = range(start, min(count, start + size))
        try:
            items = _draws(config, indices)
            table = rows(items)
        except (ValueError, RuntimeError) as exc:
            error = exc
        else:
            yield table
            continue
        for index in indices:
            yield rows(_draws(config, range(index, index + 1)))
        raise error


def _joined(chunks) -> ScanTable:
    """The one-slot table of the rows of a chunk stream."""
    rows = {name: [] for name in CSV_COLUMNS}
    for chunk in chunks:
        for name, column in rows.items():
            column += chunk.column(name)
    return ScanTable(len(rows["index"]), 1, {name: [column] for name, column in rows.items()})


def _campaign_chunks(config: SampleConfig, inequalities: Sequence[str],
                     p_values: Sequence[float], count: int, *,
                     tol_rel: float | None = None):
    """``run_campaign``'s rows as a stream of one table per chunk.  The
    arguments are checked here, before any sampling; the samples are drawn
    as the stream is read."""
    for name in inequalities:
        if name not in CHECKERS:
            raise ValueError(f"unknown inequality {name!r}; choose from {sorted(CHECKERS)}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rtol = REPORT_RTOL if tol_rel is None else tol_rel
    if not math.isfinite(rtol):
        raise ValueError(f"tol_rel must be finite, got {tol_rel}")
    p_list = [float(p) for p in p_values]
    plan = []
    for name in inequalities:
        orders = CHECKERS[name].orders(p_list)
        if not orders:
            raise CheckerRangeError(
                f"inequality {name!r} accepts none of the requested orders {p_list}"
            )
        plan += [(name, CHECKERS[name], p) for p in orders]
    # Report names depend on p alone, so one sort of the plan's report slots
    # (name, p, plan entry, report) orders every sample's rows.
    slots = sorted(((report, p, k, j) for k, (_, checker, p) in enumerate(plan)
                    for j, report in enumerate(checker.names(p))),
                   key=lambda slot: (slot[0], -1.0 if math.isnan(slot[1]) else slot[1]))
    return _chunked(config, count,
                    lambda items: _campaign_rows(config, items, plan, slots, rtol),
                    len(slots))


def run_campaign(config: SampleConfig, inequalities: Sequence[str],
                 p_values: Sequence[float], count: int, *,
                 tol_rel: float | None = None) -> ScanTable:
    """Evaluate the requested inequalities on ``count`` ensemble samples.

    Each requested inequality runs at every requested order inside its
    validity range; an inequality left with no valid order raises
    CheckerRangeError before any sampling.  Samples go through in chunks (see
    CHUNK_WORK and CHUNK_ROWS), each stage one batched call over a chunk,
    and each checker family the plan needs is built once per chunk (the
    sphere family once per order, from that order's projections) and every
    (checker, order) row is evaluated against it.  Rows come in (index,
    inequality, p) order.  ``tol_rel`` optionally overrides the relative
    tolerance of the gap rule behind each row's verdict (REPORT_RTOL);
    ``log_majorization`` keeps its own verdict, full majorization at the
    majorization tolerance.
    """
    return _joined(_campaign_chunks(config, inequalities, p_values, count, tol_rel=tol_rel))


def _ray_plan(eps_grid: Sequence[float], p) -> tuple[list[float], list[float]]:
    """The checked epsilon grid and orders of a gap study."""
    grid = [float(e) for e in eps_grid]
    if (not grid or grid[0] != 0.0 or not math.isfinite(grid[-1])
            or any(not b > a for a, b in zip(grid, grid[1:]))):
        raise ValueError("eps grid must be finite, strictly ascending and start at 0")
    orders = [_validate_p(q) for q in np.atleast_1d(p)]
    if not orders:
        raise ValueError("a gap study needs at least one Schatten order")
    return grid, orders


def _ray_directions(seeds: list[int], dim: int) -> np.ndarray:
    """The unit Hermitian direction of the ray of each seed, drawn from the
    seed's own generator."""
    return _directions(np.array([_normals(_generator(mix_seed(seed, 0)), dim) for seed in seeds]))


def _rays(A: _Stack, B: _Stack, grid: list[float], orders: list[float],
          seeds: list[int]) -> ScanTable:
    """The gap-study rows of the ray from each row pair (A, B), its
    direction seeded by the pair's seed: every ray's points stacked, each
    step one batched call over all of them, rows in (pair, order, epsilon)
    order."""
    count, width, dim = len(B), len(grid), B.array.shape[-1]
    steps = np.array(grid[1:])[:, None, None]
    ray = _eigh_array((B.log()[:, None] + steps * _ray_directions(seeds, dim)[:, None])
                      .reshape(-1, dim, dim))
    arrays, gate = _gated_exp_stack(ray.unitary, ray.eigenvalues)

    def with_base(base, rest):
        rest = rest.reshape(count, width - 1, *base.shape[1:])
        return np.concatenate([base[:, None], rest], axis=1).reshape(-1, *base.shape[1:])

    base = B.eig()
    points = _Stack(with_base(B.array, arrays), EigenDecomposition(
        with_base(base.eigenvalues, gate.eigenvalues), with_base(base.unitary, gate.unitary)))
    # The distance family's factors of A, A^{-1/2} and log A, once per base
    # pair, repeated over the pair's ray.
    A.power(-0.5)
    A.log()
    A = A.repeat(width)
    spectra = _distance_spectra(GeodesicCurve._of(A, points))
    defects = _defects(A.array, points.array)
    reports = [_evaluate("distance_lower_bound", _inputs("distance", spectra, q), q)[0]
               for q in orders]
    # A sample is a base pair, a slot an (order, epsilon) point of its ray.
    return ScanTable(count, len(orders) * width, dict(
        index=list(range(width)) * len(orders), dim=dim, spread=math.nan,
        ensemble="near_commuting", seed=[seeds] * (len(orders) * width),
        epsilon=grid * len(orders), inequality="distance_lower_bound",
        p=[q for q in orders for _ in grid],
        **{side: [report[column][e::width] for report in reports for e in range(width)]
           for column, side in enumerate(("lhs", "rhs", "gap", "satisfied"))},
        commutator_defect=[defects[e::width] for e in range(width)] * len(orders),
        gamma_defect_product=math.nan, gamma_defect_bracket=math.nan,
    ))


def gap_scan(A: SpdMatrix, B: SpdMatrix, eps_grid: Sequence[float], p, *,
             seed: int = 0) -> ScanTable:
    """Distance-lower-bound gap along a noncommutativity ray from (A, B).

    For each epsilon in the finite ascending grid (which must start at 0), B is
    perturbed to ``exp(log B + eps * K)`` with K a seeded unit-Frobenius
    Hermitian direction, and the gap plus commutator defect is recorded.
    The eps = 0 row reproduces the base pair, so its gap vanishes exactly
    when A and B commute.  ``p`` is one order p >= 1 or inf, or a sequence of
    them: the ray is built once, each step one batched call over its points,
    and every order reads it, with rows in (order, epsilon) order.
    """
    grid, orders = _ray_plan(eps_grid, p)
    return _rays(*_operands(A, B), grid, orders, [seed])


def _gap_study(config: SampleConfig, count: int, eps_grid: Sequence[float], p):
    """``gap-study`` at one dimension as a stream of one table per chunk:
    the ray of ``gap_scan`` from each of ``count`` base pairs of
    ``config``, seeded per pair, the rays of a chunk of base pairs
    stacked, rows in (base pair, order, epsilon) order.  The grid and
    orders are checked here, before any sampling."""
    grid, orders = _ray_plan(eps_grid, p)

    def rays(items):
        samples = _sample_stacks(config, [draw for _, draw in items], roles=2)
        return _rays(samples.a, samples.b, grid, orders,
                     [mix_seed(config.seed, index) for index, _ in items])

    # A ray point weighs four campaign samples (see CHUNK_WORK).
    return _chunked(config, count, rays, len(grid) * len(orders), 4 * len(grid))


# One CSV line per row in CSV_COLUMNS order: floats at 17 significant digits,
# verdicts as true/false.  The renderer reads a table's grid (see ScanTable)
# as it is stored.  Each slot gets its own line template, which holds the
# texts of the constant columns and of the slot's one-value entries; lhs,
# rhs and gap are formatted per row by the template.  Every other entry
# object is formatted once per column, a per-sample list however many slots
# share it.  Entries are matched by identity, never by ==, so 0.0 and -0.0,
# or 1 and 1.0, keep their own texts.  Each slot's lines are then slotted
# into row order: line k of slot j is row k * width + j.
_SIDES = ("lhs", "rhs", "gap")
_FLOATS = _SIDES + ("spread", "epsilon", "p", "commutator_defect", "gamma_defect_product",
                    "gamma_defect_bracket")


def _texts(name: str, values: list) -> list[str]:
    """Each value as its column prints it."""
    if name == "satisfied":
        return ["true" if value else "false" for value in values]
    form = "%.17g" if name in _FLOATS else "%s"
    return [form % (value,) for value in values]


def _csv_text(table: ScanTable) -> str:
    """The CSV lines of a table's rows, each ending in '\\n'."""
    if not len(table):
        return ""
    width = table.width
    fields = [[] for _ in range(width)]
    values = [[] for _ in range(width)]
    for name in CSV_COLUMNS:
        column, texts = table.columns[name], {}
        for j, entry in enumerate(column if isinstance(column, list) else [column] * width):
            if isinstance(entry, list) and name in _SIDES:
                fields[j].append("%.17g")
                values[j].append(entry)
                continue
            if id(entry) not in texts:
                texts[id(entry)] = _texts(name, entry if isinstance(entry, list) else [entry])
            if isinstance(entry, list):
                fields[j].append("%s")
                values[j].append(texts[id(entry)])
            else:
                fields[j].append(texts[id(entry)][0].replace("%", "%%"))
    lines = [None] * len(table)
    for j in range(width):
        line = ",".join(fields[j]) + "\n"
        lines[j::width] = ([line % row for row in zip(*values[j])] if values[j]
                           else [line % ()] * table.count)
    return "".join(lines)


def _write_rows(handle, chunks, header_comments: Sequence[str]) -> None:
    """The comments and header row, then each chunk's lines as it comes."""
    handle.write("".join(f"# {comment}\n" for comment in header_comments)
                 + ",".join(CSV_COLUMNS) + "\n")
    for chunk in chunks:
        handle.write(_csv_text(chunk))


def _write_chunks(chunks, destination, header_comments: Sequence[str] = ()) -> None:
    """Write a stream of ScanTables as one CSV to a path or text stream,
    rendering and writing each table as it comes, so that only the current
    chunk is held.  A text stream, and a path that exists but is not a
    regular file (such as /dev/null or a FIFO), is written in place, so a
    failure partway leaves the rows before it there.  A regular file is
    written next to itself as ``<path>.partial`` and moved into place only
    when every row is written: on any failure, interruption included, the
    partial file is removed and the path is left as it was.  The file is
    opened before the first chunk is read, so an unwritable path fails
    before any sampling."""
    if hasattr(destination, "write"):
        _write_rows(destination, chunks, header_comments)
        return
    path = Path(destination)
    # os.path, unlike Path, answers False on any error; the open reports it.
    regular = os.path.isfile(path) or not os.path.exists(path)
    # A symlink to a regular file is replaced through, as an in-place write would be.
    target = Path(os.path.realpath(path)) if regular else path
    partial = target.with_name(target.name + ".partial") if regular else target
    try:
        with open(partial, "w", encoding="utf-8", newline="") as handle:
            _write_rows(handle, chunks, header_comments)
        if regular:
            os.replace(partial, target)
    except BaseException as exc:
        if regular:
            partial.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(f"failed to write CSV to {path}: {exc}") from exc
        raise


def render_csv(records, header_comments: Sequence[str] = ()) -> str:
    """Deterministic CSV text: comments, header row, one line per record.

    ``records`` is a ScanTable or a sequence of ScanRecords.  Floats carry
    17 significant digits so a parse-back recovers them exactly.
    """
    sink = io.StringIO()
    _write_chunks([ScanTable.of(records)], sink, header_comments)
    return sink.getvalue()


def write_csv(records, destination, header_comments: Sequence[str] = ()) -> None:
    """Write records (a ScanTable or ScanRecords) as CSV to a path or text
    stream ('.' decimals, '\\n' endings); a path is written as the one-chunk
    case of a campaign's stream (see ``_write_chunks``)."""
    _write_chunks([ScanTable.of(records)], destination, header_comments)
