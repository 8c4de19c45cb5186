"""Built-in invariant suite behind the CLI ``selftest`` subcommand.

Each named check re-derives one library invariant on small seeded samples
and raises AssertionError with a diagnostic on failure.  The full pytest
suite runs the same invariants at acceptance scale; this is the quick,
dependency-free smoke battery.
"""

from __future__ import annotations

import sys

import numpy as np

from .matcore import (
    _assemble,
    commutator_defect,
    conjugate,
    eigh,
    is_commuting,
    mat_exp,
    mat_fn,
    mat_log,
    mat_pow,
)
from .schatten import schatten_norm, singular_values, weak_log_majorizes, weak_majorizes
from .geodesic import (
    GeodesicCurve,
    arc_length,
    delta_p,
    gamma_commute,
    geodesic_speed,
    geometric_mean,
    log_euclidean_dist,
    weighted_mean,
)
from .inequalities import (
    check_clarkson_mccarthy,
    check_conde_2uc,
    check_hanner_matrix,
    check_log_majorization_lemma,
    check_p_convexity_high,
    check_p_convexity_low,
)
from .experiments import (
    SampleConfig,
    mix_seed,
    render_csv,
    run_campaign,
    sample_bundle,
)

_P_GRID = (1.1, 1.5, 2.0, 3.0, 4.0)


def _bundles(seed: int, ensemble: str, count: int, dim: int = 3):
    config = SampleConfig(dim=dim, ensemble=ensemble, seed=seed)
    return [sample_bundle(config, i) for i in range(count)]


def _check_reconstruction(seed):
    for bundle in _bundles(seed, "generic", 8):
        h = bundle.log_a
        dec = eigh(h)
        rebuilt = _assemble(dec.unitary, dec.eigenvalues)
        err = np.linalg.norm(rebuilt - h.array)
        assert err <= 1e-10 * max(1e-300, h.frobenius()), f"reconstruction error {err:.3e}"
        unit = np.linalg.norm(dec.unitary @ dec.unitary.conj().T - np.eye(h.dim))
        assert unit <= 1e-10 * np.sqrt(h.dim), f"unitarity defect {unit:.3e}"


def _check_functional_calculus(seed):
    for bundle in _bundles(seed, "generic", 8):
        a = bundle.a
        roundtrip = mat_exp(mat_log(a))
        err = np.linalg.norm(roundtrip.array - a.array)
        assert err <= 1e-9 * a.frobenius(), f"exp(log(A)) error {err:.3e}"


def _check_power_additivity(seed):
    rng = np.random.default_rng(mix_seed(seed, 7))
    for bundle in _bundles(seed, "generic", 6):
        s, t = rng.uniform(-2.0, 2.0, size=2)
        a = bundle.a
        lhs = mat_pow(a, s).array @ mat_pow(a, t).array
        rhs = mat_pow(a, s + t).array
        err = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        assert err <= 1e-9, f"A^s A^t vs A^(s+t) relative error {err:.3e}"


def _check_commutator(seed):
    for bundle in _bundles(seed, "generic", 6):
        h, k = bundle.log_a, bundle.log_b
        assert commutator_defect(h, k) == commutator_defect(k, h)
        poly = mat_fn(bundle.a, lambda x: 1.0 + 0.5 * x + 0.25 * x**2)
        assert is_commuting(bundle.a, poly), "polynomial calculus must commute with A"


def _check_schatten_monotonicity(seed):
    for bundle in _bundles(seed, "generic", 6):
        h = bundle.log_a
        norms = [schatten_norm(h, p) for p in (1.0, 1.5, 2.0, 3.0, np.inf)]
        for lo, hi in zip(norms, norms[1:]):
            assert lo >= hi - 1e-12 * max(1.0, lo), f"norms not decreasing in p: {norms}"


def _check_schatten_triangle(seed):
    for bundle in _bundles(seed, "generic", 6):
        x, y = bundle.log_a, bundle.log_b
        for p in _P_GRID:
            lhs = schatten_norm(x + y, p)
            rhs = schatten_norm(x, p) + schatten_norm(y, p)
            assert lhs <= rhs + 1e-10 * max(1.0, rhs), f"triangle violated at p={p}"


def _check_unitary_invariance(seed):
    rng = np.random.default_rng(mix_seed(seed, 11))
    for bundle in _bundles(seed, "generic", 4):
        h = bundle.log_a.array
        g = rng.standard_normal((h.shape[0],) * 2) + 1j * rng.standard_normal((h.shape[0],) * 2)
        u, _ = np.linalg.qr(g)
        for p in (1.0, 2.0, 3.0):
            base = schatten_norm(h, p)
            rotated = schatten_norm(u @ h @ u.conj().T, p)
            assert abs(base - rotated) <= 1e-10 * max(1.0, base)


def _check_log_implies_weak(seed):
    for bundle in _bundles(seed, "generic", 8):
        verdict = check_log_majorization_lemma(bundle.log_a, bundle.log_b)
        assert verdict.holds, "BCH majorization failed"
        a = np.exp(np.sort(eigh(bundle.log_a + bundle.log_b).eigenvalues)[::-1])
        product = mat_exp(bundle.log_b * 0.5).array
        inner = product @ mat_exp(bundle.log_a).array @ product
        b = np.sort(np.linalg.eigvalsh(inner))[::-1]
        assert weak_log_majorizes(a, b).holds
        assert weak_majorizes(a, b).weak, "log majorization must imply weak majorization"


def _check_interpolation_law(seed):
    for bundle in _bundles(seed, "generic", 5):
        a, b = bundle.a, bundle.b
        for p in (1.5, 2.0, 3.0):
            full = delta_p(a, b, p)
            for t in (0.25, 0.5, 0.75):
                part = delta_p(a, weighted_mean(a, b, t), p)
                assert abs(part - t * full) <= 1e-9 * (1.0 + full), (
                    f"interpolation law broke at t={t}, p={p}"
                )


def _check_midpoint_and_symmetry(seed):
    for bundle in _bundles(seed, "generic", 5):
        a, b = bundle.a, bundle.b
        mid = geometric_mean(a, b)
        for p in (1.5, 2.0, 3.0):
            full = delta_p(a, b, p)
            assert abs(delta_p(a, mid, p) - 0.5 * full) <= 1e-9 * (1.0 + full)
            assert abs(delta_p(b, mid, p) - 0.5 * full) <= 1e-9 * (1.0 + full)
            assert abs(delta_p(a, b, p) - delta_p(b, a, p)) <= 1e-9 * (1.0 + full)
        swap = geometric_mean(b, a)
        err = np.linalg.norm(mid.array - swap.array) / np.linalg.norm(mid.array)
        assert err <= 1e-9, f"geometric mean not symmetric: {err:.3e}"


def _check_conjugation_invariance(seed):
    rng = np.random.default_rng(mix_seed(seed, 13))
    for bundle in _bundles(seed, "generic", 5):
        a, b = bundle.a, bundle.b
        x = rng.standard_normal((a.dim, a.dim)) + 1j * rng.standard_normal((a.dim, a.dim))
        if np.linalg.cond(x) > 1e3:
            continue
        for p in (1.5, 2.0, 3.0):
            base = delta_p(a, b, p)
            moved = delta_p(conjugate(x, a), conjugate(x, b), p)
            assert abs(base - moved) <= 1e-8 * (1.0 + base), (
                f"conjugation moved delta_p by {abs(base - moved):.3e}"
            )


def _check_inversion_equivariance(seed):
    for bundle in _bundles(seed, "generic", 5):
        a, b = bundle.a, bundle.b
        lhs = geometric_mean(mat_pow(a, -1.0), mat_pow(b, -1.0)).array
        rhs = mat_pow(geometric_mean(a, b), -1.0).array
        err = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        assert err <= 1e-9, f"inversion equivariance error {err:.3e}"


def _check_distance_lower_bound(seed):
    for bundle in _bundles(seed, "generic", 6):
        for p in _P_GRID:
            d = delta_p(bundle.a, bundle.b, p)
            le = log_euclidean_dist(bundle.a, bundle.b, p)
            assert d >= le - 1e-10, f"lower bound violated: {d} < {le}"
    for bundle in _bundles(seed, "commuting_pair", 6):
        for p in _P_GRID:
            d = delta_p(bundle.a, bundle.b, p)
            le = log_euclidean_dist(bundle.a, bundle.b, p)
            assert abs(d - le) <= 1e-9 * (1.0 + d), "commuting pair must achieve equality"


def _check_speed_and_arc_length(seed):
    for bundle in _bundles(seed, "generic", 3):
        curve = GeodesicCurve(bundle.a, bundle.b)
        for p in (1.5, 2.0):
            d = delta_p(bundle.a, bundle.b, p)
            speeds = [geodesic_speed(curve, t, p) for t in np.linspace(0.0, 1.0, 21)]
            spread = (max(speeds) - min(speeds)) / max(1e-300, max(speeds))
            assert spread <= 1e-8, f"speed not constant, spread {spread:.3e}"
            quad = arc_length(curve, p)
            assert abs(quad - d) <= 1e-6 * (1.0 + d), f"arc length {quad} vs delta {d}"


def _check_orientation_audit(seed):
    for bundle in _bundles(seed, "generic", 4):
        a, b, c = bundle.a, bundle.b, bundle.c
        for check, p in ((check_conde_2uc, 1.5), (check_p_convexity_low, 1.5),
                         (check_p_convexity_high, 3.0)):
            g1 = check(a, b, c, p).gap
            g2 = check(b, a, c, p).gap
            assert abs(g1 - g2) <= 1e-8 * (1.0 + abs(g1)), f"{check.__name__} asymmetric"
        lo1, up1 = check_clarkson_mccarthy(bundle.log_a, bundle.log_b, 3.0)
        lo2, up2 = check_clarkson_mccarthy(bundle.log_a, -1.0 * bundle.log_b, 3.0)
        assert abs(lo1.gap - lo2.gap) <= 1e-9 * (1.0 + abs(lo1.gap))
        assert abs(up1.gap - up2.gap) <= 1e-9 * (1.0 + abs(up1.gap))
        h1 = check_hanner_matrix(bundle.log_a, bundle.log_b, 1.25).gap
        h2 = check_hanner_matrix(bundle.log_b, bundle.log_a, 1.25).gap
        assert abs(h1 - h2) <= 1e-9 * (1.0 + abs(h1))


def _check_p2_parallelogram(seed):
    for bundle in _bundles(seed, "gamma_commuting_triple", 6):
        report = gamma_commute(bundle.a, bundle.b, bundle.c)
        assert report.holds, "constructed triple must Gamma-commute"
        for check in (check_conde_2uc, check_p_convexity_low):
            gap = check(bundle.a, bundle.b, bundle.c, 2.0).gap
            assert abs(gap) <= 1e-8, f"p=2 parallelogram gap {gap:.3e}"


def _check_ensemble_validity(seed):
    for bundle in _bundles(seed, "commuting_pair", 6):
        assert is_commuting(bundle.a, bundle.b), "commuting_pair sample fails predicate"
    for bundle in _bundles(seed, "generic", 6):
        assert singular_values(bundle.a).values[-1] > 0


def _check_campaign_determinism(seed):
    config = SampleConfig(dim=2, ensemble="generic", seed=seed)
    names = ["distance_lower_bound", "conde_2uc"]
    first = run_campaign(config, names, [1.5, 2.0], 5)
    second = run_campaign(config, names, [1.5, 2.0], 5)
    assert render_csv(first) == render_csv(second), "campaign rerun diverged"
    assert all(row.satisfied for row in first), "campaign found a violation"


CHECKS = (
    ("matcore.reconstruction", _check_reconstruction),
    ("matcore.functional_calculus", _check_functional_calculus),
    ("matcore.power_additivity", _check_power_additivity),
    ("matcore.commutator", _check_commutator),
    ("schatten.monotonicity", _check_schatten_monotonicity),
    ("schatten.triangle", _check_schatten_triangle),
    ("schatten.unitary_invariance", _check_unitary_invariance),
    ("schatten.log_majorization_implies_weak", _check_log_implies_weak),
    ("geodesic.interpolation_law", _check_interpolation_law),
    ("geodesic.midpoint_and_symmetry", _check_midpoint_and_symmetry),
    ("geodesic.conjugation_invariance", _check_conjugation_invariance),
    ("geodesic.inversion_equivariance", _check_inversion_equivariance),
    ("geodesic.distance_lower_bound", _check_distance_lower_bound),
    ("geodesic.speed_and_arc_length", _check_speed_and_arc_length),
    ("inequalities.orientation_audit", _check_orientation_audit),
    ("inequalities.p2_parallelogram", _check_p2_parallelogram),
    ("experiments.ensemble_validity", _check_ensemble_validity),
    ("experiments.campaign_determinism", _check_campaign_determinism),
)


def run_selftest(seed: int = 0, stream=None) -> bool:
    """Run every named check; report one line each; True iff all passed."""
    stream = stream if stream is not None else sys.stderr
    all_ok = True
    for name, check in CHECKS:
        try:
            check(seed)
        except Exception as exc:  # report and continue: the named report is the point
            all_ok = False
            print(f"FAIL {name}: {exc}", file=stream)
        else:
            print(f"ok   {name}", file=stream)
    return all_ok
