"""Acceptance suite: one test per exit criterion, at full stated scale.

Each test prints one pass/fail line (visible with ``pytest -s``); every
tolerance is pinned in the assertions below.  Expected values for the fixed
witness pair were frozen from the 50-digit oracle in ``oracles.py`` before
the implementation existed.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from spdfinsler import (
    SampleConfig,
    check_conde_2uc,
    check_distance_lower_bound,
    check_p_convexity_high,
    check_p_convexity_low,
    check_sphere_2uc,
    conjugate,
    delta_p,
    gamma_commute,
    GeodesicCurve,
    arc_length,
    geodesic_speed,
    log_euclidean_dist,
    mat_log,
    weighted_mean,
)
from spdfinsler.experiments import run_campaign, sample_bundle
from spdfinsler.cli import main as cli_main

import oracles
from conftest import make_rng, random_invertible

P_GRID = (1.1, 1.5, 2.0, 3.0, 4.0)
DIMS = (2, 3, 5)


def split_count(total: int) -> dict[int, int]:
    base = total // len(DIMS)
    counts = {dim: base for dim in DIMS}
    counts[DIMS[0]] += total - base * len(DIMS)
    return counts


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    print(f"criterion {number:2d} ({label}): PASS")


def test_criterion_01_commuting_equality():
    with criterion(1, "commuting equality of delta_p and log-Euclidean"):
        for dim in DIMS:
            config = SampleConfig(dim=dim, ensemble="commuting_pair", seed=101 + dim)
            for index in range(200):
                bundle = sample_bundle(config, index)
                for p in P_GRID:
                    d = delta_p(bundle.a, bundle.b, p)
                    le = log_euclidean_dist(bundle.a, bundle.b, p)
                    assert abs(d - le) <= 1e-9 * (1.0 + d), (
                        f"dim={dim} index={index} p={p}: |{d} - {le}|"
                    )


def test_criterion_02_strictness_witness(witness_pair):
    with criterion(2, "strict gap on the fixed noncommuting witness"):
        a, b = witness_pair
        for p, (d_ref, le_ref, gap_ref) in oracles.FROZEN_WITNESS.items():
            report = check_distance_lower_bound(a, b, p)
            tolerance = 1e-9 * max(1.0, abs(report.lhs), abs(report.rhs))
            assert report.gap > 0.0
            assert report.gap >= 10.0 * tolerance
            assert abs(report.lhs - d_ref) <= 1e-8 * d_ref
            assert abs(report.rhs - le_ref) <= 1e-8 * le_ref
            assert abs(report.gap - gap_ref) <= 1e-8 * gap_ref


def test_criterion_02b_frozen_values_match_live_oracle(witness_pair):
    # guard against drift between the frozen constants and the oracle itself
    with criterion(2, "frozen witness values reproduce the 50-digit oracle"):
        for p, (d_ref, le_ref, gap_ref) in oracles.FROZEN_WITNESS.items():
            d = float(oracles.delta_p_ref(oracles.WITNESS_A, oracles.WITNESS_B, p))
            le = float(oracles.log_euclidean_ref(oracles.WITNESS_A, oracles.WITNESS_B, p))
            assert d == pytest.approx(d_ref, rel=1e-15)
            assert le == pytest.approx(le_ref, rel=1e-15)
            assert d - le == pytest.approx(gap_ref, rel=1e-12)
        mean = oracles.weighted_mean_ref(oracles.WITNESS_A, oracles.WITNESS_B, 0.5)
        frozen = oracles.FROZEN_WITNESS_MEAN
        for i in range(2):
            for j in range(2):
                assert float(mean[i, j]) == pytest.approx(frozen[i][j], rel=1e-15)


def test_criterion_03_geodesic_law():
    with criterion(3, "geodesic interpolation, constant speed, arc length"):
        produced = 0
        for dim in DIMS:
            config = SampleConfig(dim=dim, ensemble="generic", seed=303 + dim)
            count = {2: 34, 3: 33, 5: 33}[dim]
            for index in range(count):
                bundle = sample_bundle(config, index)
                a, b = bundle.a, bundle.b
                curve = GeodesicCurve(a, b)
                produced += 1
                for p in P_GRID:
                    full = delta_p(a, b, p)
                    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                        part = delta_p(a, weighted_mean(a, b, t), p)
                        assert abs(part - t * full) <= 1e-9 * (1.0 + full)
                for p in (1.5, 2.0, 3.0):
                    full = delta_p(a, b, p)
                    speeds = [geodesic_speed(curve, t, p)
                              for t in np.linspace(0.0, 1.0, 21)]
                    spread = max(speeds) - min(speeds)
                    assert spread <= 1e-8 * max(speeds)
                    quad = arc_length(curve, p)
                    assert abs(quad - full) <= 1e-6 * (1.0 + full)
        assert produced == 100


def test_criterion_04_majorization_lemma():
    from spdfinsler import check_log_majorization_lemma

    with criterion(4, "eigenvalue majorization of the exponential product"):
        counts = split_count(1000)
        for dim in DIMS:
            config = SampleConfig(dim=dim, ensemble="generic", seed=404 + dim)
            for index in range(counts[dim]):
                bundle = sample_bundle(config, index)
                h, k = bundle.log_a, bundle.log_b
                verdict = check_log_majorization_lemma(h, k)
                assert verdict.holds, f"dim={dim} index={index}"
                assert abs(verdict.slack[-1]) <= 1e-9 * (h.frobenius() + k.frobenius())
        # commuting pairs must be tight at every prefix
        for dim in DIMS:
            config = SampleConfig(dim=dim, ensemble="commuting_pair", seed=414 + dim)
            for index in range(100):
                bundle = sample_bundle(config, index)
                verdict = check_log_majorization_lemma(bundle.log_a, bundle.log_b)
                assert verdict.holds
                scale = 1.0 + float(np.abs(verdict.slack).sum())
                assert np.abs(verdict.slack).max() <= 1e-9 * scale


def test_criterion_05_conde_and_sphere_2uc():
    with criterion(5, "2-uniform convexity (triple and sphere forms)"):
        counts = split_count(1000)
        for dim in DIMS:
            config = SampleConfig(dim=dim, ensemble="generic", seed=505 + dim)
            records = run_campaign(config, ["conde_2uc", "sphere_2uc"],
                                   [1.1, 1.5, 2.0], counts[dim])
            assert all(r.satisfied for r in records)
            assert all(r.gap >= -1e-12 for r in records)
        # constructed Gamma-commuting triples achieve equality at p = 2
        for dim in DIMS:
            config = SampleConfig(dim=dim, ensemble="gamma_commuting_triple",
                                  seed=515 + dim)
            for index in range(67):
                bundle = sample_bundle(config, index)
                gap = check_conde_2uc(bundle.a, bundle.b, bundle.c, 2.0).gap
                assert abs(gap) <= 1e-8


def test_criterion_06_p_convexity_both_regimes():
    with criterion(6, "p-uniform convexity above and below p = 2"):
        counts = split_count(1000)
        for dim in DIMS:
            config = SampleConfig(dim=dim, ensemble="generic", seed=606 + dim)
            high = run_campaign(config, ["p_convexity_high", "sphere_high"],
                                [2.0, 3.0, 4.0], counts[dim])
            low = run_campaign(config, ["p_convexity_low", "sphere_low"],
                               [1.1, 1.5, 2.0], counts[dim])
            assert all(r.satisfied for r in high)
            assert all(r.satisfied for r in low)
        # commuting-diagonal triples reproduce the scalar l^p gaps
        rng = make_rng(616)
        from spdfinsler import SpdMatrix

        def lp(v, p):
            return float((np.abs(v) ** p).sum() ** (1.0 / p))

        for _ in range(50):
            av, bv, cv = (rng.standard_normal(4) for _ in range(3))
            mv = 0.5 * (av + bv)
            a, b, c = (SpdMatrix(np.diag(np.exp(v))) for v in (av, bv, cv))
            for p in (2.0, 3.0, 4.0):
                got = check_p_convexity_high(a, b, c, p).gap
                want = (0.5 * (lp(av - cv, p) ** p + lp(bv - cv, p) ** p)
                        - 2.0 ** (-p) * lp(av - bv, p) ** p - lp(mv - cv, p) ** p)
                assert abs(got - want) <= 1e-9 * (1.0 + abs(want))
            for p in (1.1, 1.5, 2.0):
                got = check_p_convexity_low(a, b, c, p).gap
                want = (lp(av - cv, p) ** p + lp(bv - cv, p) ** p
                        - 0.5 * lp(av - bv, p) ** p
                        - 2.0 ** (p - 1.0) * lp(mv - cv, p) ** p)
                assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_criterion_07_clarkson_and_hanner():
    from spdfinsler import HermitianMatrix, check_clarkson_mccarthy, check_hanner_matrix

    with criterion(7, "Clarkson-McCarthy bounds and matrix Hanner"):
        counts = split_count(1000)
        for dim in DIMS:
            config = SampleConfig(dim=dim, ensemble="generic", seed=707 + dim)
            records = run_campaign(config, ["clarkson_mccarthy"], list(P_GRID),
                                   counts[dim])
            assert all(r.satisfied for r in records)
            hanner = run_campaign(config, ["hanner"], [1.0, 1.25, 4.0 / 3.0, 1.5],
                                  counts[dim])
            assert all(r.satisfied for r in hanner)
        # equality cases
        x = HermitianMatrix(np.diag([1.0, 0.0]))
        y = HermitianMatrix(np.diag([0.0, 1.0]))
        zero = HermitianMatrix(np.zeros((2, 2)))
        for p in P_GRID:
            lower, _ = check_clarkson_mccarthy(x, y, p)
            assert abs(lower.gap) <= 1e-10
            lower_zero, _ = check_clarkson_mccarthy(x, zero, p)
            assert abs(lower_zero.gap) <= 1e-10
        for p in (1.0, 1.25, 4.0 / 3.0, 1.5):
            assert abs(check_hanner_matrix(x, zero, p).gap) <= 1e-10
            assert abs(check_hanner_matrix(x, x, p).gap) <= 1e-10


def test_criterion_08_conjugation_invariance():
    with criterion(8, "delta_p invariance under invertible congruence"):
        counts = split_count(200)
        for dim in DIMS:
            config = SampleConfig(dim=dim, ensemble="generic", seed=808 + dim)
            rng = make_rng(818 + dim)
            for index in range(counts[dim]):
                bundle = sample_bundle(config, index)
                x = random_invertible(rng, dim, cond_max=1e3)
                ca, cb = conjugate(x, bundle.a), conjugate(x, bundle.b)
                for p in P_GRID:
                    base = delta_p(bundle.a, bundle.b, p)
                    moved = delta_p(ca, cb, p)
                    assert abs(moved - base) <= 1e-8 * (1.0 + base), (
                        f"dim={dim} index={index} p={p}"
                    )


def test_criterion_09_gamma_commute_equivalence():
    with criterion(9, "both Gamma-commuting defect characterizations agree"):
        counts = split_count(200)
        for dim in DIMS:
            config = SampleConfig(dim=dim, ensemble="gamma_commuting_triple",
                                  seed=909 + dim)
            for index in range(counts[dim]):
                bundle = sample_bundle(config, index)
                report = gamma_commute(bundle.a, bundle.b, bundle.c, tol=1e-8)
                assert report.defect_product <= 1e-8
                assert report.defect_bracket <= 1e-8
                assert report.holds
        for dim in DIMS:
            config = SampleConfig(dim=dim, ensemble="generic", seed=919 + dim)
            for index in range(counts[dim]):
                bundle = sample_bundle(config, index)
                report = gamma_commute(bundle.a, bundle.b, bundle.c, tol=1e-8)
                product_says = report.defect_product <= 1e-8
                bracket_says = report.defect_bracket <= 1e-8
                assert product_says == bracket_says, (
                    f"split verdict at dim={dim} index={index}: "
                    f"{report.defect_product} vs {report.defect_bracket}"
                )


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical reruns"):
        args = ["verify", "--dim", "2,3,5", "--p", "1.1,1.5,2,3,4", "--samples", "25",
                "--seed", "4242", "--ineq", "all"]
        out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
