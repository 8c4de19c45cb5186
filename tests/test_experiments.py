"""Tests for ensembles, campaign determinism, gap scans, and CSV output."""

import math
import re

import numpy as np
import pytest

import spdfinsler.experiments as experiments
from spdfinsler import (
    ENSEMBLES,
    CheckerRangeError,
    MatrixFunctionDomainError,
    SampleConfig,
    SpdMatrix,
    check_distance_lower_bound,
    commutator_defect,
    gamma_commute,
    is_commuting,
    mat_exp,
    mat_log,
    mix_seed,
    on_unit_sphere,
    project_to_unit_sphere,
)
from spdfinsler.matcore import _eigh_array
from spdfinsler.experiments import (
    CHECKERS,
    CSV_COLUMNS,
    ScanRecord,
    ScanTable,
    _campaign_chunks,
    _csv_text,
    _gap_study,
    _gated,
    _generator,
    _ray_directions,
    gap_scan,
    render_csv,
    run_campaign,
    sample_bundle,
    write_csv,
)

from conftest import make_rng, random_spd, random_unitary

ALL_INEQUALITIES = sorted(CHECKERS)
P_GRID = [1.1, 1.5, 2.0, 3.0, 4.0]


class TestSampleConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="dim"):
            SampleConfig(dim=1)
        with pytest.raises(ValueError, match="spread"):
            SampleConfig(dim=2, spread=0.0)
        with pytest.raises(ValueError, match="ensemble"):
            SampleConfig(dim=2, ensemble="bogus")
        for epsilon in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                SampleConfig(dim=2, epsilon=epsilon)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_generator_streams_are_default_rng_streams(self, seed):
        ours, numpy_default = _generator(seed), np.random.default_rng(seed)
        assert np.array_equal(ours.standard_normal((2, 3, 3)),
                              numpy_default.standard_normal((2, 3, 3)))
        assert ours.bit_generator.state == numpy_default.bit_generator.state

    def test_mix_seed_is_stable_and_spreads(self):
        assert mix_seed(0, 0) == mix_seed(0, 0)
        seeds = {mix_seed(12345, i) for i in range(100)}
        assert len(seeds) == 100
        assert all(0 <= s < 2**64 for s in seeds)


class TestEnsembles:
    def test_identical_configs_identical_samples(self):
        config = SampleConfig(dim=3, ensemble="generic", seed=99)
        first = sample_bundle(config, 4)
        second = sample_bundle(SampleConfig(dim=3, ensemble="generic", seed=99), 4)
        assert np.array_equal(first.a.array, second.a.array)
        assert np.array_equal(first.c.array, second.c.array)

    def test_pair_and_triple_are_prefixes(self):
        config = SampleConfig(dim=3, ensemble="generic", seed=5)
        a = sample_bundle(config, 0).a
        pair, triple = sample_bundle(config, 0), sample_bundle(config, 0)
        pa, pb = pair.a, pair.b
        ta, tb, tc = triple.a, triple.b, triple.c
        assert np.array_equal(a.array, pa.array)
        assert np.array_equal(pa.array, ta.array)
        assert np.array_equal(pb.array, tb.array)
        assert tc.dim == 3

    def test_commuting_pair_commutes(self):
        config = SampleConfig(dim=4, ensemble="commuting_pair", seed=1)
        for i in range(10):
            bundle = sample_bundle(config, i)
            a, b = bundle.a, bundle.b
            tol = 1e-10 * a.frobenius() * b.frobenius()
            assert is_commuting(a, b, tol)

    def test_commuting_triple_commutes_pairwise(self):
        config = SampleConfig(dim=3, ensemble="commuting_triple", seed=2)
        bundle = sample_bundle(config, 0)
        a, b, c = bundle.a, bundle.b, bundle.c
        for x, y in ((a, b), (a, c), (b, c)):
            assert is_commuting(x, y, 1e-10 * x.frobenius() * y.frobenius())

    def test_gamma_triple_gamma_commutes(self):
        config = SampleConfig(dim=3, ensemble="gamma_commuting_triple", seed=3)
        for i in range(10):
            bundle = sample_bundle(config, i)
            assert gamma_commute(bundle.a, bundle.b, bundle.c).holds

    def test_near_commuting_zero_epsilon_is_base_pair(self):
        base = SampleConfig(dim=3, ensemble="near_commuting", seed=4, epsilon=0.0)
        bumped = SampleConfig(dim=3, ensemble="near_commuting", seed=4, epsilon=0.5)
        b0 = sample_bundle(base, 0)
        b1 = sample_bundle(bumped, 0)
        assert np.array_equal(b0.a.array, b1.a.array)
        assert not np.array_equal(b0.b.array, b1.b.array)
        assert is_commuting(b0.a, b0.b, 1e-10 * b0.a.frobenius() * b0.b.frobenius())

    def test_near_commuting_defect_grows_from_zero(self):
        from spdfinsler import commutator_defect

        defects = []
        for eps in (0.0, 0.2, 0.8):
            config = SampleConfig(dim=3, ensemble="near_commuting", seed=4, epsilon=eps)
            bundle = sample_bundle(config, 0)
            defects.append(commutator_defect(bundle.a, bundle.b))
        assert defects[0] <= 1e-12
        assert defects[1] > 1e-4
        assert defects[2] > defects[1]

    @pytest.mark.parametrize("rows, error, match", [
        (["ok", "overflow", "gate"], MatrixFunctionDomainError, "non-finite"),
        (["gate", "overflow"], ValueError, "not safely positive definite"),
    ])
    def test_sampled_exp_raises_first_failing_matrix(self, rows, error, match):
        # One batched exp and gate raise what a per-matrix loop raises first.
        logs = {"ok": np.zeros(3), "overflow": np.array([800.0, 0.0, 0.0]),
                "gate": np.array([0.0, 0.0, -30.0])}
        stack = [np.diag(logs[row]).astype(np.complex128) for row in rows]
        for h in stack:
            try:
                SpdMatrix(mat_exp(h))
            except ValueError as exc:
                assert isinstance(exc, error) and re.search(match, str(exc))
                break
        dec = _eigh_array(np.array(stack))
        basis = random_unitary(make_rng(7), 3)
        spectra = np.array([logs[row] for row in rows])
        # As the roles of one sample, and as one role of consecutive samples.
        for bases, values in ((dec.unitary[None], dec.eigenvalues[None]),
                              (np.array([[basis] * len(rows)]), spectra[None]),
                              (np.array([[basis]] * len(rows)), spectra[:, None])):
            with pytest.raises(error, match=match):
                _gated(bases, values)

    def test_sampled_matrices_skip_the_constructor(self, spd_constructions):
        # Sampled matrices and ray points pass the SPD gate in batched calls;
        # the SpdMatrix constructor runs on caller input only.
        for ensemble in ENSEMBLES:
            config = SampleConfig(dim=3, ensemble=ensemble, seed=9, epsilon=0.1)
            run_campaign(config, ALL_INEQUALITIES, P_GRID, 2)
        bundle = sample_bundle(SampleConfig(dim=3, ensemble="commuting_pair", seed=9), 0)
        gap_scan(bundle.a, bundle.b, [0.0, 0.5, 1.0], 2.0, seed=9)
        assert spd_constructions["calls"] == 0

    @pytest.mark.parametrize("dim, count", [(2, 20), (3, 20), (5, 20), (16, 5), (32, 5)])
    def test_campaign_projections_stay_on_sphere(self, dim, count):
        # The sphere family trusts its projections unchecked: they lie on the
        # sphere far inside the 1e-8 the public sphere checkers require.
        for ensemble in ENSEMBLES:
            config = SampleConfig(dim=dim, ensemble=ensemble, seed=dim, epsilon=0.5)
            for i in range(count):
                bundle = sample_bundle(config, i)
                for x in (bundle.a, bundle.b):
                    for p in P_GRID:
                        assert on_unit_sphere(project_to_unit_sphere(x, p), p, tol=1e-12)

    def test_spread_scales_samples(self):
        small = sample_bundle(SampleConfig(dim=3, spread=0.1, seed=6), 0).a
        wide = sample_bundle(SampleConfig(dim=3, spread=2.0, seed=6), 0).a
        from spdfinsler import delta_p_to_identity

        assert delta_p_to_identity(small, 2) < delta_p_to_identity(wide, 2)


class TestRunCampaign:
    def test_zero_count_empty(self):
        config = SampleConfig(dim=2, seed=0)
        assert run_campaign(config, ["distance_lower_bound"], [2.0], 0) == []

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, tol):
        # inf would pass every row and nan fail every row; the CLI rejects both.
        with pytest.raises(ValueError, match="tol_rel must be finite"):
            run_campaign(SampleConfig(dim=2), ["distance_lower_bound"], [2.0], 3, tol_rel=tol)

    def test_rows_sorted_and_complete(self):
        config = SampleConfig(dim=2, seed=7)
        records = run_campaign(config, ["conde_2uc", "distance_lower_bound"], [1.5, 2.0], 3)
        keys = [(r.index, r.inequality, r.p) for r in records]
        assert keys == sorted(keys)
        assert len(records) == 3 * 2 * 2

    def test_byte_identical_reruns(self):
        config = SampleConfig(dim=3, seed=8)
        first = run_campaign(config, ALL_INEQUALITIES, P_GRID, 4)
        second = run_campaign(config, ALL_INEQUALITIES, P_GRID, 4)
        assert render_csv(first) == render_csv(second)

    def test_range_gating_filters_per_checker(self):
        config = SampleConfig(dim=2, seed=10)
        records = run_campaign(config, ["conde_2uc", "p_convexity_high"], [1.5, 3.0], 2)
        by_name = {}
        for r in records:
            by_name.setdefault(r.inequality, set()).add(r.p)
        assert by_name["conde_2uc"] == {1.5}
        assert by_name["p_convexity_high"] == {3.0}

    def test_error_before_sampling_when_no_valid_order(self, monkeypatch):
        def draw(config, index):
            raise AssertionError("sampled before the arguments were checked")

        monkeypatch.setattr(experiments, "_draw", draw)
        config = SampleConfig(dim=2, seed=11)
        with pytest.raises(CheckerRangeError, match="conde_2uc"):
            run_campaign(config, ["conde_2uc"], [3.0], 5)
        # The stream checks its arguments when it is built, not when read.
        with pytest.raises(CheckerRangeError, match="conde_2uc"):
            _campaign_chunks(config, ["conde_2uc"], [3.0], 5)
        with pytest.raises(ValueError, match="count"):
            _campaign_chunks(config, ["distance_lower_bound"], [2.0], -1)
        with pytest.raises(ValueError, match="eps grid"):
            _gap_study(config, 5, [0.5], [2.0])

    def test_unknown_inequality(self):
        config = SampleConfig(dim=2, seed=12)
        with pytest.raises(ValueError, match="unknown inequality"):
            run_campaign(config, ["nope"], [2.0], 1)

    def test_order_one_excluded_from_distance_checker(self):
        # the library computes delta_1, but the harness gates the distance
        # inequality to p > 1 where the geodesic is unique
        from spdfinsler import delta_p, identity

        assert delta_p(identity(2), identity(2), 1.0) == 0.0
        assert 1.0 not in CHECKERS["distance_lower_bound"].p_range
        assert 1.0 + 1e-9 in CHECKERS["distance_lower_bound"].p_range

    def test_negative_count(self):
        config = SampleConfig(dim=2, seed=13)
        with pytest.raises(ValueError, match="count"):
            run_campaign(config, ["distance_lower_bound"], [2.0], -1)

    def test_zero_violations_small_scale(self):
        for ensemble in ("generic", "commuting_pair", "gamma_commuting_triple"):
            config = SampleConfig(dim=3, ensemble=ensemble, seed=14)
            records = run_campaign(config, ALL_INEQUALITIES, P_GRID, 10)
            assert all(r.satisfied for r in records)

    def test_log_majorization_records_nan_order(self):
        config = SampleConfig(dim=2, seed=15)
        records = run_campaign(config, ["log_majorization"], [1.5, 2.0], 2)
        assert len(records) == 2  # one row per sample, independent of p list
        assert all(math.isnan(r.p) for r in records)

    def test_kernel_call_budget(self, kernel_calls):
        # Derived matrices cost no gate eigh; a check brought back fails here.
        # Each stage is one batched call over a campaign chunk, so 2 and 20
        # samples make the same calls; per sample, the matrices decomposed
        # are a, b, c through exp and the SPD gate (near_commuting gates
        # B_eps in place of the B it replaces), then the families' spectra.
        # The sphere family's stages run once per order (3 eigh and 1
        # eigvalsh at each of the 5 orders), and the distance and triple
        # families share one (a, b) sandwich eigvalsh.
        for config, eigh_calls, eigh_matrices in (
                (SampleConfig(dim=3), 20, 25),
                (SampleConfig(dim=3, ensemble="near_commuting", epsilon=0.1), 20, 24),
                (SampleConfig(dim=3, ensemble="gamma_commuting_triple"), 19, 22)):
            for count in (2, 20):
                kernel_calls.update(dict.fromkeys(kernel_calls, 0))
                run_campaign(config, ALL_INEQUALITIES, P_GRID, count)
                assert kernel_calls == {"eigh": eigh_calls, "eigvalsh": 11, "svd": 2,
                                        "eigh_matrices": count * eigh_matrices,
                                        "eigvalsh_matrices": count * 11,
                                        "svd_matrices": count * 5}

    def test_tolerance_override(self):
        config = SampleConfig(dim=2, seed=16)
        loose = run_campaign(config, ["distance_lower_bound"], [2.0], 3, tol_rel=1e3)
        assert all(r.satisfied for r in loose)
        harsh = run_campaign(config, ["distance_lower_bound"], [2.0], 3, tol_rel=-1e3)
        assert not any(r.satisfied for r in harsh)

    def test_tolerance_keeps_the_majorization_verdict(self, monkeypatch):
        # Spectra whose prefixes agree but whose traces are 5e-9 apart: weak
        # majorization, not full.  The default tolerance, passed explicitly,
        # changes no row, and the lemma's verdict is never the gap rule's.
        def spectra(H, K):
            count = len(H)
            return {"sum": np.tile([1.0, 0.0], (count, 1)),
                    "bch": np.tile([1.0, 5e-9], (count, 1)), "trace": np.ones(count)}

        monkeypatch.setattr(experiments, "_lemma_spectra", spectra)
        config = SampleConfig(dim=2, seed=16)
        default = run_campaign(config, ["log_majorization"], [2.0], 2)
        assert [r.satisfied for r in default] == [False, False]
        explicit = run_campaign(config, ["log_majorization"], [2.0], 2, tol_rel=1e-9)
        assert render_csv(explicit) == render_csv(default)


class TestGapScan:
    def test_zero_epsilon_row_vanishes_for_commuting_base(self):
        config = SampleConfig(dim=3, ensemble="commuting_pair", seed=17)
        bundle = sample_bundle(config, 0)
        a, b = bundle.a, bundle.b
        records = gap_scan(a, b, [0.0, 0.1, 0.2], 2.0, seed=17)
        assert records[0].gap <= 1e-9
        assert records[0].commutator_defect <= 1e-10 * a.frobenius() * b.frobenius()
        assert [r.epsilon for r in records] == [0.0, 0.1, 0.2]

    def test_gap_trend_recorded(self):
        config = SampleConfig(dim=3, ensemble="commuting_pair", seed=18)
        bundle = sample_bundle(config, 0)
        a, b = bundle.a, bundle.b
        records = gap_scan(a, b, [0.0, 0.25, 0.5, 1.0], 2.0, seed=18)
        # trend is reported, not asserted; defects must still grow off zero
        assert records[-1].commutator_defect > records[0].commutator_defect
        assert all(r.satisfied for r in records)

    def test_grid_validation(self):
        rng = make_rng(19)
        a, b = random_spd(rng, 2), random_spd(rng, 2)
        with pytest.raises(ValueError, match="ascending"):
            gap_scan(a, b, [0.1, 0.2], 2.0)
        with pytest.raises(ValueError, match="ascending"):
            gap_scan(a, b, [0.0, 0.2, 0.1], 2.0)
        with pytest.raises(ValueError, match="ascending"):
            gap_scan(a, b, [0.0, math.nan], 2.0)
        with pytest.raises(ValueError, match="finite"):
            gap_scan(a, b, [0.0, 1.0, math.inf], 2.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            gap_scan(a, random_spd(rng, 3), [0.0, 0.5], 2.0)
        with pytest.raises(ValueError, match="at least one Schatten order"):
            gap_scan(a, b, [0.0, 0.5], [])

    def test_deterministic(self):
        rng = make_rng(20)
        a, b = random_spd(rng, 2), random_spd(rng, 2)
        one = gap_scan(a, b, [0.0, 0.5], 1.5, seed=3)
        two = gap_scan(a, b, [0.0, 0.5], 1.5, seed=3)
        assert render_csv(one) == render_csv(two)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_stacked_ray_matches_per_point_path(self, dim, p):
        # Each row equals the public checker on the point exp(log B + eps K),
        # and its batched commutator defect equals commutator_defect there.
        bundle = sample_bundle(SampleConfig(dim=dim, ensemble="commuting_pair", seed=dim), 0)
        a, b = bundle.a, bundle.b
        grid = [0.0, 0.1, 0.25, 0.5, 1.0]
        direction = _ray_directions([dim], dim)[0]
        log_b = mat_log(b).array
        points = [b] + [SpdMatrix(mat_exp(log_b + eps * direction)) for eps in grid[1:]]
        records = gap_scan(a, b, grid, p, seed=dim)
        assert len(records) == len(points)
        for record, point in zip(records, points):
            report = check_distance_lower_bound(a, point, p)
            assert (record.lhs, record.rhs, record.gap, record.commutator_defect) == (
                report.lhs, report.rhs, report.gap, commutator_defect(a, point))

    def test_orders_read_one_ray(self, kernel_calls):
        bundle = sample_bundle(SampleConfig(dim=3, ensemble="commuting_pair", seed=24), 0)
        a, b = bundle.a, bundle.b
        orders = [1.0, 2.0, math.inf]
        for grid in ([0.0], [0.0, 0.5], [0.1 * k for k in range(11)]):
            kernel_calls.update(dict.fromkeys(kernel_calls, 0))
            records = gap_scan(a, b, grid, orders, seed=24)
            points = len(grid)
            assert kernel_calls == {"eigh": 2, "eigvalsh": 2, "svd": 0,
                                    "eigh_matrices": 2 * (points - 1),
                                    "eigvalsh_matrices": 2 * points, "svd_matrices": 0}
            assert render_csv(records) == render_csv(
                [r for p in orders for r in gap_scan(a, b, grid, p, seed=24)])

    def test_gap_study_builds_only_the_base_pair(self, kernel_calls):
        # Per base pair: the gate of a and b, then one eigh of log B + eps K
        # and one gate of B_eps per nonzero eps, in three calls per chunk.
        # C is drawn but never built: no eigh of its log, no gate, two
        # matrices fewer per pair than a campaign sample's.
        config = SampleConfig(dim=3, ensemble="commuting_pair", seed=25)
        grid = [0.0, 0.1, 0.5, 1.0]
        for count in (1, 6):
            kernel_calls.update(dict.fromkeys(kernel_calls, 0))
            list(_gap_study(config, count, grid, [2.0]))
            assert (kernel_calls["eigh"], kernel_calls["eigh_matrices"]) == (
                3, count * (2 + 2 * (len(grid) - 1)))

    @pytest.mark.parametrize("grid, error, match", [
        ([0.0, 1.0, 50.0], ValueError, "not safely positive definite"),
        ([0.0, 1.0, 2000.0], MatrixFunctionDomainError, "non-finite"),
        # The gate failure at eps = 50 comes before the overflow at 2000.
        ([0.0, 1.0, 50.0, 2000.0], ValueError, "not safely positive definite"),
    ])
    def test_ray_points_still_checked(self, grid, error, match):
        bundle = sample_bundle(SampleConfig(dim=3, ensemble="commuting_pair", seed=17), 0)
        with pytest.raises(error, match=match):
            gap_scan(bundle.a, bundle.b, grid, 2.0, seed=17)


class TestCsv:
    def test_empty_records_header_only(self):
        text = render_csv([])
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def test_single_record_two_lines(self):
        config = SampleConfig(dim=2, seed=21)
        records = run_campaign(config, ["distance_lower_bound"], [2.0], 1)
        text = render_csv(records)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("index,dim,")

    def test_comments_precede_header(self):
        text = render_csv([], header_comments=["rng: test", "cmd: scan"])
        lines = text.splitlines()
        assert lines[0] == "# rng: test"
        assert lines[1] == "# cmd: scan"
        assert lines[2].startswith("index,")

    def test_newline_endings_and_seventeen_digits(self):
        config = SampleConfig(dim=2, seed=22)
        records = run_campaign(config, ["distance_lower_bound"], [2.0], 1)
        text = render_csv(records)
        assert "\r" not in text and text.endswith("\n")
        third = float(text.splitlines()[1].split(",")[8])
        assert f"{third:.17g}" in text

    def test_round_trip_recovers_floats_exactly(self, tmp_path):
        config = SampleConfig(dim=3, seed=23)
        records = run_campaign(config, ALL_INEQUALITIES, [1.5, 2.0], 2)
        path = tmp_path / "rows.csv"
        write_csv(records, path, header_comments=["rng: test"])
        lines = path.read_text(encoding="utf-8").splitlines()
        data = [line for line in lines if not line.startswith("#")]
        header = data[0].split(",")
        assert list(header) == list(CSV_COLUMNS)
        assert len(data) - 1 == len(records)
        for line, record in zip(data[1:], records):
            fields = dict(zip(header, line.split(",")))
            assert int(fields["index"]) == record.index
            assert fields["inequality"] == record.inequality
            for col in ("lhs", "rhs", "gap", "commutator_defect"):
                assert float(fields[col]) == getattr(record, col)
            parsed_p = float(fields["p"])
            assert parsed_p == record.p or (math.isnan(parsed_p) and math.isnan(record.p))
            assert fields["satisfied"] == ("true" if record.satisfied else "false")

    def test_write_to_stream(self):
        import io

        sink = io.StringIO()
        write_csv([], sink)
        assert sink.getvalue() == ",".join(CSV_COLUMNS) + "\n"

    def test_write_failure_carries_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            write_csv([], "/no/such/dir/rows.csv")


def _per_row_csv(table):
    """The CSV lines of a table by the per-row rule: lhs, rhs, gap and the
    other float columns at 17 significant digits, verdicts as true/false,
    every other value by %s."""
    floats = {"spread", "epsilon", "p", "lhs", "rhs", "gap", "commutator_defect",
              "gamma_defect_product", "gamma_defect_bracket"}

    def text(name, value):
        if name == "satisfied":
            return "true" if value else "false"
        return ("%.17g" if name in floats else "%s") % (value,)

    return "".join(",".join(text(name, getattr(record, name)) for name in CSV_COLUMNS) + "\n"
                   for record in table)


class TestConstantColumns:
    """A chunk formats its constant columns once; every byte stays that of
    the per-row rule."""

    @staticmethod
    def _records(count, **columns):
        base = dict(index=3, dim=2, spread=1.0, ensemble="generic", seed=5, epsilon=0.25,
                    inequality="conde_2uc", p=1.5, lhs=1.25, rhs=0.5, gap=0.75,
                    satisfied=True, commutator_defect=0.125, gamma_defect_product=math.nan,
                    gamma_defect_bracket=math.nan)
        rows = [dict(base) for _ in range(count)]
        for name, values in columns.items():
            for row, value in zip(rows, values):
                row[name] = value
        return ScanTable.of([ScanRecord(**row) for row in rows])

    @pytest.mark.parametrize("columns", [
        {"p": [0.0, -0.0, 0.0]},
        {"p": [-0.0, 0.0, 0.0], "epsilon": [-0.0, -0.0, -0.0]},
        {"commutator_defect": [0.0, 0.0, -0.0], "lhs": [0.0, -0.0, 0.0]},
        {"gamma_defect_product": [float("nan"), float("nan"), float("nan")]},
        {"spread": [math.nan, float("nan"), math.nan]},
        {"index": [1, 1.0, True], "seed": [0, 0.0, False], "dim": [2, 2, 2.0]},
        {"index": [0.0, -0.0, 0.0], "seed": [0, 0, 0]},
        {"satisfied": [False, False, False], "inequality": ["a%b", "a%b", "a%b"]},
        {"ensemble": ["50%", "50%", "50%"], "p": [math.inf, math.inf, math.inf]},
        {},
    ], ids=["zeros", "negative-zero-first", "zero-sides", "distinct-nans", "mixed-nans",
           "equal-across-types", "zeros-printed-by-str", "escapes", "percent-and-inf", "all-constant"])
    def test_renders_as_the_per_row_rule(self, columns):
        table = self._records(3, **columns)
        assert _csv_text(table) == _per_row_csv(table)
        assert render_csv(table) == ",".join(CSV_COLUMNS) + "\n" + _per_row_csv(table)

    def test_one_row_and_empty_tables(self):
        table = self._records(1, p=[-0.0])
        assert _csv_text(table) == _per_row_csv(table)
        assert _csv_text(ScanTable()) == ""

    def test_campaign_and_gap_study_chunks(self):
        ineqs = ["clarkson_mccarthy", "log_majorization", "conde_2uc"]
        for config in (SampleConfig(dim=2, ensemble="gamma_commuting_triple", seed=0),
                       SampleConfig(dim=3, ensemble="near_commuting", epsilon=0.5, seed=4)):
            for chunk in _campaign_chunks(config, ineqs, [1.5, 2.0], 5):
                assert _csv_text(chunk) == _per_row_csv(chunk)
        for chunk in _gap_study(SampleConfig(dim=2, ensemble="commuting_pair", seed=7), 3,
                                [0.0, 0.5, 1.0], [2.0, math.inf]):
            assert _csv_text(chunk) == _per_row_csv(chunk)
