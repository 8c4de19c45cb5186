"""Tests for the command-line harness: exit codes, determinism, output routing."""

import os
import tracemalloc

import pytest

import spdfinsler.experiments as experiments
from spdfinsler import CHECKERS, SampleConfig, gap_scan, mix_seed, sample_bundle, selftest
from spdfinsler.cli import main
from spdfinsler.experiments import render_csv, run_campaign

FIXED_CHECKS = [
    "inequalities.equality_cases",
    "experiments.campaign_determinism",
    "geodesic.frozen_witness",
]


def test_selftest_passes(capsys):
    names = [name for name, _ in selftest.CHECKS]
    assert names == [f"inequalities.{key}" for key in CHECKERS] + FIXED_CHECKS
    assert main(["selftest", "--seed", "42"]) == 0
    assert capsys.readouterr().err.splitlines() == [f"ok   {name}" for name in names]


def test_selftest_reports_failing_check_and_runs_the_rest(capsys, monkeypatch):
    def planted(seed):
        raise AssertionError(f"planted failure at seed {seed}")

    checks = list(selftest.CHECKS)
    broken = checks[3][0]
    checks[3] = (broken, planted)
    monkeypatch.setattr(selftest, "CHECKS", tuple(checks))
    assert main(["selftest", "--seed", "7"]) == 1
    expected = [f"ok   {name}" for name, _ in checks]
    expected[3] = f"FAIL {broken}: planted failure at seed 7"
    assert capsys.readouterr().err.splitlines() == expected


def test_verify_commuting_pair_distance_bound(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main([
        "verify", "--dim", "2", "--p", "2", "--samples", "10", "--seed", "1",
        "--ensemble", "commuting_pair", "--ineq", "distance_lower_bound",
        "--out", str(out),
    ])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    gap_col = header.index("gap")
    sat_col = header.index("satisfied")
    assert len(lines) == 11
    for line in lines[1:]:
        fields = line.split(",")
        assert abs(float(fields[gap_col])) <= 1e-9
        assert fields[sat_col] == "true"


def test_verify_default_ineq_all_drops_incompatible_checkers(tmp_path):
    # with --p 2 the hanner checker has no valid order and is skipped, not fatal
    out = tmp_path / "all.csv"
    code = main(["verify", "--dim", "2", "--p", "2", "--samples", "10", "--seed", "1",
                 "--ensemble", "commuting_pair", "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    name_col = header.index("inequality")
    gap_col = header.index("gap")
    names = {line.split(",")[name_col] for line in lines[1:]}
    assert "hanner_matrix" not in names
    assert "distance_lower_bound" in names
    for line in lines[1:]:
        fields = line.split(",")
        if fields[name_col] == "distance_lower_bound":
            assert abs(float(fields[gap_col])) <= 1e-9


def test_verify_rejects_out_of_range_order(capsys):
    code = main(["verify", "--p", "1.0", "--ineq", "conde_2uc", "--samples", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage: spdfinsler verify " in err and "conde_2uc" in err


def test_verify_generic_at_dim_16(tmp_path, capsys):
    # derived sandwiches here pass kappa = 1e10, above the gate the samples pass
    out = tmp_path / "d16.csv"
    assert main(["verify", "--dim", "16", "--samples", "30", "--out", str(out)]) == 0
    assert capsys.readouterr().err == "verify: 1170 rows, 0 unsatisfied\n"


def test_unknown_flag_is_usage_error(capsys):
    assert main(["verify", "--bogus", "1"]) == 2


def test_invalid_flag_values_are_usage_errors(capsys):
    assert main(["verify", "--dim", "1", "--samples", "1"]) == 2
    assert main(["verify", "--samples=-3"]) == 2
    assert main(["verify", "--p", "", "--samples", "1"]) == 2
    assert main(["verify", "--seed=-1", "--samples", "1"]) == 2
    for tol in ("inf", "nan", "-inf"):
        assert main(["verify", "--dim", "2", "--samples", "2", "--p", "2",
                     "--ineq", "distance_lower_bound", f"--tol={tol}"]) == 2
        assert "--tol must be finite" in capsys.readouterr().err
    capsys.readouterr()
    assert main(["gap-study", "--p", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("usage: spdfinsler gap-study ")
    assert main(["gap-study", "--p", "nan"]) == 2
    assert main(["gap-study", "--eps-grid", "0.1,0.2"]) == 2
    assert main(["gap-study", "--eps-grid", "0,1,inf"]) == 2
    assert main(["verify", "--ensemble", "near_commuting", "--eps-grid", "-1"]) == 2
    assert main(["verify", "--ensemble", "near_commuting", "--eps-grid", "inf",
                 "--dim", "3", "--samples", "1"]) == 2
    assert main(["scan", "--ensemble", "near_commuting", "--eps-grid", "0,nan"]) == 2
    capsys.readouterr()
    assert main(["verify", "--ensemble", "generic", "--eps-grid", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spdfinsler verify ") and "applies only to" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_inequality_name(capsys):
    assert main(["verify", "--ineq", "nope", "--samples", "1"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "selftest" in capsys.readouterr().out


def test_identical_invocations_byte_identical(tmp_path):
    args = ["scan", "--dim", "2,3", "--p", "1.5,2", "--samples", "4", "--seed", "9",
            "--ineq", "conde_2uc,distance_lower_bound"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_to_stdout_with_provenance_comments(capsys):
    code = main(["scan", "--dim", "2", "--p", "2", "--samples", "2", "--seed", "3",
                 "--ineq", "distance_lower_bound"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# rng: numpy PCG64")
    assert "# cmd: scan" in out
    assert "# seed: 3" in out
    header_line = [l for l in out.splitlines() if not l.startswith("#")][0]
    assert header_line.startswith("index,dim,")


def test_verify_exit_one_on_violation(tmp_path):
    # an absurd negative tolerance override marks every row unsatisfied
    code = main(["verify", "--dim", "2", "--p", "2", "--samples", "2", "--seed", "0",
                 "--ineq", "distance_lower_bound", "--tol=-1e6",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_gap_study_emits_grid(tmp_path):
    out = tmp_path / "gaps.csv"
    code = main(["gap-study", "--dim", "2", "--p", "2", "--seed", "5",
                 "--eps-grid", "0,0.5,1.0", "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 4
    header = lines[0].split(",")
    eps_col = header.index("epsilon")
    gap_col = header.index("gap")
    eps = [float(l.split(",")[eps_col]) for l in lines[1:]]
    assert eps == [0.0, 0.5, 1.0]
    assert abs(float(lines[1].split(",")[gap_col])) <= 1e-9


def test_gap_study_runs_every_order(tmp_path, capsys):
    out = tmp_path / "gaps.csv"
    code = main(["gap-study", "--dim", "2", "--p", "1.5,2", "--eps-grid", "0,0.5",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    text = out.read_text().splitlines()
    assert "# p: 1.5,2.0" in text
    lines = [l for l in text if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert [float(r["p"]) for r in rows] == [1.5, 1.5, 2.0, 2.0]
    assert [float(r["epsilon"]) for r in rows] == [0.0, 0.5, 0.0, 0.5]
    for r in rows[::2]:
        assert abs(float(r["gap"])) <= 1e-9
    assert capsys.readouterr().err == "gap-study: 4 rows, 0 unsatisfied\n"


def test_gap_study_gates_only_the_base_pair(tmp_path, capsys):
    # C of a commuting_pair sample fails the gate at d = 48 (lambda_min =
    # 2.63e-6, lambda_max = 3.26e5 at seed 0); gap-study never builds it.
    out = tmp_path / "gaps.csv"
    assert main(["gap-study", "--dim", "48", "--samples", "1", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 12
    assert capsys.readouterr().err == "gap-study: 11 rows, 0 unsatisfied\n"


def test_write_failure_exits_one(tmp_path, capsys, monkeypatch):
    # The output is opened before the first sample is drawn.
    def draw(config, index):
        raise AssertionError("sampled before the output was opened")

    monkeypatch.setattr(experiments, "_draw", draw)
    out = tmp_path / "missing_dir" / "x.csv"
    code = main(["verify", "--samples", "1", "--dim", "2", "--out", str(out)])
    assert code == 1
    assert f"failed to write CSV to {out}: " in capsys.readouterr().err


# d = 2 streams its rows, then the d = 48 sample fails the gate.
FAILING_AFTER_ROWS = ["verify", "--dim", "2,48", "--samples", "1"]
GATE_ERROR = "spdfinsler: error: matrix is not safely positive definite: lambda_min = "


def test_failed_run_leaves_out_as_it_was(tmp_path, capsys, monkeypatch):
    out = tmp_path / "rows.csv"
    argv = FAILING_AFTER_ROWS + ["--out", str(out)]
    assert main(argv) == 1
    [error] = capsys.readouterr().err.splitlines()
    assert error.startswith(GATE_ERROR)
    assert list(tmp_path.iterdir()) == []
    out.write_bytes(b"an earlier run\n")
    assert main(argv) == 1
    assert out.read_bytes() == b"an earlier run\n"

    def interrupted(config, index):
        raise KeyboardInterrupt

    monkeypatch.setattr(experiments, "_draw", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"an earlier run\n"


def test_failure_on_stdout_follows_the_streamed_rows(capsys):
    assert main(FAILING_AFTER_ROWS) == 1
    captured = capsys.readouterr()
    rows = [line for line in captured.out.splitlines() if not line.startswith("#")]
    assert rows[0].startswith("index,dim,") and len(rows) == 1 + 39
    assert {row.split(",")[1] for row in rows[1:]} == {"2"}
    [error] = captured.err.splitlines()
    assert error.startswith(GATE_ERROR)


def test_special_file_out_is_written_in_place(capsys):
    assert main(["verify", "--dim", "2", "--samples", "2", "--out", os.devnull]) == 0
    assert capsys.readouterr().err == "verify: 78 rows, 0 unsatisfied\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--dim", "2,3", "--p", "1.5,2,3", "--samples", "9", "--seed", "4"],
    ["gap-study", "--dim", "2,3", "--p", "1,2", "--samples", "5", "--seed", "4",
     "--eps-grid", "0,0.25,0.5"],
])
def test_streamed_output_equals_library_tables(argv, tmp_path, monkeypatch):
    records = []
    for dim in (2, 3):
        if argv[0] == "verify":
            config = SampleConfig(dim=dim, seed=mix_seed(4, dim))
            names = [name for name in sorted(CHECKERS) if CHECKERS[name].orders([1.5, 2, 3])]
            records += run_campaign(config, names, [1.5, 2.0, 3.0], 9)
        else:
            config = SampleConfig(dim=dim, ensemble="commuting_pair", seed=mix_seed(4, dim))
            for index in range(5):
                bundle = sample_bundle(config, index)
                records += gap_scan(bundle.a, bundle.b, [0.0, 0.25, 0.5], [1.0, 2.0],
                                    seed=mix_seed(config.seed, index))
    # A low row bound makes each dimension stream several chunks.
    monkeypatch.setattr(experiments, "CHUNK_ROWS", 64)
    out = tmp_path / "rows.csv"
    assert main(argv + ["--out", str(out)]) == 0
    text = out.read_text()
    comments = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    assert text == render_csv(records, comments)


def test_memory_is_flat_in_the_sample_count(tmp_path):
    # Only the current chunk is held: five times the samples, the same peak.
    peaks = []
    for samples in (200, 1000):
        tracemalloc.start()
        try:
            assert main(["verify", "--dim", "2", "--samples", str(samples),
                         "--out", str(tmp_path / "rows.csv")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_near_commuting_ensemble_uses_eps_grid(tmp_path):
    out = tmp_path / "near.csv"
    code = main(["verify", "--dim", "2", "--p", "2", "--samples", "3", "--seed", "2",
                 "--ensemble", "near_commuting", "--eps-grid", "0,0.3",
                 "--ineq", "distance_lower_bound", "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    eps_col = header.index("epsilon")
    values = {float(l.split(",")[eps_col]) for l in lines[1:]}
    assert values == {0.0, 0.3}


def test_console_script_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    # the child imports the package from this checkout, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spdfinsler.cli", "scan", "--dim", "2", "--p", "2",
         "--samples", "1", "--seed", "0", "--ineq", "distance_lower_bound"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# rng:")


def test_large_finite_order_is_not_a_false_violation(tmp_path, capsys):
    # The power sums of delta_p and the log-Euclidean bound overflow at
    # p = 1000; their max-scaled form keeps both finite and the gap exact.
    out = tmp_path / "rows.csv"
    assert main(["verify", "--dim", "3", "--samples", "20", "--p", "1000",
                 "--ineq", "distance_lower_bound", "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == "verify: 20 rows, 0 unsatisfied"
    assert main(["gap-study", "--dim", "3", "--p", "1000", "--samples", "3",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == "gap-study: 33 rows, 0 unsatisfied"


def test_overflowing_formula_is_one_error_line(tmp_path, capsys):
    code = main(["verify", "--dim", "2", "--samples", "2", "--p", "1e300",
                 "--out", str(tmp_path / "rows.csv")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "spdfinsler: error: clarkson_mccarthy: a side of the inequality overflows a float "
        "at p = 1e+300"]
