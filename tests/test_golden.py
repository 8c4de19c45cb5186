"""Golden CLI output: six small campaigns must reproduce their stored CSVs.

The CSVs under ``tests/golden/`` were written by the commands in ``GOLDEN``
and tagged in ``provenance.json`` with the numeric environment that made
them.  Equal bytes always pass; under the same provenance nothing else does.
Elsewhere the test warns with the provenance keys that differ, then header
lines, verdicts and echoed configuration must match exactly and every float
to a relative 1e-9 (the report tolerance), scaled like a verdict by
max(1, |lhs|, |rhs|).

Regenerate after an intended output change with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spdfinsler.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = {
    "verify_generic": ["verify", "--samples", "4", "--seed", "7"],
    "verify_norms": ["verify", "--ensemble", "gamma_commuting_triple",
                     "--ineq", "clarkson_mccarthy,two_uniform_convexity,hanner,log_majorization",
                     "--p", "1.05,1.5,2", "--samples", "4"],
    "gap_study": ["gap-study", "--dim", "3", "--samples", "2"],
    "gap_multi": ["gap-study", "--dim", "2,3", "--p", "1,2,inf", "--samples", "2"],
    "verify_near8": ["verify", "--dim", "8", "--ensemble", "near_commuting",
                     "--eps-grid", "0,0.5", "--samples", "2"],
    "verify_d16": ["verify", "--dim", "16", "--samples", "2"],
}
RTOL = 1e-9
EXACT_COLUMNS = {"index", "dim", "spread", "ensemble", "seed", "epsilon",
                 "inequality", "p", "satisfied"}


def provenance() -> dict:
    """What the CSV bits depend on: numpy, its BLAS/LAPACK build, and the
    SIMD targets numpy dispatches to on this CPU (which also pick the
    OpenBLAS kernels)."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    except ImportError:
        simd = []
    return {
        "numpy": np.__version__,
        "blas": f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}",
        "lapack": f"{deps.get('lapack', {}).get('name')} {deps.get('lapack', {}).get('version')}",
        "simd": simd,
        "machine": platform.machine(),
    }


def _run(argv: list[str], out: Path) -> str:
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _split(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[:start + 1], [line.split(",") for line in lines[start + 1:]]


def _float_close(new: str, ref: str, scale: float) -> bool:
    a, b = float(new), float(ref)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(scale, abs(b))


def _mismatches(text: str, golden: str) -> list[str]:
    head, rows = _split(text)
    ref_head, ref_rows = _split(golden)
    if head != ref_head:
        return ["comment/header lines differ"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, golden has {len(ref_rows)}"]
    columns = head[-1].split(",")
    lhs, rhs = columns.index("lhs"), columns.index("rhs")
    bad = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        scale = max(1.0, abs(float(ref[lhs])), abs(float(ref[rhs])))
        for name, new, old in zip(columns, row, ref):
            same = new == old if name in EXACT_COLUMNS else _float_close(new, old, scale)
            if not same:
                bad.append(f"row {i} {name}: {new} (golden {old})")
    return bad


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name, tmp_path):
    text = _run(GOLDEN[name], tmp_path / f"{name}.csv")
    golden = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
    if text == golden:
        return
    stored = json.loads((GOLDEN_DIR / "provenance.json").read_text(encoding="utf-8"))
    here = provenance()
    assert stored != here, "bytes differ from the golden CSV under the same provenance"
    keys = sorted(key for key in stored.keys() | here.keys() if stored.get(key) != here.get(key))
    warnings.warn(f"{name}: bytes differ and provenance differs in {keys}; "
                  f"comparing floats at relative {RTOL}")
    assert _mismatches(text, golden) == []


def test_tolerant_comparison_flags_a_changed_verdict_and_a_drifted_float():
    golden = (GOLDEN_DIR / "verify_norms.csv").read_text(encoding="utf-8")
    head, rows = _split(golden)
    columns = head[-1].split(",")
    sat, gap = columns.index("satisfied"), columns.index("gap")
    assert _mismatches(golden, golden) == []
    flipped = [row[:] for row in rows]
    flipped[0][sat] = "false" if rows[0][sat] == "true" else "true"
    drifted = [row[:] for row in rows]
    drifted[1][gap] = repr(float(rows[1][gap]) + 1e-6)
    for changed in (flipped, drifted):
        text = "\n".join(head + [",".join(row) for row in changed]) + "\n"
        assert len(_mismatches(text, golden)) == 1


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        _run(argv, GOLDEN_DIR / f"{name}.csv")
    (GOLDEN_DIR / "provenance.json").write_text(
        json.dumps(provenance(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(GOLDEN)} golden CSVs to {GOLDEN_DIR}", file=sys.stderr)
