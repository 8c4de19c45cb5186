"""Workload table, numeric provenance and reference comparison for the benchmark.

Imported by ``run.py`` (the entry point), ``worker.py`` (the
process that runs one workload) and ``make_reference.py``.  Nothing here
imports numpy at module level, so the parent process stays light.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".spdbench"

# Each workload is one CLI invocation; the benchmark appends --seed and --out.
# NOTES.md gives the reason for each one and the layers it is meant to load.
WORKLOADS = {
    "verify_default": ["verify", "--samples", "200"],
    "verify_d32": ["verify", "--dim", "32", "--ensemble", "near_commuting",
                   "--eps-grid", "0.5", "--samples", "120"],
    "verify_norms": ["verify", "--ensemble", "gamma_commuting_triple",
                     "--ineq", "clarkson_mccarthy,two_uniform_convexity,hanner,log_majorization",
                     "--p", "1.05,1.1,1.2,1.25,1.3,1.5,1.75,2",
                     "--dim", "2,3,5", "--samples", "400"],
    "gap_study": ["gap-study", "--dim", "2,3,5", "--samples", "500"],
}

# The benchmark's --seed is reduced modulo this count, so every campaign the
# benchmark runs has a stored reference output to be checked against.
REFERENCE_SEEDS = 8
# Rows kept verbatim per reference seed, for the row-by-row tolerance check.
REFERENCE_SAMPLE_ROWS = 16
# Relative tolerance for float columns when provenance differs (REPORT_RTOL).
RTOL = 1e-9
# Columns that echo the configuration or carry a verdict: always compared exactly.
EXACT_COLUMNS = frozenset(
    ("index", "dim", "spread", "ensemble", "seed", "epsilon", "inequality", "p", "satisfied")
)

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def cli_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def cli_argv(workload: str, seed: int, out_path: Path) -> list[str]:
    return WORKLOADS[workload] + ["--seed", str(cli_seed(seed)), "--out", str(out_path)]


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    return env


def file_md5(path: Path) -> str:
    digest = hashlib.md5()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _runtime_openblas_config(np) -> str | None:
    """Configuration string of the OpenBLAS numpy loaded, including the
    kernel core picked for this CPU (the build-time string names another)."""
    import ctypes
    import glob

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                       "openblas_get_config64_", "openblas_get_config"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_char_p
                return func().decode("ascii", "replace").strip()
    return None


def provenance() -> dict:
    """What byte-identical CSV depends on: numpy, its BLAS/LAPACK at run time,
    and the SIMD targets numpy dispatches to on this CPU."""
    import platform

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    lapack = deps.get("lapack", {})
    blas = _runtime_openblas_config(np) or deps.get("blas", {}).get("openblas configuration")
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    except ImportError:
        simd = []
    return {
        "numpy": np.__version__,
        "blas": blas or "unknown",
        "lapack": f"{lapack.get('name', 'unknown')} {lapack.get('version', '')}".strip(),
        "simd": simd,
        "machine": platform.machine(),
    }


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _split(text: str) -> tuple[list[str], list[str]]:
    """(comment and header lines, data lines) of a campaign CSV."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        start += 1
    return lines[:start + 1], lines[start + 1:]


def _groups(columns: list[str], rows: list[list[str]]) -> dict[str, list]:
    """Per (dim, inequality, p, epsilon): rows, unsatisfied rows, sum of lhs,
    sum of rhs, and the summed tolerance scale max(1, |lhs|, |rhs|)."""
    col = {name: i for i, name in enumerate(columns)}
    i_lhs, i_rhs, i_sat = col["lhs"], col["rhs"], col["satisfied"]
    keys = [col["dim"], col["inequality"], col["p"], col["epsilon"]]
    groups: dict[str, list] = {}
    for row in rows:
        key = "|".join(row[k] for k in keys)
        lhs, rhs = float(row[i_lhs]), float(row[i_rhs])
        entry = groups.setdefault(key, [0, 0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += row[i_sat] != "true"
        entry[2] += lhs
        entry[3] += rhs
        entry[4] += max(1.0, abs(lhs), abs(rhs))
    return groups


def _rounded(groups: dict[str, list]) -> dict[str, list]:
    """Group sums to 12 significant digits: far finer than RTOL, and shorter."""
    return {key: [n, bad] + [float(f"{x:.12g}") for x in sums]
            for key, (n, bad, *sums) in groups.items()}


def summarize(text: str) -> dict:
    """Reference entry for one campaign output (see NOTES.md, Correctness)."""
    head, data = _split(text)
    columns = head[-1].split(",")
    rows = [line.split(",") for line in data]
    every = max(1, len(data) // REFERENCE_SAMPLE_ROWS)
    return {
        "md5": hashlib.md5(text.encode("utf-8")).hexdigest(),
        "rows": len(data),
        "head": head,
        "groups": _rounded(_groups(columns, rows)),
        "sample": [[i, data[i]] for i in range(0, len(data), every)],
    }


def _close(new: float, ref: float, scale: float) -> bool:
    if math.isnan(ref) or math.isnan(new):
        return math.isnan(ref) and math.isnan(new)
    return abs(new - ref) <= RTOL * scale


def _row_mismatches(columns: list[str], new: list[str], ref: list[str]) -> list[str]:
    if len(new) != len(ref):
        return [f"{len(new)} fields, reference has {len(ref)}"]
    col = {name: i for i, name in enumerate(columns)}
    scale = max(1.0, abs(float(ref[col["lhs"]])), abs(float(ref[col["rhs"]])))
    bad = []
    for name, a, b in zip(columns, new, ref):
        if name in EXACT_COLUMNS or a == b:
            if a != b:
                bad.append(f"{name}={a} (reference {b})")
            continue
        try:
            same = _close(float(a), float(b), max(scale, abs(float(b))))
        except ValueError:
            same = False
        if not same:
            bad.append(f"{name}={a} (reference {b})")
    return bad


def compare(text: str, ref: dict) -> list[str]:
    """Mismatches of a campaign output against its reference entry, at the
    pinned tolerance: exact on header, counts, verdicts and echoed
    configuration; relative RTOL on float values.  Empty means correct."""
    head, data = _split(text)
    if head != ref["head"]:
        return ["comment/header lines differ from the reference"]
    if len(data) != ref["rows"]:
        return [f"{len(data)} rows, reference has {ref['rows']}"]
    columns = head[-1].split(",")
    rows = [line.split(",") for line in data]
    problems = []
    groups = _groups(columns, rows)
    if set(groups) != set(ref["groups"]):
        problems.append("row groups (dim, inequality, p, epsilon) differ from the reference")
    for key in sorted(set(groups) & set(ref["groups"])):
        n, bad, lhs, rhs, _ = groups[key]
        r_n, r_bad, r_lhs, r_rhs, r_scale = ref["groups"][key]
        if (n, bad) != (r_n, r_bad):
            problems.append(f"group {key}: {n} rows / {bad} unsatisfied, "
                            f"reference {r_n} / {r_bad}")
        elif not (_close(lhs, r_lhs, r_scale) and _close(rhs, r_rhs, r_scale)):
            problems.append(f"group {key}: lhs/rhs sums off by more than rtol {RTOL:g}")
    for index, line in ref["sample"]:
        mismatch = _row_mismatches(columns, rows[index], line.split(","))
        if mismatch:
            problems.append(f"row {index}: " + "; ".join(mismatch))
    return problems


def verify_output(path: Path, ref: dict, exact: bool) -> tuple[str | None, list[str]]:
    """(md5 of the output, mismatches).  With matching provenance the check is
    byte-exact against the reference digest; otherwise it is ``compare``."""
    if not path.is_file():
        return None, [f"no output file {path}"]
    md5 = file_md5(path)
    if md5 == ref["md5"]:
        return md5, []
    text = path.read_text(encoding="utf-8")
    problems = compare(text, ref)
    if exact:
        problems.insert(0, "provenance matches the reference but the bytes differ")
    return md5, problems
