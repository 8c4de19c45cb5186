"""Campaign benchmark for spdfinsler: one workload per run, driven only
through ``spdfinsler.cli.main`` argv, outputs checked against stored
references.

    python3 spdbench/run.py --workload verify_default --seed 3 --seconds 25 --trace 0
    python3 spdbench/run.py --workload all --seconds 25      # every workload, one table

Run from anywhere; the program measured is ``src/`` next to this directory.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.  A
human-readable table goes to standard error.  NOTES.md says what each metric
should move and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    SRC_DIR,
    WORK_DIR,
    WORKLOADS,
    cli_seed,
    load_reference,
    verify_output,
    worker_env,
)
from worker import CHECKER_KEYS, KERNEL_FUNCTIONS, TRACED

WORKER = BENCH_DIR / "worker.py"
# Set-up probes per run, half before and half after the workload's process,
# so that one slow second on a shared machine cannot move the median.
SETUP_PROBES = 16
# Headroom for the warm-up rep and the last rep overrunning --seconds.
WORKER_TIMEOUT_PAD_S = 120.0


def median(values):
    return statistics.median(values) if values else 0.0


def time_setup(env, probes: int) -> list[float]:
    """Times from spawning a fresh interpreter until spdfinsler.cli is
    imported and ready.  One untimed probe first fills the bytecode cache."""
    samples = []
    for i in range(probes + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), "--probe"], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if i:
            samples.append(ready)
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: int, env) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    out = WORK_DIR / f"{workload}.csv"
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
           "--spans", str(WORK_DIR / f"{workload}.spans.tsv")]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=seconds + WORKER_TIMEOUT_PAD_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["out"] = out
    return result


def check_reps(result: dict, entry: dict, exact: bool) -> tuple[int, list[str]]:
    """(failed reps, problems).  The last output is checked against the
    reference entry; every rep must exit 0 and write exactly those bytes."""
    md5, problems = verify_output(result["out"], entry, exact)
    output_ok = not problems
    failed = 0
    for i, rep in enumerate(result["reps"]):
        if rep["exit"] != 0:
            problems.append(f"rep {i}: exit code {rep['exit']}: {rep['stderr'].strip()}")
        elif rep["md5"] != md5:
            problems.append(f"rep {i}: output bytes differ from the last rep's")
        failed += rep["exit"] != 0 or rep["md5"] != md5 or not output_ok
    return failed, problems


def end_to_end(result: dict, setup_s: float, rows: int) -> dict:
    wall = median(result["walls"])
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "rows_per_s": {"value": rows / wall, "unit": "rows/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def layer_names() -> list[tuple[str, str]]:
    """(label, kind) of every traced span, kind choosing the reported stats."""
    names = [(f"kernel.{name}", "kernel") for name in KERNEL_FUNCTIONS]
    names += [(f"{layer}.{name}", layer) for layer, _, name in TRACED]
    names += [(f"inequalities.{key}", "inequalities") for key in CHECKER_KEYS]
    return names + [("cli.main", "cli")]


STATS = {
    "kernel": ("calls", "self_s"),
    "matcore": ("calls", "self_s"),
    "schatten": ("calls", "self_s", "us_per_call"),
    "geodesic": ("calls", "self_s", "us_per_call"),
    "inequalities": ("calls", "us_per_call"),
    "experiments.sample_bundle": ("calls", "self_s", "us_per_call"),
    "experiments.run_campaign": ("self_s",),
    "experiments.gap_scan": ("self_s",),
    "experiments.render_csv": ("self_s", "us_per_1k_rows"),
    "cli": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us", "us_per_1k_rows": "us"}


def per_layer(result: dict, rows: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one campaign call (medians over traced reps), and
    the problems found: call counts must repeat exactly across traced reps."""
    stats = result["stats"]
    problems = []
    calls = [{name: entry[0] for name, entry in rep.items()} for rep in stats]
    if any(c != calls[0] for c in calls) or len(set(result["flops"])) != 1:
        problems.append("call or flop counts differ between identical traced reps")
    metrics = {}
    for label, kind in layer_names():
        n = calls[0].get(label, 0)
        for stat in STATS.get(label, STATS.get(kind)):
            if stat == "calls":
                value = n
            elif stat == "self_s":
                value = median([rep[label][2] / 1e9 for rep in stats if label in rep])
            elif stat == "us_per_call":
                value = median([rep[label][1] / 1e3 / n for rep in stats if n])
            else:
                value = median([rep[label][1] / rows for rep in stats if rows])
            metrics[f"{label}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    kernel_calls = sum(calls[0].get(f"kernel.{name}", 0) for name in KERNEL_FUNCTIONS)
    metrics["kernel.calls_per_row"] = {"value": kernel_calls / rows if rows else 0.0,
                                       "unit": "calls/row"}
    metrics["kernel.flops_computed"] = {"value": result["flops"][0], "unit": "flop"}
    metrics["trace.overhead_ratio"] = {
        "value": median(result["traced_walls"]) / median(result["untraced_walls"]),
        "unit": "ratio"}
    metrics["trace.absent_names"] = {"value": len(result["absent"]), "unit": "count"}
    return metrics, problems


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = worker_env()
    setup = [] if trace else time_setup(env, SETUP_PROBES // 2)
    result = run_worker(workload, seed, seconds, trace, env)
    if not trace:
        setup += time_setup(env, SETUP_PROBES // 2)
    ref = load_reference(workload)
    entry = ref["seeds"][str(cli_seed(seed))]
    failed, problems = check_reps(result, entry, ref["provenance"] == result["provenance"])
    rows = entry["rows"]
    if trace:
        metrics, count_problems = per_layer(result, rows)
        problems += count_problems
        for label in result["absent"]:
            print(f"{workload}: {label} no longer exists; reported as absent (0)",
                  file=sys.stderr)
    else:
        metrics = end_to_end(result, median(setup), rows)
    attempted = len(result["reps"])
    for problem in problems[:20]:
        print(f"{workload}: {problem}", file=sys.stderr)
    print(f"{workload}: {attempted} reps, {failed} failed, error_rate "
          f"{failed / attempted:.4g} ratio", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{workload:16s} {name:44s} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC_DIR / "spdfinsler" / "cli.py").is_file():
        print(f"run.py: no program to measure: {SRC_DIR / 'spdfinsler'} is missing",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": metric for name, r in results.items()
                    for key, metric in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
