"""Regenerate the stored reference outputs the benchmark checks every rep against.

    python3 spdbench/make_reference.py                 # every workload
    python3 spdbench/make_reference.py verify_d32      # one workload

Runs each workload once per reference seed through ``spdfinsler.cli.main``
and writes ``spdbench/reference/<workload>.json``: the provenance it was made
under, and per seed the output's md5, row count, header, per-group counts and
sums, and a sample of rows verbatim.  Only rerun it when a change to the
program alters its CSV on purpose, and say why in that change.
"""

from __future__ import annotations

import json
import os
import sys

from common import (
    BLAS_ENV,
    REFERENCE_DIR,
    REFERENCE_SEEDS,
    SRC_DIR,
    WORK_DIR,
    WORKLOADS,
    cli_argv,
    provenance,
    summarize,
)


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads, as in the benchmark's worker
    sys.path.insert(0, str(SRC_DIR))
    import spdfinsler.cli as cli

    WORK_DIR.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    out = WORK_DIR / "reference.csv"
    for workload in names or list(WORKLOADS):
        seeds = {}
        for seed in range(REFERENCE_SEEDS):
            code = cli.main(cli_argv(workload, seed, out))
            if code != 0:
                print(f"{workload} seed {seed}: exit code {code}", file=sys.stderr)
                return 1
            seeds[str(seed)] = summarize(out.read_text(encoding="utf-8"))
        head = {"workload": workload, "argv": WORKLOADS[workload], "provenance": provenance()}
        lines = [f" {json.dumps(key)}: {json.dumps(value)}," for key, value in head.items()]
        entries = [f"  {json.dumps(seed)}: {json.dumps(entry, separators=(',', ':'))}"
                   for seed, entry in seeds.items()]
        text = "{\n" + "\n".join(lines) + '\n "seeds": {\n' + ",\n".join(entries) + "\n }\n}\n"
        (REFERENCE_DIR / f"{workload}.json").write_text(text, encoding="utf-8")
        print(f"{workload}: {len(seeds)} seeds written", file=sys.stderr)
    out.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
