"""One workload's process: runs a campaign through ``spdfinsler.cli.main``
again and again and reports per-rep wall times, output digests and, when
traced, per-layer span statistics as one JSON line on standard output.

Started by ``run.py``; not meant to be run by hand.  ``--probe`` only imports
the CLI and says so, which is how ``run.py`` times set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

from common import SRC_DIR, cli_argv, file_md5, provenance

# Public names whose calls are traced, as (layer, module, name).  Spans are
# recorded from here, around calls into each layer; nothing in src/ changes.
# A name a later refactor deletes is reported as absent, not as an error.
KERNEL_FUNCTIONS = ("eigh", "eigvalsh", "svd")
TRACED = (
    ("matcore", "spdfinsler.matcore", "SpdMatrix"),
    ("matcore", "spdfinsler.matcore", "mat_fn"),
    ("matcore", "spdfinsler.matcore", "commutator_defect"),
    ("schatten", "spdfinsler.schatten", "schatten_norm"),
    ("geodesic", "spdfinsler.geodesic", "delta_p"),
    ("geodesic", "spdfinsler.geodesic", "geometric_mean"),
    ("geodesic", "spdfinsler.geodesic", "gamma_commute"),
    ("geodesic", "spdfinsler.geodesic", "project_to_unit_sphere"),
    ("geodesic", "spdfinsler.geodesic", "log_euclidean_dist"),
    ("experiments", "spdfinsler.experiments", "sample_bundle"),
    ("experiments", "spdfinsler.experiments", "run_campaign"),
    ("experiments", "spdfinsler.experiments", "gap_scan"),
    ("experiments", "spdfinsler.experiments", "render_csv"),
)
# The keys of experiments.CHECKERS at the commit that defined this benchmark.
CHECKER_KEYS = (
    "clarkson_mccarthy", "two_uniform_convexity", "hanner", "distance_lower_bound",
    "conde_2uc", "sphere_2uc", "p_convexity_high", "sphere_high",
    "p_convexity_low", "sphere_low", "log_majorization",
)

# Real flops of one n x n LAPACK call (Golub & Van Loan, 4th ed., 8.3 and 8.6):
# Hermitian eigen-solver with vectors 9n^3, values only 4n^3/3; SVD with
# U and V 21n^3, values only 8n^3/3.  Complex input costs four times as much.
FLOP_COEFFICIENTS = {
    ("eigh", True): 9.0,
    ("eigvalsh", False): 4.0 / 3.0,
    ("svd", True): 21.0,
    ("svd", False): 8.0 / 3.0,
}


def kernel_flops(name: str, args, kwargs) -> int:
    """Computed (not measured) flops of one numpy.linalg call, batch included."""
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", None)
    if not shape or len(shape) < 2:
        return 0
    vectors = bool(kwargs.get("compute_uv", True)) if name == "svd" else name == "eigh"
    factor = 4.0 if a.dtype.kind == "c" else 1.0
    flops = math.prod(shape[:-2]) * factor * FLOP_COEFFICIENTS[(name, vectors)]
    return int(round(flops * min(shape[-2:]) ** 3))


class Tracer:
    """Span recorder with install/uninstall of wrappers where callers look
    names up: module globals of every loaded spdfinsler module, the
    ``numpy.linalg`` namespace, ``SpdMatrix.__init__`` and the runners in
    ``experiments.CHECKERS``.  Spans stay in memory until ``aggregate``."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.flops = 0
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._undo: list = []

    def clear(self) -> None:
        """Forget recorded spans; wrappers keep writing to the same arrays."""
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del spans[:]
        del self._stack[1:]
        self.flops = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, kernel: str | None = None):
        name_id = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if kernel is not None:
                self.flops += kernel_flops(kernel, args, kwargs)
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0)
            stack.append(index)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper, home) -> None:
        modules = [home] + [m for key, m in sys.modules.items()
                            if key.split(".")[0] == "spdfinsler" and m is not home]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        import numpy.linalg

        self.clear()
        for name in KERNEL_FUNCTIONS:
            original = getattr(numpy.linalg, name)
            self._patch_everywhere(original, self.wrap(original, f"kernel.{name}", name),
                                   numpy.linalg)
        for layer, module_name, name in TRACED:
            module = sys.modules.get(module_name)
            original = getattr(module, name, None)
            label = f"{layer}.{name}"
            if original is None:
                self._mark_absent(label)
            elif isinstance(original, type):
                self._set(original, "__init__", self.wrap(original.__init__, label))
            else:
                self._patch_everywhere(original, self.wrap(original, label), module)
        checkers = getattr(sys.modules.get("spdfinsler.experiments"), "CHECKERS", {})
        for key in CHECKER_KEYS:
            label = f"inequalities.{key}"
            spec = checkers.get(key)
            try:
                wrapped = dataclasses.replace(spec, runner=self.wrap(spec.runner, label))
            except (TypeError, AttributeError):
                self._mark_absent(label)
                continue
            self._undo.append((checkers, key, spec))
            checkers[key] = wrapped

    def _mark_absent(self, label: str) -> None:
        self._name_id(label)
        if label not in self.absent:
            self.absent.append(label)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def aggregate(self) -> dict[str, list[int]]:
        """name -> [calls, inclusive ns, self ns] over the recorded spans.
        Self time is a span's duration minus its direct child spans."""
        import numpy as np

        names = np.frombuffer(self.span_name, dtype=np.int64)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        duration = (np.frombuffer(self.span_end, dtype=np.int64)
                    - np.frombuffer(self.span_start, dtype=np.int64))
        has_parent = parents >= 0
        children = np.bincount(parents[has_parent], weights=duration[has_parent],
                               minlength=duration.size)
        own = duration - children
        count = len(self.names)
        calls = np.bincount(names, minlength=count)
        inclusive = np.bincount(names, weights=duration, minlength=count)
        exclusive = np.bincount(names, weights=own, minlength=count)
        return {name: [int(calls[i]), int(inclusive[i]), int(exclusive[i])]
                for i, name in enumerate(self.names)}

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i, (n, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                handle.write(f"{i}\t{parent}\t{self.names[n]}\t{start}\t{end}\n")


def run_rep(main, argv: list[str], out: Path) -> dict:
    """One campaign call, timed from argv to written file; digest taken after."""
    if out.exists():
        out.unlink()
    gc.collect()
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(captured):
        try:
            code = main(argv)
        except Exception:  # a crashing rep is a failed rep, not a failed benchmark
            traceback.print_exc()
            code = "exception"
    wall = time.perf_counter() - start
    md5 = file_md5(out) if out.is_file() else None
    return {"wall_s": wall, "exit": code, "md5": md5, "stderr": captured.getvalue()[-2000:]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC_DIR))
    import spdfinsler.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"worker: imported spdfinsler from {cli.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        return 2
    if args.probe:
        print("ready", flush=True)
        return 0

    out = Path(args.out)
    argv = cli_argv(args.workload, args.seed, out)
    reps = [run_rep(cli.main, argv, out)]  # warm-up: checked, not timed
    result = {"provenance": provenance()}
    deadline = time.perf_counter() + args.seconds

    if not args.trace:
        timed = []
        while time.perf_counter() < deadline or len(timed) < 3:
            timed.append(run_rep(cli.main, argv, out))
        reps += timed
        result["walls"] = [rep["wall_s"] for rep in timed]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = Tracer()
        traced_main = tracer.wrap(cli.main, "cli.main")
        untraced_walls, traced_walls, stats, flops = [], [], [], []
        while time.perf_counter() < deadline or len(traced_walls) < 2:
            rep = run_rep(cli.main, argv, out)
            untraced_walls.append(rep["wall_s"])
            reps.append(rep)
            tracer.install()
            try:
                rep = run_rep(traced_main, argv, out)
            finally:
                tracer.uninstall()
            traced_walls.append(rep["wall_s"])
            reps.append(rep)
            stats.append(tracer.aggregate())
            flops.append(tracer.flops)
        tracer.write_spans(Path(args.spans))
        result.update(untraced_walls=untraced_walls, traced_walls=traced_walls,
                      stats=stats, flops=flops, absent=tracer.absent)

    result["reps"] = [{k: rep[k] for k in ("exit", "md5", "stderr")} for rep in reps]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
