"""Command-line harness: selftest, verification campaigns, and gap studies.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Data goes to
``--out`` or standard output, written chunk by chunk as it is computed;
diagnostics go to standard error.  A regular ``--out`` file appears only when
every row is written; standard output and special files (``/dev/null``, a
FIFO) may hold the rows before a failure.  Identical invocations produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import sys

from .inequalities import CHECKERS, CheckerRangeError
from .experiments import (
    ENSEMBLES,
    RNG_IDENTITY,
    SampleConfig,
    _campaign_chunks,
    _gap_study,
    _write_chunks,
    mix_seed,
)
from .selftest import run_selftest

__all__ = ["main"]

_DEFAULT_DIMS = "2,3,5"
_DEFAULT_PS = "1.1,1.5,2,3,4"
_DEFAULT_EPS = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _resolve_inequalities(text: str, p_values: list[float]) -> list[str]:
    """Checker names to run.  'all' keeps every checker that accepts some
    requested order; an explicit list is strict and lets run_campaign raise
    on an incompatible pairing."""
    if text == "all":
        names = [name for name in sorted(CHECKERS) if CHECKERS[name].orders(p_values)]
        if not names:
            raise CheckerRangeError(
                f"no inequality accepts any of the requested orders {p_values}"
            )
        return names
    names = [tok for tok in text.split(",") if tok != ""]
    unknown = sorted(set(names) - set(CHECKERS))
    if unknown or not names:
        raise CheckerRangeError(
            f"unknown inequality name(s) {unknown}; choose from {sorted(CHECKERS)} or 'all'"
        )
    return names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdfinsler",
        description="Verify Schatten-p geodesic convexity inequalities on random "
                    "positive-definite ensembles.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    selftest = sub.add_parser("selftest", parents=[seeded],
                              help="run the built-in invariant suite")
    selftest.set_defaults(print_usage=selftest.print_usage)

    def data_command(name, text, *, dims, ps, samples, eps, samples_help, eps_help):
        cmd = sub.add_parser(name, parents=[seeded], help=text)
        cmd.add_argument("--dim", type=_int_list, default=_int_list(dims),
                         help=f"comma list of dimensions (default {dims})")
        cmd.add_argument("--p", type=_float_list, default=_float_list(ps),
                         help=f"comma list of Schatten orders (default {ps})")
        cmd.add_argument("--samples", type=int, default=samples, help=samples_help)
        cmd.add_argument("--eps-grid", type=_float_list, default=_float_list(eps),
                         help=eps_help)
        cmd.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        cmd.set_defaults(print_usage=cmd.print_usage)
        return cmd

    for name, text in (("verify", "run a campaign; fail on any unsatisfied row"),
                       ("scan", "run a campaign and emit CSV without gating")):
        cmd = data_command(name, text, dims=_DEFAULT_DIMS, ps=_DEFAULT_PS, samples=100, eps="0",
                           samples_help="samples per dimension and epsilon (default 100)",
                           eps_help="epsilon values for the near_commuting ensemble (default 0)")
        cmd.add_argument("--ensemble", choices=ENSEMBLES, default="generic")
        cmd.add_argument("--ineq", default="all",
                         help="comma list of inequality names, or 'all' (drops "
                              "checkers whose range excludes every requested --p)")
        cmd.add_argument("--tol", type=float, default=None,
                         help="override the relative tolerance of the gap rule, gap >= -tol * "
                              "max(1, |lhs|, |rhs|) (default 1e-9); log_majorization "
                              "keeps its majorization verdict")
    data_command("gap-study", "gap vs noncommutativity scan from a commuting base pair",
                 dims="3", ps="2", samples=1, eps=_DEFAULT_EPS,
                 samples_help="number of base pairs per dimension (default 1)",
                 eps_help="ascending perturbation sizes from 0 (default 0,0.1,...,1.0)")
    return parser


def _run(args) -> int:
    """Write the rows under a header echoing the flags, chunk by chunk as
    they are computed; only ``verify`` gates."""
    campaign = args.subcommand != "gap-study"
    ineqs = _resolve_inequalities(args.ineq, args.p) if campaign else []
    comments = [
        f"rng: {RNG_IDENTITY}",
        f"cmd: {args.subcommand}",
        f"dim: {','.join(str(d) for d in args.dim)}",
        f"p: {','.join(repr(p) for p in args.p)}",
        f"samples: {args.samples}",
        f"seed: {args.seed}",
    ]
    if campaign:
        comments += [f"ensemble: {args.ensemble}", f"ineq: {','.join(ineqs)}"]
    comments.append(f"eps-grid: {','.join(repr(e) for e in args.eps_grid)}")
    if campaign:
        comments.append(f"tol: {'default' if args.tol is None else repr(args.tol)}")
    # Every configuration's stream is built, and so checked, before the
    # output is opened; the samples are drawn as the writer reads them.
    if campaign:
        streams = [_campaign_chunks(SampleConfig(dim=dim, ensemble=args.ensemble,
                                                 seed=mix_seed(args.seed, dim), epsilon=eps),
                                    ineqs, args.p, args.samples, tol_rel=args.tol)
                   for dim in args.dim for eps in args.eps_grid]
    else:
        streams = [_gap_study(SampleConfig(dim=dim, ensemble="commuting_pair",
                                           seed=mix_seed(args.seed, dim)),
                              args.samples, args.eps_grid, args.p)
                   for dim in args.dim]
    rows = bad = 0

    def counted():
        nonlocal rows, bad
        for stream in streams:
            for chunk in stream:
                rows += len(chunk)
                bad += chunk.columns["satisfied"].count(False)
                yield chunk

    _write_chunks(counted(), sys.stdout if args.out is None else args.out, comments)
    print(f"{args.subcommand}: {rows} rows, {bad} unsatisfied", file=sys.stderr)
    return 1 if args.subcommand == "verify" and bad > 0 else 0


def _validate_flags(args) -> None:
    if not 0 <= args.seed < 2**64:
        raise CheckerRangeError(f"--seed must fit in 64 unsigned bits, got {args.seed}")
    if args.subcommand == "selftest":
        return
    if not args.dim or any(dim < 2 for dim in args.dim):
        raise CheckerRangeError(f"--dim values must be >= 2, got {args.dim}")
    if not args.p:
        raise CheckerRangeError("--p must list at least one Schatten order")
    if args.samples < 0:
        raise CheckerRangeError(f"--samples must be nonnegative, got {args.samples}")
    grid = args.eps_grid
    if args.subcommand == "gap-study":
        if not all(p >= 1.0 for p in args.p):
            raise CheckerRangeError(f"--p values must be >= 1 or inf, got {args.p}")
        if (not grid or grid[0] != 0.0 or not math.isfinite(grid[-1])
                or not all(a < b for a, b in zip(grid, grid[1:]))):
            raise CheckerRangeError(
                f"--eps-grid must start at 0 and strictly ascend to a finite value, got {grid}")
    elif args.tol is not None and not math.isfinite(args.tol):
        raise CheckerRangeError(f"--tol must be finite, got {args.tol}")
    elif args.ensemble != "near_commuting" and grid != [0.0]:
        raise CheckerRangeError(
            f"--eps-grid applies only to --ensemble near_commuting, got {grid}")
    elif not all(0.0 <= e < math.inf for e in grid):
        raise CheckerRangeError(f"--eps-grid values must be finite and nonnegative, got {grid}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _validate_flags(args)
        if args.subcommand == "selftest":
            return 0 if run_selftest(args.seed) else 1
        return _run(args)
    except CheckerRangeError as exc:
        args.print_usage(sys.stderr)
        print(f"spdfinsler: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"spdfinsler: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
