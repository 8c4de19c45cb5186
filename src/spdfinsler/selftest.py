"""Built-in smoke battery behind the CLI ``selftest`` subcommand.

One check per ``inequalities.CHECKERS`` row runs a small seeded campaign of
that checker on every ensemble, so a new row needs no edit here.  Three fixed
checks add the paper's equality cases, byte-identical reruns, and the witness
pair's frozen oracle values.  A failing check raises with a diagnostic.
"""

from __future__ import annotations

import sys
from functools import partial

import numpy as np

from .matcore import SpdMatrix
from .geodesic import delta_p, geometric_mean, log_euclidean_dist
from .inequalities import CHECKERS
from .experiments import ENSEMBLES, SampleConfig, render_csv, run_campaign

_P_GRID = (1.1, 1.5, 2.0, 3.0, 4.0)

# The fixed noncommuting witness pair: p -> (delta_p, log_euclidean, gap) and the
# geometric mean, frozen to 17 digits from the 50-digit oracle in tests/oracles.py.
WITNESS_A = ((2, 1), (1, 2))
WITNESS_B = ((1, 0), (0, 4))
FROZEN_WITNESS = {
    1.1: (1.7109106407943873, 1.6630143238264227, 0.04789631696796457),
    1.5: (1.4534857734835593, 1.4132057826322309, 0.040279990851328377),
    2.0: (1.3028482875855698, 1.2671862513647194, 0.035662036220850478),
    3.0: (1.1744306468312872, 1.1430212523717212, 0.031409394459565979),
    4.0: (1.1207363445774876, 1.0913723239087619, 0.029364020668725716),
}
FROZEN_WITNESS_MEAN = ((1.393171556269222, 0.48609881630135268),
                       (0.48609881630135268, 2.6560933272687718))


def _assert_rows(seed, ensemble, names, p_values, holds):
    for row in run_campaign(SampleConfig(dim=3, ensemble=ensemble, seed=seed), names, p_values, 2):
        if not holds(row):
            raise AssertionError(f"{ensemble}: {row.inequality} gap {row.gap:.3e} "
                                 f"at seed={row.seed} index={row.index} p={row.p!r}")


def _check_checker(name, seed):
    for ensemble in ENSEMBLES:
        _assert_rows(seed, ensemble, [name], _P_GRID, lambda row: row.satisfied)


def _gap_vanishes(row) -> bool:
    return abs(row.gap) <= 1e-9 * (1.0 + abs(row.lhs))


def _check_equality_cases(seed):
    _assert_rows(seed, "commuting_pair", ["distance_lower_bound"], _P_GRID, _gap_vanishes)
    _assert_rows(seed, "gamma_commuting_triple", ["conde_2uc", "p_convexity_low"], [2.0],
                 _gap_vanishes)


def _check_campaign_determinism(seed):
    config = SampleConfig(dim=2, ensemble="generic", seed=seed)
    first, second = (render_csv(run_campaign(config, ["distance_lower_bound", "conde_2uc"],
                                             [1.5, 2.0], 5)) for _ in range(2))
    if first != second:
        raise AssertionError("campaign rerun diverged")


def _check_frozen_witness(seed):
    a, b = SpdMatrix(WITNESS_A), SpdMatrix(WITNESS_B)
    values = [("geometric_mean", geometric_mean(a, b).array, np.array(FROZEN_WITNESS_MEAN))]
    for p, (d_ref, le_ref, _) in FROZEN_WITNESS.items():
        values += [(f"delta_p(p={p})", delta_p(a, b, p), d_ref),
                   (f"log_euclidean_dist(p={p})", log_euclidean_dist(a, b, p), le_ref)]
    for label, value, ref in values:
        err = np.abs(value - ref).max()
        if err > 1e-10 * np.abs(ref).max():
            raise AssertionError(f"{label} is {err:.3e} off its frozen value")


CHECKS = (
    *((f"inequalities.{name}", partial(_check_checker, name)) for name in CHECKERS),
    ("inequalities.equality_cases", _check_equality_cases),
    ("experiments.campaign_determinism", _check_campaign_determinism),
    ("geodesic.frozen_witness", _check_frozen_witness),
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
