"""Extended-precision reference computations for freezing expected test values.

Everything here runs through mpmath's arbitrary-precision symmetric
eigensolver and never touches the numpy-based package under test, so the
values it produces are independent oracles.  The witness pair and its frozen
values live in ``spdfinsler.selftest``; they are imported here so the test
suite and the selftest share one copy.  Run as a script to print the
frozen-constant table from the live oracle:

    python3 tests/oracles.py
"""

from __future__ import annotations

import mpmath as mp

from spdfinsler.selftest import (  # noqa: F401  (re-exported to the tests)
    FROZEN_WITNESS,
    FROZEN_WITNESS_MEAN,
    WITNESS_A,
    WITNESS_B,
)

DPS = 50


def _to_mp(rows) -> mp.matrix:
    return mp.matrix([[mp.mpf(x) for x in row] for row in rows])


def sym_eig(mat: mp.matrix):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a real symmetric matrix."""
    E, Q = mp.eigsy(mat)
    return E, Q


def sym_fn(mat: mp.matrix, f) -> mp.matrix:
    """Apply a scalar function to a real symmetric matrix through its spectrum."""
    E, Q = sym_eig(mat)
    D = mp.diag([f(E[i]) for i in range(mat.rows)])
    return Q * D * Q.T


def lp_norm(values, p) -> mp.mpf:
    p = mp.mpf(p)
    return mp.power(mp.fsum(mp.power(abs(v), p) for v in values), 1 / p)


def power_sum_ref(values, p) -> mp.mpf:
    p = mp.mpf(p)
    return mp.fsum(mp.power(abs(mp.mpf(v)), p) for v in values)


def delta_p_ref(a_rows, b_rows, p) -> mp.mpf:
    """Geodesic distance ||log(A^{-1/2} B A^{-1/2})||_p at 50 decimal digits."""
    with mp.workdps(DPS):
        A, B = _to_mp(a_rows), _to_mp(b_rows)
        S = sym_fn(A, lambda x: 1 / mp.sqrt(x))
        M = S * B * S
        E, _ = sym_eig(M)
        return lp_norm([mp.log(E[i]) for i in range(M.rows)], p)


def log_euclidean_ref(a_rows, b_rows, p) -> mp.mpf:
    """||log(A) - log(B)||_p at 50 decimal digits."""
    with mp.workdps(DPS):
        A, B = _to_mp(a_rows), _to_mp(b_rows)
        D = sym_fn(A, mp.log) - sym_fn(B, mp.log)
        E, _ = sym_eig(D)
        return lp_norm([E[i] for i in range(D.rows)], p)


def weighted_mean_ref(a_rows, b_rows, t) -> mp.matrix:
    """A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2} at 50 decimal digits."""
    with mp.workdps(DPS):
        A, B = _to_mp(a_rows), _to_mp(b_rows)
        R = sym_fn(A, mp.sqrt)
        S = sym_fn(A, lambda x: 1 / mp.sqrt(x))
        M = S * B * S
        t = mp.mpf(t)
        return R * sym_fn(M, lambda x: mp.power(x, t)) * R


def witness_table(p_values=(1.1, 1.5, 2.0, 3.0, 4.0)):
    rows = []
    for p in p_values:
        d = delta_p_ref(WITNESS_A, WITNESS_B, p)
        le = log_euclidean_ref(WITNESS_A, WITNESS_B, p)
        rows.append((p, d, le, d - le))
    return rows


if __name__ == "__main__":
    mp.mp.dps = DPS
    print("# witness pair A=[[2,1],[1,2]], B=diag(1,4)")
    print("# p, delta_p, log_euclidean, gap")
    for p, d, le, gap in witness_table():
        print(f"{p!r}: ({mp.nstr(d, 17)}, {mp.nstr(le, 17)}, {mp.nstr(gap, 17)}),")
    G = weighted_mean_ref(WITNESS_A, WITNESS_B, 0.5)
    print("# geometric mean of the witness pair")
    for i in range(2):
        print([mp.nstr(G[i, j], 17) for j in range(2)])
