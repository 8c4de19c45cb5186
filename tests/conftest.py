"""Shared fixtures and sampling helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from spdfinsler import HermitianMatrix, SpdMatrix

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_hermitian(rng, dim: int, sigma: float = 1.0) -> HermitianMatrix:
    g = sigma * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return HermitianMatrix(0.5 * (g + g.conj().T))


def random_spd(rng, dim: int, sigma: float = 1.0) -> SpdMatrix:
    h = random_hermitian(rng, dim, sigma)
    from spdfinsler import mat_exp

    return mat_exp(h)


def random_unitary(rng, dim: int) -> np.ndarray:
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_invertible(rng, dim: int, cond_max: float = 1e3) -> np.ndarray:
    while True:
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if np.linalg.cond(x) <= cond_max:
            return x


KERNELS = ("eigh", "eigvalsh", "svd")


@pytest.fixture
def kernel_calls(monkeypatch) -> dict[str, int]:
    """Live counts of the numpy.linalg eigh, eigvalsh and svd calls made
    during the test, and under "<kernel>_matrices" of the matrices they
    decomposed: a stacked call counts its stack's length."""
    counts = dict.fromkeys(KERNELS + tuple(f"{name}_matrices" for name in KERNELS), 0)

    def counted(name, kernel):
        def call(a, *args, **kwargs):
            counts[name] += 1
            counts[f"{name}_matrices"] += math.prod(np.shape(a)[:-2])
            return kernel(a, *args, **kwargs)
        return call

    for name in KERNELS:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return counts


@pytest.fixture
def spd_constructions(monkeypatch) -> dict[str, int]:
    """Live count, under "calls", of the SpdMatrix constructor calls made
    during the test: the SPD gate that runs on caller input."""
    counts = {"calls": 0}
    init = SpdMatrix.__init__

    def counted(self, entries):
        counts["calls"] += 1
        init(self, entries)

    monkeypatch.setattr(SpdMatrix, "__init__", counted)
    return counts


@pytest.fixture
def witness_pair() -> tuple[SpdMatrix, SpdMatrix]:
    """The fixed noncommuting pair used for strictness checks."""
    return SpdMatrix([[2.0, 1.0], [1.0, 2.0]]), SpdMatrix(np.diag([1.0, 4.0]))
