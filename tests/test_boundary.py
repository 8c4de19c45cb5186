"""The operand boundary and the kernel budget of the public per-matrix API.

Every public function on SPD matrices takes its operands through one
boundary, ``matcore._operands``: an SpdMatrix passes as it is, anything else
through the SPD gate.  Its results are the one-row case of the stacked
stages, and it decomposes no more than those stages need.
"""

import numpy as np
import pytest

from spdfinsler import (
    GeodesicCurve,
    HermitianMatrix,
    MajorizationVerdict,
    SampleConfig,
    SpdMatrix,
    arc_length,
    check_conde_2uc,
    check_distance_lower_bound,
    check_log_majorization_lemma,
    check_sphere_2uc,
    conjugate,
    delta_p,
    delta_p_to_identity,
    gamma_commute,
    geometric_mean,
    log_euclidean_dist,
    on_unit_sphere,
    project_to_unit_sphere,
    sample_bundle,
    weighted_mean,
)
from spdfinsler.experiments import ScanTable, gap_scan, render_csv

# Each entry point on SPD operands, as (call, operands) with operands named
# from a sample: a, b, c, and ua, ub its a and b on the unit sphere of order 1.5.
ENTRY_POINTS = {
    "weighted_mean": (lambda a, b: weighted_mean(a, b, 0.3), "a b"),
    "delta_p": (lambda a, b: delta_p(a, b, 2.0), "a b"),
    "log_euclidean_dist": (lambda a, b: log_euclidean_dist(a, b, 2.0), "a b"),
    "GeodesicCurve": (lambda a, b: GeodesicCurve(a, b).eval(0.3), "a b"),
    "gamma_commute": (gamma_commute, "a b c"),
    "project_to_unit_sphere": (lambda a: project_to_unit_sphere(a, 2.0), "a"),
    "check_conde_2uc": (lambda a, b, c: check_conde_2uc(a, b, c, 1.5), "a b c"),
    "check_sphere_2uc": (lambda a, b: check_sphere_2uc(a, b, 1.5), "ua ub"),
    "check_distance_lower_bound": (lambda a, b: check_distance_lower_bound(a, b, 2.0), "a b"),
    "gap_scan": (lambda a, b: gap_scan(a, b, [0.0, 0.1], [1.5, 2.0]), "a b"),
    "delta_p_to_identity": (lambda a: delta_p_to_identity(a, 2.0), "a"),
    "on_unit_sphere": (lambda a: on_unit_sphere(a, 1.5), "ua"),
    "conjugate": (lambda a: conjugate(np.diag([2.0, 1.0]), a), "a"),
}

ILL_CONDITIONED = np.diag([1.0, 1e-14])
NON_HERMITIAN = np.array([[1.0, 0.5], [0.0, 1.0]])


def _sample_operands(names: str, dim: int = 2) -> list[SpdMatrix]:
    s = sample_bundle(SampleConfig(dim=dim), 0)
    matrices = {"a": s.a, "b": s.b, "c": s.c,
                "ua": project_to_unit_sphere(s.a, 1.5), "ub": project_to_unit_sphere(s.b, 1.5)}
    return [matrices[name] for name in names.split()]


def _value(result):
    """A result in a form whose equality is equality of its bits."""
    if isinstance(result, HermitianMatrix):
        return result.array.tobytes()
    if isinstance(result, ScanTable):
        return render_csv(result)
    if isinstance(result, MajorizationVerdict):
        return (result.holds, result.weak, result.tight_at_end, result.first_violation_index,
                result.slack.tobytes())
    return result


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_array_operands_pass_the_gate(name):
    call, names = ENTRY_POINTS[name]
    operands = _sample_operands(names)
    arrays = [np.array(m.array) for m in operands]
    assert _value(call(*arrays)) == _value(call(*map(SpdMatrix, arrays)))
    with pytest.raises(ValueError, match="not safely positive definite"):
        call(ILL_CONDITIONED, *arrays[1:])
    with pytest.raises(ValueError, match="not Hermitian"):
        call(NON_HERMITIAN, *arrays[1:])


def test_lemma_operands_are_hermitian():
    s = sample_bundle(SampleConfig(dim=2), 0)
    h, k = np.array(s.log_a.array), np.array(s.log_b.array)
    assert _value(check_log_majorization_lemma(h, k)) == _value(
        check_log_majorization_lemma(HermitianMatrix(h), HermitianMatrix(k)))
    with pytest.raises(ValueError, match="not Hermitian"):
        check_log_majorization_lemma(NON_HERMITIAN, k)


# numpy.linalg (eigh, eigvalsh, svd) calls of one call on a d = 3 generic
# sample.
# Stages take an SpdMatrix's decomposition only when they need it, so a
# derived operand whose spectrum no stage reads is never decomposed.
KERNEL_BUDGET = {
    "delta_p": (lambda a, b, c: delta_p(a, b, 2.0), 0, 1, 0),
    "delta_p_of_mean": (lambda a, b, c: delta_p(a, geometric_mean(b, c), 2.0), 1, 1, 0),
    "log_euclidean_dist": (lambda a, b, c: log_euclidean_dist(a, b, 2.0), 0, 1, 0),
    "weighted_mean": (lambda a, b, c: weighted_mean(a, b, 0.3), 1, 0, 0),
    "curve_eval": (lambda a, b, c: GeodesicCurve(a, b).eval(0.3), 1, 0, 0),
    "curve_log_m": (lambda a, b, c: GeodesicCurve(a, b).log_m, 1, 0, 0),
    "arc_length": (lambda a, b, c: arc_length(GeodesicCurve(a, b), 2.0, 8), 10, 0, 9),
    "gamma_commute": (lambda a, b, c: gamma_commute(a, b, c), 0, 0, 0),
    "project_to_unit_sphere": (lambda a, b, c: project_to_unit_sphere(a, 2.0), 0, 0, 0),
    "check_distance_lower_bound": (lambda a, b, c: check_distance_lower_bound(a, b, 2.0), 0, 2, 0),
    "check_conde_2uc": (lambda a, b, c: check_conde_2uc(a, b, c, 1.5), 2, 4, 0),
    "check_sphere_2uc": (lambda a, b, c: check_sphere_2uc(a, b, 1.5), 4, 1, 0),
    "gap_scan": (lambda a, b, c: gap_scan(a, b, [0.0, 0.1, 0.2], [2.0, 3.0]), 2, 2, 0),
}


@pytest.mark.parametrize("name", sorted(KERNEL_BUDGET))
def test_kernel_budget(name, kernel_calls):
    call, eigh, eigvalsh, svd = KERNEL_BUDGET[name]
    operands = _sample_operands("ua ub c" if name == "check_sphere_2uc" else "a b c", dim=3)
    kernel_calls.update(dict.fromkeys(kernel_calls, 0))
    call(*operands)
    assert (kernel_calls["eigh"], kernel_calls["eigvalsh"], kernel_calls["svd"]) == (
        eigh, eigvalsh, svd)
