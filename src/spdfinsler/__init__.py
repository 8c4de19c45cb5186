"""Finsler geometry of positive-definite matrices under Schatten p-norms.

Dense Hermitian/SPD matrix types with spectral calculus, weighted geometric
means and geodesic distances, (log-)majorization predicates, oriented-gap
checkers for the associated uniform-convexity inequalities, and a
reproducible random-ensemble verification harness with CSV output.
"""

from .matcore import (
    EigenConvergenceError,
    EigenDecomposition,
    HermitianMatrix,
    MatrixFunctionDomainError,
    SpdMatrix,
    commutator_defect,
    conjugate,
    eigh,
    identity,
    is_commuting,
    mat_exp,
    mat_fn,
    mat_inv_sqrt,
    mat_log,
    mat_pow,
    mat_sqrt,
)
from .schatten import (
    MajorizationVerdict,
    Spectrum,
    eigenvalue_spectrum,
    is_permutation_of,
    power_sum,
    schatten_norm,
    singular_values,
    weak_log_majorizes,
    weak_majorizes,
)
from .geodesic import (
    GammaCommuteReport,
    GeodesicCurve,
    arc_length,
    delta_p,
    delta_p_to_identity,
    gamma_commute,
    geodesic_speed,
    geometric_mean,
    log_euclidean_dist,
    on_unit_sphere,
    project_to_unit_sphere,
    weighted_mean,
)
from .inequalities import (
    CHECKERS,
    CheckerRangeError,
    InequalityReport,
    UnprovenRangeError,
    check_clarkson_mccarthy,
    check_conde_2uc,
    check_distance_lower_bound,
    check_hanner_matrix,
    check_log_majorization_lemma,
    check_p_convexity_high,
    check_p_convexity_low,
    check_sphere_2uc,
    check_sphere_high,
    check_sphere_low,
    check_two_uniform_convexity_norm,
)
from .experiments import (
    ENSEMBLES,
    RNG_IDENTITY,
    SampleConfig,
    ScanRecord,
    ScanTable,
    gap_scan,
    mix_seed,
    run_campaign,
    sample_bundle,
    write_csv,
)

__version__ = "0.1.0"
