"""Exact nonintrusive reconstruction of projection-based reduced-order
models for polynomial dynamical systems."""

from .benchmarks import (
    BURGERS,
    CHAFEE_INFANTE,
    SHALLOW_ICE,
    BenchmarkSpec,
    build_burgers,
    build_chafee_infante,
    build_shallow_ice,
)
from .diagnostics import (
    build_report,
    diffusion_spectrum,
    energy_violation,
    relative_operator_error,
    structure_metrics,
    symmetry_violation,
)
from .exact_opinf import (
    InferenceResult,
    LeastSquaresResult,
    SnapshotEnsemble,
    estimate_dt,
    generate_ensemble,
    infer,
    narrow,
    pair_tags,
    rank_ensuring_pairs,
    standard_opinf,
    sweep,
)
from .fom import (
    PolynomialFOM,
    SnapshotMatrix,
    explicit_euler_step,
    from_dense_operators,
    implicit_euler_step,
    simulate,
)
from .galerkin import AggregatedOperator, intrusive_reduce
from .gappy_interp import (
    gappy_interpolate,
    interpolation_matrix,
    univariate_specific,
)
from .pod import PodBasis, pod_basis
from .tensor_poly import (
    MonomialBasis,
    enumerate_monomials,
    feature_matrix,
    monomial_count,
)

__version__ = "0.1.0"
