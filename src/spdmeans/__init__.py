"""spdmeans: inductive, quasi-arithmetic, and Riemannian means.

Scalar, complex, and SPD-matrix means computed by limit-of-sequence
iterations and closed forms, with convergence-order diagnostics and
stochastic law-of-large-numbers / central-limit experiments.
"""

import logging

from .convergence import ConvergenceTrace, TraceStep, estimate_order
from .errors import (
    DefinitenessError,
    DomainError,
    MatrixSetError,
    NonConvergenceError,
    NumericError,
    ShapeError,
    SpdMeansError,
)
from .scalar_means import (
    ComplexPolar,
    DoubleSequenceSpec,
    QuasiArithmeticGenerator,
    agm,
    ahm,
    check_generator,
    complex_ahm,
    double_sequence,
    elliptic_k,
    identity_generator,
    log_generator,
    power_generator,
    power_mean,
    pythagorean_mean,
    quasi_arithmetic_mean,
    reciprocal_generator,
)
from .spd_core import (
    SpdMatrix,
    WeightVector,
    geodesic,
    loewner_leq,
    matrix_function,
    riemannian_distance,
    s_divergence,
    spd_inverse,
    weighted_arithmetic,
    weighted_harmonic,
)
from .binary_means import (
    ahm_iteration,
    geometric_mean_closed_form,
    lim_palfia_power_mean,
    lim_palfia_power_mean_picard,
    log_euclidean_mean,
    power_mean_fixed_point_residual,
    power_mean_limit_study,
    q_power_mean,
)
from .multi_means import (
    RecursiveMeanParams,
    bacak_median,
    holbrook_inductive_mean,
    karcher_refine,
    karcher_residual,
    recursive_geometric_mean,
    riemannian_circumcenter,
)
from .stochastic import (
    Lognormal,
    SampleConfig,
    inductive_expectation,
    lln_experiment,
    lognormal_power_reference,
    qa_expectation_experiment,
    sample_spd,
    spd_variance,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())  # silent unless configured

__all__ = [
    "ComplexPolar",
    "ConvergenceTrace",
    "DefinitenessError",
    "DomainError",
    "DoubleSequenceSpec",
    "Lognormal",
    "MatrixSetError",
    "NonConvergenceError",
    "NumericError",
    "QuasiArithmeticGenerator",
    "RecursiveMeanParams",
    "SampleConfig",
    "ShapeError",
    "SpdMatrix",
    "SpdMeansError",
    "TraceStep",
    "WeightVector",
    "agm",
    "ahm",
    "ahm_iteration",
    "bacak_median",
    "check_generator",
    "complex_ahm",
    "double_sequence",
    "elliptic_k",
    "estimate_order",
    "geodesic",
    "geometric_mean_closed_form",
    "holbrook_inductive_mean",
    "identity_generator",
    "inductive_expectation",
    "karcher_refine",
    "karcher_residual",
    "lim_palfia_power_mean",
    "lim_palfia_power_mean_picard",
    "lln_experiment",
    "loewner_leq",
    "log_euclidean_mean",
    "log_generator",
    "lognormal_power_reference",
    "matrix_function",
    "power_generator",
    "power_mean",
    "power_mean_fixed_point_residual",
    "power_mean_limit_study",
    "pythagorean_mean",
    "q_power_mean",
    "qa_expectation_experiment",
    "quasi_arithmetic_mean",
    "reciprocal_generator",
    "recursive_geometric_mean",
    "riemannian_circumcenter",
    "riemannian_distance",
    "s_divergence",
    "sample_spd",
    "spd_inverse",
    "spd_variance",
    "weighted_arithmetic",
    "weighted_harmonic",
]
