"""Normal-approximation diagnostics for score sums over random
fixed-point-free involutions: standardization, uniform sampling, the
exchangeable-pair and zero-bias couplings, exact and Monte Carlo distances
to the standard normal, and the explicit rate bounds with their
verification oracles."""

from ._kernels import backend
from .arrays import (
    CenteredArray,
    HatArray,
    MomentSummary,
    SymmetricArray,
    beta_value,
    center_hat,
    centered_from_entries,
    load_matrix,
    moments,
    standardize,
    validate_and_symmetrize,
)
from .bounds import (
    BoundReport,
    TruncationResult,
    kp,
    lower_bound_array,
    lower_bound_experiment,
    theorem_bounds,
    truncate,
)
from .coupling import (
    QuadrupleTable,
    ZeroBiasDraw,
    alpha_compose,
    classify,
    estimate_gap,
    exact_gap,
    exact_wstar_cdf,
    exact_zero_bias_moments,
    pi_dagger,
    square_bias_table,
    zero_bias_draws,
)
from .distances import (
    DistanceReport,
    StepCDF,
    ecdf,
    kolmogorov_distance,
    l1_distance,
    lp_upper,
    normal_cdf,
    step_cdf_from_distribution,
)
from .involutions import (
    ExactDistribution,
    Involution,
    enumerate_involutions,
    exact_w_distribution,
    sample_involution,
    sample_involutions,
    y_value,
)

__version__ = "0.1.0"

__all__ = [
    "backend",
    "CenteredArray",
    "HatArray",
    "MomentSummary",
    "SymmetricArray",
    "beta_value",
    "center_hat",
    "centered_from_entries",
    "load_matrix",
    "moments",
    "standardize",
    "validate_and_symmetrize",
    "BoundReport",
    "TruncationResult",
    "kp",
    "lower_bound_array",
    "lower_bound_experiment",
    "theorem_bounds",
    "truncate",
    "QuadrupleTable",
    "ZeroBiasDraw",
    "alpha_compose",
    "classify",
    "estimate_gap",
    "exact_gap",
    "exact_wstar_cdf",
    "exact_zero_bias_moments",
    "pi_dagger",
    "square_bias_table",
    "zero_bias_draws",
    "DistanceReport",
    "StepCDF",
    "ecdf",
    "kolmogorov_distance",
    "l1_distance",
    "lp_upper",
    "normal_cdf",
    "step_cdf_from_distribution",
    "ExactDistribution",
    "Involution",
    "enumerate_involutions",
    "exact_w_distribution",
    "sample_involution",
    "sample_involutions",
    "y_value",
]
