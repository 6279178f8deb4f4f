"""Stable recovery of high-order mixed derivatives of bivariate functions
from noisy Fourier-Legendre coefficients.

The differentiator keeps only the perturbed coefficients indexed by a
hyperbolic cross and differentiates the finite sum exactly in
coefficient space; the cross size, matched to the noise level, plays
the role of the regularization parameter.  The package also ships the
adversarial witness construction that pins the minimal achievable
accuracy from below, and an experiment harness that reproduces the
predicted convergence rates at desk scale.
"""

__version__ = "0.1.0"

from .spectral import (
    CoeffGrid,
    ClassParams,
    class_norm,
    parseval_l2_norm,
    synth_eval,
    mixed_derivative_coeffs,
    sup_norm_on_grid,
    restrict_to_cross,
    save_grid,
    load_grid,
)
from .legendre import (
    eval_phi,
    eval_phi_derivative,
    muller_differentiate,
    muller_differentiate_iterated,
    clenshaw_eval,
)
from .quadrature import QuadratureRule, gauss_legendre_rule, compute_coeff_grid, l2_norm_quadrature
from .cross import HyperbolicCross, build_cross
from .noise import NoiseSpec, RNG_ALGORITHM, lp_norm, perturb
from .truncation import (
    AdmissibilityError,
    MethodParams,
    SelectionInput,
    apply_method,
    gamma_intervals,
    select_parameters,
    theoretical_error_exponent,
)
from .lowerbound import (
    WitnessInfeasibleError,
    WitnessPair,
    build_witness_pair,
    witness_lp_distance,
    verify_lower_bound_C,
    verify_lower_bound_L2,
    min_N_for_delta,
)
from .harness import (
    DecayProfile,
    ExperimentConfig,
    fit_rate,
    run_convergence_study,
    run_radius_study,
    synthesize_class_function,
)

__all__ = [
    "__version__",
    "CoeffGrid",
    "ClassParams",
    "class_norm",
    "parseval_l2_norm",
    "synth_eval",
    "mixed_derivative_coeffs",
    "sup_norm_on_grid",
    "restrict_to_cross",
    "save_grid",
    "load_grid",
    "eval_phi",
    "eval_phi_derivative",
    "muller_differentiate",
    "muller_differentiate_iterated",
    "clenshaw_eval",
    "QuadratureRule",
    "gauss_legendre_rule",
    "compute_coeff_grid",
    "l2_norm_quadrature",
    "HyperbolicCross",
    "build_cross",
    "NoiseSpec",
    "RNG_ALGORITHM",
    "lp_norm",
    "perturb",
    "AdmissibilityError",
    "MethodParams",
    "SelectionInput",
    "apply_method",
    "gamma_intervals",
    "select_parameters",
    "theoretical_error_exponent",
    "WitnessInfeasibleError",
    "WitnessPair",
    "build_witness_pair",
    "witness_lp_distance",
    "verify_lower_bound_C",
    "verify_lower_bound_L2",
    "min_N_for_delta",
    "DecayProfile",
    "ExperimentConfig",
    "fit_rate",
    "run_convergence_study",
    "run_radius_study",
    "synthesize_class_function",
]
