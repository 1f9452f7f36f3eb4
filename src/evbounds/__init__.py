"""evbounds: finite-sample two-sided bounds on the log evidence of
(possibly misspecified) generalized linear models, with numerical
verification of every hypothesis the bounds rely on and validation
against independent evidence oracles.
"""

from .errors import (
    BoxError,
    CapabilityError,
    ConfigError,
    DomainError,
    EvboundsError,
    HypothesisViolation,
    NonConvergenceError,
    NumericalError,
    ReliabilityError,
    SingularityError,
)
from .families import (
    GlmFamily,
    RateReport,
    eval_cumulant,
    gaussian_family,
    get_family,
    log_likelihood,
    log_likelihood_full,
    logistic_family,
    poisson_family,
    rate,
    validate_rate,
    with_rate,
)
from .datagen import (
    Mechanism,
    ResidualLaw,
    TailBound,
    derive_rng,
    derive_seed,
    get_mechanism,
    make_design,
    replicate_rng,
)
from .pseudotrue import (
    PseudoTrueFit,
    expected_loglik,
    kl_gap,
    kl_gap_lower_bound,
    solve_mle,
    solve_pseudo_true,
)
from .curvature import (
    Assumption1Report,
    CurvatureCertificate,
    Ellipsoid,
    certificate,
    check_assumption1,
    default_ellipsoid,
    predictor_intervals,
    sample_in_ellipsoid,
)
from .process import (
    ProcessConstants,
    calibrate_C,
    exact_sup,
    exact_sup_ellipsoid,
    theoretical_C,
)
from .quadform import ProbResult, log_det_pd, operator_norm, prob_ball
from .priors import (
    LipschitzReport,
    Prior,
    extremes_over_ball,
    gaussian_product,
    get_prior,
    laplace_product,
    lipschitz_certificate,
    log_density,
    student_product,
    uniform_box,
)
from .oracles import (
    EvidenceEstimate,
    QuadratureGrid,
    conjugate_log_z,
    importance_log_z,
    log_posterior_unnorm,
    log_target_curvature,
    posterior_mass,
    posterior_mode,
    quadrature_log_z,
)
from .bounds import BoundsReport, compute_bounds
from .harness import (
    BicScanReport,
    CompareReport,
    ConcentrationReport,
    CoverageReport,
    ExperimentConfig,
    build_context,
    load_config,
    run_bic_scan,
    run_concentration,
    run_coverage,
    run_model_compare,
)

__version__ = "0.1.0"

__all__ = [
    "BoxError", "CapabilityError", "ConfigError", "DomainError",
    "EvboundsError", "HypothesisViolation", "NonConvergenceError",
    "NumericalError", "ReliabilityError", "SingularityError",
    "GlmFamily", "RateReport", "eval_cumulant", "gaussian_family",
    "get_family", "log_likelihood", "log_likelihood_full", "logistic_family",
    "poisson_family", "rate", "validate_rate", "with_rate",
    "Mechanism", "ResidualLaw", "TailBound", "derive_rng", "derive_seed",
    "get_mechanism", "make_design", "replicate_rng",
    "PseudoTrueFit", "expected_loglik", "kl_gap", "kl_gap_lower_bound",
    "solve_mle", "solve_pseudo_true",
    "Assumption1Report", "CurvatureCertificate", "Ellipsoid", "certificate",
    "check_assumption1", "default_ellipsoid", "predictor_intervals",
    "sample_in_ellipsoid",
    "ProcessConstants", "calibrate_C", "exact_sup", "exact_sup_ellipsoid",
    "theoretical_C",
    "ProbResult", "log_det_pd", "operator_norm", "prob_ball",
    "LipschitzReport", "Prior", "extremes_over_ball", "gaussian_product",
    "get_prior", "laplace_product", "lipschitz_certificate", "log_density",
    "student_product", "uniform_box",
    "EvidenceEstimate", "QuadratureGrid", "conjugate_log_z", "importance_log_z",
    "log_posterior_unnorm", "log_target_curvature", "posterior_mass",
    "posterior_mode", "quadrature_log_z",
    "BoundsReport", "compute_bounds",
    "BicScanReport", "CompareReport", "ConcentrationReport", "CoverageReport",
    "ExperimentConfig", "build_context", "load_config", "run_bic_scan",
    "run_concentration", "run_coverage", "run_model_compare",
    "__version__",
]
