"""Functional calculus on probability measures, CLT experiments for
nonlinear statistics of empirical measures, and mean-field fluctuation
checks for interacting particle systems."""

from .clt_engine import (
    CltReport,
    DecompositionRecord,
    EngineError,
    IncrementRegression,
    ScalingReport,
    VarianceEstimate,
    asymptotic_variance,
    decompose_many,
    martingale_decomposition,
    martingale_increment_regression,
    remainder_scaling,
    run_clt_experiment,
    sqrtn_l1_check,
)
from .functionals import (
    DerivativeField,
    ExternalIntegral,
    Functional,
    FunctionalError,
    Linear,
    MomentForm,
    NestedIntegrand,
    Quantile,
    SmoothOfLinear,
    UStatistic,
    derivative_pairing,
    evaluate,
    finite_difference_identity_check,
    gateaux_numeric,
    gateaux_probe_eps,
    growth_class_check,
    lfd,
    make_functional,
    mix,
    registry_names,
)
from .laws import Law, LawError, MixtureLaw, SamplerSpec, as_law
from .mean_field import (
    BatchEmpirical,
    CovarianceConfig,
    CovarianceResult,
    FluctuationReport,
    MasterEvaluator,
    MasterResidual,
    MeanFieldError,
    MkvModel,
    ProbeReport,
    cramer_wold_normality,
    fluctuation_process,
    fourth_moment_bound_probe,
    make_model,
    master_equation_residual,
    master_lderiv,
    master_lfd,
    master_lfd2,
    master_value,
    model_names,
    simulate_limit_reference,
    simulate_particles,
    theoretical_covariance,
    theta_second_derivative,
    time_regularity_probe,
)
from .measures import (
    DiscreteMeasure,
    MeasureError,
    MetricKind,
    distance,
    distances,
    interpolate,
    lp_wasserstein,
    metric_axiom_suite,
    tv_wasserstein_inequality_check,
    weighted_variation_integral,
)
from .rng import stream
from .stats import (
    CovarianceEstimate,
    KsResult,
    SlopeFit,
    empirical_cov,
    ks_test_normal,
    loglog_slope,
    normal_cdf,
    normal_quantile,
)

__version__ = "0.1.0"
