"""tailseries: extreme value analysis for heavy-tailed dependent time series.

The package compares the direct (nonparametric) and the model-based
(residual-analysis) route to extreme quantiles of heavy-tailed
autoregressions, and computes extremal-dependence quantities of stochastic
recurrence equations from Monte Carlo ensembles of the driving geometric
random walk.
"""

from .distributions import (
    InnovationSpec,
    cdf_fn,
    quantile_fn,
    sample,
    shifted_two_sided_pareto,
    survival_fn,
    two_sided_pareto,
)
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    HorizonTooSmallError,
    NoRootError,
    SimulationError,
    TailSeriesError,
)
from .estimators import (
    DirectFit,
    ModelBasedFit,
    QuantileTarget,
    fit_ar1,
    hill,
    hill_curve,
    residuals_ar1,
    weissman_direct,
    weissman_direct_curve,
    weissman_direct_fit,
    weissman_model_ar1_curve,
    weissman_model_ar1_fit,
)
from .extremal import (
    ExtremalSummary,
    HillAvarSRE,
    JointExceedanceQuery,
    cluster_size_probs,
    extremal_index,
    hill_avar_sre,
    joint_exceedance,
)
from .diagnostics import (
    TestReport,
    chisq_sf,
    difference_sign_test,
    ljung_box_curve,
    normal_cdf,
    normal_sf,
    portmanteau_test,
    sample_acf,
    turning_point_test,
)
from .experiments import (
    DensityEstimate,
    ErrorSummary,
    ExperimentSpec,
    PowerReport,
    empirical_quantile,
    kde,
    run_preset,
    run_quantile_experiment,
    summarize_estimates,
    test_power_experiment,
    true_quantile,
)
from .rng import RngState
from .simulate import (
    LognormalLaw,
    SeriesModel,
    SREDriver,
    TwoPointLaw,
    WalkEnsemble,
    linear_ar1,
    nonlinear_ar1,
    simulate_series,
    simulate_walks,
    solve_kappa,
    sre_model,
)
from .theory import (
    CoefficientSequence,
    RMSE_RATIO_REPORTED,
    SecondOrderTail,
    hill_avar_ar1,
    hill_avar_linear,
    rmse_ratio_ar1,
    second_order_constants,
    shifted_pareto_tail,
    tail_ratio_ar1,
    tail_ratio_linear,
)

__version__ = "0.1.0"
