"""Penalized B-spline regression for the bivariate additive model.

y = f1(x1) + f2(x2) + noise, covariates in (0, 1], each component a
B-spline expansion fitted by difference-penalized backfitting, whose q x q
systems are stored and factored as dense per-block stacks.  Pointwise
confidence intervals come from the estimator's exact linear-in-y weights,
and a Monte Carlo harness checks the standardized estimator against its
normal limit.
"""

from .backfit import (
    AdditiveDesign,
    BackfitResult,
    HessianReport,
    backfit,
    backfit_stages,
    build_design,
    criterion,
    hessian_check,
    joint_solve,
    kn_rule,
    lambda_rule,
    predict,
    univariate_penalized,
)
from .bandmat import (
    BandedCholesky,
    NotPositiveDefiniteError,
    gram_banded,
)
from .basis import (
    DesignMatrix,
    SplineConfig,
    design_matrix,
    eval_grid,
    make_knots,
)
from .dataio import (
    DataError,
    Dataset,
    Preprocessing,
    RunReport,
    load_csv,
    preprocess_columns,
    read_table,
    write_table,
)
from .inference import (
    IntervalEstimate,
    PopulationSpec,
    SmootherWeights,
    StageSmoother,
    asymptotic_bias,
    asymptotic_variance,
    confidence_interval,
    exact_covariance,
    population_G,
    sigma2_hat,
    smoother_weights,
    uniform_population,
)
from .penalty import PenaltyMatrix, difference_matrix, penalty_matrix
from .sim import (
    MonteCarloSummary,
    ScenarioConfig,
    StandardizedSample,
    coverage_experiment,
    generate_dataset,
    kde2d,
    run_sim1,
    run_sim2,
    run_sim3,
    sim3_replication,
    truth_f1,
    truth_f2,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveDesign",
    "BackfitResult",
    "BandedCholesky",
    "DataError",
    "Dataset",
    "DesignMatrix",
    "HessianReport",
    "IntervalEstimate",
    "MonteCarloSummary",
    "NotPositiveDefiniteError",
    "PenaltyMatrix",
    "PopulationSpec",
    "Preprocessing",
    "RunReport",
    "ScenarioConfig",
    "SmootherWeights",
    "SplineConfig",
    "StageSmoother",
    "StandardizedSample",
    "asymptotic_bias",
    "asymptotic_variance",
    "backfit",
    "backfit_stages",
    "build_design",
    "confidence_interval",
    "coverage_experiment",
    "criterion",
    "design_matrix",
    "difference_matrix",
    "eval_grid",
    "exact_covariance",
    "generate_dataset",
    "gram_banded",
    "hessian_check",
    "joint_solve",
    "kde2d",
    "kn_rule",
    "lambda_rule",
    "load_csv",
    "make_knots",
    "penalty_matrix",
    "population_G",
    "predict",
    "preprocess_columns",
    "read_table",
    "run_sim1",
    "run_sim2",
    "run_sim3",
    "sigma2_hat",
    "sim3_replication",
    "smoother_weights",
    "truth_f1",
    "truth_f2",
    "uniform_population",
    "univariate_penalized",
    "write_table",
]
