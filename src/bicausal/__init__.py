"""Bayesian structure posteriors for the two-node linear Gaussian SEM.

Exact and Laplace/quadrature evidence under hierarchical inverse-gamma
priors, observational and hard-interventional data, asymptotic concentration
exponents, and a deterministic Monte Carlo harness that checks the theory.
"""

from .errors import (
    ArgumentOutOfDomain,
    BicausalError,
    ConfigError,
    DataFormatError,
    DegenerateData,
    InvalidParameter,
    NonConcaveAtMle,
    NonConvergedQuadrature,
    NumericalDegeneracy,
)
from .sem import (
    STRUCTURES,
    Cov2,
    InterventionSpec,
    Params,
    Structure,
    gamma_log_jacobian_det,
    gamma_map,
    gamma_map_inverse,
    implied_covariance,
    interv_logpdf_y1,
    obs_logpdf,
    param_dim,
    sample_interv,
    sample_obs,
)
from .estimation import MleTriple, SuffStats, loglik, mle_mixed, mle_obs, sample_suffstats, suffstats
from .priors import (
    BgeHyper,
    bge_symmetric_hyper,
    invgamma_logpdf,
    prior_logpdf,
    pushforward_prior_logpdf,
)
from .exact import (
    StructurePosterior,
    augmented_odds_statistic,
    log_marginal_mixed,
    log_marginal_obs,
    posterior,
)
from .approx import (
    HessianReport,
    Regime,
    fisher,
    hessian_diagnostics,
    laplace_log_marginal,
    loglik_hessian,
    mixed_fisher,
    quadrature_log_marginal,
    quadrature_log_marginal_generic,
)
from .rates import (
    RateCurve,
    RateId,
    RateInput,
    d12,
    d13,
    d21,
    d23,
    gain_transform,
    kl_centered_bivariate,
    kl_mixture_exponent,
    kl_univariate,
    mixing_helps_s1,
    nonident_posterior_limit,
    obs_kl_s1_vs_s3,
    optimal_eta,
    pseudo_true_limits,
    sample_curve,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    SlopeFit,
    TrialRecord,
    chi2_1_cdf,
    fit_slope,
    fitted_exponent,
    ks_test_chi2_1,
    plateau_theory_ratio,
    run_chi2_diagnostic,
    run_concentration,
    run_odds_plateau,
    theory_exponent,
)

__version__ = "0.1.0"
