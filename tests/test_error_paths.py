"""Errors that public inputs reach: a row for each ``raise`` in ``src/`` that
the rest of the suite does not run, and for the ``eta`` check that
``RateInput`` applies to a float or an array alike, with the call, the
exception type, its category and its message. Also pins the public
``invgamma_logpdf`` to the variance terms of ``prior_logpdf``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bicausal import (
    ArgumentOutOfDomain,
    BgeHyper,
    ConfigError,
    DegenerateData,
    ExperimentConfig,
    InterventionSpec,
    InvalidParameter,
    NonConvergedQuadrature,
    NumericalDegeneracy,
    Params,
    RateCurve,
    RateId,
    RateInput,
    Structure,
    SuffStats,
    augmented_odds_statistic,
    bge_symmetric_hyper,
    fit_slope,
    gain_transform,
    hessian_diagnostics,
    invgamma_logpdf,
    kl_mixture_exponent,
    ks_test_chi2_1,
    laplace_log_marginal,
    log_marginal_obs,
    mixed_fisher,
    mixing_helps_s1,
    mle_mixed,
    nonident_posterior_limit,
    optimal_eta,
    plateau_theory_ratio,
    posterior,
    prior_logpdf,
    pseudo_true_limits,
    quadrature_log_marginal,
    quadrature_log_marginal_generic,
    run_concentration,
    run_odds_plateau,
    sample_curve,
    sample_interv,
    sample_obs,
    suffstats,
    theory_exponent,
)
from bicausal import cli
from bicausal.experiments import run_bundle
from bicausal.sem import _edge, _norm_logpdf

H = bge_symmetric_hyper(3.0, 0.5)
THETA = Params(1.0, 1.0, 1.0)
IV = InterventionSpec(1.5)


def _cli(tmp, *argv, config=None):
    """Run a CLI command so that its error propagates instead of becoming an
    exit code; ``config`` is written to a file and passed as ``--config``."""
    if config is not None:
        path = tmp / "run.cfg"
        path.write_text(config)
        argv = (*argv, "--config", str(path))
    args = cli.build_parser().parse_args([str(a) for a in argv])
    return args.func(args)


def _cfg(**kw):
    return ExperimentConfig(**{"true_model": Structure.S1, "theta_star": THETA, "hyper": H, **kw})


_MODEL = ("--w", 1, "--tau1-sq", 1, "--tau2-sq", 1)


def _oracle_data():
    """Six observational and three interventional rows drawn under S1."""
    rng = np.random.default_rng(14)
    return suffstats(sample_obs(Structure.S1, THETA, 6, rng), sample_interv(Structure.S1, THETA, IV, 3, rng))


def _tiny_x2_data():
    """Three observational rows whose x2 is of order 1e-128, and three
    interventional rows."""
    return suffstats([[100.0, 1e-128], [-50.0, -2e-128], [80.0, 0.5e-128]], [[3.0, 0.5], [-4.0, 0.5], [2.5, 0.5]])


def _scaled_rows():
    """Four observational rows, column 1 scaled by 1e-42 and column 2 by 1e121."""
    return suffstats(np.array([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0], [0.25, 1.0]]) * [1e-42, 1e121])


def _wide_rows():
    """Seven observational rows, column 1 scaled by 2.12e129 and column 2 by 2.36e-54."""
    rows = [[-0.66, -0.89], [-0.19, 0.47], [0.72, 0.55], [-0.46, -1.7], [-0.8, 0.28], [-1.33, 0.25], [-0.59, -0.58]]
    return suffstats(np.array(rows) * [2.12e129, 2.36e-54])


def _far_intervention():
    """Four observational rows with x1 of order 1e-5, and three interventional
    rows at y = 1e150."""
    return suffstats(np.array([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0], [0.25, 1.0]]) * [1e-5, 1.0],
                     [[1e-5, 1e150], [-2e-5, 1e150], [0.5e-5, 1e150]])


#: The public readers of the log-likelihood Hessian, each at a dataset's S1 MLE.
_HESSIAN_CALLS = (
    ("Laplace", lambda st: laplace_log_marginal(
        st, Structure.S1, lambda t: prior_logpdf(t, Structure.S1, H), mle_mixed(st).theta1)),
    ("diagnostics", lambda st: hessian_diagnostics(st, Structure.S1, mle_mixed(st).theta1)),
)


def _mass_near_mle(st, s):
    """A prior with mass only within 1e-3 of the MLE log-variances."""
    mle = mle_mixed(st).for_structure(s)
    u = (math.log(mle.tau1_sq), math.log(mle.tau2_sq))
    return lambda t: 0.0 if max(abs(math.log(t.tau1_sq) - u[0]), abs(math.log(t.tau2_sq) - u[1])) < 1e-3 else -math.inf


# (id, call taking a scratch directory, exception type, message regex)
CASES = [
    # approx
    ("mixed_fisher eta", lambda tmp: mixed_fisher(Structure.S1, THETA, 1.5, IV),
     InvalidParameter, r"^eta must lie in \[0, 1\], got 1\.5$"),
    # shapes of 1e26: the window is 1.2e-12 wide, and d + expm1(-d), about
    # d*d/2 from terms of size d, keeps rounding noise of 1e-4 of itself
    # that holds successive levels apart
    ("conjugate oracle stalls", lambda tmp: quadrature_log_marginal(
        suffstats([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0]]), Structure.S3, BgeHyper(*[1e26] * 6, 0.5, 1.0)),
     NonConvergedQuadrature, r"^1d refinement stalled at 729 nodes"),
    # shapes of 1e100 and beta of 1e-300: d + expm1(-d) rounds to 0 across
    # the window, 1.2e-49 wide; unguarded, the window widened by 6 and every
    # node underflowed, to log(0) (pytest makes a RuntimeWarning an error)
    ("conjugate window below float resolution", lambda tmp: quadrature_log_marginal(
        suffstats([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0]]), Structure.S1, BgeHyper(*[1e100] * 6, 1e-300, 1e-300)),
     NonConvergedQuadrature, r"^1d window of half-width 1\.2e-49 at -230\.\d+ is below the float resolution$"),
    # sums within the Cauchy-Schwarz slack that SuffStats allows: the form
    # is -2e-10, far more than rounding on collinear rows
    ("conjugate oracle negative quadratic form", lambda tmp: quadrature_log_marginal(
        SuffStats(1.0, 1.0, 1.0 + 1e-10, 0.0, 0.0, 0.0, 2, 0), Structure.S1, BgeHyper(3, 3, 3, 3, 3, 3, 0.5, 1e300)),
     NumericalDegeneracy, r"^negative residual quadratic form"),
    # tau2_sq of 1.75e-256 squares to 0 in the Hessian; the Laplace route
    # raised a raw ZeroDivisionError
    ("Hessian of an underflowing variance", lambda tmp: laplace_log_marginal(
        _tiny_x2_data(), Structure.S1, lambda t: prior_logpdf(t, Structure.S1, H),
        mle_mixed(_tiny_x2_data()).for_structure(Structure.S1)),
     NumericalDegeneracy, r"^Hessian under S1 undefined: tau2_sq = 1\.75e-256 cubes to 0$"),
    # at the S1 MLE: tau2_sq = 5.8e241 cubes to inf, so its curvature read
    # 0 - 0 and the Laplace evidence +inf; tau1_sq = 2.2e258 cubes to inf,
    # its curvature read inf - inf and eigvalsh raised a raw LinAlgError;
    # with interventions at 1e150, -xx/tau1_sq overflows and the Laplace
    # evidence read -inf. The diagnostics reported NaN eigenvalues or raised
    *((f"{name} of {label}", lambda tmp, call=call, data=data: call(data()), NumericalDegeneracy, pattern)
      for label, data, pattern in (
          ("tau2_sq = 5.8e241", _scaled_rows, r"^Hessian under S1 undefined: tau2_sq = 5\.78125e\+241 cubes to inf$"),
          ("tau1_sq = 2.2e258", _wide_rows, r"^Hessian under S1 undefined: tau1_sq = 2\.24\d+e\+258 cubes to inf$"),
          ("an intervention at 1e150", _far_intervention,
           r"^Hessian under S1 overflows at Params\(w=-1\.66\d+e-156, tau1_sq=1\.068\d+e-10, "))
      for name, call in _HESSIAN_CALLS),
    # beta of 1e20 puts the variances' mass near 1e19, 44 log units from
    # the MLE: 16 Newton steps of at most 4 per coordinate do not settle
    ("generic oracle search unsettled", lambda tmp: quadrature_log_marginal_generic(
        _oracle_data(), Structure.S1, lambda t: prior_logpdf(t, Structure.S1, BgeHyper(3, 3, 3, 3, 3, 3, 1e20, 1.0))),
     NonConvergedQuadrature, r"^generic quadrature: mode search unsettled after 16 Newton steps \(last step "),
    # the search stays inside the prior's box, but no node of a 6 x 6 x 4
    # rule scaled by the likelihood's curvature falls in it
    ("generic oracle rule without mass", lambda tmp: quadrature_log_marginal_generic(
        _oracle_data(), Structure.S1, _mass_near_mle(_oracle_data(), Structure.S1), nodes=6, w_nodes=4),
     NonConvergedQuadrature, r"^generic quadrature rule carries no prior-times-likelihood mass$"),
    # cli
    ("missing setting", lambda tmp: _cli(tmp, "simulate", "--out", tmp / "x.csv"),
     ConfigError, r"^missing required setting \[model\] structure$"),
    ("setting not a number", lambda tmp: _cli(
        tmp, "simulate", "--structure", "S1", *_MODEL, "--out", tmp / "x.csv", config="[simulate]\nn = ten\n"),
     ConfigError, r"^\[simulate\] n: expected an integer, got 'ten'$"),
    ("unknown structure", lambda tmp: _cli(tmp, "simulate", "--structure", "S9", "--out", tmp / "x.csv"),
     ConfigError, r"^unknown structure 'S9'; expected S1, S2, or S3$"),
    ("interventional samples without y", lambda tmp: _cli(
        tmp, "simulate", "--structure", "S1", *_MODEL, "--m", 2, "--out", tmp / "x.csv"),
     ConfigError, r"^interventional samples requested but no intervention value y$"),
    ("misspelt config key", lambda tmp: _cli(tmp, "rates", *_MODEL, "--y", 1, config="[rates]\ngrid_point = 5\n"),
     ConfigError, r"^.*run\.cfg:2: unknown key 'grid_point' in \[rates\] \(expected one of grid_points, out\)$"),
    ("preset beside generative keys", lambda tmp: _cli(
        tmp, "experiment", "--preset", "figure1", "--out", tmp / "b", config="[model]\nw = 2\n"),
     ConfigError, r"^preset figure1 fixes its model and design; the config sets \[model\] w$"),
    ("explicit prior beside a symmetric one", lambda tmp: _cli(
        tmp, "posterior", tmp / "x.csv", "--bge-alpha", 4,
        config="[prior]\nalpha1 = 4\nalpha2 = 2.5\nalpha3 = 2.5\nalpha4 = 3\nalpha5 = 3\nalpha6 = 3\nbeta = 0.5\nlambda = 1\n"),
     ConfigError, r"^the explicit \[prior\] alpha1\.\.lambda prior cannot be given with --bge-alpha$"),
    ("unknown method", lambda tmp: _cli(tmp, "posterior", tmp / "x.csv", config="[posterior]\nmethod = mcmc\n"),
     ConfigError, r"^unknown method 'mcmc'; expected one of \('exact', 'laplace', 'quadrature'\)$"),
    # estimation
    ("negative count", lambda tmp: SuffStats(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, -1, 0, None),
     InvalidParameter, r"^counts must be >= 0, got n=-1, m=0$"),
    ("m without y", lambda tmp: SuffStats(1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 2, 1, None),
     InvalidParameter, r"^y must be set when m > 0$"),
    ("MLE weight overflows", lambda tmp: mle_mixed(suffstats([[1e-160, 1e150], [2e-160, -1e150]], [[1.0, 0.0]])),
     DegenerateData, r"^S\d MLE: weight estimate non-finite$"),
    # exact
    ("log_marginal_obs with m > 0", lambda tmp: log_marginal_obs(suffstats([[1, 2], [2, 1]], [[1, 1.5]]), Structure.S1, H),
     InvalidParameter, r"^log_marginal_obs requires m = 0, got m=1$"),
    ("odds statistic on empty data", lambda tmp: augmented_odds_statistic(
        suffstats(np.empty((0, 2))), posterior(suffstats(np.empty((0, 2))), H), Structure.S1, Params(0, 1, 1), H),
     InvalidParameter, r"^statistic undefined for empty data$"),
    ("odds statistic on interventional data", lambda tmp: augmented_odds_statistic(
        suffstats(np.empty((0, 2)), [[1, 1.5], [2, 1.5]]),
        posterior(suffstats(np.empty((0, 2)), [[1, 1.5], [2, 1.5]]), H), Structure.S2, Params(0, 1, 1), H),
     NumericalDegeneracy, r"^weighted information determinant not positive$"),
    # experiments
    ("smallest size", lambda tmp: _cfg(sample_sizes=(1, 4)),
     InvalidParameter, r"^smallest sample size must be >= 2$"),
    ("no trials", lambda tmp: _cfg(trials=0),
     InvalidParameter, r"^trials must be >= 1, got 0$"),
    ("no records at a size", lambda tmp: run_concentration(_cfg(sample_sizes=(4, 8), trials=2)).mean_log_inv_odds(5),
     InvalidParameter, r"^no records at N=5$"),
    ("plateau of S3", lambda tmp: plateau_theory_ratio(_cfg(true_model=Structure.S3, theta_star=Params(0, 1, 1))),
     InvalidParameter, r"^plateau defined for connected true models$"),
    # the log prior ratio is -1.875e18: its exp overflowed with a raw
    # OverflowError, through the API and the CLI alike
    ("plateau ratio overflows", lambda tmp: plateau_theory_ratio(
        _cfg(theta_star=Params(1e5, 1e-8, 1.0), hyper=bge_symmetric_hyper(3.0, 2.0))),
     ArgumentOutOfDomain, r"^plateau ratio exp\(1\.87\d+e\+18\) overflows at Params\(w=100000\.0, "),
    ("plateau ratio overflows through the CLI", lambda tmp: _cli(
        tmp, "experiment", "--bge-beta", 2, "--out", tmp / "b",
        config="[model]\nstructure = S1\nw = 1e5\ntau1_sq = 1e-8\ntau2_sq = 1\n"
               "[experiment]\nkind = plateau\nsample_sizes = 100,1000\ntrials = 3\n"),
     ArgumentOutOfDomain, r"^plateau ratio exp\(1\.87\d+e\+18\) overflows at "),
    ("plateau experiment on S3", lambda tmp: run_odds_plateau(_cfg(true_model=Structure.S3, theta_star=Params(0, 1, 1))),
     InvalidParameter, r"^plateau experiment requires a connected true model$"),
    ("slope of unequal lengths", lambda tmp: fit_slope([1, 2, 3, 4], [1, 2]),
     InvalidParameter, r"^x and y must be 1d arrays of equal length$"),
    ("exponent of observational data", lambda tmp: theory_exponent(_cfg()),
     InvalidParameter, r"^exponent defined for mixed-data configurations$"),
    ("exponent of S3", lambda tmp: theory_exponent(_cfg(true_model=Structure.S3, theta_star=Params(0, 1, 1), eta=0.5, y=1.0)),
     InvalidParameter, r"^exponent defined for connected true models$"),
    ("KS of no samples", lambda tmp: ks_test_chi2_1(np.empty(0)),
     InvalidParameter, r"^empty sample$"),
    ("unknown bundle kind", lambda tmp: run_bundle("survey", {}, 0, H, tmp),
     ConfigError, r"^unknown experiment kind 'survey'$"),
    # a chi2 or plateau bundle runs one configuration, so it takes one eta
    ("chi2 bundle with two etas", lambda tmp: run_bundle(
        "chi2", {"true_model": Structure.S3, "theta_star": Params(0, 1, 1), "y": 1.5, "sample_sizes": (40,),
                 "trials": 2, "etas": (0.1, 0.5)}, 0, H, tmp),
     ConfigError, r"^a chi2 experiment takes one eta, got 2$"),
    # priors
    ("inverse-gamma support", lambda tmp: invgamma_logpdf(0.0, 3.0, 0.5),
     InvalidParameter, r"^inverse-gamma support is \(0, inf\), got 0\.0$"),
    # lgamma is finite at 2.55e305 and overflows at 2.6e305
    ("prior shape with overflowing lgamma", lambda tmp: BgeHyper(3, 3, 3, 3, 3, 2.6e305, 0.5, 1),
     InvalidParameter, r"^hyperparameter alpha6 is too large for a finite lgamma, got 2\.6e\+305$"),
    ("inverse-gamma shape with overflowing lgamma", lambda tmp: invgamma_logpdf(1.0, 1e308, 0.5),
     InvalidParameter, r"^shape is too large for a finite lgamma, got 1e\+308$"),
    # rates
    ("RateInput eta", lambda tmp: RateInput(THETA, 0.1, 1.5),
     InvalidParameter, r"^eta must lie in \[0, 1\], got 1\.5$"),
    ("RateInput y", lambda tmp: RateInput(THETA, math.nan, 0.5),
     InvalidParameter, r"^y must be finite, got nan$"),
    ("RateInput eta array", lambda tmp: RateInput(THETA, 0.1, np.array([0.5, math.nan])),
     InvalidParameter, r"^eta must lie in \[0, 1\], got array\(\[0\.5, nan\]\)$"),
    ("curve lengths", lambda tmp: RateCurve(np.array([0.5]), np.array([1.0, 2.0]), RateId.D12),
     InvalidParameter, r"^eta grid and values must be 1d arrays of equal length$"),
    ("curve values", lambda tmp: RateCurve(np.array([0.4, 0.5]), np.array([1.0, math.inf]), RateId.D12),
     InvalidParameter, r"^curve values must be finite$"),
    ("optimal eta of D13", lambda tmp: optimal_eta(RateId.D13, THETA, 0.1),
     InvalidParameter, r"^optimal_eta defined for D12/D21, got "),
    ("curve of a gain", lambda tmp: sample_curve(RateId.D12_GAIN, THETA, 0.1),
     InvalidParameter, r"^cannot sample curve for "),
    ("gain of D13", lambda tmp: gain_transform(sample_curve(RateId.D13, THETA, 0.1, num=5)),
     InvalidParameter, r"^gain transform defined for D12/D21 curves, got "),
    ("pseudo-true eta", lambda tmp: pseudo_true_limits(Structure.S1, THETA, 0.1, 1.5),
     InvalidParameter, r"^eta must lie in \[0, 1\], got 1\.5$"),
    # w^2 = 1e400 overflows s = w^2*tau2_sq + tau1_sq
    ("log prior ratio overflows", lambda tmp: nonident_posterior_limit(
        Params(1e200, 1.0, 1.0), BgeHyper(4, 2.5, 2.5, 3, 3, 3, 0.5, 1), Structure.S1),
     ArgumentOutOfDomain, r"^log prior ratio of S2 to S1 overflows at Params\(w=1e\+200, tau1_sq=1\.0, tau2_sq=1\.0\)$"),
    ("pseudo-true S1 limit undefined", lambda tmp: pseudo_true_limits(Structure.S2, THETA, 0.0, 0.0),
     ArgumentOutOfDomain, r"^pseudo-true S1 limit undefined \(eta = 0 with y = 0\)$"),
    # the wrong model's pseudo-true covariance is singular in floats: a raw
    # LinAlgError (d12 is 98.93 here)
    ("KL mixture of a singular covariance", lambda tmp: kl_mixture_exponent(
        Structure.S1, Structure.S2, Params(4.3046034750419655e132, 5.4006428999580196e38, 1.8174709033915575),
        -6.251178741178975e-4, 0.6202134520153778),
     ArgumentOutOfDomain, r"^KL mixture exponent cannot be evaluated at Params\(w=4\.3046034750419655e\+132, "
                          r"tau1_sq=5\.4006428999580196e\+38, tau2_sq=1\.8174709033915575\), "
                          r"y=-0\.0006251178741178975, eta=0\.6202134520153778$"),
    # its value overflowed to inf (d21 is 90.83 here)
    ("KL mixture that overflows", lambda tmp: kl_mixture_exponent(
        Structure.S2, Structure.S1, Params(0.3628557120371152, 2.730808784797448e95, 3.8404028065200246),
        -6073697475748792.0, 0.84829120827506),
     ArgumentOutOfDomain, r"^KL mixture exponent cannot be evaluated at Params\(w=0\.3628557120371152, "
                          r"tau1_sq=2\.730808784797448e\+95, tau2_sq=3\.8404028065200246\), "
                          r"y=-6073697475748792\.0, eta=0\.84829120827506$"),
    # the S1 limit's variance is inf/inf under a true S2 model: Params
    # refused it with InvalidParameter, and np.float64 fields also warned
    *((f"KL mixture past the pseudo-true limits ({kind.__name__})", lambda tmp, kind=kind: kl_mixture_exponent(
        Structure.S2, Structure.S1,
        Params(*map(kind, (2.0347571352489576e148, 7.969232515425364e113, 2.738297654744564))),
        -12.862131650624505, 0.7482485033017541),
       ArgumentOutOfDomain,
       r"^pseudo-true limits cannot be evaluated at Params\(w=(np\.float64\()?2\.0347571352489576e\+148"
       r".*\(in a limit, tau1_sq must be finite, got (np\.float64\()?nan\)?\)$")
      for kind in (float, np.float64)),
    # the true covariance's determinant, tau1_sq*tau2_sq = 2.5e-34, cancels
    # to 0 from terms of 2.5e54: Cov2 raised InvalidParameter (d12 is 16.87)
    ("KL mixture of a covariance that cancels", lambda tmp: kl_mixture_exponent(
        Structure.S1, Structure.S2, Params(1.949885276302907e28, 3.059850151013116e-33, 0.08102711465757485),
        0.021680104655789, 0.8326441476533978),
     ArgumentOutOfDomain, r"^KL mixture exponent cannot be evaluated at Params\(w=1\.949885276302907e\+28, "),
    ("pseudo-true y", lambda tmp: pseudo_true_limits(Structure.S1, THETA, math.nan, 0.5),
     InvalidParameter, r"^y must be finite, got nan$"),
    # y went unchecked into the ratios: ArgumentOutOfDomain("second moments overflow ...")
    *((f"{name} at y = {y}", lambda tmp, call=call, y=y: call(y), InvalidParameter, rf"^y must be finite, got {y}$")
      for name, call in (("optimal eta of D12", lambda y: optimal_eta(RateId.D12, THETA, y)),
                         ("optimal eta of D21", lambda y: optimal_eta(RateId.D21, THETA, y)),
                         ("mixing_helps_s1", lambda y: mixing_helps_s1(THETA, y)))
      for y in (math.nan, math.inf)),
    # sem
    ("intervention value", lambda tmp: InterventionSpec(math.inf),
     InvalidParameter, r"^intervention value must be finite, got inf$"),
    ("negative interventional count", lambda tmp: sample_interv(Structure.S1, THETA, IV, -1, 0),
     InvalidParameter, r"^m must be >= 0, got -1$"),
]

_CATEGORY = {
    ArgumentOutOfDomain: "argument-out-of-domain",
    ConfigError: "config",
    DegenerateData: "degenerate-data",
    InvalidParameter: "invalid-parameter",
    NonConvergedQuadrature: "non-converged-quadrature",
    NumericalDegeneracy: "numerical-degeneracy",
}


@pytest.mark.parametrize("call, exc, pattern", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_error_path(tmp_path, call, exc, pattern):
    with pytest.raises(exc, match=pattern) as info:
        call(tmp_path)
    assert type(info.value) is exc
    assert info.value.category == _CATEGORY[exc]


class TestInvgammaLogpdf:
    @settings(max_examples=300, deadline=None)
    @given(
        s=hs.sampled_from(list(Structure)),
        log_t=hs.tuples(*[hs.floats(-20.0, 20.0)] * 2),
        w=hs.floats(-1e3, 1e3),
        h=hs.sampled_from([H, bge_symmetric_hyper(1.5, 2.0), BgeHyper(2.0, 0.7, 4.0, 1.1, 0.6, 9.0, 0.3, 5.0)]),
    )
    def test_is_prior_logpdfs_variance_terms_bitwise(self, s, log_t, w, h):
        t1, t2 = (math.exp(u) for u in log_t)
        edge = _edge(s)
        w = 0.0 if edge is None else w
        a1, a2 = h.alphas_for(s)
        want = invgamma_logpdf(t1, a1, h.beta) + invgamma_logpdf(t2, a2, h.beta)
        if edge is not None:
            want += _norm_logpdf(w, h.lam * (t1, t2)[edge[1]])
        assert prior_logpdf(Params(w, t1, t2), s, h) == want
