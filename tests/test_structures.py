"""Every public function or method that takes a structure: a structure's name
(``"S1"``) gives its member's result bit for bit, and anything else raises
``InvalidParameter``."""

import dataclasses
import math

import numpy as np
import pytest

from bicausal import (
    ExperimentConfig,
    InterventionSpec,
    InvalidParameter,
    Params,
    Regime,
    Structure,
    augmented_odds_statistic,
    bge_symmetric_hyper,
    fisher,
    hessian_diagnostics,
    implied_covariance,
    interv_logpdf_y1,
    kl_mixture_exponent,
    laplace_log_marginal,
    log_marginal_mixed,
    log_marginal_obs,
    loglik,
    loglik_hessian,
    mixed_fisher,
    mle_mixed,
    nonident_posterior_limit,
    obs_logpdf,
    param_dim,
    posterior,
    prior_logpdf,
    pseudo_true_limits,
    quadrature_log_marginal,
    quadrature_log_marginal_generic,
    sample_interv,
    sample_obs,
    sample_suffstats,
    suffstats,
)

H = bge_symmetric_hyper(3.0, 0.5)
IV = InterventionSpec(1.5)
CONNECTED = Params(0.7, 1.3, 0.8)
INDEPENDENT = Params(0.0, 1.3, 0.8)
OBS = sample_obs(Structure.S1, CONNECTED, 12, 3)
MIXED = suffstats(OBS, sample_interv(Structure.S1, CONNECTED, IV, 6, 4))
OBS_ONLY = suffstats(OBS)
MLE = mle_mixed(MIXED)
POST = posterior(MIXED, H)


def theta(s) -> Params:
    """Parameters valid under ``s``: no edge weight under S3."""
    return INDEPENDENT if s == "S3" else CONNECTED


def mle(s) -> Params:
    """The MLE under ``s``, or any parameters where ``s`` is no structure."""
    return MLE.for_structure(s) if s in ("S1", "S2", "S3") else CONNECTED


# (name, call): call(s) passes s in one structure slot of one public function
# or method; the other slots hold members
CASES = [
    ("param_dim", lambda s: param_dim(s)),
    ("implied_covariance", lambda s: implied_covariance(s, theta(s))),
    ("obs_logpdf", lambda s: obs_logpdf((0.4, -1.1), s, theta(s))),
    ("interv_logpdf_y1", lambda s: interv_logpdf_y1(0.4, s, theta(s), IV)),
    ("sample_obs", lambda s: sample_obs(s, theta(s), 5, 11)),
    ("sample_interv", lambda s: sample_interv(s, theta(s), IV, 5, 11)),
    ("sample_suffstats", lambda s: sample_suffstats(s, theta(s), 50, 20, IV, seed=11)),
    ("SuffStats.factors", lambda s: MIXED.factors[s]),
    ("loglik", lambda s: loglik(MIXED, s, theta(s))),
    ("MleTriple.for_structure", lambda s: MLE.for_structure(s)),
    ("BgeHyper.alphas_for", lambda s: H.alphas_for(s)),
    ("prior_logpdf", lambda s: prior_logpdf(theta(s), s, H)),
    ("log_marginal_mixed", lambda s: log_marginal_mixed(MIXED, s, H)),
    ("log_marginal_obs", lambda s: log_marginal_obs(OBS_ONLY, s, H)),
    ("StructurePosterior.prob", lambda s: POST.prob(s)),
    ("StructurePosterior.log_odds", lambda s: POST.log_odds(s, Structure.S3)),
    ("StructurePosterior.log_odds (second)", lambda s: POST.log_odds(Structure.S1, s)),
    ("StructurePosterior.log_inverse_odds", lambda s: POST.log_inverse_odds(s)),
    ("augmented_odds_statistic", lambda s: augmented_odds_statistic(MIXED, POST, s, INDEPENDENT, H)),
    ("fisher", lambda s: fisher(s, theta(s), Regime.INTERVENTIONAL, IV)),
    ("mixed_fisher", lambda s: mixed_fisher(s, theta(s), 0.5, IV)),
    ("loglik_hessian", lambda s: loglik_hessian(MIXED, s, mle(s))),
    ("hessian_diagnostics", lambda s: hessian_diagnostics(MIXED, s, mle(s))),
    (
        "laplace_log_marginal",
        lambda s: laplace_log_marginal(MIXED, s, lambda t: prior_logpdf(t, s, H), mle(s)),
    ),
    ("quadrature_log_marginal", lambda s: quadrature_log_marginal(MIXED, s, H)),
    (
        "quadrature_log_marginal_generic",
        lambda s: quadrature_log_marginal_generic(
            MIXED, s, lambda t: prior_logpdf(t, s, H), nodes=6, w_nodes=6
        ),
    ),
    ("pseudo_true_limits", lambda s: pseudo_true_limits(s, theta(s), 1.5, 0.5)),
    ("nonident_posterior_limit", lambda s: nonident_posterior_limit(CONNECTED, H, s)),
    ("kl_mixture_exponent", lambda s: kl_mixture_exponent(s, Structure.S3, theta(s), 1.5, 0.5)),
    (
        "kl_mixture_exponent (wrong model)",
        lambda s: kl_mixture_exponent(Structure.S1, s, CONNECTED, 1.5, 0.5),
    ),
    ("ExperimentConfig", lambda s: ExperimentConfig(s, theta(s), H, sample_sizes=(10,), trials=1)),
]


def _bits(x):
    """A comparable form of a result that tells apart any two bit patterns."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return ("float", x.hex() if math.isfinite(x) else repr(x))
    if isinstance(x, str):  # a member and its name are the same structure
        return ("str", str.__str__(x))
    if isinstance(x, dict):
        return ("dict", sorted((_bits(k), _bits(v)) for k, v in x.items()))
    if isinstance(x, tuple):
        return (type(x).__name__, tuple(_bits(v) for v in x))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return (type(x).__name__, x)


def _outcome(call, s):
    try:
        return _bits(call(s))
    except InvalidParameter as e:
        return ("raised", type(e).__name__)


@pytest.mark.parametrize("call", [c for _, c in CASES], ids=[n for n, _ in CASES])
@pytest.mark.parametrize("s", list(Structure), ids=lambda s: s.value)
def test_name_gives_members_result(call, s):
    assert _outcome(call, s.value) == _outcome(call, s)


@pytest.mark.parametrize("call", [c for _, c in CASES], ids=[n for n, _ in CASES])
@pytest.mark.parametrize("bad", ["S4", "s1", None, 1, ["S1"]])
def test_unknown_structure_rejected(call, bad):
    with pytest.raises(InvalidParameter):
        call(bad)
