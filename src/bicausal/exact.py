"""Closed-form log marginal likelihoods and structure posteriors.

Everything is computed in log space through log-gamma; no raw gamma or
factorial calls. The observational-only formulas are the ``m = 0``
specialization of the mixed-data ones, and the code path is shared so the
reduction is exact.

For a connected structure the evidence is a ratio of powers of three
augmented second moments: ``U`` (the ``1/lam``-augmented parent moment, plus
the interventional block where it informs the child), ``V`` (the
``2*beta``-augmented moment of the other node), and ``Delta`` (the augmented
cross-moment determinant), times gamma-function and ``(2*beta)``/``pi``
normalizers. The ``U``/``V`` powers are grouped as
``A*log(U/V) + (A-B)*log(V)`` with ``log(U/V)`` computed by ``log1p``, so
score-equivalent hyperparameters (where ``U == V`` bitwise and ``A == B``)
cancel exactly instead of through large-term subtraction; this is what makes
the equal-mass property hold to machine precision at any sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import mixed_fisher
from .errors import InvalidParameter, NumericalDegeneracy
from .estimation import SuffStats
from .priors import BgeHyper, prior_logpdf
from .sem import _LOG_2PI, InterventionSpec, Params, Structure, STRUCTURES

_LOG_PI = math.log(math.pi)


def _log_ratio(u_minus_v: float, v: float) -> float:
    """log(U/V) computed as log1p((U-V)/V); exact zero when U == V."""
    return math.log1p(u_minus_v / v)


def log_marginal_mixed(st: SuffStats, s: Structure, h: BgeHyper) -> float:
    """Log marginal likelihood of the mixed dataset under structure ``s``.

    ``m = 0`` gives the observational-only value exactly. An empty dataset
    gives 0 for every structure.
    """
    n, m = st.n, st.m
    # second moments augmented by the variance-prior rate (2*beta) and the
    # weight-prior precision (1/lam)
    s1x_beta = st.s1x + 2.0 * h.beta
    s2x_beta = st.s2x + 2.0 * h.beta
    lam_minus_beta = 1.0 / h.lam - 2.0 * h.beta

    if s is Structure.S1:
        a_c, a_o = h.alpha1, h.alpha2
        u = st.s2x + 1.0 / h.lam + st.s2y
        v = s2x_beta
        log_uv = _log_ratio(lam_minus_beta + st.s2y, v)
        delta = (s1x_beta + st.s1y) * u - (st.s12x + st.s12y) ** 2
        coef_u = a_c + 0.5 * (n + m - 1)
        coef_v = a_o + 0.5 * n
        coef_delta = a_c + 0.5 * (n + m)
        lg_data = math.lgamma(a_c + 0.5 * (n + m)) + math.lgamma(a_o + 0.5 * n)
    elif s is Structure.S2:
        a_c, a_o = h.alpha4, h.alpha3
        u = st.s1x + 1.0 / h.lam
        v = s1x_beta + st.s1y
        log_uv = _log_ratio(lam_minus_beta - st.s1y, v)
        delta = u * s2x_beta - st.s12x ** 2
        coef_u = a_c + 0.5 * (n - 1)
        coef_v = a_o + 0.5 * (n + m)
        coef_delta = a_c + 0.5 * n
        lg_data = math.lgamma(a_o + 0.5 * (n + m)) + math.lgamma(a_c + 0.5 * n)
    else:
        a1, a2 = h.alpha5, h.alpha6
        lg = (
            (a1 + a2) * math.log(2.0 * h.beta)
            - (n + 0.5 * m) * _LOG_PI
            + math.lgamma(a1 + 0.5 * (n + m))
            + math.lgamma(a2 + 0.5 * n)
            - math.lgamma(a1)
            - math.lgamma(a2)
            - (a1 + 0.5 * (n + m)) * math.log(s1x_beta + st.s1y)
            - (a2 + 0.5 * n) * math.log(s2x_beta)
        )
        return lg

    if delta <= 0.0:
        raise NumericalDegeneracy(
            f"augmented determinant non-positive ({delta!r}); sufficient statistics corrupted"
        )
    return (
        (a_c + a_o) * math.log(2.0 * h.beta)
        - 0.5 * math.log(h.lam)
        - (n + 0.5 * m) * _LOG_PI
        + lg_data
        - math.lgamma(a_c)
        - math.lgamma(a_o)
        + coef_u * log_uv
        + (coef_u - coef_v) * math.log(v)
        - coef_delta * math.log(delta)
    )


def log_marginal_obs(st: SuffStats, s: Structure, h: BgeHyper) -> float:
    """Observational-only log marginal likelihood; requires ``m = 0``."""
    if st.m != 0:
        raise InvalidParameter(f"log_marginal_obs requires m = 0, got m={st.m}")
    return log_marginal_mixed(st, s, h)


@dataclass(frozen=True)
class StructurePosterior:
    """Normalized posterior over ``(S1, S2, S3)`` carried in log space.

    ``logp`` holds the log marginal likelihoods (the uniform structure prior
    cancels in the normalization); ``p`` the log-sum-exp normalized
    probabilities.
    """

    logp: np.ndarray
    p: np.ndarray

    @classmethod
    def from_logp(cls, logp) -> "StructurePosterior":
        """Normalize log scores in canonical structure order."""
        logp = np.asarray(logp, dtype=np.float64)
        weights = np.exp(logp - np.max(logp))
        return cls(logp=logp, p=weights / np.sum(weights))

    def prob(self, s: Structure) -> float:
        return float(self.p[STRUCTURES.index(s)])

    def log_odds(self, a: Structure, b: Structure) -> float:
        return float(self.logp[STRUCTURES.index(a)] - self.logp[STRUCTURES.index(b)])

    def log_inverse_odds(self, true_structure: Structure) -> float:
        """``log(1/p_true - 1)`` computed in log space (safe when ``p_true -> 1``)."""
        logp = dict(zip(STRUCTURES, self.logp))
        a, b = (v for s, v in logp.items() if s is not true_structure)
        return float(np.logaddexp(a, b) - logp[true_structure])


def posterior(st: SuffStats, h: BgeHyper) -> StructurePosterior:
    """Structure posterior from the closed-form marginals under a uniform
    structure prior."""
    return StructurePosterior.from_logp([log_marginal_mixed(st, s, h) for s in STRUCTURES])


def augmented_odds_statistic(
    st: SuffStats,
    i: Structure,
    theta_star: Params,
    h: BgeHyper,
    total: int | None = None,
) -> float:
    """Bias-corrected scaled log posterior odds of ``i`` against ``S3``.

    Under a true independence model with parameters ``theta_star`` the
    statistic converges in distribution to chi-squared with one degree of
    freedom. It is the scaled odds ``2*log(sqrt(N) * p_i/p_3)`` with the
    asymptotically constant terms removed: twice the log prior-density ratio
    at ``theta_star``, the dimension constant ``log(2*pi)``, and the log ratio
    of the (sample-ratio weighted) per-sample information determinants.

    ``total`` overrides the scaling count ``N`` (defaults to ``n + m``).
    """
    if i not in (Structure.S1, Structure.S2):
        raise InvalidParameter(f"statistic defined for S1 or S2 against S3, got {i}")
    if theta_star.w != 0.0:
        raise InvalidParameter(
            f"theta_star must be an independence-model parameter (w = 0), got w={theta_star.w!r}"
        )
    n_total = st.total if total is None else int(total)
    if n_total <= 0:
        raise InvalidParameter("statistic undefined for empty data")
    eta = st.n / n_total
    iv = InterventionSpec(value=st.y) if st.m > 0 else None

    log_odds = log_marginal_mixed(st, i, h) - log_marginal_mixed(st, Structure.S3, h)
    log_prior_ratio = prior_logpdf(theta_star, i, h) - prior_logpdf(theta_star, Structure.S3, h)
    det_i = float(np.prod(np.diag(mixed_fisher(i, theta_star, eta, iv))))
    det_3 = float(np.prod(np.diag(mixed_fisher(Structure.S3, theta_star, eta, iv))))
    if det_i <= 0.0 or det_3 <= 0.0:
        raise NumericalDegeneracy("weighted information determinant not positive")
    return (
        2.0 * (0.5 * math.log(n_total) + log_odds)
        - 2.0 * log_prior_ratio
        - _LOG_2PI
        + math.log(det_i / det_3)
    )
