"""Hierarchical inverse-gamma / conditional-Gaussian structure priors.

Each structure carries inverse-gamma priors ``IG(alpha_i, beta)`` on its two
noise variances and, for the connected structures, a centered Gaussian prior
``N(0, lam * tau_child_sq)`` on the edge weight, where ``tau_child_sq`` is the
child node's noise variance (``tau1_sq`` under ``S1``, ``tau2_sq`` under
``S2``). The flat hyperparameter list maps as

* ``S1``: ``alpha1`` for node 1, ``alpha2`` for node 2;
* ``S2``: ``alpha3`` for node 1, ``alpha4`` for node 2;
* ``S3``: ``alpha5`` for node 1, ``alpha6`` for node 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameter
from .sem import Params, Structure, _norm_logpdf, gamma_log_jacobian_det, gamma_map


@dataclass(frozen=True)
class BgeHyper:
    """Hyperparameters of the hierarchical structure prior.

    All seven scalars must be strictly positive.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    alpha5: float
    alpha6: float
    beta: float
    lam: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6", "beta", "lam"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise InvalidParameter(f"hyperparameter {name} must be positive, got {v!r}")

    def alphas_for(self, s: Structure) -> tuple[float, float]:
        """(node-1 shape, node-2 shape) for structure ``s``."""
        if s is Structure.S1:
            return self.alpha1, self.alpha2
        if s is Structure.S2:
            return self.alpha3, self.alpha4
        return self.alpha5, self.alpha6


def bge_symmetric_hyper(alpha: float, beta: float) -> BgeHyper:
    """Score-equivalent hyperparameters: ``alpha1=alpha4=alpha``,
    ``alpha2=alpha3=alpha-1/2``, ``lam=2*beta``.

    Requires ``alpha > 1/2``. The ``S3`` shapes are a free choice and are set
    to ``alpha``. With ``beta = 1/2`` (so that ``1/lam = 2*beta``) the
    resulting posterior puts exactly equal mass on ``S1`` and ``S2`` for any
    observational dataset.
    """
    if not alpha > 0.5:
        raise InvalidParameter(f"alpha must exceed 1/2, got {alpha!r}")
    return BgeHyper(
        alpha1=alpha,
        alpha2=alpha - 0.5,
        alpha3=alpha - 0.5,
        alpha4=alpha,
        alpha5=alpha,
        alpha6=alpha,
        beta=beta,
        lam=2.0 * beta,
    )


def invgamma_logpdf(x: float, shape: float, rate: float) -> float:
    """Log-density of ``IG(shape, rate)`` at ``x > 0``."""
    if x <= 0.0:
        raise InvalidParameter(f"inverse-gamma support is (0, inf), got {x!r}")
    return shape * math.log(rate) - math.lgamma(shape) - (shape + 1.0) * math.log(x) - rate / x


def prior_logpdf(theta: Params, s: Structure, h: BgeHyper) -> float:
    """Log prior density of ``theta`` under structure ``s``.

    For ``S3`` the weight factor is absent and ``w = 0`` is required.
    """
    a1, a2 = h.alphas_for(s)
    out = invgamma_logpdf(theta.tau1_sq, a1, h.beta) + invgamma_logpdf(theta.tau2_sq, a2, h.beta)
    if s is Structure.S1:
        out += _norm_logpdf(theta.w, h.lam * theta.tau1_sq)
    elif s is Structure.S2:
        out += _norm_logpdf(theta.w, h.lam * theta.tau2_sq)
    elif theta.w != 0.0:
        raise InvalidParameter(f"S3 prior requires w = 0, got w={theta.w!r}")
    return out


def pushforward_prior_logpdf(theta: Params, h: BgeHyper) -> float:
    """Log-density at ``theta`` of the ``S2`` prior pulled back through the
    edge-reversal reparameterization.

    Equals ``prior_logpdf(gamma_map(theta), S2, h) + log|det J|`` with
    ``|det J| = tau2_sq / (w^2*tau2_sq + tau1_sq)``. Governs the limiting
    posterior split between the two connected structures on observational
    data.
    """
    return prior_logpdf(gamma_map(theta), Structure.S2, h) + gamma_log_jacobian_det(theta)
