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
from dataclasses import dataclass, fields

from .errors import InvalidParameter
from .sem import Params, Structure, _edge, _node1_is_child, _norm_logpdf, gamma_log_jacobian_det, gamma_map


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
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise InvalidParameter(f"hyperparameter {f.name} must be positive, got {v!r}")

    def alphas_for(self, s: Structure) -> tuple[float, float]:
        """(node-1 shape, node-2 shape) for structure ``s``."""
        return self._alphas(_edge(s))

    def _alphas(self, edge: tuple[int, int] | None) -> tuple[float, float]:
        if edge is None:
            return self.alpha5, self.alpha6
        return (self.alpha1, self.alpha2) if _node1_is_child(edge) else (self.alpha3, self.alpha4)


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
    edge = _edge(s, theta.w)
    a1, a2 = h._alphas(edge)
    tau = (theta.tau1_sq, theta.tau2_sq)
    out = invgamma_logpdf(tau[0], a1, h.beta) + invgamma_logpdf(tau[1], a2, h.beta)
    if edge is not None:
        out += _norm_logpdf(theta.w, h.lam * tau[edge[1]])
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
