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

import functools
import math
from dataclasses import dataclass, fields

from .errors import InvalidParameter
from .sem import (
    _EDGES,
    Params,
    Structure,
    _ByStructure,
    _edge,
    _float_field,
    _node1_is_child,
    _norm_logpdf,
    _real,
    _s3_weight_error,
    gamma_log_jacobian_det,
    gamma_map,
)


@dataclass(frozen=True)
class BgeHyper:
    """Hyperparameters of the hierarchical structure prior.

    All eight scalars must be strictly positive, and each shape's ``lgamma`` finite.
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
            v = _float_field(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise InvalidParameter(f"hyperparameter {f.name} must be positive, got {v!r}")
            if f.name.startswith("alpha"):
                _lgamma(f"hyperparameter {f.name}", v)

    def alphas_for(self, s: Structure) -> tuple[float, float]:
        """(node-1 shape, node-2 shape) for structure ``s``."""
        return self._alphas(_edge(s))

    def _alphas(self, edge: tuple[int, int] | None) -> tuple[float, float]:
        if edge is None:
            return self.alpha5, self.alpha6
        return (self.alpha1, self.alpha2) if _node1_is_child(edge) else (self.alpha3, self.alpha4)

    @functools.cached_property
    def _prior_constants(self) -> _ByStructure:
        """Per structure: its edge, then each node's ``(shape*log(beta) -
        lgamma(shape), shape + 1)``, the variance-free part of
        :func:`invgamma_logpdf`. Computed on first use; a field-derived
        cache, so ``==``, ``hash`` and ``repr`` do not see it."""
        log_beta = math.log(self.beta)
        return _ByStructure(
            {
                s: (edge, *((a * log_beta - math.lgamma(a), a + 1.0) for a in self._alphas(edge)))
                for s, edge in _EDGES.items()
            }
        )


def bge_symmetric_hyper(alpha: float, beta: float) -> BgeHyper:
    """Score-equivalent hyperparameters: ``alpha1=alpha4=alpha``,
    ``alpha2=alpha3=alpha-1/2``, ``lam=2*beta``.

    Requires ``alpha > 1/2``. The ``S3`` shapes are a free choice and are set
    to ``alpha``. With ``beta = 1/2`` (so that ``1/lam = 2*beta``) the
    resulting posterior puts exactly equal mass on ``S1`` and ``S2`` for any
    observational dataset.
    """
    alpha, beta = _real("alpha", alpha), _real("beta", beta)
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
    x, shape, rate = map(_real, ("x", "shape", "rate"), (x, shape, rate))
    if x <= 0.0:
        raise _support_error(x)
    return shape * math.log(rate) - _lgamma("shape", shape) - (shape + 1.0) * math.log(x) - rate / x


def _lgamma(name: str, shape: float) -> float:
    """``math.lgamma(shape)``; an overflow (a shape above about 2.55e305) is
    an :class:`InvalidParameter` naming ``name``."""
    try:
        return math.lgamma(shape)
    except OverflowError:
        raise InvalidParameter(f"{name} is too large for a finite lgamma, got {shape!r}") from None


def _support_error(x: float) -> InvalidParameter:
    return InvalidParameter(f"inverse-gamma support is (0, inf), got {x!r}")


def prior_logpdf(theta: Params, s: Structure, h: BgeHyper) -> float:
    """Log prior density of ``theta`` under structure ``s``.

    For ``S3`` the weight factor is absent and ``w = 0`` is required.

    Bitwise :func:`invgamma_logpdf` for each variance plus the weight's
    normal term: Python subtracts left to right, so the shape terms that
    precede the variance are taken from ``h``'s constants.
    """
    w = theta.w
    edge, (c1, p1), (c2, p2) = h._prior_constants[s]
    if edge is None and w != 0.0:
        raise _s3_weight_error(w)
    t1, t2 = theta.tau1_sq, theta.tau2_sq
    if t1 <= 0.0 or t2 <= 0.0:
        raise _support_error(t1 if t1 <= 0.0 else t2)
    beta = h.beta
    out = (c1 - p1 * math.log(t1) - beta / t1) + (c2 - p2 * math.log(t2) - beta / t2)
    if edge is not None:
        out += _norm_logpdf(w, h.lam * (t1, t2)[edge[1]])
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
