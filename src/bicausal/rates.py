"""Asymptotic theory: concentration exponents, optimal sample mixing,
pseudo-true parameter limits, and posterior limits under non-identifiability.

The exponents are eta-weighted mixtures of Kullback-Leibler divergences
between the true law and the best-fitting wrong-model law, where
``eta in [0, 1]`` is the limiting observational fraction of the mixed
dataset. Closed forms are used throughout; the generic Gaussian-KL mixture
path (:func:`kl_mixture_exponent`) is retained as an independent
cross-check, not as the production route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ArgumentOutOfDomain, InvalidParameter
from .priors import BgeHyper, prior_logpdf, pushforward_prior_logpdf
from .sem import STRUCTURES, Params, Structure, gamma_map, implied_covariance
from .sem import _ByStructure, _edge, _node1_is_child


def _check_moments(theta: Params, y: float) -> None:
    """Raise :class:`ArgumentOutOfDomain` unless the second moments the
    exponents form are finite; an overflowed one makes them NaN or inf."""
    th, w2 = theta, theta.w * theta.w
    for v in (w2 * th.tau2_sq + th.tau1_sq, w2 * th.tau1_sq + th.tau2_sq, w2 * y * y + th.tau1_sq):
        if not math.isfinite(v):
            raise ArgumentOutOfDomain(f"second moments overflow at {theta!r}, y={y!r}")


@dataclass(frozen=True)
class RateInput:
    """Generating parameters, intervention value, and observational ratio.

    ``eta`` may take the boundary values 0 and 1, where the exponents equal
    their analytic limits. It may also be a float array, in which case every
    exponent returns the array of its values at each entry.
    """

    theta_star: Params
    y: float
    eta: float | np.ndarray

    def __post_init__(self) -> None:
        eta = self.eta
        if isinstance(eta, np.ndarray):
            # NaN fails both comparisons
            valid = bool(np.all((eta >= 0.0) & (eta <= 1.0)))
        else:
            valid = 0.0 <= eta <= 1.0
        if not valid:
            raise InvalidParameter(f"eta must lie in [0, 1], got {eta!r}")
        if not math.isfinite(self.y):
            raise InvalidParameter(f"y must be finite, got {self.y!r}")
        _check_moments(self.theta_star, self.y)


class RateId(str, Enum):
    D12 = "d12"
    D21 = "d21"
    D13 = "d13"
    D23 = "d23"
    D12_GAIN = "d12_gain"
    D21_GAIN = "d21_gain"


@dataclass(frozen=True)
class RateCurve:
    """An exponent sampled on an increasing eta grid inside (0, 1)."""

    eta: np.ndarray
    values: np.ndarray
    exponent_id: RateId

    def __post_init__(self) -> None:
        e = np.asarray(self.eta, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if e.shape != v.shape or e.ndim != 1:
            raise InvalidParameter("eta grid and values must be 1d arrays of equal length")
        if not (np.all(np.diff(e) > 0.0) and np.all(e > 0.0) and np.all(e < 1.0)):
            raise InvalidParameter("eta grid must be strictly increasing inside (0, 1)")
        if not np.all(np.isfinite(v)):
            raise InvalidParameter("curve values must be finite")


def _sigmas_s1(theta: Params, y: float) -> tuple[float, float]:
    """Marginal variances of node 1 under edge 2->1: observational, interventional."""
    w2 = theta.w * theta.w
    return w2 * theta.tau2_sq + theta.tau1_sq, w2 * y * y + theta.tau1_sq


def d12(ri: RateInput) -> float | np.ndarray:
    """Exponent governing posterior concentration on a true ``S1`` model.

    ``0.5 * log[(eta*s_x + (1-eta)*s_y) / (s_x^eta * tau1_sq^(1-eta))]`` with
    ``s_x = w^2*tau2_sq + tau1_sq`` and ``s_y = w^2*y^2 + tau1_sq``.
    """
    sx, sy = _sigmas_s1(ri.theta_star, ri.y)
    eta, etabar = ri.eta, 1.0 - ri.eta
    return 0.5 * (
        np.log(eta * sx + etabar * sy)
        - eta * math.log(sx)
        - etabar * math.log(ri.theta_star.tau1_sq)
    )


def d21(ri: RateInput) -> float | np.ndarray:
    """Exponent governing posterior concentration on a true ``S2`` model.

    ``0.5 * log(1 - eta^2*w^2*tau1_sq / (eta*s_y + (1-eta)*y^2))
    + (eta/2) * log(s_y / tau2_sq)`` with ``s_y = w^2*tau1_sq + tau2_sq``.
    Vanishes at both boundaries: observational-only data cannot separate the
    two connected structures, and interventional-only data cannot separate
    ``S2`` from the independence model.
    """
    th = ri.theta_star
    w2t1 = th.w * th.w * th.tau1_sq
    sy = w2t1 + th.tau2_sq
    eta, etabar = ri.eta, 1.0 - ri.eta
    if ri.y * ri.y == 0.0:
        # one factor of eta cancels, which keeps eta = 0 defined
        inner = 1.0 - eta * w2t1 / sy
    else:
        inner = 1.0 - (eta * eta * w2t1) / (eta * sy + etabar * ri.y * ri.y)
    low = inner.min(initial=1.0) if isinstance(inner, np.ndarray) else inner
    if low <= 0.0:
        raise ArgumentOutOfDomain(f"d21 inner log argument non-positive ({float(low)!r})")
    return 0.5 * np.log(inner) + 0.5 * eta * math.log(sy / th.tau2_sq)


def obs_kl_s1_vs_s3(theta_star: Params) -> float:
    """Observational KL divergence separating ``S1`` from the best ``S3`` fit:
    ``0.5 * log(1 + w^2*tau2_sq/tau1_sq)``."""
    th = theta_star
    return 0.5 * math.log1p(th.w * th.w * th.tau2_sq / th.tau1_sq)


def d13(ri: RateInput) -> float | np.ndarray:
    """Exponent against the independence model for a true ``S1`` model:
    ``d12 + eta * obs_kl_s1_vs_s3``. Dominates ``d12`` except at ``eta = 0``."""
    return d12(ri) + ri.eta * obs_kl_s1_vs_s3(ri.theta_star)


def d23(ri: RateInput) -> float | np.ndarray:
    """Exponent against the independence model for a true ``S2`` model:
    ``(eta/2) * log(1 + w^2*tau1_sq/tau2_sq)``."""
    th = ri.theta_star
    return 0.5 * ri.eta * math.log1p(th.w * th.w * th.tau1_sq / th.tau2_sq)


def mixing_helps_s1(theta_star: Params, y: float) -> bool:
    """Whether adding observational data speeds up true-``S1`` concentration.

    True iff ``w^2*(tau2_sq - y^2)/(w^2*y^2 + tau1_sq) >
    log(1 + w^2*tau2_sq/tau1_sq)``, in which case the exponent attains an
    interior maximum; otherwise it is maximized by interventional-only data.
    """
    _check_moments(theta_star, y)
    th = theta_star
    w2 = th.w * th.w
    lhs = w2 * (th.tau2_sq - y * y) / (w2 * y * y + th.tau1_sq)
    rhs = math.log1p(w2 * th.tau2_sq / th.tau1_sq)
    return lhs > rhs


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

_ETA_CLAMP = 1e-9


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a strictly concave scalar function."""
    steps = int(math.ceil(math.log(tol / (hi - lo)) / math.log(_INV_PHI)))
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max(steps, 1)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def optimal_eta(
    exponent_id: RateId, theta_star: Params, y: float
) -> tuple[float, float]:
    """Maximizing observational ratio and maximal exponent value.

    For ``D21`` the maximum is always interior. For ``D12`` an interior
    maximum exists only when :func:`mixing_helps_s1` holds; otherwise the
    exponent is non-increasing and the boundary report ``(0.0, d12(0))`` is
    returned.
    """
    if exponent_id is RateId.D12:
        if not mixing_helps_s1(theta_star, y):
            return 0.0, d12(RateInput(theta_star, y, 0.0))
        f = lambda e: d12(RateInput(theta_star, y, e))
    elif exponent_id is RateId.D21:
        f = lambda e: d21(RateInput(theta_star, y, e))
    else:
        raise InvalidParameter(f"optimal_eta defined for D12/D21, got {exponent_id}")
    return _golden_max(f, _ETA_CLAMP, 1.0 - _ETA_CLAMP, tol=1e-10)


_RATE_FUNCS = {RateId.D12: d12, RateId.D21: d21, RateId.D13: d13, RateId.D23: d23}
#: Grid points of a sampled exponent curve unless a caller sets them.
_CURVE_POINTS = 999


def sample_curve(
    exponent_id: RateId,
    theta_star: Params,
    y: float,
    num: int = _CURVE_POINTS,
) -> RateCurve:
    """Evaluate one exponent on ``num`` evenly spaced points of
    ``[1e-9, 1 - 1e-9]``."""
    f = _RATE_FUNCS.get(exponent_id)
    if f is None:
        raise InvalidParameter(f"cannot sample curve for {exponent_id}")
    eta_grid = np.linspace(_ETA_CLAMP, 1.0 - _ETA_CLAMP, num)
    return RateCurve(eta=eta_grid, values=f(RateInput(theta_star, y, eta_grid)), exponent_id=exponent_id)


def gain_transform(curve: RateCurve) -> RateCurve:
    """Pointwise ``D(eta)/(1-eta)``: exponent per interventional sample at a
    fixed interventional budget. Measures the marginal gain observational
    data provides over the interventional baseline."""
    if curve.exponent_id is RateId.D12:
        new_id = RateId.D12_GAIN
    elif curve.exponent_id is RateId.D21:
        new_id = RateId.D21_GAIN
    else:
        raise InvalidParameter(f"gain transform defined for D12/D21 curves, got {curve.exponent_id}")
    return RateCurve(eta=curve.eta, values=curve.values / (1.0 - curve.eta), exponent_id=new_id)


def pseudo_true_limits(
    true_model: Structure, theta_star: Params, y: float, eta: float
) -> dict[Structure, Params]:
    """Almost-sure limits of every structure's MLE given the generating model.

    ``eta`` is the limiting observational fraction; ``eta = 1`` gives the
    observational-only limits. The true structure's estimator is consistent;
    the others converge to pseudo-true values.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameter(f"eta must lie in [0, 1], got {eta!r}")
    th = theta_star
    etabar = 1.0 - eta
    edge = _edge(true_model, th.w)
    if edge is None:
        return _ByStructure(dict.fromkeys(STRUCTURES, Params(0.0, th.tau1_sq, th.tau2_sq)))
    if _node1_is_child(edge):
        sx, sy = _sigmas_s1(th, y)
        mix1 = eta * sx + etabar * sy
        g = gamma_map(th)
        return _ByStructure({
            Structure.S1: th,
            Structure.S2: Params(g.w, mix1, g.tau2_sq),
            Structure.S3: Params(0.0, mix1, th.tau2_sq),
        })
    w2t1 = th.w * th.w * th.tau1_sq
    s2y = w2t1 + th.tau2_sq
    den = eta * s2y + etabar * y * y
    if den <= 0.0:
        raise ArgumentOutOfDomain("pseudo-true S1 limit undefined (eta = 0 with y = 0)")
    num_var = (
        eta * th.tau1_sq * th.tau2_sq
        + eta * etabar * th.w * th.w * (th.tau1_sq * th.tau1_sq)
        + etabar * y * y * th.tau1_sq
    )
    return _ByStructure({
        Structure.S1: Params(eta * th.w * th.tau1_sq / den, num_var / den, s2y),
        Structure.S2: th,
        Structure.S3: Params(0.0, th.tau1_sq, s2y),
    })


def _log_prior_ratio(theta: Params, h: BgeHyper) -> float:
    """Log of the pulled-back ``S2`` prior over the ``S1`` prior at ``theta``
    (``S1`` coordinates): the limiting observational log odds of S2 to S1."""
    return pushforward_prior_logpdf(theta, h) - prior_logpdf(theta, Structure.S1, h)


def nonident_posterior_limit(
    theta_star: Params, h: BgeHyper, true_model: Structure
) -> float:
    """Observational-data posterior limit of the true connected structure.

    ``theta_star`` is expressed in ``S1`` coordinates of the generating law
    (for a native-``S2`` mechanism pass ``gamma_map_inverse`` of its
    parameters). With ``r`` the ratio of the pulled-back ``S2`` prior to the
    ``S1`` prior at ``theta_star``, the limit is ``1/(1+r)`` when ``S1`` is
    true and ``r/(1+r)`` when ``S2`` is true; the two sum to one.
    """
    edge = _edge(true_model)
    if edge is None:
        raise InvalidParameter(f"limit defined for connected structures, got {true_model}")
    if theta_star.w == 0.0:
        raise InvalidParameter("limit requires a nonzero edge weight")
    log_r = _log_prior_ratio(theta_star, h)
    return 1.0 / (1.0 + math.exp(log_r if _node1_is_child(edge) else -log_r))


# ---------------------------------------------------------------------------
# Generic Gaussian KL mixture (cross-check route)
# ---------------------------------------------------------------------------


def kl_centered_bivariate(cov0: np.ndarray, cov1: np.ndarray) -> float:
    """KL divergence between centered bivariate Gaussians ``N(0, cov0)`` and
    ``N(0, cov1)``."""
    inv1 = np.linalg.inv(cov1)
    tr = float(np.trace(inv1 @ cov0))
    _, ld0 = np.linalg.slogdet(cov0)
    _, ld1 = np.linalg.slogdet(cov1)
    return 0.5 * (tr - 2.0 + float(ld1 - ld0))


def kl_univariate(mean0: float, var0: float, mean1: float, var1: float) -> float:
    """KL divergence between univariate Gaussians."""
    return 0.5 * (var0 / var1 + (mean1 - mean0) * (mean1 - mean0) / var1 - 1.0 + math.log(var1 / var0))


def _interv_law(s: Structure, theta: Params, y: float) -> tuple[float, float]:
    """(mean, variance) of the free node under ``do(node2 = y)``."""
    if _node1_is_child(_edge(s)):
        return theta.w * y, theta.tau1_sq
    return 0.0, theta.tau1_sq


def kl_mixture_exponent(
    true_model: Structure, wrong_model: Structure, theta_star: Params, y: float, eta: float
) -> float:
    """Exponent as ``eta * KL_obs + (1-eta) * KL_int`` against the wrong
    model's pseudo-true law. Independent of the closed forms; used to
    validate them.
    """
    limits = pseudo_true_limits(true_model, theta_star, y, eta)
    theta_wrong = limits[wrong_model]
    cov_true = implied_covariance(true_model, theta_star).as_matrix()
    cov_wrong = implied_covariance(wrong_model, theta_wrong).as_matrix()
    kl_obs = kl_centered_bivariate(cov_true, cov_wrong)
    m0, v0 = _interv_law(true_model, theta_star, y)
    m1, v1 = _interv_law(wrong_model, theta_wrong, y)
    kl_int = kl_univariate(m0, v0, m1, v1)
    return eta * kl_obs + (1.0 - eta) * kl_int


__all__ = [
    "RateInput",
    "RateId",
    "RateCurve",
    "d12",
    "d21",
    "d13",
    "d23",
    "obs_kl_s1_vs_s3",
    "mixing_helps_s1",
    "optimal_eta",
    "sample_curve",
    "gain_transform",
    "pseudo_true_limits",
    "nonident_posterior_limit",
    "kl_centered_bivariate",
    "kl_univariate",
    "kl_mixture_exponent",
]
