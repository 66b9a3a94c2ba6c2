"""Asymptotic theory: concentration exponents, optimal sample mixing,
pseudo-true parameter limits, and posterior limits under non-identifiability.

The exponents are eta-weighted mixtures of Kullback-Leibler divergences
between the true law and the best-fitting wrong-model law, where
``eta in [0, 1]`` is the limiting observational fraction of the mixed
dataset. Closed forms are used throughout, for the optimal ratio too
(:func:`optimal_eta`); the generic Gaussian-KL mixture path
(:func:`kl_mixture_exponent`) is retained as an independent cross-check,
not as the production route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ArgumentOutOfDomain, InvalidParameter
from .priors import BgeHyper
from .sem import STRUCTURES, Params, Structure, gamma_map, implied_covariance
from .sem import _ByStructure, _edge, _interv_mean, _node1_is_child


def _ratios(theta: Params, y: float) -> tuple[float, float, float, float]:
    """The variance ratios the exponents read: under edge 2->1 node 1's
    observational and interventional excess ``x = w^2*tau2_sq/tau1_sq`` and
    ``z = w^2*y^2/tau1_sq``; under edge 1->2 node 2's ``w^2*tau1_sq/tau2_sq``
    and ``c = y^2/tau2_sq``. Raise :class:`ArgumentOutOfDomain` if one
    overflows, which would make the exponents NaN or inf. An input beyond
    ``2^+-200`` could take a step out of the normal range, so there the steps
    run on ``math.frexp`` mantissas and one ``ldexp`` scales each ratio:
    bitwise the plain ratio wherever no plain step left the normal range."""
    w, t1, t2, yv = theta.w, theta.tau1_sq, theta.tau2_sq, y
    lo, hi, exps = 2.0**-200, 2.0**200, None
    if not (lo < t1 < hi and lo < t2 < hi and (lo < abs(w) < hi or not w) and (lo < abs(yv) < hi or not yv)):
        (w, ew), (t1, e1), (t2, e2), (yv, ey) = map(math.frexp, (w, t1, t2, yv))
        exps = (2 * ew + e2 - e1, 2 * (ew + ey) - e1, 2 * ew + e1 - e2, 2 * ey - e2)
    v = (w * w * t2 / t1, w * w * yv * yv / t1, w * w * t1 / t2, yv * yv / t2)
    try:
        v = tuple(map(math.ldexp, v, exps)) if exps else v
    except OverflowError:  # a ratio beyond the largest float
        v = (math.inf,)
    if not all(map(math.isfinite, v)):
        raise ArgumentOutOfDomain(f"second moments overflow at {theta!r}, y={y!r}")
    return v


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
        # NaN fails both comparisons; np.all costs a float 100 times the
        # chained comparison
        eta = self.eta
        if not (np.all((eta >= 0.0) & (eta <= 1.0)) if isinstance(eta, np.ndarray) else 0.0 <= eta <= 1.0):
            raise InvalidParameter(f"eta must lie in [0, 1], got {self.eta!r}")
        if not math.isfinite(self.y):
            raise InvalidParameter(f"y must be finite, got {self.y!r}")
        _ratios(self.theta_star, self.y)


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


def _log1pmx(t):
    """``log1p(t) - t`` for ``0 <= t <= 1``, to a few ulp. With
    ``s = t/(2+t) <= 1/3`` it is ``2*atanh(s) - t = 2*(s^3/3 + s^5/5 + ...) - t*s``,
    so the first-order terms cancel exactly instead of in rounding. The
    series stops at ``s^35``, below an ulp at ``s = 1/3``."""
    s = t / (2.0 + t)
    s2 = s * s
    p = 0.0
    for k in range(35, 1, -2):
        p = p * s2 + 2.0 / k
    return s * s2 * p - t * s


def _log1p(t):
    """``np.log1p``, returned as a ``float`` for a number."""
    return np.log1p(t) if isinstance(t, np.ndarray) else float(np.log1p(t))


def _where(cond, a, b):
    """``np.where``, or the plain choice for a number."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _log_gap(x: float) -> tuple[float, float]:
    """``log1p(x)`` and the Jensen gap ``x - log1p(x) >= 0``, to a few ulp."""
    lg = math.log1p(x)
    return lg, (-_log1pmx(x) if x <= 1.0 else x - lg)


def d12(ri: RateInput) -> float | np.ndarray:
    """Exponent governing posterior concentration on a true ``S1`` model.

    ``0.5 * [log1p(eta*x + (1-eta)*z) - eta*log1p(x)]`` with
    ``x = w^2*tau2_sq/tau1_sq`` and ``z = w^2*y^2/tau1_sq``. The logarithms
    agree to first order, so while ``x, z <= 1`` it is summed as
    ``0.5 * [g(eta*x + (1-eta)*z) - eta*g(x) + (1-eta)*z]``, ``g`` the
    :func:`_log1pmx`, which keeps its digits as ``w -> 0``.
    """
    x, z, _, _ = _ratios(ri.theta_star, ri.y)
    eta, etabar = ri.eta, 1.0 - ri.eta
    mix = eta * x + etabar * z
    if max(x, z) > 1.0:
        return 0.5 * (_log1p(mix) - eta * _log1p(x))
    return 0.5 * (_log1pmx(mix) - eta * _log1pmx(x) + etabar * z)


def d21(ri: RateInput) -> float | np.ndarray:
    """Exponent governing posterior concentration on a true ``S2`` model.

    ``0.5 * [log1p((1-eta)*u) - log1p(u) + eta*log1p(x)]`` with
    ``x = w^2*tau1_sq/tau2_sq``, ``c = y^2/tau2_sq`` and
    ``u = eta*x/(eta + (1-eta)*c)`` (``u = x`` when ``c = 0``); while
    ``x <= 1`` it is summed as ``0.5 * [g((1-eta)*u) - g(u) + eta*g(x) +
    (1-eta)*c*u]``, ``g`` the :func:`_log1pmx`, with ``c*u`` formed whole as
    ``u`` underflows at large ``c``. Below ``eta = 1/2``, where ``(1-eta)*u``
    drops eta's digits, the first two terms are ``log1p(-t)`` or
    ``g(-t) + t*u`` with ``t = eta*u/(1+u)``. Vanishes at both boundaries:
    observational-only data cannot separate the two connected structures,
    and interventional-only data cannot separate ``S2`` from the
    independence model.
    """
    _, _, x, c = _ratios(ri.theta_star, ri.y)
    eta, etabar = ri.eta, 1.0 - ri.eta
    # one factor of eta cancels when c = 0, which keeps eta = 0 defined
    u = eta * x / (eta + etabar * c) if c else x
    low = eta < 0.5
    t = _where(low, eta, 0.0) * u / (1.0 + u)
    if x > 1.0:
        return 0.5 * (_where(low, _log1p(-t), _log1p(etabar * u) - _log1p(u)) + eta * _log1p(x))
    cu = eta * x * (c / (eta + etabar * c)) if c else 0.0
    drop = _where(low, _log1pmx(-t) + t * u, _log1pmx(etabar * u) - _log1pmx(u))
    return 0.5 * (drop + eta * _log1pmx(x) + etabar * cu)


def obs_kl_s1_vs_s3(theta_star: Params) -> float:
    """Observational KL divergence separating ``S1`` from the best ``S3`` fit:
    ``0.5 * log(1 + w^2*tau2_sq/tau1_sq)``."""
    return 0.5 * math.log1p(_ratios(theta_star, 0.0)[0])


def d13(ri: RateInput) -> float | np.ndarray:
    """Exponent against the independence model for a true ``S1`` model:
    ``d12 + eta * obs_kl_s1_vs_s3``. Dominates ``d12`` except at ``eta = 0``."""
    return d12(ri) + ri.eta * obs_kl_s1_vs_s3(ri.theta_star)


def d23(ri: RateInput) -> float | np.ndarray:
    """Exponent against the independence model for a true ``S2`` model:
    ``(eta/2) * log(1 + w^2*tau1_sq/tau2_sq)``."""
    return 0.5 * ri.eta * math.log1p(_ratios(ri.theta_star, ri.y)[2])


def mixing_helps_s1(theta_star: Params, y: float) -> bool:
    """Whether adding observational data speeds up true-``S1`` concentration.

    True iff ``(x - log1p x) > z*(1 + log1p x)`` (``x, z`` as in :func:`d12`),
    the numerator of the ``d12`` optimum in :func:`optimal_eta`; the exponent
    then has an interior maximum, else interventional-only data maximizes it.
    At ``y = 0`` it holds for every ``w != 0``.
    """
    return optimal_eta(RateId.D12, theta_star, y)[0] > 0.0


def _d21_root(x: float, c: float) -> float:
    """The root in (0, 1) of d21' for ``x > 0`` and ``c = y^2/tau2_sq``.

    d21' has the sign of ``r*q^2 - l*eta^2*q - eta*(b*eta + 2c)`` with
    ``l = log1p(x)``, ``r = l/x``, ``b = 1 - c + x`` and ``q = c + b*eta``:
    its cubic numerator over ``x``, with coefficients formed through
    ``m = r*b - 1`` so they keep their digits as ``w -> 0``. d21 is concave,
    so the root is unique; a Newton step that leaves the bracket bisects it.
    """
    lg, gap = _log_gap(x)
    r, b = lg / x, 1.0 - c + x
    m = r * (x - c) - gap / x
    coef = (-lg * b, b * m - lg * c, 2.0 * c * m, r * c * c)
    lo, hi, eta = 0.0, 1.0, 0.5
    while True:
        g = dg = 0.0
        for a in coef:
            g, dg = g * eta + a, dg * eta + g
        lo, hi = (eta, hi) if g > 0.0 else (lo, eta)
        step = eta - g / dg if dg else lo
        if step == eta:
            return eta
        eta = step if lo < step < hi else 0.5 * (lo + hi)
        if eta in (lo, hi):
            return eta


def optimal_eta(exponent_id: RateId, theta_star: Params, y: float) -> tuple[float, float]:
    """Maximizing observational ratio and maximal exponent value, in closed form.

    ``D12``: ``eta* = ((x - log1p x) - z*(1 + log1p x)) / ((x - z)*log1p x)``
    (``x, z`` as in :func:`d12`), where d12' vanishes. Its numerator is
    positive exactly when :func:`mixing_helps_s1` holds; otherwise the
    exponent is non-increasing and ``eta* = 0``, the boundary report
    ``(0.0, d12(0))``.

    ``D21``: ``eta*`` is the unique root in (0, 1) of the cubic numerator of
    d21' (see :func:`_d21_root`). When ``x = w^2*tau1_sq/tau2_sq`` is 0, as
    at ``w = 0`` or where ``w^2`` underflows (``w = 1e-200``), d21 vanishes
    identically and ``(0.0, 0.0)`` is returned. ``theta_star`` and ``y`` are
    checked as :class:`RateInput` checks them.
    """
    RateInput(theta_star, y, 0.0)
    if exponent_id is RateId.D12:
        x, z, _, _ = _ratios(theta_star, y)
        lg, gap = _log_gap(x)
        num = gap - z * (1.0 + lg)
        eta = num / ((x - z) * lg) if num > 0.0 else 0.0
    elif exponent_id is RateId.D21:
        _, _, x, c = _ratios(theta_star, y)
        eta = _d21_root(x, c) if x else 0.0
    else:
        raise InvalidParameter(f"optimal_eta defined for D12/D21, got {exponent_id}")
    return eta, _RATE_FUNCS[exponent_id](RateInput(theta_star, y, eta))


_RATE_FUNCS = {RateId.D12: d12, RateId.D21: d21, RateId.D13: d13, RateId.D23: d23}
#: Grid points of a sampled exponent curve unless a caller sets them.
_CURVE_POINTS = 999
_ETA_CLAMP = 1e-9


def sample_curve(exponent_id: RateId, theta_star: Params, y: float, num: int = _CURVE_POINTS) -> RateCurve:
    """Evaluate one exponent on ``num`` evenly spaced points of
    ``[1e-9, 1 - 1e-9]``."""
    f = _RATE_FUNCS.get(exponent_id)
    if f is None:
        raise InvalidParameter(f"cannot sample curve for {exponent_id}")
    eta_grid = np.linspace(_ETA_CLAMP, 1.0 - _ETA_CLAMP, num)
    return RateCurve(eta=eta_grid, values=f(RateInput(theta_star, y, eta_grid)), exponent_id=exponent_id)


_GAINS = {RateId.D12: RateId.D12_GAIN, RateId.D21: RateId.D21_GAIN}


def gain_transform(curve: RateCurve) -> RateCurve:
    """Pointwise ``D(eta)/(1-eta)``: exponent per interventional sample at a
    fixed interventional budget. Measures the marginal gain observational
    data provides over the interventional baseline."""
    new_id = _GAINS.get(curve.exponent_id)
    if new_id is None:
        raise InvalidParameter(f"gain transform defined for D12/D21 curves, got {curve.exponent_id}")
    return RateCurve(eta=curve.eta, values=curve.values / (1.0 - curve.eta), exponent_id=new_id)


@np.errstate(all="ignore")  # np.float64 fields warn where Python floats overflow silently
def pseudo_true_limits(true_model: Structure, theta_star: Params, y: float, eta: float) -> dict[Structure, Params]:
    """Almost-sure limits of every structure's MLE given the generating model.

    ``eta`` is the limiting observational fraction; ``eta = 1`` gives the
    observational-only limits. The true structure's estimator is consistent;
    the others converge to pseudo-true values. A limit that is not a valid
    ``Params`` in floats (a variance that overflows or underflows to 0)
    raises :class:`ArgumentOutOfDomain`.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameter(f"eta must lie in [0, 1], got {eta!r}")
    if not math.isfinite(y):
        raise InvalidParameter(f"y must be finite, got {y!r}")
    th = theta_star
    etabar = 1.0 - eta
    edge = _edge(true_model, th.w)
    if edge is None:
        return _ByStructure(dict.fromkeys(STRUCTURES, Params(0.0, th.tau1_sq, th.tau2_sq)))
    try:
        if _node1_is_child(edge):
            w2 = th.w * th.w
            mix1 = eta * (w2 * th.tau2_sq + th.tau1_sq) + etabar * (w2 * y * y + th.tau1_sq)
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
    except InvalidParameter as exc:  # the arguments are valid: a limit has left the floats
        raise ArgumentOutOfDomain(
            f"pseudo-true limits cannot be evaluated at {th!r}, y={y!r}, eta={eta!r} (in a limit, {exc})"
        ) from None


def _log_prior_ratio(theta: Params, h: BgeHyper) -> float:
    """Log of the pulled-back ``S2`` prior over the ``S1`` prior at ``theta``
    (``S1`` coordinates), in closed form: in floats the two log-densities'
    difference loses every digit where ``w^2/tau1_sq`` is large."""
    w, t1, t2, a = theta.w, theta.tau1_sq, theta.tau2_sq, abs(theta.w)
    a1, a2, a3, a4 = h.alpha1, h.alpha2, h.alpha3, h.alpha4
    s = w * w * t2 + t1
    out = (
        (math.lgamma(a1) - math.lgamma(a4)) + (math.lgamma(a2) - math.lgamma(a3))
        + ((a3 - a1) + (a4 - a2)) * math.log(h.beta) + (a4 - a3 - 0.5) * math.log(s)
        + (a1 - a4) * math.log(t1) + (a2 - a4 + 0.5) * math.log(t2)
        # tau2_sq - s, with 1 - w^2 as (1 - |w|)(1 + |w|): w*w rounds near |w| = 1
        + (h.beta - 0.5 / h.lam) * (w * w) * ((1.0 - a) * (1.0 + a) * t2 - t1) / t1 / s
    )
    if not math.isfinite(out):
        raise ArgumentOutOfDomain(f"log prior ratio of S2 to S1 overflows at {theta!r}")
    return out


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
    # 1/(1 + exp(+-log r)) as the exp of a non-positive argument, which cannot overflow
    return math.exp(-float(np.logaddexp(0.0, log_r if _node1_is_child(edge) else -log_r)))


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


@np.errstate(all="ignore")  # np.float64 fields warn where Python floats overflow silently
def kl_mixture_exponent(
    true_model: Structure, wrong_model: Structure, theta_star: Params, y: float, eta: float
) -> float:
    """Exponent as ``eta * KL_obs + (1-eta) * KL_int`` against the wrong
    model's pseudo-true law. Independent of the closed forms; used to
    validate them. Raises :class:`ArgumentOutOfDomain` where floats cannot.
    """
    theta_wrong = pseudo_true_limits(true_model, theta_star, y, eta)[wrong_model]
    try:
        cov_true = implied_covariance(true_model, theta_star).as_matrix()
        cov_wrong = implied_covariance(wrong_model, theta_wrong).as_matrix()
        kl_obs = kl_centered_bivariate(cov_true, cov_wrong)
        m0, m1 = _interv_mean(true_model, theta_star, y), _interv_mean(wrong_model, theta_wrong, y)
        kl_int = kl_univariate(m0, theta_star.tau1_sq, m1, theta_wrong.tau1_sq)
        out = eta * kl_obs + (1.0 - eta) * kl_int
    # the arguments passed the checks above: a covariance that Cov2 refuses or
    # that cannot be inverted has left the floats
    except (InvalidParameter, np.linalg.LinAlgError):
        out = math.nan
    if not math.isfinite(out):
        raise ArgumentOutOfDomain(f"KL mixture exponent cannot be evaluated at {theta_star!r}, y={y!r}, eta={eta!r}")
    return out


__all__ = [
    "RateInput", "RateId", "RateCurve", "d12", "d21", "d13", "d23", "obs_kl_s1_vs_s3",
    "mixing_helps_s1", "optimal_eta", "sample_curve", "gain_transform", "pseudo_true_limits",
    "nonident_posterior_limit", "kl_centered_bivariate", "kl_univariate", "kl_mixture_exponent",
]
