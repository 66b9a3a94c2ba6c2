"""Asymptotic theory: concentration exponents, optimal sample mixing,
pseudo-true parameter limits, and posterior limits under non-identifiability.

The exponents are eta-weighted mixtures of Kullback-Leibler divergences from
the true law to the best-fitting wrong-model law, ``eta in [0, 1]`` the limiting
observational fraction. Each closed form sums non-negative terms (variance-ratio
gaps ``rho - 1 - log(rho)`` and squared mean shifts over a variance), so it keeps
full relative accuracy at every eta and magnitude; so does :func:`optimal_eta`'s
value. :func:`kl_mixture_exponent` is an independent cross-check.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ArgumentOutOfDomain, BicausalError, InvalidParameter
from .priors import BgeHyper
from .sem import STRUCTURES, Cov2, Params, Structure, _ByStructure, _edge, _float_field, _integer, _interv_mean, _log
from .sem import _node1_is_child, _product, _real, _reverse_edge, _scale, _scale_gap


def _ratios(theta: Params, y: float) -> tuple[float, float, float, float]:
    """The variance ratios the exponents read: under edge 2->1 node 1's
    observational and interventional excess ``x = w^2*tau2_sq/tau1_sq`` and
    ``z = w^2*y^2/tau1_sq``; under edge 1->2 node 2's ``w^2*tau1_sq/tau2_sq``
    and ``c = y^2/tau2_sq``. Raise :class:`ArgumentOutOfDomain` if one
    overflows, which would make the exponents NaN or inf. An input beyond
    ``2^+-200`` could take a step out of the normal range, so there each
    ratio is a ``sem._product`` on ``math.frexp`` mantissas: bitwise the
    plain ratio wherever no plain step left the normal range."""
    w, t1, t2, yv = theta.w, theta.tau1_sq, theta.tau2_sq, y
    lo, hi = 2.0**-200, 2.0**200
    if lo < t1 < hi and lo < t2 < hi and (lo < abs(w) < hi or not w) and (lo < abs(yv) < hi or not yv):
        v = (w * w * t2 / t1, w * w * yv * yv / t1, w * w * t1 / t2, yv * yv / t2)
    else:
        v = (_product(w, w, t2, over=t1), _product(w, w, yv, yv, over=t1), _product(w, w, t1, over=t2),
             _product(yv, yv, over=t2))
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
        eta = self.eta if isinstance(self.eta, np.ndarray) else _float_field(self, "eta")
        if not (np.all((eta >= 0.0) & (eta <= 1.0)) if isinstance(eta, np.ndarray) else 0.0 <= eta <= 1.0):
            raise InvalidParameter(f"eta must lie in [0, 1], got {self.eta!r}")
        if not math.isfinite(_float_field(self, "y")):
            raise InvalidParameter(f"y must be finite, got {self.y!r}")
        # kept for the exponents, outside the dataclass fields
        object.__setattr__(self, "_ratios", _ratios(self.theta_star, self.y))


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


#: Bounds on ``|s|`` and the last power of :func:`_log1pmx`'s series past
#: each count of them: the terms dropped weigh at most ``|s|^k/(k+2)`` of the
#: value, as ``s^37`` does at ``|s| = 1/3``.
_SERIES_BOUNDS, _SERIES_LAST = (2.0**-6, 2.0**-3), (11, 19, 35)
#: Each series' coefficients ``2/k``, from its last power down.
_SERIES_COEFS = tuple(tuple(2.0 / k for k in range(last, 1, -2)) for last in _SERIES_LAST)


def _log1pmx(t):
    """``log1p(t) - t`` for ``-1/2 <= t <= 1``, to a few ulp: with ``s = t/(2+t)``,
    ``|s| <= 1/3``, it is ``2*(s^3/3 + s^5/5 + ...) - t*s``, whose first-order
    terms cancel exactly, and the series stops below an ulp, at the last power
    that the count of bounds below ``|s|`` picks. Array cells run the longest
    series in place, and a cell restarts at ``2/k`` at its own last power
    ``k``, as a float's series starts: so each is bitwise its scalar."""
    s = t / (2.0 + t)
    s2 = s * s
    if not isinstance(t, np.ndarray):
        p = 0.0
        for c in _SERIES_COEFS[bisect_left(_SERIES_BOUNDS, abs(s))]:
            p = p * s2 + c
    else:
        a, p = np.abs(s), np.zeros_like(s)
        restarts = dict(zip(_SERIES_LAST, _SERIES_BOUNDS))
        for k, c in zip(range(_SERIES_LAST[-1], 1, -2), _SERIES_COEFS[-1]):
            p *= s2
            p += c
            if k in restarts:
                p[a <= restarts[k]] = c
    return s * s2 * p - t * s


def _gap(t, rho):
    """``rho - 1 - log(rho) >= 0`` to a few ulp, from ``rho`` and ``t = rho - 1``
    that the caller forms as products or quotients, never by a cancelling
    subtraction: ``-log1pmx(t)`` for ``-1/2 <= t <= 1``, else ``t - log(rho)``.
    Array cells run the series only where they use it, each bitwise its scalar."""
    if not isinstance(t, np.ndarray):
        return -_log1pmx(t) if -0.5 <= t <= 1.0 else t - float(np.log(rho))
    near, out = (t >= -0.5) & (t <= 1.0), np.empty_like(t)
    out[near], out[~near] = -_log1pmx(t[near]), t[~near] - np.log(rho[~near])
    return out


def d12(ri: RateInput) -> float | np.ndarray:
    """Exponent governing posterior concentration on a true ``S1`` model.

    ``0.5 * [log1p(q) - eta*log1p(x)]`` with ``x = w^2*tau2_sq/tau1_sq``,
    ``z = w^2*y^2/tau1_sq`` and ``q = eta*x + (1-eta)*z``, summed as
    ``0.5 * [eta*KL_obs + (1-eta)*KL_int]`` over doubled KLs of non-negative
    terms, ``KL_obs = gap((1+x)/(1+q))`` and ``KL_int = gap(1/(1+q)) + z/(1+q)``.
    """
    x, z, _, _ = ri._ratios
    eta, etabar = ri.eta, 1.0 - ri.eta
    q = eta * x + etabar * z
    q1 = 1.0 + q
    kl_obs = _gap(etabar * (x - z) / q1, (1.0 + x) / q1)
    kl_int = _gap(-q / q1, 1.0 / q1) + z / q1
    return 0.5 * (eta * kl_obs + etabar * kl_int)


def d21(ri: RateInput) -> float | np.ndarray:
    """Exponent governing posterior concentration on a true ``S2`` model.

    ``0.5 * [log1p(v) - log1p(u) + eta*log1p(x)]`` with
    ``x = w^2*tau1_sq/tau2_sq``, ``c = y^2/tau2_sq``, ``a = eta/(eta +
    (1-eta)*c)`` (1 when ``c = 0``), ``b = 1 - a``, ``u = a*x`` and
    ``v = (1-eta)*u``, summed as :func:`d12` is, with
    ``KL_obs = gap((1+u)/((1+x)(1+v))) + x*b^2/((1+x)(1+u)(1+v))`` and
    ``KL_int = gap((1+u)/(1+v)) + u*a*c/((1+u)(1+v))``. Vanishes at both
    boundaries: observational-only data cannot separate the two connected
    structures, and interventional-only data cannot separate ``S2`` from the
    independence model.
    """
    _, _, x, c = ri._ratios
    eta, etabar = ri.eta, 1.0 - ri.eta
    # b and f = 1 - a*eta as quotients; eta cancels from a when c = 0, which keeps eta = 0 defined
    den = eta + etabar * c
    a, b, f = (eta / den, etabar * c / den, etabar * (eta + c) / den) if c else (1.0, 0.0, etabar)
    u, v = a * x, etabar * (a * x)
    u1, v1, x1 = 1.0 + u, 1.0 + v, 1.0 + x
    kl_obs = _gap(-(x / x1) * ((f + v) / v1), u1 / x1 / v1) + (x / x1) * (b / u1) * (b / v1)
    kl_int = _gap(eta * u / v1, u1 / v1) + (u / u1) * (a * c / v1)
    return 0.5 * (eta * kl_obs + etabar * kl_int)


def obs_kl_s1_vs_s3(theta_star: Params) -> float:
    """Observational KL divergence separating ``S1`` from the best ``S3`` fit:
    ``0.5 * log(1 + w^2*tau2_sq/tau1_sq)``."""
    return 0.5 * math.log1p(_ratios(theta_star, 0.0)[0])


def d13(ri: RateInput) -> float | np.ndarray:
    """Exponent against the independence model for a true ``S1`` model:
    ``d12 + eta * obs_kl_s1_vs_s3``. Dominates ``d12`` except at ``eta = 0``."""
    return d12(ri) + ri.eta * (0.5 * math.log1p(ri._ratios[0]))  # bitwise obs_kl_s1_vs_s3's


def d23(ri: RateInput) -> float | np.ndarray:
    """Exponent against the independence model for a true ``S2`` model:
    ``(eta/2) * log(1 + w^2*tau1_sq/tau2_sq)``."""
    return 0.5 * ri.eta * math.log1p(ri._ratios[2])


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
    lg, gap = math.log1p(x), _gap(x, 1.0 + x)
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
    ri = RateInput(theta_star, y, 0.0)
    if exponent_id is RateId.D12:
        x, z, _, _ = ri._ratios
        lg, gap = math.log1p(x), _gap(x, 1.0 + x)
        num = gap - z * (1.0 + lg)
        eta = num / ((x - z) * lg) if num > 0.0 else 0.0
    elif exponent_id is RateId.D21:
        _, _, x, c = ri._ratios
        eta = _d21_root(x, c) if x else 0.0
    else:
        raise InvalidParameter(f"optimal_eta defined for D12/D21, got {exponent_id}")
    return eta, _RATE_FUNCS[exponent_id](RateInput(theta_star, ri.y, eta))


_RATE_FUNCS = {RateId.D12: d12, RateId.D21: d21, RateId.D13: d13, RateId.D23: d23}
#: Grid points of a sampled exponent curve unless a caller sets them.
_CURVE_POINTS = 999
_ETA_CLAMP = 1e-9


def sample_curve(exponent_id: RateId, theta_star: Params, y: float, num: int = _CURVE_POINTS) -> RateCurve:
    """Evaluate one exponent on ``num >= 1`` evenly spaced points of
    ``[1e-9, 1 - 1e-9]``."""
    f = _RATE_FUNCS.get(exponent_id)
    if f is None:
        raise InvalidParameter(f"cannot sample curve for {exponent_id}")
    num = _integer("num", num)
    if num < 1:
        raise InvalidParameter(f"num must be >= 1, got {num}")
    if num > sys.maxsize // 8:  # numpy describes no array of more than sys.maxsize bytes
        raise ArgumentOutOfDomain(f"num = {num} points are more than an array can hold")
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


def pseudo_true_limits(true_model: Structure, theta_star: Params, y: float, eta: float) -> dict[Structure, Params]:
    """Almost-sure limits of every structure's MLE given the generating model.

    ``eta`` is the limiting observational fraction. The true structure's
    estimator is consistent; the other connected one converges to the true
    edge reversed over the eta-mixture (``sem._reverse_edge``; at ``eta = 1``
    ``gamma_map``'s reversal), ``S3`` to each node's variance where it is a
    root. A limit that is not a valid ``Params`` in floats (a variance that
    overflows or underflows to 0) is the reversal's :class:`ArgumentOutOfDomain`.
    """
    y, eta = _real("y", y), _real("eta", eta)
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameter(f"eta must lie in [0, 1], got {eta!r}")
    if not math.isfinite(y):
        raise InvalidParameter(f"y must be finite, got {y!r}")
    th = theta_star
    edge = _edge(true_model, th.w)
    if edge is None:
        return _ByStructure(dict.fromkeys(STRUCTURES, Params(0.0, th.tau1_sq, th.tau2_sq)))
    other = _reverse_edge(edge, th, eta, y)
    s1, s2 = (th, other) if _node1_is_child(edge) else (other, th)
    return _ByStructure(zip(STRUCTURES, (s1, s2, Params(0.0, s2.tau1_sq, s1.tau2_sq))))


def _log_prior_ratio(theta: Params, h: BgeHyper) -> float:
    """Log of the pulled-back ``S2`` prior over the ``S1`` prior at ``theta``
    (``S1`` coordinates), in closed form: in floats the two log-densities'
    difference loses every digit where ``w^2/tau1_sq`` is large. Its
    ``log s`` and weight term, ``s = w^2*tau2_sq + tau1_sq``, are
    ``sem._log`` of ``sem._scale``'s pair and ``sem._scale_gap``: neither
    overflows before its value does, and where every step is a normal float
    both are bitwise the plain arithmetic."""
    w, t1, t2 = theta.w, theta.tau1_sq, theta.tau2_sq
    a1, a2, a3, a4 = h.alpha1, h.alpha2, h.alpha3, h.alpha4
    out = (
        (math.lgamma(a1) - math.lgamma(a4)) + (math.lgamma(a2) - math.lgamma(a3))
        + ((a3 - a1) + (a4 - a2)) * math.log(h.beta) + (a4 - a3 - 0.5) * _log(_scale(w, t2, t1))
        + (a1 - a4) * math.log(t1) + (a2 - a4 + 0.5) * math.log(t2)
        + _scale_gap(h.beta - 0.5 / h.lam, w, t2, t1)
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
    """KL divergence from ``N(0, cov0)`` to ``N(0, cov1)`` by :func:`_kl_chain` in
    node order; :class:`InvalidParameter` for a matrix that is not symmetric
    positive definite, :class:`ArgumentOutOfDomain` where the value overflows."""
    laws = []
    for c in map(np.asarray, (cov0, cov1)):
        if c.shape != (2, 2) or c[0, 1] != c[1, 0]:
            raise InvalidParameter(f"covariance not a symmetric 2x2 matrix: {c.tolist()}")
        v = Cov2(c[0, 0], c[0, 1], c[1, 1])
        laws.append(Params(v.c12 / v.c11, v.c11, v.c22 - v.c12 / v.c11 * v.c12))  # node 2 regressed on node 1
    out = _kl_chain(*laws, 0, 1)
    if not math.isfinite(out):
        raise ArgumentOutOfDomain(f"KL divergence overflows from {laws[0]!r} to {laws[1]!r}")
    return out


def kl_univariate(mean0: float, var0: float, mean1: float, var1: float) -> float:
    """KL divergence from ``N(mean0, var0)`` to ``N(mean1, var1)``: half the
    variance ratio's :func:`_gap` plus half the squared mean shift over
    ``var1``, so never negative. A non-finite mean, or a variance not positive
    and finite, raises :class:`InvalidParameter`; a variance below the normal
    range, which has lost digits, or a value floats cannot hold,
    :class:`ArgumentOutOfDomain`."""
    mean0, var0, mean1, var1 = map(_real, ("mean0", "var0", "mean1", "var1"), (mean0, var0, mean1, var1))
    if not (math.isfinite(mean0) and math.isfinite(mean1) and 0.0 < var0 < math.inf and 0.0 < var1 < math.inf):
        raise InvalidParameter(f"KL needs finite means and positive, finite variances, got {mean0, var0, mean1, var1}")
    rho = var0 / var1
    if min(var0, var1) < sys.float_info.min or not rho:
        raise ArgumentOutOfDomain(f"KL variance below the normal range, or their ratio 0: {var0!r}, {var1!r}")
    out = 0.5 * (_gap((var0 - var1) / var1, rho) + (mean1 - mean0) * (mean1 - mean0) / var1)
    if not math.isfinite(out):
        raise ArgumentOutOfDomain(f"KL of N({mean0!r}, {var0!r}) to N({mean1!r}, {var1!r}) overflows")
    return out


def _kl_chain(th0: Params, th1: Params, p: int, c: int) -> float:
    """KL between two laws with parent ``p`` and child ``c`` by the chain rule: the
    parent's KL plus the child's expected conditional KL, never negative."""
    t0, t1, dw = (th0.tau1_sq, th0.tau2_sq), (th1.tau1_sq, th1.tau2_sq), th0.w - th1.w
    # the child's conditional mean shift is dw times the parent, so its square averages dw^2 * t0[p]
    kl_c = kl_univariate(0.0, t0[c], 0.0, t1[c]) + 0.5 * (dw * dw * t0[p] / t1[c])
    return kl_univariate(0.0, t0[p], 0.0, t1[p]) + kl_c


def kl_mixture_exponent(
    true_model: Structure, wrong_model: Structure, theta_star: Params, y: float, eta: float
) -> float:
    """Exponent as ``eta * KL_obs + (1-eta) * KL_int`` against the wrong
    model's pseudo-true law, ``KL_obs`` by :func:`_kl_chain` in the wrong
    model's causal order (the true law's edge reversed where it differs).
    Independent of the closed forms, which it validates;
    :class:`ArgumentOutOfDomain` where floats cannot evaluate it.
    """
    y, eta = _real("y", y), _real("eta", eta)
    theta_wrong = pseudo_true_limits(true_model, theta_star, y, eta)[wrong_model]
    edge = _edge(true_model, theta_star.w)
    p, c = order = _edge(wrong_model) or edge or (0, 1)  # S3 takes the true order, any with no edge
    try:
        truth = theta_star if edge in (None, order) else _reverse_edge(edge, theta_star)
        kl_obs = _kl_chain(truth, theta_wrong, p, c)
        m0, m1 = _interv_mean(true_model, theta_star, y), _interv_mean(wrong_model, theta_wrong, y)
        out = eta * kl_obs + (1.0 - eta) * kl_univariate(m0, theta_star.tau1_sq, m1, theta_wrong.tau1_sq)
    except BicausalError:  # the arguments are valid: a reversed variance or a KL term has left the floats
        out = math.nan
    if not math.isfinite(out):
        raise ArgumentOutOfDomain(f"KL mixture exponent cannot be evaluated at {theta_star!r}, y={y!r}, eta={eta!r}")
    return out


__all__ = [
    "RateInput", "RateId", "RateCurve", "d12", "d21", "d13", "d23", "obs_kl_s1_vs_s3",
    "mixing_helps_s1", "optimal_eta", "sample_curve", "gain_transform", "pseudo_true_limits",
    "nonident_posterior_limit", "kl_centered_bivariate", "kl_univariate", "kl_mixture_exponent",
]
