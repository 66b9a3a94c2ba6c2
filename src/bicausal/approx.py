"""Laplace-approximated marginals, Fisher/Hessian machinery, and the
tensor-quadrature evidence oracle.

Parameter ordering is uniformly ``(w, tau1_sq, tau2_sq)`` for the connected
structures and ``(tau1_sq, tau2_sq)`` for ``S3``, for both Fisher information
matrices and Hessians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    DegenerateData,
    InvalidParameter,
    NonConcaveAtMle,
    NonConvergedQuadrature,
    NumericalDegeneracy,
)
from .estimation import SuffStats, loglik, mle_mixed
from .priors import BgeHyper
from .sem import _LOG_2PI, InterventionSpec, Params, Structure, param_dim


class Regime(Enum):
    OBSERVATIONAL = "observational"
    INTERVENTIONAL = "interventional"


def fisher(
    s: Structure,
    theta: Params,
    regime: Regime,
    iv: InterventionSpec | None = None,
) -> np.ndarray:
    """Expected information of one sample of the given regime at ``theta``,
    as a diagonal matrix (the parameters are orthogonal in this model).

    Interventional blocks are singular: the regime carries no information
    about parameters that do not enter the post-intervention law (the edge
    weight and node-2 variance under ``S2``/``S3``, node-2 variance under
    ``S1``).
    """
    t1, t2 = theta.tau1_sq, theta.tau2_sq
    i1 = 0.5 / (t1 * t1)
    i2 = 0.5 / (t2 * t2)
    if regime is Regime.INTERVENTIONAL:
        if iv is None:
            raise InvalidParameter("interventional regime requires an InterventionSpec")
        y = iv.value
        if s is Structure.S1:
            diag = (y * y / t1, i1, 0.0)
        elif s is Structure.S2:
            diag = (0.0, i1, 0.0)
        else:
            diag = (i1, 0.0)
    else:
        if s is Structure.S1:
            diag = (t2 / t1, i1, i2)
        elif s is Structure.S2:
            diag = (t1 / t2, i1, i2)
        else:
            diag = (i1, i2)
    return np.diag(diag)


def mixed_fisher(
    s: Structure, theta: Params, eta: float, iv: InterventionSpec | None = None
) -> np.ndarray:
    """``eta``-weighted per-sample information ``eta*I_obs + (1-eta)*I_int``.

    With ``eta = 1`` the interventional block (and ``iv``) is not needed.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameter(f"eta must lie in [0, 1], got {eta!r}")
    fx = fisher(s, theta, Regime.OBSERVATIONAL)
    if eta == 1.0:
        return fx
    fy = fisher(s, theta, Regime.INTERVENTIONAL, iv)
    return eta * fx + (1.0 - eta) * fy


def loglik_hessian(st: SuffStats, s: Structure, theta: Params) -> np.ndarray:
    """Exact Hessian of the mixed-data log-likelihood at ``theta``.

    Cross terms between the weight and its child variance vanish at the MLE
    but are included so the Hessian is correct at any ``theta``.
    """
    n, m = st.n, st.m
    w, t1, t2 = theta.w, theta.tau1_sq, theta.tau2_sq
    if s is Structure.S1:
        a = st.s1x + st.s1y
        b = st.s12x + st.s12y
        c = st.s2x + st.s2y
        quad = a - 2.0 * w * b + w * w * c
        h = np.zeros((3, 3))
        h[0, 0] = -c / t1
        h[0, 1] = h[1, 0] = -(b - w * c) / (t1 * t1)
        h[1, 1] = 0.5 * (n + m) / (t1 * t1) - quad / (t1 * t1 * t1)
        h[2, 2] = 0.5 * n / (t2 * t2) - st.s2x / (t2 * t2 * t2)
        return h
    if s is Structure.S2:
        quad = st.s2x - 2.0 * w * st.s12x + w * w * st.s1x
        h = np.zeros((3, 3))
        h[0, 0] = -st.s1x / t2
        h[0, 2] = h[2, 0] = -(st.s12x - w * st.s1x) / (t2 * t2)
        h[1, 1] = 0.5 * (n + m) / (t1 * t1) - (st.s1x + st.s1y) / (t1 * t1 * t1)
        h[2, 2] = 0.5 * n / (t2 * t2) - quad / (t2 * t2 * t2)
        return h
    h = np.zeros((2, 2))
    h[0, 0] = 0.5 * (n + m) / (t1 * t1) - (st.s1x + st.s1y) / (t1 * t1 * t1)
    h[1, 1] = 0.5 * n / (t2 * t2) - st.s2x / (t2 * t2 * t2)
    return h


@dataclass(frozen=True)
class HessianReport:
    """Diagnostic report on the log-likelihood Hessian at a point."""

    structure: Structure
    matrix: np.ndarray
    eigenvalues: np.ndarray
    determinant: float
    negative_definite: bool


def hessian_diagnostics(st: SuffStats, s: Structure, theta: Params) -> HessianReport:
    """Evaluate the analytic Hessian at ``theta`` and report eigenvalue signs.

    This is the runtime check behind the Laplace expansion's concavity
    requirement; it reports rather than raises.
    """
    h = loglik_hessian(st, s, theta)
    eig = np.linalg.eigvalsh(h)
    return HessianReport(
        structure=s,
        matrix=h,
        eigenvalues=eig,
        determinant=float(np.linalg.det(h)),
        negative_definite=bool(np.all(eig < 0.0)),
    )


def laplace_log_marginal(
    st: SuffStats,
    s: Structure,
    prior_logpdf_fn: Callable[[Params], float],
    mle: Params,
) -> float:
    """Second-order evidence approximation around the MLE.

    ``loglik(mle) + (d/2)*log(2*pi) - (1/2)*log det(-H(mle)) + log prior(mle)``
    with the exact analytic Hessian ``H`` assembled from both data regimes.
    The error is ``O(1/N)``. Raises :class:`NonConcaveAtMle` when ``-H`` is
    not positive definite.
    """
    h = loglik_hessian(st, s, mle)
    neg = -h
    eig = np.linalg.eigvalsh(neg)
    if np.any(eig <= 0.0):
        raise NonConcaveAtMle(
            f"Hessian not negative definite at the supplied MLE for {s.value} "
            f"(eigenvalues of -H: {eig})"
        )
    _, logdet = np.linalg.slogdet(neg)
    d = param_dim(s)
    return loglik(st, s, mle) + 0.5 * d * _LOG_2PI - 0.5 * float(logdet) + prior_logpdf_fn(mle)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

_MAX_DATA_FOR_QUADRATURE = 64
_LOG_WINDOW = 12.0
_BOUNDARY_MASS = 1e-10
_NODE_LADDER = (64, 96, 144, 216, 324, 486, 729)


def _gl_nodes(k: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(k)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid + half * x, half * w


def _log_integral_1d(
    logf: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, k: int
) -> tuple[float, float]:
    """log of integral(exp(logf)) on [lo, hi] plus the max boundary log-height."""
    u, w = _gl_nodes(k, lo, hi)
    lf = logf(u)
    peak = float(np.max(lf))
    total = float(np.sum(w * np.exp(lf - peak)))
    edge = max(float(logf(np.array([lo]))[0]), float(logf(np.array([hi]))[0])) - peak
    return peak + math.log(total), edge


def _refine_1d(logf: Callable[[np.ndarray], np.ndarray], center: float) -> float:
    """Adaptive GL integration of exp(logf) over log-variance space."""
    lo, hi = center - _LOG_WINDOW, center + _LOG_WINDOW
    log_edge_tol = math.log(_BOUNDARY_MASS)
    for _ in range(8):
        _, edge = _log_integral_1d(logf, lo, hi, 48)
        if edge < log_edge_tol:
            break
        lo -= 6.0
        hi += 6.0
    prev = None
    for k in _NODE_LADDER:
        val, _ = _log_integral_1d(logf, lo, hi, k)
        if prev is not None and abs(val - prev) < 1e-6:
            return val
        prev = val
    raise NonConvergedQuadrature(
        f"1d refinement stalled at {_NODE_LADDER[-1]} nodes (last value {prev!r})"
    )


def _quadrature_centers(
    st: SuffStats, s: Structure, fallback: tuple[float, float]
) -> tuple[float, float]:
    """Centers for the log-variance grids: the log MLE variances when the MLE
    exists, the caller's ``fallback`` otherwise."""
    if st.n < 2:
        return fallback
    try:
        hat = mle_mixed(st).for_structure(s)
    except DegenerateData:
        return fallback
    return math.log(hat.tau1_sq), math.log(hat.tau2_sq)


def quadrature_log_marginal(st: SuffStats, s: Structure, h: BgeHyper) -> float:
    """Brute-force log evidence under the hierarchical prior.

    The weight is integrated in closed form (it is Gaussian given the
    variances); the two variances are integrated numerically on tensor
    Gauss-Legendre grids in log space, refined until successive levels agree
    to 1e-6. Guarded to small datasets (``n + m <= 64``); this is an oracle,
    not a production path.
    """
    if st.total > _MAX_DATA_FOR_QUADRATURE:
        raise InvalidParameter(
            f"quadrature oracle limited to n + m <= {_MAX_DATA_FOR_QUADRATURE}, "
            f"got {st.total}"
        )
    n, m = st.n, st.m
    a1, a2 = h.alphas_for(s)

    if s is Structure.S1:
        aa = st.s1x + st.s1y
        bb = st.s12x + st.s12y
        cc = (st.s2x + st.s2y) + 1.0 / h.lam
        quad1 = aa - bb * bb / cc
        quad2 = st.s2x
        const = -0.5 * math.log(h.lam * cc)
        n1, n2 = n + m, n
    elif s is Structure.S2:
        s1lam = st.s1x + 1.0 / h.lam
        quad1 = st.s1x + st.s1y
        quad2 = st.s2x - st.s12x ** 2 / s1lam
        const = -0.5 * math.log(h.lam * s1lam)
        n1, n2 = n + m, n
    else:
        quad1 = st.s1x + st.s1y
        quad2 = st.s2x
        const = 0.0
        n1, n2 = n + m, n
    if quad1 < 0.0 or quad2 < 0.0:
        raise NumericalDegeneracy("negative residual quadratic form in quadrature oracle")

    def make_logf(quad: float, cnt: int, shape: float):
        def logf(u: np.ndarray) -> np.ndarray:
            t = np.exp(u)
            # likelihood block + IG prior + log-space Jacobian
            return (
                -0.5 * cnt * u
                - quad / (2.0 * t)
                + shape * math.log(h.beta)
                - math.lgamma(shape)
                - (shape + 1.0) * u
                - h.beta / t
                + u
            )

        return logf

    # fallback: the modes of the log-variance priors
    c1, c2 = _quadrature_centers(
        st, s, (math.log(h.beta / (a1 + 1.0)), math.log(h.beta / (a2 + 1.0)))
    )
    log_i1 = _refine_1d(make_logf(quad1, n1, a1), c1)
    log_i2 = _refine_1d(make_logf(quad2, n2, a2), c2)
    return -(n + 0.5 * m) * _LOG_2PI + const + log_i1 + log_i2


def quadrature_log_marginal_generic(
    st: SuffStats,
    s: Structure,
    prior_logpdf_fn: Callable[[Params], float],
    w_window: tuple[float, float] = (-20.0, 20.0),
    nodes: int = 96,
    w_nodes: int = 48,
) -> float:
    """Full tensor quadrature over ``(w, log tau1_sq, log tau2_sq)``.

    Non-conjugate fallback: the prior enters only through a log-density
    callback. The weight integral uses a per-cell window standardized by the
    likelihood curvature (clipped to ``w_window``), so it is accurate when
    the data meaningfully inform the weight; with very weak data the caller
    must supply an adequate ``w_window``. Slower and coarser than
    :func:`quadrature_log_marginal`.
    """
    if st.total > _MAX_DATA_FOR_QUADRATURE:
        raise InvalidParameter("generic quadrature limited to n + m <= 64")
    if s is Structure.S1:
        w_moment = st.s2x + st.s2y
        w_center = (st.s12x + st.s12y) / w_moment if w_moment > 0.0 else 0.0
    elif s is Structure.S2:
        w_moment = st.s1x
        w_center = st.s12x / w_moment if w_moment > 0.0 else 0.0
    else:
        w_moment = 0.0
        w_center = 0.0

    c1, c2 = _quadrature_centers(st, s, (0.0, 0.0))
    u1, wu1 = _gl_nodes(nodes, c1 - _LOG_WINDOW, c1 + _LOG_WINDOW)
    u2, wu2 = _gl_nodes(nodes, c2 - _LOG_WINDOW, c2 + _LOG_WINDOW)

    peak = -math.inf
    cells = []
    for j, a in enumerate(u1):
        t1 = math.exp(a)
        for k, b in enumerate(u2):
            t2 = math.exp(b)
            if s is Structure.S3:
                theta = Params(0.0, t1, t2)
                lv = loglik(st, s, theta) + prior_logpdf_fn(theta) + a + b
                cells.append((wu1[j] * wu2[k], lv))
                peak = max(peak, lv)
                continue
            t_child = t1 if s is Structure.S1 else t2
            lo, hi = w_window
            if w_moment > 0.0:
                half = 12.0 * math.sqrt(t_child / w_moment)
                lo = max(lo, w_center - half)
                hi = min(hi, w_center + half)
                if not lo < hi:
                    lo, hi = w_window
            wg, ww = _gl_nodes(w_nodes, lo, hi)
            lw = np.array(
                [
                    loglik(st, s, Params(float(w), t1, t2))
                    + prior_logpdf_fn(Params(float(w), t1, t2))
                    for w in wg
                ]
            )
            m = float(np.max(lw))
            inner = float(np.sum(ww * np.exp(lw - m)))
            if inner > 0.0:
                lv = m + math.log(inner) + a + b
                cells.append((wu1[j] * wu2[k], lv))
                peak = max(peak, lv)
    total = 0.0
    for weight, lv in cells:
        total += weight * math.exp(lv - peak)
    return peak + math.log(total)
