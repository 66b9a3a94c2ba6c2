"""Laplace-approximated marginals, Fisher/Hessian machinery, and the
tensor-quadrature evidence oracle.

Parameter ordering is uniformly ``(w, tau1_sq, tau2_sq)`` for the connected
structures and ``(tau1_sq, tau2_sq)`` for ``S3``, for both Fisher information
matrices and Hessians.
"""

from __future__ import annotations

import functools
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
from .estimation import Factor, SuffStats, loglik, mle_mixed
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
    w = theta.w
    d = param_dim(s)
    h = np.zeros((d, d))
    for i, (f, t) in enumerate(zip(st.factors[s], (theta.tau1_sq, theta.tau2_sq)), start=d - 2):
        h[i, i] = 0.5 * f.count / (t * t) - f.residual(w) / (t * t * t)
        if f.has_parent:
            h[0, 0] = -f.xx / t
            h[0, i] = h[i, 0] = -(f.xy - w * f.xx) / (t * t)
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


@functools.lru_cache(maxsize=None)
def _gl_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k``-point Gauss-Legendre nodes and weights on [-1, 1], built once
    per ``k`` (a handful of ``k`` occur) and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(k)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gl_nodes(k: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl_rule(k)
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
    edge = max(logf(np.array([lo, hi])).tolist()) - peak
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


def _weight_collapsed(f: Factor, lam: float) -> tuple[float, float]:
    """(residual quadratic form, log normalizer) of a factor with its
    ``N(0, lam * tau_child_sq)`` weight integrated out; ``(yy, 0)`` for a root."""
    if not f.has_parent:
        return f.yy, 0.0
    xx_lam = f.xx + 1.0 / lam
    return f.yy - f.xy * f.xy / xx_lam, -0.5 * math.log(lam * xx_lam)


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
    f1, f2 = st.factors[s]
    (quad1, const1), (quad2, const2) = (_weight_collapsed(f, h.lam) for f in (f1, f2))
    if quad1 < 0.0 or quad2 < 0.0:
        raise NumericalDegeneracy("negative residual quadratic form in quadrature oracle")
    const = const1 + const2

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

    a1, a2 = h.alphas_for(s)
    # fallback: the modes of the log-variance priors
    c1, c2 = _quadrature_centers(
        st, s, (math.log(h.beta / (a1 + 1.0)), math.log(h.beta / (a2 + 1.0)))
    )
    log_i1 = _refine_1d(make_logf(quad1, f1.count, a1), c1)
    log_i2 = _refine_1d(make_logf(quad2, f2.count, a2), c2)
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
    factors = st.factors[s]
    # the weight enters only its child's factor; S3 has none
    child = next((i for i, f in enumerate(factors) if f.has_parent), None)
    w_moment = 0.0 if child is None else factors[child].xx
    w_center = factors[child].xy / w_moment if w_moment > 0.0 else 0.0

    c1, c2 = _quadrature_centers(st, s, (0.0, 0.0))
    u1, wu1 = _gl_nodes(nodes, c1 - _LOG_WINDOW, c1 + _LOG_WINDOW)
    u2, wu2 = _gl_nodes(nodes, c2 - _LOG_WINDOW, c2 + _LOG_WINDOW)

    peak = -math.inf
    cells = []
    for j, a in enumerate(u1):
        t1 = math.exp(a)
        for k, b in enumerate(u2):
            t2 = math.exp(b)
            if child is None:
                theta = Params(0.0, t1, t2)
                lv = loglik(st, s, theta) + prior_logpdf_fn(theta) + a + b
                cells.append((wu1[j] * wu2[k], lv))
                peak = max(peak, lv)
                continue
            t_child = (t1, t2)[child]
            lo, hi = w_window
            if w_moment > 0.0:
                half = 12.0 * math.sqrt(t_child / w_moment)
                lo = max(lo, w_center - half)
                hi = min(hi, w_center + half)
                if not lo < hi:
                    lo, hi = w_window
            wg, ww = _gl_nodes(w_nodes, lo, hi)
            thetas = [Params(w, t1, t2) for w in wg.tolist()]
            lw = np.array([loglik(st, s, theta) + prior_logpdf_fn(theta) for theta in thetas])
            m = float(np.max(lw))
            inner = float(np.sum(ww * np.exp(lw - m)))
            if inner > 0.0:
                lv = m + math.log(inner) + a + b
                cells.append((wu1[j] * wu2[k], lv))
                peak = max(peak, lv)
    total = 0.0
    for weight, lv in cells:
        total += weight * math.exp(lv - peak)
    # the grid nodes are numpy scalars; return a float like the other routes
    return float(peak + math.log(total))
