"""Laplace-approximated marginals, Fisher/Hessian machinery, and the
tensor-quadrature evidence oracle.

Parameter ordering is uniformly ``(w, tau1_sq, tau2_sq)`` for the connected
structures and ``(tau1_sq, tau2_sq)`` for ``S3``, for both Fisher information
matrices and Hessians.
"""

from __future__ import annotations

import functools
import math
import sys
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
from .estimation import Factor, SuffStats, _loglik, loglik, mle_mixed
from .priors import BgeHyper
from .sem import (
    _LOG_2PI,
    InterventionSpec,
    Params,
    Structure,
    _edge,
    _node1_is_child,
    _trusted_params,
    param_dim,
)


class Regime(Enum):
    OBSERVATIONAL = "observational"
    INTERVENTIONAL = "interventional"


def fisher(
    s: Structure,
    theta: Params,
    regime: Regime,
    iv: InterventionSpec | None = None,
) -> np.ndarray:
    """Expected information of one sample of the given regime at ``theta``:
    :func:`mixed_fisher` at ``eta = 1`` or, for the singular interventional
    block, at ``eta = 0``."""
    return mixed_fisher(s, theta, 1.0 if regime is Regime.OBSERVATIONAL else 0.0, iv)


def mixed_fisher(
    s: Structure, theta: Params, eta: float, iv: InterventionSpec | None = None
) -> np.ndarray:
    """``eta``-weighted per-sample information ``eta*I_obs + (1-eta)*I_int``,
    a diagonal matrix (the parameters are orthogonal in this model).

    The intervention fixes node 2, so only observational rows inform its
    variance and, except under ``S1``, the weight; with ``eta = 1`` ``iv`` is
    not needed. An entry that is not a finite float (a variance below about
    5e-155, or a weight entry that overflows) raises
    :class:`NumericalDegeneracy`.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameter(f"eta must lie in [0, 1], got {eta!r}")
    if eta < 1.0 and iv is None:
        raise InvalidParameter("interventional regime requires an InterventionSpec")
    edge, tau = _edge(s), np.array([theta.tau1_sq, theta.tau2_sq])
    with np.errstate(divide="ignore", over="ignore"):  # a non-finite entry is refused below
        v1, v2 = 0.5 / (tau * tau)
        # a regime with no rows adds exactly nothing, even a term that is not finite
        info = {"tau1_sq": v1, "tau2_sq": eta * v2 if eta > 0.0 else 0.0}
        if edge is not None:
            w = eta * (tau[edge[0]] / tau[edge[1]]) if eta > 0.0 else 0.0
            if eta < 1.0 and _node1_is_child(edge):
                w += (1.0 - eta) * (iv.value * iv.value / tau[0])
            info = {"w": w, **info}
    for name, v in info.items():
        if not math.isfinite(v):
            raise NumericalDegeneracy(f"information under {s.value} is not finite: its {name} entry at {theta!r}")
    return np.diag(list(info.values()))


def loglik_hessian(st: SuffStats, s: Structure, theta: Params) -> np.ndarray:
    """Exact Hessian of the mixed-data log-likelihood at ``theta``.

    Cross terms between the weight and its child variance vanish at the MLE
    but are included so the Hessian is correct at any ``theta``. A variance
    whose cube underflows to 0 (below about 1.4e-108) or overflows (above
    about 5.6e102), or an entry that overflows, raises
    :class:`NumericalDegeneracy`: the curvature is not a float.
    """
    w = theta.w
    d = param_dim(s)
    h = np.zeros((d, d))
    variances = zip(st.factors[s], (theta.tau1_sq, theta.tau2_sq), ("tau1_sq", "tau2_sq"))
    for i, (f, t, name) in enumerate(variances, start=d - 2):
        cube = t * t * t
        if cube == 0.0 or cube == math.inf:
            raise NumericalDegeneracy(f"Hessian under {s.value} undefined: {name} = {t!r} cubes to {cube:g}")
        h[i, i] = 0.5 * f.count / (t * t) - f.residual(w) / (t * t * t)
        if f.has_parent:
            h[0, 0] = -f.xx / t
            h[0, i] = h[i, 0] = -(f.xy - w * f.xx) / (t * t)
    if not np.isfinite(h).all():
        raise NumericalDegeneracy(f"Hessian under {s.value} overflows at {theta!r}")
    return h


@dataclass(frozen=True)
class HessianReport:
    """Diagnostic report on the log-likelihood Hessian at a point."""

    structure: Structure
    matrix: np.ndarray
    eigenvalues: np.ndarray
    determinant: float
    negative_definite: bool


def _neg_logdet(h: np.ndarray) -> float | None:
    """``log det(-h)`` from the Cholesky factor of ``-h``, or None where ``-h``
    is not positive definite: unlike eigenvalues, which resolve only to about
    ``eps*||h||``, the factor decides definiteness at any parameter scaling."""
    try:
        chol = np.linalg.cholesky(-h)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(np.sum(np.log(np.diagonal(chol))))


def hessian_diagnostics(st: SuffStats, s: Structure, theta: Params) -> HessianReport:
    """Evaluate the analytic Hessian at ``theta``, its eigenvalues, and the
    Laplace route's test of negative definiteness.

    This is the runtime check behind the Laplace expansion's concavity
    requirement; it reports a Hessian that is not negative definite rather
    than raising. A determinant that overflows raises
    :class:`NumericalDegeneracy`.
    """
    h = loglik_hessian(st, s, theta)
    with np.errstate(over="ignore"):
        det = float(np.linalg.det(h))
    if not math.isfinite(det):
        raise NumericalDegeneracy(f"Hessian determinant under {s.value} overflows at {theta!r}")
    return HessianReport(
        structure=s,
        matrix=h,
        eigenvalues=np.linalg.eigvalsh(h),
        determinant=det,
        negative_definite=_neg_logdet(h) is not None,
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
    not positive definite, and :class:`NumericalDegeneracy` when an entry of
    ``H`` is not a float (see :func:`loglik_hessian`).
    """
    h = loglik_hessian(st, s, mle)
    logdet = _neg_logdet(h)
    if logdet is None:
        raise NonConcaveAtMle(
            f"Hessian not negative definite at the supplied MLE for {s.value} "
            f"(eigenvalues of -H: {np.linalg.eigvalsh(-h)})"
        )
    d = param_dim(s)
    log_prior = prior_logpdf_fn(mle)
    if not log_prior < math.inf:
        raise _bad_prior(mle, log_prior)
    return loglik(st, s, mle) + 0.5 * d * _LOG_2PI - 0.5 * logdet + log_prior


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

_LOG_WINDOW = 12.0
_MAX_LOG_VARIANCE = math.log(np.finfo(float).max)  # exp of anything beyond is inf or 0
_MAX_LOG_CENTER = _MAX_LOG_VARIANCE - _LOG_WINDOW  # leaves room for the nodes around a centre
_BOUNDARY_MASS = 1e-10
_NODE_LADDER = (64, 96, 144, 216, 324, 486, 729)
_HERMITE_LADDER = (16, 24, 32, 48)
_DIFF_STEP = 1e-4
_NEWTON_STEPS = 16
_MAX_NEWTON_STEP = 4.0
_LINE_FRACTIONS = 0.5 ** np.arange(16.0)
_MODE_TOLERANCE = 1e-4


@functools.lru_cache(maxsize=None)
def _gl_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k``-point Gauss-Legendre nodes and weights on [-1, 1], built once
    per ``k`` (a handful of ``k`` occur) and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(k)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=None)
def _gh_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k``-point Gauss-Hermite rule for a plain integral, built once
    per ``k`` and shared read-only: nodes ``z = sqrt(2)*x`` and log-weights
    ``log(sqrt(2)*w) + x^2`` from ``hermgauss``, so that
    ``sum(exp(lw) * f(z))`` integrates ``f`` over the line, exactly for
    ``f = exp(-z^2/2)`` times a polynomial of degree below ``2k``."""
    x, w = np.polynomial.hermite.hermgauss(k)
    z = math.sqrt(2.0) * x
    lw = np.log(w) + x * x + 0.5 * math.log(2.0)
    z.flags.writeable = False
    lw.flags.writeable = False
    return z, lw


def _weight_collapsed(f: Factor, lam: float) -> tuple[float, float]:
    """(residual quadratic form, log normalizer) of a factor with its
    ``N(0, lam * tau_child_sq)`` weight integrated out; ``(yy, 0)`` for a root.

    On collinear rows the form is 0 in exact arithmetic and can round below
    it; a negative form within a few ulp of ``yy`` is taken as 0."""
    if not f.has_parent:
        return f.yy, 0.0
    xx_lam = f.xx + 1.0 / lam
    quad = f.yy - f.xy * f.xy / xx_lam
    if -4.0 * math.ulp(f.yy) <= quad < 0.0:
        quad = 0.0
    return quad, -0.5 * (math.log(lam) + math.log(xx_lam))  # lam * xx_lam can overflow


@functools.lru_cache(maxsize=1024)
def _log_axis_integral(k: float, half: float, ladder: tuple[int, ...]) -> tuple[str, float]:
    """The outcome of integrating ``exp(-k*(d + expm1(-d)))`` over ``d``, by
    Gauss-Legendre rules on ``[-half, half]``, ``half = 12*min(1, k^(-1/2))``
    (12 standard deviations of the curvature ``k``, at most 12):
    ``("value", log integral)``, ``("window", half)`` for a window that keeps
    boundary mass after 8 widenings, or ``("stalled", last level)``.

    The integrand is at most 1, and 1 only at ``d = 0``, so the window test
    needs no nodes: the window widens by 6 while an edge value reaches
    ``_BOUNDARY_MASS``, at most 8 times. The value is the first level of
    ``ladder`` within 1e-6 of the one before, each level the ``math.fsum``
    of its node terms (correctly rounded, so no BLAS kernel shows in the
    bits). The outcome depends on ``k`` alone (``half`` is a function of
    it), so it is memoised: a pass over many datasets of a few shapes
    integrates each distinct ``k`` once.
    """
    widenings = 0
    while not max(-k * (d + math.expm1(-d)) for d in (-half, half)) < math.log(_BOUNDARY_MASS):
        if widenings == 8:
            return "window", half
        half += 6.0
        widenings += 1
    prev = math.inf
    for nodes in ladder:
        x, w = _gl_rule(nodes)
        d = half * x
        level = math.log(half * math.fsum((np.exp(-k * (d + np.expm1(-d))) * w).tolist()))
        if abs(level - prev) < 1e-6:
            return "value", level
        prev = level
    return "stalled", prev


def quadrature_log_marginal(st: SuffStats, s: Structure, h: BgeHyper) -> float:
    """Brute-force log evidence under the hierarchical prior.

    The weight is integrated in closed form (it is Gaussian given the
    variances); the two variances are integrated numerically on
    Gauss-Legendre rules in log space, refined until successive levels agree
    to 1e-6. With ``k = count/2 + shape`` and ``B = quad/2 + beta``, each
    axis integrand is ``exp(-k*u - B*exp(-u))``, with its mode at ``log(B/k)``;
    relative to the mode, ``d = u - log(B/k)``, its log is the constant
    ``shape*log(beta) - lgamma(shape) - k*log(B/k) - k`` plus
    ``-k*(d + expm1(-d))``, which is at most 0 and does not cancel at large
    shapes. Its integral depends on ``k`` alone and is memoised per ``k``
    (``_log_axis_integral``): datasets of one size under one prior share it.
    The axes run in node order; the first that fails raises.
    """
    f1, f2 = st.factors[s]
    (quad1, const1), (quad2, const2) = (_weight_collapsed(f, h.lam) for f in (f1, f2))
    if quad1 < 0.0 or quad2 < 0.0:
        raise NumericalDegeneracy("negative residual quadratic form in quadrature oracle")
    total = 0.0
    for f, quad, shape in zip((f1, f2), (quad1, quad2), h.alphas_for(s)):
        k = 0.5 * f.count + shape
        mode = math.log(0.5 * quad + h.beta) - math.log(k)
        offset = shape * math.log(h.beta) - math.lgamma(shape) - k * mode - k
        half = _LOG_WINDOW * min(1.0, k**-0.5)
        # d + expm1(-d) is about d*d/2, left over from terms of size d: within
        # a few ulp of d at the window's edge, the integrand is rounding noise.
        # The mode is inf where quad/2 + beta overflows.
        if not (half * half > 4.0 * math.ulp(half) and mode < math.inf):
            raise NonConvergedQuadrature(f"1d window of half-width {half!r} at {mode!r} is below the float resolution")
        kind, value = _log_axis_integral(k, half, _NODE_LADDER)
        if kind == "window":
            raise NonConvergedQuadrature(
                f"1d window [{mode - value!r}, {mode + value!r}] keeps boundary mass after 8 widenings"
            )
        if kind == "stalled":
            raise NonConvergedQuadrature(f"1d refinement stalled at {_NODE_LADDER[-1]} nodes (last value {offset + value!r})")
        total += offset + value
    return -(st.n + 0.5 * st.m) * _LOG_2PI + const1 + const2 + total


def _mode_start(st: SuffStats, s: Structure) -> tuple[float, float]:
    """Where the generic oracle's mode search starts: the log MLE variances,
    or 0 for data with no MLE."""
    try:
        hat = mle_mixed(st).for_structure(s)
    except DegenerateData:
        return 0.0, 0.0
    return math.log(hat.tau1_sq), math.log(hat.tau2_sq)


def _log_target(
    st: SuffStats, s: Structure, prior_logpdf_fn: Callable[[Params], float]
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """The generic oracle's integrand, as ``(log_target, const)``.

    ``log_target(y)`` takes an array whose first axis holds the coordinates
    ``(u1, u2, v)`` (``(u1, u2)`` under ``S3``) of a block of nodes, with
    ``u = log tau_sq`` and the weight non-centred,
    ``w = w_hat + sqrt(tau_child_sq / xx) * v``, where ``w_hat = xy/xx``
    of the child's factor (``xx = 1``, ``w_hat = 0`` when ``xx`` is 0 or
    subnormal, or ``w_hat`` overflows). It returns the log of likelihood
    times prior times ``exp(u1 + u2 + u_child/2)`` at each node, calling the
    prior once per node in C order. ``const = -log(xx)/2`` completes the Jacobian. In these
    coordinates the likelihood of ``v`` is a unit Gaussian at every
    variance: there is no funnel between the weight and its child's
    variance.

    A node whose log-variance lies beyond ``+-log(max float)`` raises
    :class:`InvalidParameter` before any call in its block; a NaN or ``+inf``
    prior raises :class:`InvalidParameter` naming the node.
    """
    factors = st.factors[s]
    child = next((i for i, f in enumerate(factors) if f.has_parent), None)
    xx, w_hat = 1.0, 0.0
    if child is not None:
        f = factors[child]
        # a subnormal xx would overflow 1/sqrt(xx)
        if f.xx >= sys.float_info.min and math.isfinite(f.xy / f.xx):
            xx, w_hat = f.xx, f.xy / f.xx
    r = 1.0 / math.sqrt(xx)  # sqrt(tau/xx) as sqrt(tau) * r: never above the largest float

    def log_target(y: np.ndarray) -> np.ndarray:
        u1, u2 = y[0], y[1]
        reach = float(np.max(np.abs(y[:2])))
        if not reach < _MAX_LOG_VARIANCE:
            raise InvalidParameter(
                f"log-variance nodes reach +-{reach!r}, beyond +-{_MAX_LOG_VARIANCE:.1f}: their variances overflow"
            )
        t1, t2 = (np.array([math.exp(a) for a in u.ravel().tolist()]).reshape(u.shape) for u in (u1, u2))
        if child is None:
            w, jac = np.zeros(u1.shape), u1 + u2
        else:
            w = w_hat + np.sqrt((t1, t2)[child]) * r * y[2]
            jac = u1 + u2 + 0.5 * y[child]
        nodes = list(zip(w.ravel().tolist(), t1.ravel().tolist(), t2.ravel().tolist()))
        prior = np.array([prior_logpdf_fn(_trusted_params(*node)) for node in nodes]).reshape(u1.shape)
        bad = ~(prior < math.inf)  # NaN or +inf
        if bad.any():
            i = int(np.argmax(bad.ravel()))
            raise _bad_prior(Params(*nodes[i]), prior.ravel()[i])
        with np.errstate(over="ignore", invalid="ignore"):
            return _loglik(st, s, w, t1, t2, u1, u2) + prior + jac

    return log_target, -0.5 * math.log(xx)


def _newton_direction(
    log_target: Callable[[np.ndarray], np.ndarray], y: np.ndarray, fy: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(gradient, chol)`` of ``log_target`` at ``y`` by central differences
    of step ``_DIFF_STEP``, one block of ``2d + 2d(d-1)`` nodes, with
    ``chol`` the lower Cholesky factor of the inverse negative curvature. A
    gradient that is not finite reads zero; a curvature that is not finite,
    or not negative definite, gives ``None``."""
    d, h = y.size, _DIFF_STEP
    e = h * np.eye(d)
    pairs = [(i, j) for i in range(d) for j in range(i)]
    cols = [y + e[i] for i in range(d)] + [y - e[i] for i in range(d)]
    for i, j in pairs:
        cols += [y + e[i] + e[j], y + e[i] - e[j], y - e[i] + e[j], y - e[i] - e[j]]
    f = log_target(np.array(cols).T)
    with np.errstate(invalid="ignore"):  # -inf - -inf where a node has no mass
        grad = (f[:d] - f[d : 2 * d]) / (2.0 * h)
        hess = np.diag((f[:d] - 2.0 * fy + f[d : 2 * d]) / (h * h))
        for (i, j), (pp, pm, mp, mm) in zip(pairs, f[2 * d :].reshape(-1, 4)):
            hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
    if not np.isfinite(grad).all():
        grad = np.zeros(d)
    if np.isfinite(hess).all():
        try:
            return grad, np.linalg.cholesky(np.linalg.inv(-hess))
        except np.linalg.LinAlgError:
            pass
    return grad, None


def _mode_and_scale(
    log_target: Callable[[np.ndarray], np.ndarray], start: tuple[float, float], dim: int, strict: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The mode of ``log_target`` over ``dim`` coordinates by damped Newton,
    and the lower Cholesky factor of the inverse negative curvature there.

    The search makes the same calls for any data: the two starts ``(*start,
    0)`` and the origin (an MLE can sit far from the mass: a residual
    variance of 1e-16 on collinear rows), then ``_NEWTON_STEPS`` steps from
    the higher one, each one block of differences (``_newton_direction``)
    and one block of trial points at ``_LINE_FRACTIONS`` of the Newton step,
    capped at ``_MAX_NEWTON_STEP`` per coordinate, moving to the highest
    trial that rises; then the differences at the last point. A step with
    no negative-definite curvature moves along the last factor found (the
    identity before any). The search has settled when the last point has
    negative-definite curvature, and either the last step found no rise (the
    mode, as far as the differences resolve it, a kink's too) or the Newton
    step there is below ``_MODE_TOLERANCE`` per coordinate. Unsettled,
    ``strict`` raises :class:`NonConvergedQuadrature`; otherwise the last
    point and factor stand. No mass at either start raises it always.
    """
    starts = np.zeros((dim, 2))
    starts[:2, 0] = start
    f = log_target(starts)
    best = int(np.argmax(f))
    y, fy = starts[:, best], float(f[best])
    if not fy > -math.inf:
        raise NonConvergedQuadrature(
            f"generic quadrature: no prior-times-likelihood mass at the search's starts {starts.T.tolist()!r}"
        )
    chol = np.eye(dim)
    for i in range(_NEWTON_STEPS + 1):
        grad, local = _newton_direction(log_target, y, fy)
        if local is not None:
            chol = local
        step = chol @ (chol.T @ grad)
        size = float(np.max(np.abs(step)))
        if i == _NEWTON_STEPS:
            break
        step *= _MAX_NEWTON_STEP / max(size, _MAX_NEWTON_STEP)
        trials = y[:, None] + step[:, None] * _LINE_FRACTIONS
        ft = log_target(trials)
        ft[np.isnan(ft)] = -math.inf
        j = int(np.argmax(ft))
        moved = ft[j] > fy
        if moved:
            y, fy = trials[:, j], float(ft[j])
    if strict and local is None:
        raise NonConvergedQuadrature(f"generic quadrature: no negative-definite curvature at {y.tolist()!r}")
    if strict and moved and not size < _MODE_TOLERANCE:
        raise NonConvergedQuadrature(
            f"generic quadrature: mode search unsettled after {_NEWTON_STEPS} Newton steps (last step {size!r})"
        )
    return y, chol


def _hermite_level(
    log_target: Callable[[np.ndarray], np.ndarray], centre: np.ndarray, chol: np.ndarray, k: int, kw: int
) -> float:
    """log of the tensor Gauss-Hermite sum with ``k`` nodes on each
    log-variance axis and ``kw`` on the weight's, mapped through ``centre +
    chol @ z``. One outer node (one slab of ``k * kw`` nodes) is evaluated
    at a time, and the slabs are combined by log-sum-exp."""
    (z1, lw1), *inner = [_gh_rule(k), _gh_rule(k), _gh_rule(kw)][: centre.size]
    grids = np.meshgrid(*[z for z, _ in inner], indexing="ij")
    inner_lw = functools.reduce(np.add.outer, [lw for _, lw in inner])
    slabs = []
    for zi, lwi in zip(z1.tolist(), lw1.tolist()):
        z = [np.full(grids[0].shape, zi), *grids]
        # chol is lower triangular: coordinate r reads z[0..r], summed in order
        y = []
        for r in range(centre.size):
            acc = centre[r]
            for j in range(r + 1):
                acc = acc + chol[r, j] * z[j]
            y.append(acc)
        lg = np.ravel(log_target(np.array(y)) + (lwi + inner_lw))
        peak = float(lg.max())
        slabs.append(peak + math.log(float(np.sum(np.exp(lg - peak)))) if peak > -math.inf else -math.inf)
    peak = max(slabs)
    if peak == -math.inf:
        raise NonConvergedQuadrature("generic quadrature rule carries no prior-times-likelihood mass")
    total = 0.0
    for lv in slabs:
        total += math.exp(lv - peak)
    return peak + math.log(total)


def quadrature_log_marginal_generic(
    st: SuffStats,
    s: Structure,
    prior_logpdf_fn: Callable[[Params], float],
    nodes: int | None = None,
    w_nodes: int | None = None,
) -> float:
    """Adaptive Gauss-Hermite quadrature over ``(log tau1_sq, log tau2_sq, v)``.

    Non-conjugate check of the closed form: the prior enters only through a
    log-density callback. The weight is non-centred, ``w = w_hat +
    sqrt(tau_child_sq/xx) * v`` with ``w_hat = xy/xx`` of the child's
    factor, so its likelihood is a unit Gaussian in ``v`` at every variance.
    A damped Newton search on central differences of the integrand finds
    its mode, starting from the higher of the log MLE variances (with
    ``v = 0``) and the origin, with a fixed number of steps and calls
    (``_mode_and_scale``); the tensor rule is centred there and scaled by
    the Cholesky factor of the inverse negative curvature (Naylor & Smith
    1982; Liu & Pierce 1994). By default the rule climbs ``k = 16, 24, 32,
    48`` nodes per axis until two successive levels agree to 1e-6, and
    raises :class:`NonConvergedQuadrature` with the last two values
    otherwise, or when the search has not settled at a point of
    negative-definite curvature. ``nodes`` (log-variance axes) and
    ``w_nodes`` (weight axis), when either is given, set one fixed level
    and no ladder; the other defaults to it. A fixed level takes the
    search's last point as it is, with the last negative-definite factor
    found (the identity if none): it has no convergence check.

    ``prior_logpdf_fn`` is called with a :class:`Params` of Python floats:
    first at the mode search's nodes, then at each level's nodes, outer
    ``tau1_sq`` node by node (in increasing ``tau1_sq``), then the
    ``tau2_sq`` axis, then the weight axis fastest (``w = 0`` under
    ``S3``). It returns a float. ``-inf`` gives a node no mass (a truncated
    prior); NaN or ``+inf`` raises :class:`InvalidParameter` naming the
    node; no mass at the search's starts, or a rule with no mass at all,
    raise :class:`NonConvergedQuadrature`. An MLE log-variance beyond
    ``+-_MAX_LOG_CENTER`` raises :class:`InvalidParameter` before any call,
    and so does a block of nodes whose variances would overflow, before its
    calls. A kinked or truncated prior's levels may not agree to 1e-6:
    there the ladder raises, and a fixed level integrates it unchecked.
    """
    start = _mode_start(st, s)
    if not max(abs(start[0]), abs(start[1])) < _MAX_LOG_CENTER:
        raise InvalidParameter(f"log-variances {start!r} beyond +-{_MAX_LOG_CENTER:.1f} overflow the grid")
    if nodes is None and w_nodes is None:
        levels = [(k, k) for k in _HERMITE_LADDER]
    else:
        k = nodes if nodes is not None else w_nodes
        levels = [(k, w_nodes if w_nodes is not None else k)]
    log_target, const = _log_target(st, s, prior_logpdf_fn)
    centre, chol = _mode_and_scale(log_target, start, param_dim(s), strict=len(levels) > 1)
    log_det = float(np.sum(np.log(np.diag(chol))))
    values = []
    for k, kw in levels:
        values.append(_hermite_level(log_target, centre, chol, k, kw) + log_det + const)
        if len(levels) == 1 or len(values) > 1 and abs(values[-1] - values[-2]) < 1e-6:
            return values[-1]
    raise NonConvergedQuadrature(
        f"generic quadrature stalled at {k} nodes per axis (last values {values[-2]!r}, {values[-1]!r})"
    )


def _bad_prior(theta: Params, value: float) -> InvalidParameter:
    return InvalidParameter(f"prior log-density is {'NaN' if math.isnan(value) else '+inf'} at {theta}")
