"""Two-node linear Gaussian SEM with heteroscedastic noise.

Structures, parameters, the edge-reversal reparameterization, implied
observational and interventional Gaussian laws, log-densities, and seeded
samplers. Everything here is a pure function of its arguments.

Conventions
-----------
Nodes are indexed 1 and 2. The three candidate structures are

* ``S1``: edge 2 -> 1, i.e. ``x1 = w*x2 + e1``, ``x2 = e2``;
* ``S2``: edge 1 -> 2, i.e. ``x1 = e1``, ``x2 = w*x1 + e2``;
* ``S3``: no edge, ``x1 = e1``, ``x2 = e2``;

with independent centered Gaussian noise ``e1 ~ N(0, tau1_sq)`` and
``e2 ~ N(0, tau2_sq)``. Hard interventions fix node 2 to a constant,
severing its incoming edge; only node-2 interventions are modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameter

_LOG_2PI = math.log(2.0 * math.pi)


class Structure(str, Enum):
    """Identifier of one of the three candidate causal structures."""

    S1 = "S1"
    S2 = "S2"
    S3 = "S3"


#: All structures in canonical order.
STRUCTURES = (Structure.S1, Structure.S2, Structure.S3)


def param_dim(s: Structure) -> int:
    """Free-parameter count: 3 for the connected structures, 2 for ``S3``."""
    return 2 if s is Structure.S3 else 3


@dataclass(frozen=True)
class Params:
    """Edge weight and the two noise variances ``(w, tau1_sq, tau2_sq)``.

    Both variances must be strictly positive. ``w`` may be any real; pass
    ``w = 0`` for parameters attached to ``S3``.
    """

    w: float
    tau1_sq: float
    tau2_sq: float

    def __post_init__(self) -> None:
        for name in ("w", "tau1_sq", "tau2_sq"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidParameter(f"{name} must be finite, got {v!r}")
        if self.tau1_sq <= 0.0 or self.tau2_sq <= 0.0:
            raise InvalidParameter(
                f"noise variances must be positive, got "
                f"tau1_sq={self.tau1_sq!r}, tau2_sq={self.tau2_sq!r}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.tau1_sq, self.tau2_sq])


@dataclass(frozen=True)
class Cov2:
    """Symmetric positive definite 2x2 covariance matrix."""

    c11: float
    c12: float
    c22: float

    def __post_init__(self) -> None:
        if not (self.c11 > 0.0 and self.c11 * self.c22 - self.c12 ** 2 > 0.0):
            raise InvalidParameter(
                f"covariance not positive definite: "
                f"[[{self.c11}, {self.c12}], [{self.c12}, {self.c22}]]"
            )

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.c11, self.c12], [self.c12, self.c22]])


@dataclass(frozen=True)
class InterventionSpec:
    """A hard intervention fixing node ``target`` to ``value``.

    Only ``target = 2`` is modeled; node-1 interventions are rejected rather
    than silently symmetrized.
    """

    value: float
    target: int = 2

    def __post_init__(self) -> None:
        if self.target != 2:
            raise InvalidParameter(
                f"only interventions on node 2 are supported, got target={self.target}"
            )
        if not math.isfinite(self.value):
            raise InvalidParameter(f"intervention value must be finite, got {self.value!r}")


def gamma_map(theta: Params) -> Params:
    """Map ``S1`` parameters to the observationally equivalent ``S2`` parameters.

    With ``s = w^2*tau2_sq + tau1_sq`` the image is
    ``(w*tau2_sq/s, s, tau1_sq*tau2_sq/s)``. Since ``s >= tau1_sq > 0`` the
    division never degenerates. Fixes ``w = 0`` points up to swapping the
    variance roles.
    """
    s = theta.w * theta.w * theta.tau2_sq + theta.tau1_sq
    return Params(
        w=theta.w * theta.tau2_sq / s,
        tau1_sq=s,
        tau2_sq=theta.tau1_sq * theta.tau2_sq / s,
    )


def gamma_map_inverse(theta: Params) -> Params:
    """Map ``S2`` parameters to the observationally equivalent ``S1`` parameters.

    Exact inverse of :func:`gamma_map` (the same map with the variance slots
    swapped): with ``s = w^2*tau1_sq + tau2_sq`` the image is
    ``(w*tau1_sq/s, tau1_sq*tau2_sq/s, s)``.
    """
    s = theta.w * theta.w * theta.tau1_sq + theta.tau2_sq
    return Params(
        w=theta.w * theta.tau1_sq / s,
        tau1_sq=theta.tau1_sq * theta.tau2_sq / s,
        tau2_sq=s,
    )


def gamma_log_jacobian_det(theta: Params) -> float:
    """``log |det J|`` of :func:`gamma_map` at ``theta``.

    The determinant is ``tau2_sq / (w^2*tau2_sq + tau1_sq)``, always positive.
    """
    s = theta.w * theta.w * theta.tau2_sq + theta.tau1_sq
    return math.log(theta.tau2_sq) - math.log(s)


def implied_covariance(s: Structure, theta: Params) -> Cov2:
    """Covariance of the observational law under structure ``s``.

    ``S3`` requires ``w = 0``.
    """
    w, t1, t2 = theta.w, theta.tau1_sq, theta.tau2_sq
    if s is Structure.S1:
        return Cov2(c11=w * w * t2 + t1, c12=w * t2, c22=t2)
    if s is Structure.S2:
        return Cov2(c11=t1, c12=w * t1, c22=w * w * t1 + t2)
    if theta.w != 0.0:
        raise InvalidParameter(f"S3 requires w = 0, got w={theta.w!r}")
    return Cov2(c11=t1, c12=0.0, c22=t2)


def _norm_logpdf(x: float, var: float) -> float:
    return -0.5 * (_LOG_2PI + math.log(var)) - x * x / (2.0 * var)


def obs_logpdf(x: tuple[float, float], s: Structure, theta: Params) -> float:
    """Log-density of one observational sample ``x = (x1, x2)``.

    Evaluated in the factorized causal form (child given parent times parent
    marginal), which is numerically stable for strongly coupled parameters;
    it equals the centered bivariate Gaussian log-density with covariance
    :func:`implied_covariance`.
    """
    x1, x2 = float(x[0]), float(x[1])
    w, t1, t2 = theta.w, theta.tau1_sq, theta.tau2_sq
    if s is Structure.S1:
        return _norm_logpdf(x1 - w * x2, t1) + _norm_logpdf(x2, t2)
    if s is Structure.S2:
        return _norm_logpdf(x1, t1) + _norm_logpdf(x2 - w * x1, t2)
    if theta.w != 0.0:
        raise InvalidParameter(f"S3 requires w = 0, got w={theta.w!r}")
    return _norm_logpdf(x1, t1) + _norm_logpdf(x2, t2)


def interv_logpdf_y1(y1: float, s: Structure, theta: Params, iv: InterventionSpec) -> float:
    """Log-density of the free node under ``do(node2 = iv.value)``.

    Under ``S1`` the intervention propagates: ``Y1 ~ N(w*y, tau1_sq)``. Under
    ``S2`` and ``S3`` the incoming edge (if any) is severed and ``Y1`` keeps
    its marginal law ``N(0, tau1_sq)``.
    """
    if s is Structure.S1:
        return _norm_logpdf(float(y1) - theta.w * iv.value, theta.tau1_sq)
    return _norm_logpdf(float(y1), theta.tau1_sq)


def _resolve_rng(seed: int | np.random.Generator) -> np.random.Generator:
    # PCG64 via default_rng; the stream for a fixed seed is stable within a release.
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_obs(
    s: Structure, theta: Params, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Draw ``n`` i.i.d. observational samples; returns an ``(n, 2)`` array.

    Standard-normal draws are transformed by the closed-form triangular
    square-root factor of the implied covariance taken in causal order
    (parent column first), so the output law matches
    :func:`implied_covariance` exactly. A fixed seed fully determines the
    output.
    """
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    rng = _resolve_rng(seed)
    z = rng.standard_normal((n, 2))
    w = theta.w
    sd1 = math.sqrt(theta.tau1_sq)
    sd2 = math.sqrt(theta.tau2_sq)
    out = np.empty((n, 2))
    if s is Structure.S1:
        out[:, 1] = sd2 * z[:, 1]
        out[:, 0] = w * out[:, 1] + sd1 * z[:, 0]
    elif s is Structure.S2:
        out[:, 0] = sd1 * z[:, 0]
        out[:, 1] = w * out[:, 0] + sd2 * z[:, 1]
    else:
        if theta.w != 0.0:
            raise InvalidParameter(f"S3 requires w = 0, got w={theta.w!r}")
        out[:, 0] = sd1 * z[:, 0]
        out[:, 1] = sd2 * z[:, 1]
    return out


def sample_interv(
    s: Structure,
    theta: Params,
    iv: InterventionSpec,
    m: int,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Draw ``m`` i.i.d. interventional samples; returns an ``(m, 2)`` array.

    Column 0 holds the free node ``Y1`` distributed per
    :func:`interv_logpdf_y1`; column 1 is identically ``iv.value``.
    """
    if m < 0:
        raise InvalidParameter(f"m must be >= 0, got {m}")
    rng = _resolve_rng(seed)
    z = rng.standard_normal(m)
    mean = theta.w * iv.value if s is Structure.S1 else 0.0
    out = np.empty((m, 2))
    out[:, 0] = mean + math.sqrt(theta.tau1_sq) * z
    out[:, 1] = iv.value
    return out
