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

The layout is written down once, in the table ``_EDGES``, where every reader
looks a structure up: a name (``"S1"``) gives its member's result.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ArgumentOutOfDomain, InvalidParameter

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_2 = math.log(2.0)


class Structure(str, Enum):
    """Identifier of one of the three candidate causal structures."""

    S1 = "S1"
    S2 = "S2"
    S3 = "S3"


#: All structures in canonical order.
STRUCTURES = (Structure.S1, Structure.S2, Structure.S3)


class _ByStructure(dict):
    """A dict keyed by the structures; a name hashes and compares equal to its
    member, and any other key, hashable or not, raises :class:`InvalidParameter`."""

    def __getitem__(self, key):
        try:
            return dict.__getitem__(self, key)  # __missing__ on a miss
        except TypeError:  # an unhashable key
            return self.__missing__(key)

    def __missing__(self, key):
        raise InvalidParameter(f"structure must be S1, S2 or S3, got {key!r}")


# The layout: (parent, child) node indices of each structure's edge, with
# node 1 at index 0 and node 2 (the intervened node) at index 1.
_EDGES = _ByStructure({Structure.S1: (1, 0), Structure.S2: (0, 1), Structure.S3: None})
_INDEX = _ByStructure({s: i for i, s in enumerate(STRUCTURES)})  # position in STRUCTURES


def _edge(s: Structure, w: float = 0.0) -> tuple[int, int] | None:
    """The (parent, child) of ``s``; None for ``S3``, which rejects ``w != 0``."""
    edge = _EDGES[s]
    if edge is None and w != 0.0:
        raise _s3_weight_error(w)
    return edge


def _s3_weight_error(w: float) -> InvalidParameter:
    return InvalidParameter(f"S3 requires w = 0, got w={w!r}")


def _node1_is_child(edge: tuple[int, int] | None) -> bool:
    """Whether node 1 is the child (``S1``), so that fixing node 2 moves it."""
    return edge is not None and edge[1] == 0


def _integer(name: str, v) -> int:
    """``v`` as an ``int`` that a float can hold; a float is accepted only
    when it is integral."""
    try:
        i = operator.index(v)  # int, bool and numpy integers
    except TypeError:
        if isinstance(v, numbers.Real) and _real(name, v).is_integer():  # not inf or NaN
            return int(v)
        raise InvalidParameter(f"{name} must be a finite integer, got {v!r}") from None
    _real(name, i)  # refuses an integer past the floats
    return i


def _real(name: str, v) -> float:
    """``v`` as a Python float, so that a numpy scalar computes as the float of
    its value does; a value that is not a real number, or an integer past the
    largest float, is refused."""
    if isinstance(v, numbers.Real):
        try:
            return float(v)
        except OverflowError:  # not by repr: past 4,300 digits an int's repr raises
            raise InvalidParameter(f"{name} is beyond the range of a float") from None
    raise InvalidParameter(f"{name} must be a real number, got {v!r}")


def _float_field(obj, name: str) -> float:
    """Field ``name`` of the frozen ``obj``, stored as its :func:`_real` float."""
    v = getattr(obj, name)
    if type(v) is not float:
        v = _real(name, v)
        object.__setattr__(obj, name, v)
    return v


def param_dim(s: Structure) -> int:
    """Free-parameter count: 3 for the connected structures, 2 for ``S3``."""
    return 2 if _edge(s) is None else 3


@dataclass(frozen=True)
class Params:
    """Edge weight and the two noise variances ``(w, tau1_sq, tau2_sq)``.

    Both variances must be strictly positive. ``w`` may be any real; pass
    ``w = 0`` for parameters attached to ``S3``. Each is held as a float.
    """

    w: float
    tau1_sq: float
    tau2_sq: float

    def __post_init__(self) -> None:
        for name in ("w", "tau1_sq", "tau2_sq"):
            v = _float_field(self, name)
            if not math.isfinite(v):
                raise InvalidParameter(f"{name} must be finite, got {v!r}")
        if self.tau1_sq <= 0.0 or self.tau2_sq <= 0.0:
            raise InvalidParameter(
                f"noise variances must be positive, got "
                f"tau1_sq={self.tau1_sq!r}, tau2_sq={self.tau2_sq!r}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.tau1_sq, self.tau2_sq])


def _trusted_params(w: float, tau1_sq: float, tau2_sq: float) -> Params:
    """``Params(w, tau1_sq, tau2_sq)`` without ``__post_init__``, for values
    the caller has already checked (a quadrature grid's nodes). Filling the
    instance dict costs a third of the frozen ``__init__``'s three
    ``object.__setattr__`` calls."""
    p = object.__new__(Params)
    d = p.__dict__
    d["w"] = w
    d["tau1_sq"] = tau1_sq
    d["tau2_sq"] = tau2_sq
    return p


@dataclass(frozen=True)
class Cov2:
    """Symmetric positive definite 2x2 covariance matrix."""

    c11: float
    c12: float
    c22: float

    def __post_init__(self) -> None:
        # the determinant on pairs decides as c11*c22 - c12^2 does where that is
        # a normal float, and cannot overflow; NaN fails every comparison
        c11, c12, c22 = (_float_field(self, name) for name in ("c11", "c12", "c22"))
        if not (0.0 < c11 < math.inf and 0.0 < c22 < math.inf and _sum(_scaled(c11, c22), _scaled(-c12, c12))[0] > 0.0):
            raise InvalidParameter(f"covariance not positive definite: [[{c11}, {c12}], [{c12}, {c22}]]")

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
        if not math.isfinite(_float_field(self, "value")):
            raise InvalidParameter(f"intervention value must be finite, got {self.value!r}")


def _scaled(*factors, over=1.0) -> tuple[float, int]:
    """``((a*b)*...)/over`` as a mantissa and a power of two, ``(m, e)``, of
    floats or such pairs: the mantissas round as the plain form does where its
    steps are normal floats, and cannot overflow."""
    m, e = 1.0, 0
    for x in factors:
        mx, ex = x if type(x) is tuple else math.frexp(x)
        m, e = m * mx, e + ex
    mo, eo = over if type(over) is tuple else math.frexp(over)
    return m / mo, e - eo


def _float(x: tuple[float, int]) -> float:
    """A ``math.frexp`` pair by one ``ldexp``, rounded below the normal range
    and infinite past the largest float."""
    try:
        return math.ldexp(*x)
    except OverflowError:
        return math.copysign(math.inf, x[0])


def _product(*factors, over=1.0) -> float:
    """:func:`_scaled` as a float: bitwise the plain form where its steps are
    normal floats, and else keeps its digits."""
    return _float(_scaled(*factors, over=over))


def _sum(a, b) -> tuple[float, int]:
    """``a + b`` of two floats or pairs as a ``math.frexp`` pair, rounded
    once: bitwise the plain sum where both terms are normal floats."""
    ma, ea = a if type(a) is tuple else math.frexp(a)
    mb, eb = b if type(b) is tuple else math.frexp(b)
    e = max(ea, eb) if ma and mb else ea if ma else eb  # a zero term has no exponent
    m, k = math.frexp(math.ldexp(ma, ea - e) + math.ldexp(mb, eb - e))
    return m, e + k


def _scale(w: float, tau_parent: float, tau_child: float) -> tuple[float, int]:
    """The reversal's scale ``s = w^2*tau_parent + tau_child``, the old child's
    variance, as a ``math.frexp`` pair that cannot overflow: bitwise the plain
    float where every step is a normal float. The one body that forms it, for
    the edge reversal, :func:`gamma_log_jacobian_det`,
    :func:`implied_covariance` and the plateau's log prior ratio."""
    return _sum(_scaled(w, w, tau_parent), tau_child)


def _log(x: tuple[float, int]) -> float:
    """``log`` of a ``math.frexp`` pair: ``math.log`` of its float where that is
    a normal float, else the mantissa's log plus the exponent's."""
    m, e = x
    return math.log(math.ldexp(m, e)) if -1022 < e < 1025 else math.log(m) + e * _LOG_2


def _scale_gap(coef: float, w: float, tau_parent: float, tau_child: float) -> float:
    """``coef*w^2*(tau_parent - s)/tau_child/s``, in that order, with
    ``tau_parent - s`` as ``(1 - |w|)(1 + |w|)*tau_parent - tau_child`` (``w*w``
    rounds near ``|w| = 1``): ``coef`` times the change the reversal makes in
    the child's ``w^2/tau`` (``w'^2/tau_parent' - w^2/tau_child``). Formed on
    pairs, so it overflows only where its value does, a zero ``coef`` gives 0,
    and it is bitwise the plain form where every step is a normal float."""
    a = abs(w)
    d = _sum(_scaled(1.0 - a, 1.0 + a, tau_parent), -tau_child)
    return _product(_scaled(coef, _scaled(w, w), d, over=tau_child), over=_scale(w, tau_parent, tau_child))


def _reverse_edge(edge: tuple[int, int], theta: Params, eta: float = 1.0, y: float = 0.0) -> Params:
    """The best fit with ``edge`` reversed, on data whose observational
    fraction is ``eta`` and whose other rows fix node 2 at ``y``: node 1 is
    free in every row, node 2 in the observational ones alone. At ``eta = 1``
    (``y`` unread) it is the observationally equivalent reversal: with
    ``s = w^2*tau_parent + tau_child``, the weight ``w*tau_parent/s`` and the
    variances ``s`` (old child) and ``tau1_sq*tau2_sq/s`` (old parent). Below
    it, node 1 as the old child takes its mixture second moment, and as the
    old parent its regression over every row, whose ratios are homogeneous in
    ``(eta, y^2)``: at ``y = 0`` eta cancels. ``s`` is :func:`_scale`'s, and
    every sum and quotient that holds it, or ``y^2``, is formed on pairs
    until a field is taken, so a field that is a normal float is returned
    whether or not ``s`` is, bitwise the plain arithmetic where its steps
    are normal floats; a field past the floats is :class:`ArgumentOutOfDomain`.
    """
    (p, c), w, tau = edge, theta.w, [theta.tau1_sq, theta.tau2_sq]
    den = var_c = s = _scale(w, tau[p], tau[c])
    e, num, etabar = 1.0, tau[c], 1.0 - eta
    if eta < 1.0 and c == 0:
        var_c = _sum(_scaled(eta, s), _scaled(etabar, _sum(_scaled(w, w, y, y), tau[c])))
    elif eta < 1.0:
        e, vv = eta if y else 1.0, _scaled(etabar, y, y)
        den = _sum(_scaled(e, s), vv)
        if not den[0] > 0.0 or not (eta or y):
            raise ArgumentOutOfDomain("pseudo-true S1 limit undefined (eta = 0 with y = 0)")
        num = _sum(_scaled(e, _sum(tau[c], _scaled(etabar, _scaled(w, w, tau[p])))), vv)
    w = _product(e, w, tau[p], over=den)
    tau[p], tau[c] = _product(tau[p], num, over=den), _float(var_c)
    if not (math.isfinite(w) and 0.0 < tau[0] < math.inf and 0.0 < tau[1] < math.inf):
        raise ArgumentOutOfDomain(f"edge reversal of {theta!r} at y={y!r}, eta={eta!r} leaves the floats: {(w, *tau)}")
    return _trusted_params(w, *tau)


def gamma_map(theta: Params) -> Params:
    """Map ``S1`` parameters to the observationally equivalent ``S2`` parameters."""
    return _reverse_edge(_EDGES[Structure.S1], theta)


def gamma_map_inverse(theta: Params) -> Params:
    """Map ``S2`` parameters to the observationally equivalent ``S1`` parameters;
    the exact inverse of :func:`gamma_map`."""
    return _reverse_edge(_EDGES[Structure.S2], theta)


def gamma_log_jacobian_det(theta: Params) -> float:
    """``log |det J|`` of :func:`gamma_map` at ``theta``.

    The determinant is ``tau2_sq / s``, always positive, with ``log s`` the
    :func:`_log` of :func:`_scale`'s pair: finite wherever ``s`` leaves the
    floats, and bitwise the plain ``math.log(s)`` where ``s`` is a normal float.
    """
    return math.log(theta.tau2_sq) - _log(_scale(theta.w, theta.tau2_sq, theta.tau1_sq))


def implied_covariance(s: Structure, theta: Params) -> Cov2:
    """Covariance of the observational law under structure ``s``.

    ``S3`` requires ``w = 0``. Where the covariance of valid parameters is
    singular in floats, or overflows, :class:`ArgumentOutOfDomain` is raised.
    """
    edge = _edge(s, theta.w)
    var = [theta.tau1_sq, theta.tau2_sq]
    if edge is None:
        return Cov2(c11=var[0], c12=0.0, c22=var[1])
    (p, c), w = edge, theta.w
    var[c] = _float(_scale(w, var[p], var[c]))
    try:
        return Cov2(c11=var[0], c12=w * var[p], c22=var[1])
    except InvalidParameter as exc:  # the parameters are valid: the matrix has left the floats
        raise ArgumentOutOfDomain(f"covariance under {s.value} at {theta!r} cannot be held in floats ({exc})") from None


def _norm_logpdf(x: float, var: float) -> float:
    return -0.5 * (_LOG_2PI + math.log(var)) - x * x / (2.0 * var)


def obs_logpdf(x: tuple[float, float], s: Structure, theta: Params) -> float:
    """Log-density of one observational sample ``x = (x1, x2)``.

    Evaluated in the factorized causal form (child given parent times parent
    marginal), which is numerically stable for strongly coupled parameters;
    it equals the centered bivariate Gaussian log-density with covariance
    :func:`implied_covariance`.
    """
    resid = [float(x[0]), float(x[1])]
    edge = _edge(s, theta.w)
    if edge is not None:
        p, c = edge
        resid[c] -= theta.w * resid[p]
    return _norm_logpdf(resid[0], theta.tau1_sq) + _norm_logpdf(resid[1], theta.tau2_sq)


def _interv_mean(s: Structure, theta: Params, y: float) -> float:
    """Mean of node 1 under ``do(node2 = y)``: ``w*y`` under ``S1``, where the
    intervention propagates, and 0 otherwise."""
    return theta.w * y if _node1_is_child(_edge(s)) else 0.0


def interv_logpdf_y1(y1: float, s: Structure, theta: Params, iv: InterventionSpec) -> float:
    """Log-density of the free node under ``do(node2 = iv.value)``.

    Under ``S1`` the intervention propagates: ``Y1 ~ N(w*y, tau1_sq)``. Under
    ``S2`` and ``S3`` the incoming edge (if any) is severed and ``Y1`` keeps
    its marginal law ``N(0, tau1_sq)``.
    """
    return _norm_logpdf(float(y1) - _interv_mean(s, theta, iv.value), theta.tau1_sq)


def _count(name: str, v) -> int:
    """``v`` as a count of samples: an integer at least 0 whose ``(v, 2)``
    float64 array numpy can describe, refused before any draw."""
    v = _integer(name, v)
    if v < 0:
        raise InvalidParameter(f"{name} must be >= 0, got {v}")
    if v > sys.maxsize // 16:  # numpy describes no array of more than sys.maxsize bytes
        raise ArgumentOutOfDomain(f"{name} = {v} samples are more than an array can hold")
    return v


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
    n = _count("n", n)
    edge = _edge(s, theta.w)
    out = np.random.default_rng(seed).standard_normal((n, 2)) * np.sqrt([theta.tau1_sq, theta.tau2_sq])
    if edge is not None:
        p, c = edge
        out[:, c] += theta.w * out[:, p]
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
    m = _count("m", m)
    z = np.random.default_rng(seed).standard_normal(m)
    out = np.empty((m, 2))
    out[:, 0] = _interv_mean(s, theta, iv.value) + math.sqrt(theta.tau1_sq) * z
    out[:, 1] = iv.value
    return out
