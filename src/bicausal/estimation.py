"""Sufficient statistics, closed-form MLEs, and exact log-likelihoods.

The six sufficient statistics for the mixed dataset are

* observational block: ``s1x = sum x1^2``, ``s2x = sum x2^2``,
  ``s12x = sum x1*x2``;
* interventional block (under ``do(node2 = y)``): ``s1y = sum y1^2``,
  ``s2y = m*y^2``, ``s12y = y * sum y1``.

All estimators and likelihoods below are functions of these sums plus the
counts ``(n, m)`` and the intervention value ``y``. :func:`suffstats`
accumulates them from raw samples; :func:`sample_suffstats` draws them from
their law directly, at a cost that does not grow with ``n`` or ``m``. A
:class:`SuffStats` whose six sums are equal-length arrays is a batch of
datasets sharing ``n``, ``m`` and ``y``; it is validated as a whole, and
:func:`bicausal.exact.log_marginal_mixed` scores it in one call.

Each structure's likelihood is a product of two per-node Gaussian
regressions (the local decomposition behind BGe scoring).
:attr:`SuffStats.factors`, the one map from the edge layout of
:mod:`bicausal.sem` onto the six sums, gives each structure's (node 1,
node 2) factors; every reader, here and in :mod:`bicausal.approx` and
:mod:`bicausal.exact`, applies one per-factor formula to both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DegenerateData, InvalidParameter
from .sem import _EDGES, _INDEX, _LOG_2PI, STRUCTURES, InterventionSpec, Params, Structure, _ByStructure
from .sem import _edge, _integer, _node1_is_child, _resolve_rng

# Variance estimates at or below this are treated as exactly degenerate.
_VARIANCE_FLOOR = 1e-300

_NON_FINITE = (
    "{} must be finite, got {!r}; the data hold a non-finite value or values too large to square"
)


def _csum(values: np.ndarray) -> float:
    """Compensated sum: pairwise numpy partial sums combined Kahan-style.

    Keeps sufficient statistics accurate enough for 1e-10 oracle agreement
    at n = 1e6. A non-finite running total is returned as it stands, so an
    overflow reads as ``inf`` rather than the ``inf - inf`` NaN of the
    compensation step.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    total = 0.0
    comp = 0.0
    for start in range(0, a.size, 4096):
        chunk = float(np.sum(a[start : start + 4096]))
        t = total + chunk
        if not math.isfinite(t):
            return t
        if abs(total) >= abs(chunk):
            comp += (total - t) + chunk
        else:
            comp += (chunk - t) + total
        total = t
    return total + comp


class Factor(NamedTuple):
    """One node's Gaussian regression on its parent, in sums over the
    ``count`` samples in which the node is free: ``yy`` of the node's squares,
    ``xy`` of node times parent and ``xx`` of the parent's squares (0 for a
    root). Squares are ``x * x``, never ``x ** 2``, which goes through libm
    ``pow``: it can differ from the exactly rounded product by 1 ulp, and it
    raises ``OverflowError`` where the product gives ``inf``.
    """

    yy: float
    xy: float
    xx: float
    count: int
    has_parent: bool

    def residual(self, w: float) -> float:
        """Residual sum of squares of the regression at weight ``w`` (a
        number or an array of weights)."""
        if not self.has_parent:
            return self.yy
        return self.yy - 2.0 * w * self.xy + w * w * self.xx

    def mle(self) -> tuple[float, float]:
        """(weight, residual variance) maximizing the factor's likelihood."""
        if not self.has_parent:
            return 0.0, self.yy / self.count
        return self.xy / self.xx, (self.xx * self.yy - self.xy * self.xy) / (self.count * self.xx)


_SUMS = ("s1x", "s2x", "s12x", "s1y", "s2y", "s12y")
# what SuffStats reports per failed check: rows up to "moment products" name
# a non-finite value, the later rows name the violated constraint
_REPORTED = _SUMS + ("moment products",)
_VIOLATIONS = (
    "sums of squares must be nonnegative",
    "observational block violates Cauchy-Schwarz",
    "interventional block violates Cauchy-Schwarz",
)


@dataclass(frozen=True)
class SuffStats:
    """Sufficient statistics of a mixed observational/interventional dataset.

    ``y`` is defined only when ``m > 0``. The six sums are numbers, or, for a
    batch of datasets sharing ``n``, ``m`` and ``y``, equal-length 1-d
    float64 arrays with one cell per dataset. One validation covers both:
    the checks are numpy expressions over the cells, reduced once, and a
    number is the one-cell case.
    """

    s1x: float
    s2x: float
    s12x: float
    s1y: float
    s2y: float
    s12y: float
    n: int
    m: int
    y: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer("n", self.n))
        object.__setattr__(self, "m", _integer("m", self.m))
        if self.n < 0 or self.m < 0:
            raise InvalidParameter(f"counts must be >= 0, got n={self.n}, m={self.m}")
        if self.y is None and self.m > 0:
            raise InvalidParameter("y must be set when m > 0")
        if self.y is not None and not math.isfinite(self.y):
            raise InvalidParameter(_NON_FINITE.format("y", self.y))
        sums = [getattr(self, name) for name in _SUMS]
        try:
            cells = np.array(sums, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            cells = None
        if cells is None or cells.ndim > 2 or (
            cells.ndim == 2 and any(getattr(v, "dtype", None) != np.float64 for v in sums)
        ):
            raise InvalidParameter("the six sums must be numbers, or 1-d float64 arrays of one length")
        cells = cells.reshape(len(_SUMS), -1)
        s1x, s2x, s12x, s1y, s2y, s12y = cells
        slack = 1e-9  # Cauchy-Schwarz slack for accumulated rounding
        with np.errstate(over="ignore", invalid="ignore"):
            # readers multiply these sums pairwise: pooled over both blocks
            # (node 1's factor) and observational (node 2's); Cauchy-Schwarz
            # bounds every other product by these
            a, b, c = s1x + s1y, s12x + s12y, s2x + s2y
            products = a * c + b * b + s12x * s12x
            failed = np.vstack([
                ~np.isfinite(cells),
                ~np.isfinite(products),
                (s1x < 0.0) | (s2x < 0.0) | (s1y < 0.0) | (s2y < 0.0),
                s12x * s12x > s1x * s2x * (1.0 + slack) + slack,
                s12y * s12y > s1y * s2y * (1.0 + slack) + slack,
            ])
        if failed.any():
            # the first failed check, at its first failing cell
            check, cell = np.argwhere(failed)[0]
            if check < len(_REPORTED):
                value = [*cells, products][check][cell]
                raise InvalidParameter(_NON_FINITE.format(_REPORTED[check], float(value)))
            raise InvalidParameter(_VIOLATIONS[check - len(_REPORTED)])

    @property
    def total(self) -> int:
        return self.n + self.m

    @cached_property
    def factors(self) -> Mapping[Structure, tuple[Factor, Factor]]:
        """Each structure's (node 1, node 2) factors, built on first use.

        Node 1 is never intervened on, so its sums pool both blocks; node 2
        is free in the observational block only. A node regresses on the
        other where ``sem._EDGES`` makes it the child, and is a root otherwise.
        """
        # per node: (own squares, cross products, other node's squares,
        # count) over the samples in which the node is free
        free = (
            (self.s1x + self.s1y, self.s12x + self.s12y, self.s2x + self.s2y, self.total),
            (self.s2x, self.s12x, self.s1x, self.n),
        )

        def factor(node: int, edge: tuple[int, int] | None) -> Factor:
            yy, xy, xx, count = free[node]
            child = edge is not None and edge[1] == node
            return Factor(yy, xy, xx, count, True) if child else Factor(yy, 0.0, 0.0, count, False)

        return MappingProxyType(_ByStructure({s: (factor(0, e), factor(1, e)) for s, e in _EDGES.items()}))


def suffstats(obs, interv=None) -> SuffStats:
    """Accumulate :class:`SuffStats` from raw samples.

    ``obs`` is an ``(n, 2)`` array-like of observational pairs; ``interv`` an
    optional ``(m, 2)`` array-like of interventional pairs whose second column
    must be a single repeated intervention value (as produced by
    :func:`bicausal.sem.sample_interv`).
    """
    x = np.asarray(obs, dtype=np.float64).reshape(-1, 2)
    yv = np.asarray([] if interv is None else interv, dtype=np.float64).reshape(-1, 2)
    n, m = x.shape[0], yv.shape[0]
    # Non-finite input, or sums that overflow, come out as inf or nan, which
    # SuffStats rejects; numpy need not warn about them on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        s1x = _csum(x[:, 0] * x[:, 0])
        s2x = _csum(x[:, 1] * x[:, 1])
        s12x = _csum(x[:, 0] * x[:, 1])
        if m == 0:
            return SuffStats(s1x, s2x, s12x, 0.0, 0.0, 0.0, n, 0, None)
        y = float(yv[0, 1])
        if not np.all(yv[:, 1] == y):
            raise InvalidParameter("interventional samples must share one intervention value")
        y1 = yv[:, 0]
        s1y = _csum(y1 * y1)
        s2y = m * y * y
        s12y = y * _csum(y1)
    return SuffStats(s1x, s2x, s12x, s1y, s2y, s12y, n, m, y)


def _chi2(rng: np.random.Generator, k: int, size: int | None = None):
    """A chi-squared draw with ``k >= 0`` degrees of freedom (``size`` of
    them as an array); ``chi2(0)`` is exactly 0, which
    ``Generator.chisquare`` rejects."""
    return 2.0 * rng.standard_gamma(0.5 * k, size)


def sample_suffstats(
    s: Structure,
    theta: Params,
    n: int,
    m: int = 0,
    iv: InterventionSpec | None = None,
    *,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> SuffStats:
    """Draw the :class:`SuffStats` of ``n`` observational and ``m``
    interventional samples without drawing the samples.

    The result has the law of ``suffstats(sample_obs(s, theta, n, rng),
    sample_interv(s, theta, iv, m, rng))`` at a cost that does not depend
    on ``n`` or ``m``. The two paths agree in distribution, not draw by draw.

    The observational block is the scatter matrix of ``n`` centered Gaussian
    pairs, a 2x2 Wishart matrix, drawn by the Bartlett decomposition
    (Bartlett 1933; Smith & Hocking 1972, AS 53). In causal order (parent
    ``p``, child ``c``; node 1 is ``p`` under ``S3``) the scatter of the
    standardized noises is ``A A^T`` with ``A = [[a, 0], [b, c]]``,
    ``a^2 ~ chi2(n)``, ``b ~ N(0, 1)`` and ``c^2 ~ chi2(n - 1)``, drawn in
    that order. With ``L = [[sqrt(tau_p), 0], [w sqrt(tau_p), sqrt(tau_c)]]``
    the triangular factor of :func:`bicausal.sem.sample_obs`, the data's
    scatter is ``(L A)(L A)^T``; summed through the rows of ``L A``, the
    child's sum of squares is a sum of squares and cannot round below zero.

    The interventional block holds ``m`` draws of ``y1 ~ N(mu, tau1_sq)``,
    ``mu = w*y`` under ``S1`` and 0 otherwise: ``sum y1`` is normal, and
    ``sum y1^2 = (sum y1)^2 / m + tau1_sq * chi2(m - 1)`` with the two terms
    independent. ``chi2(0)`` is exactly 0, so one sample (``n`` or ``m`` of
    1) gives a rank-one block, as the raw path does.

    ``seed`` is anything :func:`numpy.random.default_rng` accepts, or a
    generator to draw from; a fixed seed determines the result bitwise.
    """
    sums = _draw_sums(s, theta, n, m, iv, _resolve_rng(seed))
    return SuffStats(*sums, n, m, iv.value if m else None)


def _draw_sums(
    s: Structure,
    theta: Params,
    n: int,
    m: int,
    iv: InterventionSpec | None,
    rng: np.random.Generator,
    size: int | None = None,
) -> tuple:
    """The six sums ``(s1x, s2x, s12x, s1y, s2y, s12y)`` of
    :func:`sample_suffstats` draws from ``rng``, not yet validated as
    :class:`SuffStats`: numbers for ``size=None``, else arrays of ``size``
    independent draws.

    Each variate is drawn for every row before the next one is, so one row
    takes the same values from the generator as the scalar draw, and
    ``size=1`` is that draw bitwise. The Monte Carlo harness draws a block
    of trials per call and validates them once as a batch.
    """
    if n < 0 or m < 0:
        raise InvalidParameter(f"counts must be >= 0, got n={n}, m={m}")
    if m > 0 and iv is None:
        raise InvalidParameter("an intervention is required when m > 0")
    w, tau = theta.w, (theta.tau1_sq, theta.tau2_sq)
    edge = _edge(s, w)
    p, c = edge or (0, 1)
    tp, tc = tau[p], tau[c]
    # both square roots are correctly rounded, so rows match the numbers
    sqrt, zero = (math.sqrt, 0.0) if size is None else (np.sqrt, np.zeros(size))
    spp = spc = scc = zero
    if n > 0:
        # (u, 0) and (v, sqrt(tc) * c) are the rows of L A
        u = sqrt(tp * _chi2(rng, n, size))
        v = w * u + math.sqrt(tc) * rng.standard_normal(size)
        spp, spc, scc = u * u, u * v, v * v + tc * _chi2(rng, n - 1, size)
    sq = [zero, zero]
    sq[p], sq[c] = spp, scc
    if m == 0:
        return sq[0], sq[1], spc, zero, zero, zero
    y = iv.value
    mu = w * y if _node1_is_child(edge) else 0.0
    sum_y1 = m * mu + math.sqrt(tau[0] * m) * rng.standard_normal(size)
    s1y = sum_y1 * sum_y1 / m + tau[0] * _chi2(rng, m - 1, size)
    # adding zero makes a column of the constant; it is never -0.0, so the
    # number is unchanged
    return sq[0], sq[1], spc, s1y, m * y * y + zero, y * sum_y1


@dataclass(frozen=True)
class MleTriple:
    """Per-structure maximum likelihood estimates."""

    theta1: Params
    theta2: Params
    theta3: Params

    def for_structure(self, s: Structure) -> Params:
        return (self.theta1, self.theta2, self.theta3)[_INDEX[s]]


def _checked_params(w: float, t1: float, t2: float, label: str) -> Params:
    if not (math.isfinite(t1) and math.isfinite(t2)) or t1 <= _VARIANCE_FLOOR or t2 <= _VARIANCE_FLOOR:
        raise DegenerateData(
            f"{label}: variance estimate degenerate (tau1_sq={t1!r}, tau2_sq={t2!r}); "
            "data are collinear or constant"
        )
    if not math.isfinite(w):
        raise DegenerateData(f"{label}: weight estimate non-finite")
    return Params(w, t1, t2)


def mle_mixed(st: SuffStats) -> MleTriple:
    """Closed-form MLEs for all three structures from mixed data.

    Requires ``n >= 2`` and non-degenerate blocks. With ``m = 0`` this reduces
    exactly (bitwise) to the observational-only estimators.
    """
    if st.n < 2:
        raise DegenerateData(f"need n >= 2 observational samples, got n={st.n}")
    if st.s1x <= 0.0 or st.s2x <= 0.0:
        raise DegenerateData("zero second moment; samples are identically zero")
    triple = []
    for s in STRUCTURES:
        (w1, t1), (w2, t2) = (f.mle() for f in st.factors[s])
        # at most one node has a parent, so the sum is its weight
        triple.append(_checked_params(w1 + w2, t1, t2, f"{s.value} MLE"))
    return MleTriple(*triple)


def mle_obs(st: SuffStats) -> MleTriple:
    """Observational-only MLEs; requires ``m = 0``.

    The estimates satisfy ``theta2 = gamma_map(theta1)`` exactly, so the two
    connected structures attain the same likelihood maximum.
    """
    if st.m != 0:
        raise InvalidParameter(f"mle_obs requires m = 0, got m={st.m}")
    return mle_mixed(st)


def loglik(st: SuffStats, s: Structure, theta: Params) -> float:
    """Exact mixed-data log-likelihood through sufficient statistics only.

    Equals the sum of per-sample observational and interventional log
    densities; an empty dataset gives 0.
    """
    w, t1, t2 = theta.w, theta.tau1_sq, theta.tau2_sq
    _edge(s, w)  # S3 takes no weight
    return _loglik(st, s, w, t1, t2, math.log(t1), math.log(t2))


def _loglik(st: SuffStats, s: Structure, w, t1, t2, log_t1, log_t2):
    """The body of :func:`loglik`, unchecked, over numbers or arrays that
    broadcast against each other; the caller passes the variances' logs.

    Every operation is elementwise IEEE arithmetic in one fixed order, so a
    grid's cells are bitwise the scalar calls when the logs are the same
    numbers (``math.log`` of each node, not numpy's ``log``, which can
    differ from libm by an ulp).
    """
    f1, f2 = st.factors[s]
    const = -(st.n + 0.5 * st.m) * _LOG_2PI
    logdet = -0.5 * f1.count * log_t1 - 0.5 * f2.count * log_t2
    return const + logdet - f1.residual(w) / (2.0 * t1) - f2.residual(w) / (2.0 * t2)
