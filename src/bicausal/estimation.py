"""Sufficient statistics, closed-form MLEs, and exact log-likelihoods.

The six sufficient statistics for the mixed dataset are

* observational block: ``s1x = sum x1^2``, ``s2x = sum x2^2``,
  ``s12x = sum x1*x2``;
* interventional block (under ``do(node2 = y)``): ``s1y = sum y1^2``,
  ``s2y = m*y^2``, ``s12y = y * sum y1``.

All estimators and likelihoods below are functions of these sums plus the
counts ``(n, m)`` and the intervention value ``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateData, InvalidParameter
from .sem import _LOG_2PI, Params, Structure

# Variance estimates at or below this are treated as exactly degenerate.
_VARIANCE_FLOOR = 1e-300


def _csum(values: np.ndarray) -> float:
    """Compensated sum: pairwise numpy partial sums combined Kahan-style.

    Keeps sufficient statistics accurate enough for 1e-10 oracle agreement
    at n = 1e6.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    total = 0.0
    comp = 0.0
    for start in range(0, a.size, 4096):
        chunk = float(np.sum(a[start : start + 4096]))
        t = total + chunk
        if abs(total) >= abs(chunk):
            comp += (total - t) + chunk
        else:
            comp += (chunk - t) + total
        total = t
    return total + comp


@dataclass(frozen=True)
class SuffStats:
    """Sufficient statistics of a mixed observational/interventional dataset.

    ``y`` is defined only when ``m > 0``.
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
        names = ("s1x", "s2x", "s12x", "s1y", "s2y", "s12y") + (() if self.y is None else ("y",))
        for name in names:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidParameter(
                    f"{name} must be finite, got {v!r}; the data hold a non-finite value "
                    "or values too large to square"
                )
        if self.n < 0 or self.m < 0:
            raise InvalidParameter(f"counts must be >= 0, got n={self.n}, m={self.m}")
        if self.s1x < 0.0 or self.s2x < 0.0 or self.s1y < 0.0 or self.s2y < 0.0:
            raise InvalidParameter("sums of squares must be nonnegative")
        # Cauchy-Schwarz, with slack for accumulated rounding.
        slack = 1e-9
        if self.s12x * self.s12x > self.s1x * self.s2x * (1.0 + slack) + slack:
            raise InvalidParameter("observational block violates Cauchy-Schwarz")
        if self.s12y * self.s12y > self.s1y * self.s2y * (1.0 + slack) + slack:
            raise InvalidParameter("interventional block violates Cauchy-Schwarz")
        if self.m > 0 and self.y is None:
            raise InvalidParameter("y must be set when m > 0")

    @property
    def total(self) -> int:
        return self.n + self.m

    def observational_only(self) -> "SuffStats":
        """Drop the interventional block."""
        return replace(self, s1y=0.0, s2y=0.0, s12y=0.0, m=0, y=None)


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


@dataclass(frozen=True)
class MleTriple:
    """Per-structure maximum likelihood estimates."""

    theta1: Params
    theta2: Params
    theta3: Params

    def for_structure(self, s: Structure) -> Params:
        return {Structure.S1: self.theta1, Structure.S2: self.theta2, Structure.S3: self.theta3}[s]


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
    n, m = st.n, st.m
    a = st.s1x + st.s1y
    b = st.s12x + st.s12y
    c = st.s2x + st.s2y
    if c <= 0.0 or st.s1x <= 0.0 or st.s2x <= 0.0:
        raise DegenerateData("zero second moment; samples are identically zero")

    theta1 = _checked_params(
        b / c, (c * a - b * b) / ((n + m) * c), st.s2x / n, "S1 MLE"
    )
    theta2 = _checked_params(
        st.s12x / st.s1x,
        a / (n + m),
        (st.s1x * st.s2x - st.s12x ** 2) / (n * st.s1x),
        "S2 MLE",
    )
    theta3 = _checked_params(0.0, a / (n + m), st.s2x / n, "S3 MLE")
    return MleTriple(theta1, theta2, theta3)


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
    n, m = st.n, st.m
    w, t1, t2 = theta.w, theta.tau1_sq, theta.tau2_sq
    const = -(n + 0.5 * m) * _LOG_2PI
    logdet = -0.5 * (n + m) * math.log(t1) - 0.5 * n * math.log(t2)
    if s is Structure.S1:
        quad1 = (st.s1x + st.s1y) - 2.0 * w * (st.s12x + st.s12y) + w * w * (st.s2x + st.s2y)
        quad2 = st.s2x
    elif s is Structure.S2:
        quad1 = st.s1x + st.s1y
        quad2 = st.s2x - 2.0 * w * st.s12x + w * w * st.s1x
    else:
        if theta.w != 0.0:
            raise InvalidParameter(f"S3 requires w = 0, got w={theta.w!r}")
        quad1 = st.s1x + st.s1y
        quad2 = st.s2x
    return const + logdet - quad1 / (2.0 * t1) - quad2 / (2.0 * t2)
