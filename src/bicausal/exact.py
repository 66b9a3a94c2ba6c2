"""Closed-form log marginal likelihoods and structure posteriors.

Everything is computed in log space through log-gamma; no raw gamma or
factorial calls. The observational-only formulas are the ``m = 0``
specialization of the mixed-data ones, and the code path is shared so the
reduction is exact.

The evidence reads the structure's per-node factors
(:attr:`~bicausal.estimation.SuffStats.factors`). For a connected structure
it is a ratio of powers of three augmented second moments, ``U = child.xx +
1/lam`` (the child's regressor moment augmented by the weight-prior
precision), ``V = root.yy + 2*beta`` (the root's moment augmented by the
variance-prior rate) and ``Delta = (child.yy + 2*beta) * U - child.xy^2``
(the augmented cross-moment determinant), times gamma-function and
``(2*beta)``/``pi`` normalizers; ``S3`` is a product of two root terms. The
``U``/``V`` powers are grouped as ``A*log(U/V) + (A-B)*log(V)`` with
``log(U/V)`` computed by ``log1p((U-V)/V)`` while ``U/V`` lies in ``[1/2,
2]``, where ``U - V = (child.xx - root.yy) + (1/lam - 2*beta)``, and by
``log(U) - log(V)`` outside that band, where the rounding of ``U - V`` would
be amplified by ``V/U``. Under score-equivalent hyperparameters on
observational data ``U == V`` bitwise and ``A == B``, so the terms cancel
exactly instead of through large-term subtraction; this is what makes the
equal-mass property hold to machine precision at any sample size.

The evidence, the posterior and the odds statistic take one dataset or a
batch of datasets (a :class:`~bicausal.estimation.SuffStats` with array
sums). There is one body for both: the normalizers are computed once per
call and the data terms are numpy expressions over the cells, so one
dataset's value is bitwise the matching cell of any batch holding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import mixed_fisher
from .errors import InvalidParameter, NumericalDegeneracy
from .estimation import SuffStats
from .priors import BgeHyper, prior_logpdf
from .sem import _INDEX, _LOG_2PI, STRUCTURES, InterventionSpec, Params, Structure, _edge

_LOG_PI = math.log(math.pi)


def _cells(x):
    """A float for one dataset; the array of cells itself for a batch."""
    return float(x) if np.ndim(x) == 0 else x


def log_marginal_mixed(st: SuffStats, s: Structure, h: BgeHyper) -> float | np.ndarray:
    """Log marginal likelihood of the mixed dataset under structure ``s``.

    ``m = 0`` gives the observational-only value exactly. An empty dataset
    gives 0 for every structure.

    One dataset gives a ``float`` and raises :class:`NumericalDegeneracy`
    when the augmented determinant is not positive, or when the value is not
    finite (an augmented moment overflows); a batch gives an array, NaN in
    such cells, or infinite, without a warning. Every logarithm of the data
    is numpy's, so both give the same bits.
    """
    n, m, batch = st.n, st.m, np.ndim(st.s1x) > 0
    f1, f2 = st.factors[s]
    a1, a2 = h.alphas_for(s)
    beta2 = 2.0 * h.beta
    k1, k2 = a1 + 0.5 * f1.count, a2 + 0.5 * f2.count  # posterior shapes
    # the data lgamma terms in node order; the two bodies group them
    # differently, and regrouping would move the values' last bits
    lg1, lg2 = math.lgamma(k1), math.lgamma(k2)

    if not (f1.has_parent or f2.has_parent):
        norm = (a1 + a2) * math.log(beta2) - (n + 0.5 * m) * _LOG_PI + lg1 + lg2
        norm = norm - math.lgamma(a1) - math.lgamma(a2)
        with np.errstate(all="ignore"):
            out = norm - k1 * np.log(f1.yy + beta2) - k2 * np.log(f2.yy + beta2)
        return _finite_cells(out, s)

    nodes = ((f1, a1, k1), (f2, a2, k2))
    (child, a_c, k_c), (root, a_o, k_o) = nodes if f1.has_parent else nodes[::-1]
    coef_u = a_c + 0.5 * (child.count - 1)
    norm = (a_c + a_o) * math.log(beta2) - 0.5 * math.log(h.lam) - (n + 0.5 * m) * _LOG_PI + (lg1 + lg2)
    norm = norm - math.lgamma(a_c) - math.lgamma(a_o)
    with np.errstate(all="ignore"):
        u = child.xx + 1.0 / h.lam
        v = root.yy + beta2
        u_minus_v = (child.xx - root.yy) + (1.0 / h.lam - beta2)
        delta = (child.yy + beta2) * u - child.xy * child.xy
        positive = delta > 0.0
        if not (batch or positive):
            raise NumericalDegeneracy(
                f"augmented determinant non-positive ({float(delta)!r}); sufficient statistics corrupted"
            )
        # log(U/V): log1p near 1, exactly zero when U == V; log(U) - log(V)
        # far from it, where log1p is computed and discarded (-inf at r = -1)
        r = u_minus_v / v
        log_v = np.log(v)
        log_u_over_v = np.where((r >= -0.5) & (r <= 1.0), np.log1p(r), np.log(u) - log_v)
        out = (
            norm
            + coef_u * log_u_over_v
            + (coef_u - k_o) * log_v
            - k_c * np.log(np.where(positive, delta, np.nan))
        )
    return _finite_cells(out, s)


def _finite_cells(out, s: Structure) -> float | np.ndarray:
    """``_cells(out)`` of an evidence; one dataset's must be finite."""
    out = _cells(out)
    if isinstance(out, float) and not math.isfinite(out):
        raise NumericalDegeneracy(f"log marginal likelihood under {s.value} is {out!r}: an augmented moment overflows")
    return out


def log_marginal_obs(st: SuffStats, s: Structure, h: BgeHyper) -> float:
    """Observational-only log marginal likelihood; requires ``m = 0``."""
    if st.m != 0:
        raise InvalidParameter(f"log_marginal_obs requires m = 0, got m={st.m}")
    return log_marginal_mixed(st, s, h)


@dataclass(frozen=True)
class StructurePosterior:
    """Normalized posterior over ``(S1, S2, S3)`` carried in log space.

    ``logp`` holds the log marginal likelihoods (the uniform structure prior
    cancels in the normalization); ``p`` the log-sum-exp normalized
    probabilities. Axis 0 runs over the structures: shape ``(3,)`` for one
    dataset, ``(3, k)`` for a batch of ``k``, whose readers below return one
    value per cell.
    """

    logp: np.ndarray
    p: np.ndarray

    @classmethod
    def from_logp(cls, logp) -> "StructurePosterior":
        """Normalize log scores in canonical structure order."""
        logp = np.asarray(logp, dtype=np.float64)
        weights = np.exp(logp - np.max(logp, axis=0))
        return cls(logp=logp, p=weights / np.sum(weights, axis=0))

    def prob(self, s: Structure) -> float | np.ndarray:
        return _cells(self.p[_INDEX[s]])

    def log_odds(self, a: Structure, b: Structure) -> float | np.ndarray:
        return _cells(self.logp[_INDEX[a]] - self.logp[_INDEX[b]])

    def log_inverse_odds(self, true_structure: Structure) -> float | np.ndarray:
        """``log(1/p_true - 1)`` computed in log space (safe when ``p_true -> 1``).

        A batch cell with NaN evidence gives NaN, without a warning.
        """
        t = _INDEX[true_structure]
        a, b = (self.logp[i] for i in range(len(STRUCTURES)) if i != t)
        with np.errstate(invalid="ignore"):
            return _cells(np.logaddexp(a, b) - self.logp[t])


def _log_evidence(st: SuffStats, h: BgeHyper) -> np.ndarray:
    """The log marginal likelihoods stacked on axis 0 in structure order."""
    return np.array([log_marginal_mixed(st, s, h) for s in STRUCTURES])


def posterior(st: SuffStats, h: BgeHyper) -> StructurePosterior:
    """Structure posterior from the closed-form marginals under a uniform
    structure prior; a batch of statistics gives a batch posterior."""
    return StructurePosterior.from_logp(_log_evidence(st, h))


def augmented_odds_statistic(
    st: SuffStats,
    post: StructurePosterior,
    i: Structure,
    theta_star: Params,
    h: BgeHyper,
) -> float | np.ndarray:
    """Bias-corrected scaled log posterior odds of ``i`` against ``S3``.

    ``post`` is ``posterior(st, h)``; the odds are read from its evidence.
    For a batch, the result is an array with one statistic per cell; the
    prior ratio and the information determinants depend only on the counts
    and ``theta_star`` and are computed once.

    Under a true independence model with parameters ``theta_star`` the
    statistic converges in distribution to chi-squared with one degree of
    freedom. It is the scaled odds ``2*log(sqrt(N) * p_i/p_3)`` with the
    asymptotically constant terms removed: twice the log prior-density ratio
    at ``theta_star``, the dimension constant ``log(2*pi)``, and the log ratio
    of the (sample-ratio weighted) per-sample information determinants.
    """
    if _edge(i) is None:
        raise InvalidParameter(f"statistic defined for S1 or S2 against S3, got {i}")
    if theta_star.w != 0.0:
        raise InvalidParameter(
            f"theta_star must be an independence-model parameter (w = 0), got w={theta_star.w!r}"
        )
    n_total = st.total
    if n_total <= 0:
        raise InvalidParameter("statistic undefined for empty data")
    eta = st.n / n_total
    iv = InterventionSpec(value=st.y) if st.m > 0 else None

    log_odds = post.log_odds(i, Structure.S3)
    log_prior_ratio = prior_logpdf(theta_star, i, h) - prior_logpdf(theta_star, Structure.S3, h)
    det_i = float(np.prod(np.diag(mixed_fisher(i, theta_star, eta, iv))))
    det_3 = float(np.prod(np.diag(mixed_fisher(Structure.S3, theta_star, eta, iv))))
    if det_i <= 0.0 or det_3 <= 0.0:
        raise NumericalDegeneracy("weighted information determinant not positive")
    return (
        2.0 * (0.5 * math.log(n_total) + log_odds)
        - 2.0 * log_prior_ratio
        - _LOG_2PI
        + math.log(det_i / det_3)
    )
