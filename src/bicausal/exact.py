"""Closed-form log marginal likelihoods and structure posteriors.

Everything is computed in log space through log-gamma; no raw gamma or
factorial calls. The observational-only formulas are the ``m = 0``
specialization of the mixed-data ones, and the code path is shared so the
reduction is exact.

The evidence reads the structure's per-node factors
(:attr:`~bicausal.estimation.SuffStats.factors`) as a sum of per-node local
scores (Geiger & Heckerman 2002; Kuipers, Moffa & Heckerman 2014). ``S3``'s
is its two root terms, ``-k*log(yy + 2*beta)`` per node (``k`` the posterior
shape), plus gamma-function and ``(2*beta)``/``pi`` normalizers. A connected
structure's adds one difference to it: for each node whose shape is not its
``S3`` shape, its lgamma pairs and ``-(a - a_S3)*(log(yy + 2*beta) -
log(2*beta))``, the ``log(2*beta)`` part kept with the constants; for the
child, ``-(log(U) + log(lam))/2 - k*log1p(-rho^2)``, with ``U = xx + 1/lam``
and ``rho^2 = xy^2/((yy + 2*beta)*U)``, refused where the augmented
determinant ``(yy + 2*beta)*U - xy^2`` is not positive.

The node terms are summed before the child's term is added and ``rho^2``'s
product commutes, so relabelling the nodes of observational data, under a
prior with ``alpha1 = alpha4``, ``alpha2 = alpha3`` and ``alpha5 = alpha6``,
exchanges the ``S1`` and ``S2`` evidences and keeps ``S3``'s, bit for bit.
Under score-equivalent hyperparameters with ``1/lam = 2*beta`` on
observational data the child keeps its ``S3`` shape, and its ``log(xx +
1/lam)/2`` is the root's shape change ``log(yy + 2*beta)/2``, one expression
of one moment: the two cancel exactly, and ``S1`` and ``S2`` tie bitwise at
any sample size.

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

from .errors import InvalidParameter, NumericalDegeneracy
from .estimation import SuffStats
from .priors import BgeHyper
from .sem import _INDEX, STRUCTURES, Params, Structure, _edge, _node1_is_child

_LOG_PI = math.log(math.pi)


def _cells(x):
    """A float for one dataset; the array of cells itself for a batch."""
    return float(x) if np.ndim(x) == 0 else x


def log_marginal_mixed(st: SuffStats, s: Structure, h: BgeHyper) -> float | np.ndarray:
    """Log marginal likelihood of the mixed dataset under structure ``s``.

    ``m = 0`` gives the observational-only value exactly. An empty dataset
    gives 0 for every structure, up to rounding.

    One dataset gives a ``float`` and raises :class:`NumericalDegeneracy`
    when the augmented determinant is not positive, or when the value is not
    finite (an augmented moment overflows); a batch gives an array, NaN in
    such cells, or infinite, without a warning. Every logarithm of the data
    is numpy's, so both give the same bits.
    """
    n, m, beta2 = st.n, st.m, 2.0 * h.beta
    roots, nodes = h.alphas_for(Structure.S3), st.factors[s]
    (a1, a2), (f1, f2) = roots, nodes
    k1, k2 = a1 + 0.5 * f1.count, a2 + 0.5 * f2.count  # posterior shapes
    norm = (a1 + a2) * math.log(beta2) - (n + 0.5 * m) * _LOG_PI + math.lgamma(k1) + math.lgamma(k2)
    norm = norm - math.lgamma(a1) - math.lgamma(a2)
    with np.errstate(all="ignore"):
        v = (f1.yy + beta2, f2.yy + beta2)
        log_v = (np.log(v[0]), np.log(v[1]))
        # the node terms summed first, so that relabelling the nodes keeps the bits
        out = norm - (k1 * log_v[0] + k2 * log_v[1])
        if s is not Structure.S3:
            out = out + _local_score_difference(nodes, h.alphas_for(s), roots, h, v, log_v)
    out = _cells(out)
    if isinstance(out, float) and not math.isfinite(out):
        raise NumericalDegeneracy(f"log marginal likelihood under {s.value} is {out!r}: an augmented moment overflows")
    return out


def _local_score_difference(nodes, shapes, roots, h: BgeHyper, v, log_v):
    """The log evidence of a connected structure less S3's, from each node's
    local score: the shape change of every node whose prior shape (in
    ``shapes``) is not its S3 shape (in ``roots``), then the child's
    regression on its parent. ``nodes`` are the structure's factors, ``v``
    and ``log_v`` each node's ``yy + 2*beta`` and its log; numpy's
    ``errstate`` is the caller's."""
    lg, terms, log_beta2 = 0.0, [], math.log(2.0 * h.beta)
    for f, a, a3, log_vf in zip(nodes, shapes, roots, log_v):
        if a != a3:
            pair = math.lgamma(a + 0.5 * f.count) - math.lgamma(a3 + 0.5 * f.count)
            lg += (pair - (math.lgamma(a) - math.lgamma(a3))) + (a - a3) * log_beta2
            terms.append((a3 - a) * log_vf)
    c = 0 if nodes[0].has_parent else 1
    child, k = nodes[c], shapes[c] + 0.5 * nodes[c].count
    u = child.xx + 1.0 / h.lam
    # Delta = (yy + 2*beta)*U - xy^2 is positive exactly where p > q
    p, q = v[c] * u, child.xy * child.xy
    positive = p > q
    if np.ndim(positive) == 0 and not positive:  # one dataset
        raise NumericalDegeneracy(f"augmented determinant non-positive ({float(p - q)!r}); sufficient statistics corrupted")
    # the divisor is 0 where Delta <= 0 and NaN where p overflows, as Delta
    # then does: rho^2 is inf or NaN there, and the cell NaN
    rho2 = q / ((positive & (p < math.inf)) * p)
    # the node terms summed first, so that relabelling the nodes keeps the bits
    terms = sum(terms[1:], terms[0]) if terms else 0.0
    return (lg - 0.5 * math.log(h.lam)) + ((terms - 0.5 * np.log(u)) - k * np.log1p(-rho2))


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
    For a batch, the result is an array with one statistic per cell.

    Under a true independence model with parameters ``theta_star`` the
    statistic converges in distribution to chi-squared with one degree of
    freedom. It is the scaled odds ``2*log(sqrt(N) * p_i/p_3)`` less the
    Laplace constant (Kass & Raftery 1995), at ``w = 0`` ``2*gap -
    log(lam*M)``: ``gap`` is the variance priors' log ratio, and ``lam*M``
    joins the weight prior's density at 0 to the ratio of the weighted
    information determinants, ``M`` being the parent's ``eta``-mixture
    second moment.
    """
    edge = _edge(i)
    if edge is None:
        raise InvalidParameter(f"statistic defined for S1 or S2 against S3, got {i}")
    if theta_star.w != 0.0:
        raise InvalidParameter(
            f"theta_star must be an independence-model parameter (w = 0), got w={theta_star.w!r}"
        )
    n_total = st.total
    if n_total <= 0:
        raise InvalidParameter("statistic undefined for empty data")
    eta = st.n / n_total
    tau = (theta_star.tau1_sq, theta_star.tau2_sq)
    m_i = eta * tau[edge[0]]
    if st.m > 0 and _node1_is_child(edge):
        m_i += (1.0 - eta) * st.y * st.y
    # with no observational row node 2's variance carries no information either
    if not (st.n > 0 and m_i > 0.0):
        raise NumericalDegeneracy("weighted information determinant not positive")
    # the variance priors' log ratio from the prior's cached constants; their beta/tau terms cancel
    (_, *node_i), (_, *node_3) = h._prior_constants[i], h._prior_constants[Structure.S3]
    gap = sum(c_i - c_3 - (p_i - p_3) * math.log(t) for (c_i, p_i), (c_3, p_3), t in zip(node_i, node_3, tau))
    return math.log(n_total) + 2.0 * post.log_odds(i, Structure.S3) - 2.0 * gap + math.log(h.lam) + math.log(m_i)
