"""Exact invariances, pinned by property: relabelling the two nodes of
observational data, and scaling the rate layer's and the edge reversal's
inputs by powers of two, bitwise; scaling the evidence's data by a power of
two, to a few rounding errors."""

import math
import sys

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

from bicausal import (
    BgeHyper,
    BicausalError,
    Params,
    RateId,
    RateInput,
    Structure,
    SuffStats,
    d12,
    d13,
    d21,
    d23,
    gamma_map,
    gamma_map_inverse,
    log_marginal_mixed,
    optimal_eta,
    posterior,
    pseudo_true_limits,
    quadrature_log_marginal,
    suffstats,
)
from bicausal.estimation import _SUMS

S1, S2, S3 = Structure.S1, Structure.S2, Structure.S3
#: Each structure's image when node 1 and node 2 trade places.
_RELABELLED = ((S1, S2), (S2, S1), (S3, S3))


@hs.composite
def _relabel_hypers(draw):
    """Priors that relabelling maps onto themselves: S1's child and root
    shapes are S2's (alpha1 = alpha4, alpha2 = alpha3), and S3's two are equal."""
    child, root, free = (draw(hs.floats(0.6, 20.0)) for _ in range(3))
    return BgeHyper(child, root, root, child, free, free, draw(hs.floats(0.05, 5.0)), draw(hs.floats(0.05, 5.0)))


@hs.composite
def _observational_rows(draw, max_rows=40):
    """Up to ``max_rows`` coupled rows, each column at its own scale."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    n = draw(hs.integers(0, max_rows))
    x1 = rng.standard_normal(n) * 10.0 ** draw(hs.floats(-3.0, 3.0))
    x2 = draw(hs.floats(-5.0, 5.0)) * x1 + rng.standard_normal(n) * 10.0 ** draw(hs.floats(-3.0, 3.0))
    return np.column_stack([x1, x2])


def _outcome(f, *args):
    """``f(*args)``'s value, bit for bit, or the type of error it raises."""
    try:
        return np.asarray(f(*args)).tobytes()
    except BicausalError as exc:
        return type(exc)


def _swapped(st: SuffStats) -> SuffStats:
    """Observational statistics with the nodes' columns traded."""
    return SuffStats(st.s2x, st.s1x, st.s12x, st.s1y, st.s2y, st.s12y, st.n, 0)


def _assert_relabelled(st: SuffStats, sw: SuffStats, h: BgeHyper) -> None:
    for s, image in _RELABELLED:
        got, want = log_marginal_mixed(sw, s, h), log_marginal_mixed(st, image, h)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (s, got, want)
    post, post_sw = posterior(st, h), posterior(sw, h)
    assert post_sw.logp.tobytes() == post.logp[[1, 0, 2]].tobytes()
    assert post_sw.p.tobytes() == post.p[[1, 0, 2]].tobytes()


class TestRelabelling:
    """Trading the nodes of observational data trades S1 and S2 and keeps
    S3, bit for bit, under a prior that relabelling keeps."""

    @given(_observational_rows(), _relabel_hypers())
    @settings(max_examples=150, deadline=None)
    def test_single_dataset(self, rows, h):
        st = suffstats(rows)
        sw = suffstats(rows[:, ::-1].copy())
        assert sw == _swapped(st)
        _assert_relabelled(st, sw, h)

    @given(hs.integers(1, 40), hs.integers(1, 6), hs.integers(0, 2**32 - 1), _relabel_hypers())
    @settings(max_examples=100, deadline=None)
    def test_batch(self, n, cells, seed, h):
        rng = np.random.default_rng(seed)
        stats = [suffstats(rng.standard_normal((n, 2)) @ rng.standard_normal((2, 2))) for _ in range(cells)]
        s1x, s2x, s12x = (np.array([getattr(st, name) for st in stats]) for name in ("s1x", "s2x", "s12x"))
        zeros = np.zeros(cells)
        st = SuffStats(s1x, s2x, s12x, zeros, zeros, zeros, n, 0)
        _assert_relabelled(st, _swapped(st), h)

    @given(_observational_rows(), _relabel_hypers())
    @settings(max_examples=60, deadline=None)
    def test_quadrature_oracle(self, rows, h):
        st, sw = suffstats(rows), suffstats(rows[:, ::-1].copy())
        for s, image in _RELABELLED:
            assert _outcome(quadrature_log_marginal, sw, s, h) == _outcome(quadrature_log_marginal, st, image, h), s


_SIGNED = hs.tuples(hs.sampled_from([-1.0, 1.0]), hs.floats(-20.0, 20.0)).map(lambda t: t[0] * 10.0 ** t[1])
_POSITIVE = hs.floats(-30.0, 30.0).map(lambda e: 10.0**e)


class TestPowerOfTwoScaling:
    """The exponents read the ratios ``w^2*tau2_sq/tau1_sq``,
    ``w^2*y^2/tau1_sq``, ``w^2*tau1_sq/tau2_sq`` and ``y^2/tau2_sq``, which
    scaling both variances by ``4^k`` and ``y`` by ``2^k`` keeps exactly; so
    each exponent keeps its bits."""

    @given(hs.one_of(hs.just(0.0), _SIGNED), _POSITIVE, _POSITIVE, hs.one_of(hs.just(0.0), _SIGNED),
           hs.one_of(hs.sampled_from([0.0, 1.0]), hs.floats(0.0, 1.0)), hs.integers(-60, 60))
    @settings(max_examples=200, deadline=None)
    def test_exponents_keep_their_bits(self, w, t1, t2, y, eta, k):
        scaled = Params(w, math.ldexp(t1, 2 * k), math.ldexp(t2, 2 * k)), math.ldexp(y, k)
        grid = np.array([eta, 0.25, 0.5, 0.75])
        for e in (eta, grid):
            base, other = RateInput(Params(w, t1, t2), y, e), RateInput(*scaled, e)
            for f in (d12, d21, d13, d23):
                assert np.asarray(f(base)).tobytes() == np.asarray(f(other)).tobytes(), (f.__name__, e)


def _normal(v: float) -> bool:
    return sys.float_info.min <= abs(v) <= sys.float_info.max


def _ldexp(v: float, k: int) -> float:
    """``v * 2^k``: exact in the normal range, rounded below it, inf past it."""
    try:
        return math.ldexp(v, k)
    except OverflowError:
        return math.inf


def _scaled(p: Params, k: int) -> np.ndarray:
    """``p`` with both variances times ``4^k``."""
    return np.array([p.w, _ldexp(p.tau1_sq, 2 * k), _ldexp(p.tau2_sq, 2 * k)])


class TestReversalScaling:
    """Scaling both variances by ``4^k`` and ``y`` by ``2^k``, with ``w``
    fixed, keeps every weight of both maps and of the pseudo-true limits and
    scales every variance by ``4^k``, bit for bit, wherever the result is a
    normal float: their products are formed on frexp mantissas. A call
    refuses only where a scaled result or the reversal's ``s`` leaves the
    normal range. ``optimal_eta``, which reads ratios alone, keeps its bits."""

    @given(hs.one_of(hs.just(0.0), _SIGNED), _POSITIVE, _POSITIVE, hs.one_of(hs.just(0.0), _SIGNED),
           hs.one_of(hs.sampled_from([0.0, 1.0, 5e-324]), hs.floats(0.0, 1.0)), hs.integers(-500, 500))
    @example(w=-1e19, t1=1.0, t2=1.0, y=0.0, eta=0.0, k=-475)  # gamma_map's tau2_sq scales to 1e-38*4^-475 = 0
    @settings(max_examples=200, deadline=None)
    def test_maps_and_limits_scale_exactly(self, w, t1, t2, y, eta, k):
        base, (_, *taus), ys = Params(w, t1, t2), _scaled(Params(w, t1, t2), k), _ldexp(y, k)
        assume(all(map(_normal, taus)) and (_normal(ys) or not y))
        scaled = Params(w, *taus)
        s1, s2 = gamma_map(base).tau1_sq, gamma_map_inverse(base).tau2_sq  # each reversal's s
        calls = [(lambda th, yv: {S2: gamma_map(th)}, s1), (lambda th, yv: {S1: gamma_map_inverse(th)}, s2)]
        calls += [(lambda th, yv, t=t: pseudo_true_limits(t, th, yv, eta), s) for t, s in ((S1, s1), (S2, s2))]
        for call, s in calls:
            try:
                want = {key: _scaled(p, k) for key, p in call(base, y).items()}
            except BicausalError:  # eta = y = 0 under a true S2 model
                continue
            try:
                got = call(scaled, ys)
            except BicausalError:
                # a weight of 0 stays 0; a variance that scales to 0 has left the floats
                assert not (_normal(_ldexp(s, 2 * k))
                            and all(_normal(v) or i == 0 and not v for p in want.values() for i, v in enumerate(p)))
                continue
            for key, fields in want.items():
                keep = [_normal(v) or not v for v in fields]
                assert got[key].as_array()[keep].tobytes() == fields[keep].tobytes(), (key, got[key], fields)

    @given(hs.one_of(hs.just(0.0), _SIGNED), _POSITIVE, _POSITIVE, hs.one_of(hs.just(0.0), _SIGNED),
           hs.integers(-500, 500))
    @settings(max_examples=100, deadline=None)
    def test_optimal_eta_keeps_its_bits(self, w, t1, t2, y, k):
        (_, *taus), ys = _scaled(Params(w, t1, t2), k), _ldexp(y, k)
        assume(all(map(_normal, taus)) and (_normal(ys) or not y))
        for rid in (RateId.D12, RateId.D21):
            assert _outcome(optimal_eta, rid, Params(w, t1, t2), y) == _outcome(optimal_eta, rid, Params(w, *taus), ys)


_SHAPES = hs.floats(0.1, 20.0)


def _term_size(st: SuffStats, h: BgeHyper) -> float:
    """The size of the evidence's largest terms: over the nodes, (the largest
    shape + count/2) times (1 + |log(yy + 2*beta)| + |log(2*beta)| + |log lam|)."""
    shape = max(h.alphas_for(S1) + h.alphas_for(S2) + h.alphas_for(S3))
    logs = abs(math.log(2.0 * h.beta)) + abs(math.log(h.lam))
    return sum((shape + 0.5 * f.count) * (1.0 + abs(math.log(f.yy + 2.0 * h.beta)) + logs) for f in st.factors[S3])


class TestEvidenceScaling:
    """Multiplying the data and ``y`` by ``2^k``, ``beta`` by ``4^k`` and
    dividing ``lam`` by ``4^k`` maps each prior onto the scaled one, so every
    log evidence shifts by the Jacobian of the ``2n + m`` free coordinates,
    ``-(2n + m)*k*log 2``: in floats within 4 eps of the two evidences' term
    sizes (at most 0.81 eps on 20,000 random draws). Both calls refuse, or
    neither."""

    @given(hs.lists(hs.tuples(_SIGNED, _SIGNED), max_size=12), hs.lists(_SIGNED, max_size=8),
           _SIGNED, hs.lists(_SHAPES, min_size=6, max_size=6), _POSITIVE, _POSITIVE, hs.integers(-150, 150))
    @settings(max_examples=200, deadline=None)
    def test_evidence_shifts_by_the_jacobian(self, pairs, y1, y, shapes, beta, lam, k):
        st = suffstats(np.array(pairs).reshape(-1, 2), np.column_stack([y1, np.full(len(y1), y)]) if y1 else None)
        sums = [getattr(st, name) for name in _SUMS]
        scaled_sums = [math.ldexp(v, 2 * k) for v in sums]
        assume(all(math.ldexp(v, -2 * k) == u for u, v in zip(sums, scaled_sums)))
        h = BgeHyper(*shapes, beta, lam)
        hk = BgeHyper(*shapes, math.ldexp(beta, 2 * k), math.ldexp(lam, -2 * k))
        scaled = SuffStats(*scaled_sums, st.n, st.m, math.ldexp(y, k) if st.m else None)
        shift, bound = -(2 * st.n + st.m) * k * math.log(2.0), 4.0 * sys.float_info.epsilon * (
            _term_size(st, h) + _term_size(scaled, hk))
        for s in Structure:
            got, want = _outcome(log_marginal_mixed, st, s, h), _outcome(log_marginal_mixed, scaled, s, hk)
            if isinstance(got, type) or isinstance(want, type):
                assert got is want, s
                continue
            assert abs(np.frombuffer(want)[0] - np.frombuffer(got)[0] - shift) <= bound, s
