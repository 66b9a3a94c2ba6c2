"""Fisher information, exact Hessians, Laplace evidence, and the quadrature
engine itself."""

import math
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from bicausal import (
    DegenerateData,
    InterventionSpec,
    InvalidParameter,
    NonConcaveAtMle,
    NonConvergedQuadrature,
    Params,
    Regime,
    Structure,
    bge_symmetric_hyper,
    fisher,
    hessian_diagnostics,
    laplace_log_marginal,
    log_marginal_mixed,
    loglik,
    loglik_hessian,
    mixed_fisher,
    mle_mixed,
    prior_logpdf,
    quadrature_log_marginal,
    quadrature_log_marginal_generic,
    sample_interv,
    sample_obs,
    suffstats,
)
from bicausal import approx
from bicausal.estimation import SuffStats

from conftest import mixed_data, random_params


class TestFisher:
    def test_s1_observational_unit(self):
        info = fisher(Structure.S1, Params(0.3, 1.0, 1.0), Regime.OBSERVATIONAL)
        np.testing.assert_array_equal(info, np.diag([1.0, 0.5, 0.5]))
        assert float(np.prod(np.diag(info))) == 0.25

    def test_interventional_requires_spec(self):
        with pytest.raises(InvalidParameter):
            fisher(Structure.S1, Params(1, 1, 1), Regime.INTERVENTIONAL)

    def test_weighted_det_limits(self):
        # closed-form determinant limits of the eta-weighted blocks
        rng = np.random.default_rng(1)
        for _ in range(50):
            theta = random_params(rng)
            t1, t2 = theta.tau1_sq, theta.tau2_sq
            y = float(rng.uniform(-2.5, 2.5))
            eta = float(rng.uniform(0.05, 0.95))
            iv = InterventionSpec(y)
            etabar = 1.0 - eta
            d1 = float(np.prod(np.diag(mixed_fisher(Structure.S1, theta, eta, iv))))
            d2 = float(np.prod(np.diag(mixed_fisher(Structure.S2, theta, eta, iv))))
            d3 = float(np.prod(np.diag(mixed_fisher(Structure.S3, theta, eta, iv))))
            assert d1 == pytest.approx(
                eta * (eta * t2 + etabar * y * y) / (4.0 * t1 ** 3 * t2 ** 2), rel=1e-12
            )
            assert d2 == pytest.approx(eta * eta / (4.0 * t2 ** 3 * t1), rel=1e-12)
            assert d3 == pytest.approx(eta / (4.0 * t1 ** 2 * t2 ** 2), rel=1e-12)

    @pytest.mark.parametrize("s", [Structure.S1, Structure.S2])
    def test_observational_matches_finite_differences(self, s):
        n = 100_000
        theta = Params(0.8, 1.3, 0.6)
        st = suffstats(sample_obs(s, theta, n, 3))
        hat = mle_mixed(st).for_structure(s)
        p0 = hat.as_array()
        eps = 1e-4
        fd = np.zeros((3, 3))
        for i in range(3):
            for j in range(i, 3):
                ei = np.zeros(3)
                ej = np.zeros(3)
                ei[i] = eps
                ej[j] = eps

                def f(v):
                    return loglik(st, s, Params(*v)) / n

                if i == j:
                    fd[i, i] = (f(p0 + ei) - 2 * f(p0) + f(p0 - ei)) / eps ** 2
                else:
                    fd[i, j] = fd[j, i] = (
                        f(p0 + ei + ej) - f(p0 + ei - ej) - f(p0 - ei + ej) + f(p0 - ei - ej)
                    ) / (4 * eps ** 2)
        expected = -fisher(s, hat, Regime.OBSERVATIONAL)
        np.testing.assert_allclose(fd, expected, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("s", [Structure.S1, Structure.S2, Structure.S3])
    def test_interventional_matches_finite_differences(self, s):
        m = 100_000
        theta_gen = Params(0.8, 1.3, 0.6) if s is not Structure.S3 else Params(0.0, 1.3, 0.6)
        iv = InterventionSpec(1.7)
        yv = sample_interv(s, theta_gen, iv, m, 4)
        st = suffstats(np.empty((0, 2)), yv)
        # per-regime optimum: w from the interventional regression (S1 only),
        # tau1_sq from the residual second moment; other slots arbitrary
        if s is Structure.S1:
            w_hat = st.s12y / st.s2y
            t1_hat = (st.s1y - 2 * w_hat * st.s12y + w_hat ** 2 * st.s2y) / m
            point = Params(w_hat, t1_hat, 0.9)
        else:
            point = Params(0.0 if s is Structure.S3 else 0.4, st.s1y / m, 0.9)
        dim = 2 if s is Structure.S3 else 3
        p0 = point.as_array()[:dim] if dim == 2 else point.as_array()
        if s is Structure.S3:
            p0 = np.array([point.tau1_sq, point.tau2_sq])

        def f(v):
            th = Params(0.0, *v) if s is Structure.S3 else Params(*v)
            return loglik(st, s, th) / m

        eps = 1e-5
        fd = np.zeros((dim, dim))
        for i in range(dim):
            ei = np.zeros(dim)
            ei[i] = eps
            fd[i, i] = (f(p0 + ei) - 2 * f(p0) + f(p0 - ei)) / eps ** 2
        expected = -fisher(s, point, Regime.INTERVENTIONAL, iv)
        np.testing.assert_allclose(np.diag(fd), np.diag(expected), rtol=1e-3, atol=1e-6)


class TestHessianDiagnostics:
    def _stats(self, n=400, seed=5):
        return suffstats(sample_obs(Structure.S1, Params(0.9, 1.1, 0.8), n, seed))

    def test_determinant_matches_factorization(self):
        # observational S1 data: at any theta, det H factors as
        # -(n^3 tau2_hat / (4 t1^3 t2^2)) (1 - 2 tau1_hat/t1) (1 - 2 tau2_hat/t2)
        st = self._stats()
        rng = np.random.default_rng(6)
        hat = mle_mixed(st).theta1
        n = st.n
        for _ in range(50):
            theta = Params(
                hat.w + rng.normal(0, 0.3),
                hat.tau1_sq * math.exp(rng.normal(0, 0.4)),
                hat.tau2_sq * math.exp(rng.normal(0, 0.4)),
            )
            t1, t2 = theta.tau1_sq, theta.tau2_sq
            rep = hessian_diagnostics(st, Structure.S1, theta)
            factored = (
                -(n ** 3)
                * hat.tau2_sq
                / (4.0 * t1 ** 3 * t2 ** 2)
                * (1.0 - 2.0 * hat.tau1_sq / t1)
                * (1.0 - 2.0 * hat.tau2_sq / t2)
            )
            assert rep.determinant == pytest.approx(factored, rel=1e-9)

    def test_at_mle(self):
        st = self._stats()
        hat = mle_mixed(st).theta1
        rep = hessian_diagnostics(st, Structure.S1, hat)
        assert rep.negative_definite
        assert np.all(rep.eigenvalues < 0)
        n = st.n
        expected = -(n ** 3) * hat.tau2_sq / (4.0 * hat.tau1_sq ** 3 * hat.tau2_sq ** 2)
        assert rep.determinant == pytest.approx(expected, rel=1e-9)

    def test_at_mle_with_unit_child_variance(self):
        # with tau2_hat^2 normalized to 1 the determinant is -n^3/(4 tau1^6 tau2^4)
        st = self._stats()
        hat = mle_mixed(st).theta1
        scale = 1.0 / hat.tau2_sq
        scaled = SuffStats(st.s1x, st.s2x * scale, st.s12x * math.sqrt(scale), 0, 0, 0, st.n, 0)
        hat2 = mle_mixed(scaled).theta1
        assert hat2.tau2_sq == pytest.approx(1.0, rel=1e-12)
        rep = hessian_diagnostics(scaled, Structure.S1, hat2)
        n = st.n
        assert rep.determinant == pytest.approx(
            -(n ** 3) / (4.0 * hat2.tau1_sq ** 3 * hat2.tau2_sq ** 2), rel=1e-9
        )

    def test_sign_flip_past_double_variance(self):
        st = self._stats()
        hat = mle_mixed(st).theta1
        inflated = Params(hat.w, hat.tau1_sq, 3.0 * hat.tau2_sq)
        assert hessian_diagnostics(st, Structure.S1, inflated).determinant > 0

    def test_mixed_hessian_cross_terms_vanish_at_mle(self):
        rng = np.random.default_rng(9)
        theta = Params(0.8, 1.2, 0.9)
        obs = sample_obs(Structure.S1, theta, 300, rng)
        interv = sample_interv(Structure.S1, theta, InterventionSpec(1.5), 150, rng)
        st = suffstats(obs, interv)
        for s in (Structure.S1, Structure.S2):
            hat = mle_mixed(st).for_structure(s)
            h = loglik_hessian(st, s, hat)
            off = h - np.diag(np.diag(h))
            assert np.max(np.abs(off)) < 1e-6 * np.max(np.abs(h))

    @given(mixed_data(min_n=2))
    @settings(max_examples=200, deadline=None)
    def test_mixed_hessian_cross_terms_vanish_at_mle_property(self, data):
        obs, interv, _ = data
        st = suffstats(obs, interv)
        # well-conditioned blocks only: near-collinear data put the MLE
        # variances at rounding level, where no sign is meaningful
        pooled = (st.s1x + st.s1y, st.s12x + st.s12y, st.s2x + st.s2y)
        for a, b, c in ((st.s1x, st.s12x, st.s2x), pooled):
            assume(min(a, c) > 1e-3 and a * c - b * b > 1e-6 * a * c)
        mle = mle_mixed(st)
        for s in Structure:
            h = loglik_hessian(st, s, mle.for_structure(s))
            off = h - np.diag(np.diag(h))
            assert np.max(np.abs(off)) <= 1e-10 * np.max(np.abs(h))
            assert np.all(np.linalg.eigvalsh(-h) > 0.0)


class TestLaplace:
    def test_error_shrinks_like_one_over_n(self, symmetric_hyper):
        h = symmetric_hyper
        gaps = []
        for n in (200, 2000):
            st = suffstats(sample_obs(Structure.S1, Params(1, 1, 1), n, 13))
            mle = mle_mixed(st)
            lap = laplace_log_marginal(
                st, Structure.S1, lambda t: prior_logpdf(t, Structure.S1, h), mle.theta1
            )
            exact = log_marginal_mixed(st, Structure.S1, h)
            gaps.append(abs(lap - exact))
        assert gaps[1] < gaps[0]

    def test_dimension_penalty_gap(self, symmetric_hyper):
        # scaling all statistics and counts by k shifts each structure's
        # evidence by (linear term) - (d/2) log k: the S3-vs-S1 offset is
        # (1/2) log k, the parameter-count penalty
        h = symmetric_hyper
        st = suffstats(sample_obs(Structure.S3, Params(0, 1, 1), 100, 2))
        k = 16
        st_k = SuffStats(
            st.s1x * k, st.s2x * k, st.s12x * k, 0.0, 0.0, 0.0, st.n * k, 0
        )
        mle = mle_mixed(st)
        mle_k = mle_mixed(st_k)

        def lap(stats, estimates, s):
            return laplace_log_marginal(
                stats, s, lambda t: prior_logpdf(t, s, h), estimates.for_structure(s)
            )

        def ell(stats, estimates, s):
            return loglik(stats, s, estimates.for_structure(s))

        gap = {}
        for s in (Structure.S1, Structure.S3):
            base = lap(st, mle, s) - ell(st, mle, s)
            scaled = lap(st_k, mle_k, s) - ell(st_k, mle_k, s)
            gap[s] = base - scaled
        assert gap[Structure.S1] == pytest.approx(1.5 * math.log(k), rel=1e-9)
        assert gap[Structure.S3] == pytest.approx(1.0 * math.log(k), rel=1e-9)

    def test_quadrature_agreement_moderate_n(self, symmetric_hyper):
        h = symmetric_hyper
        st = suffstats(sample_obs(Structure.S1, Params(1, 1, 1), 50, 21))
        mle = mle_mixed(st)
        for s in Structure:
            lap = laplace_log_marginal(st, s, lambda t, s=s: prior_logpdf(t, s, h), mle.for_structure(s))
            oracle = quadrature_log_marginal(st, s, h)
            assert abs(lap - oracle) / abs(oracle) < 0.02

    def test_non_concave_rejected(self, symmetric_hyper):
        st = suffstats(sample_obs(Structure.S1, Params(1, 1, 1), 100, 3))
        bogus = Params(0.0, 50.0, 50.0)
        with pytest.raises(NonConcaveAtMle):
            laplace_log_marginal(
                st, Structure.S1, lambda t: prior_logpdf(t, Structure.S1, symmetric_hyper), bogus
            )


class TestQuadratureEngine:
    def test_empty_data_gives_zero(self, symmetric_hyper):
        st = suffstats(np.empty((0, 2)))
        for s in Structure:
            assert abs(quadrature_log_marginal(st, s, symmetric_hyper)) < 1e-9

    def test_degenerate_data_falls_back_to_prior_centers(self, symmetric_hyper):
        # identically zero data has no MLE; the grids center on the prior modes
        st = suffstats(np.zeros((3, 2)))
        with pytest.raises(DegenerateData):
            mle_mixed(st)
        for s in Structure:
            exact = log_marginal_mixed(st, s, symmetric_hyper)
            oracle = quadrature_log_marginal(st, s, symmetric_hyper)
            assert abs(math.expm1(oracle - exact)) < 1e-4

    def test_cost_guard(self, symmetric_hyper):
        st = suffstats(sample_obs(Structure.S1, Params(1, 1, 1), 100, 3))
        with pytest.raises(InvalidParameter):
            quadrature_log_marginal(st, Structure.S1, symmetric_hyper)

    def test_generic_3d_cross_check(self, symmetric_hyper):
        h = symmetric_hyper
        rng = np.random.default_rng(14)
        obs = sample_obs(Structure.S1, Params(1, 1, 1), 6, rng)
        interv = sample_interv(Structure.S1, Params(1, 1, 1), InterventionSpec(1.5), 3, rng)
        st = suffstats(obs, interv)
        for s in Structure:
            a = quadrature_log_marginal(st, s, h)
            b = quadrature_log_marginal_generic(
                st, s, lambda t, s=s: prior_logpdf(t, s, h)
            )
            assert abs(a - b) < 1e-3

    def test_tail_that_needs_every_widening_still_integrates(self):
        # an IG(0.44) tail first clears the boundary test on the window
        # widened 8 times; that window is checked and used, not refused
        st = suffstats(np.empty((0, 2)), [[1.0, 1.5], [2.0, 1.5], [0.3, 1.5]])
        h = bge_symmetric_hyper(0.94, 0.5)
        got = quadrature_log_marginal(st, Structure.S1, h)
        assert abs(got - log_marginal_mixed(st, Structure.S1, h)) < 1e-9

    def test_heavy_tail_that_outgrows_the_window_is_an_error(self):
        # node 2 has no data and an IG(0.05) prior: its log-space tail decays
        # at rate 0.05, past every widening; the truncated integral was 5% low
        st = suffstats(np.empty((0, 2)), [[1.0, 1.5], [2.0, 1.5], [0.3, 1.5]])
        h = bge_symmetric_hyper(0.55, 0.5)
        assert h.alphas_for(Structure.S1)[1] == pytest.approx(0.05)
        with pytest.raises(NonConvergedQuadrature, match=r"^1d window \[.*\] keeps boundary mass after 8 widenings$"):
            quadrature_log_marginal(st, Structure.S1, h)

    @pytest.mark.parametrize("s", list(Structure))
    def test_huge_variances_match_exact_without_warnings(self, symmetric_hyper, s):
        # the top nodes of the x1 variance grid lie past the largest float
        st = _huge_variance_data()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quadrature_log_marginal(st, s, symmetric_hyper)
        want = log_marginal_mixed(st, s, symmetric_hyper)
        assert abs(got - want) <= 1e-10 * abs(want)


def _huge_variance_data():
    rows = [[3e152, 0.001], [-2e152, 0.002], [1e152, -0.001], [4e152, 0.0005], [-3e152, -0.002], [2e152, 0.001]]
    return suffstats(rows)


class TestGaussLegendreRule:
    def test_one_rule_per_node_count(self, symmetric_hyper, monkeypatch):
        built = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(k):
            built.append(k)
            return leggauss(k)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        approx._gl_rule.cache_clear()
        st = suffstats(sample_obs(Structure.S1, Params(1, 1, 1), 5, 3))
        for _ in range(2):
            for s in Structure:
                quadrature_log_marginal(st, s, symmetric_hyper)
        assert built
        assert len(built) == len(set(built))

    def test_cached_rule_is_read_only(self):
        x, w = approx._gl_rule(16)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    @pytest.mark.parametrize("k", [4, 48, 64, 729])
    def test_nodes_are_the_affine_map_of_leggauss(self, k):
        lo, hi = -3.7, 8.3
        x, w = np.polynomial.legendre.leggauss(k)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u, wu = approx._gl_nodes(k, lo, hi)
        np.testing.assert_array_equal(u, mid + half * x)
        np.testing.assert_array_equal(wu, half * w)


def _generic_reference(st, s, prior_logpdf_fn, w_window, nodes, w_nodes):
    """Tensor quadrature as a plain triple loop: one fresh Gauss-Legendre
    rule per weight cell and one ``Params`` per likelihood or prior call."""

    def gl(k, lo, hi):
        x, w = np.polynomial.legendre.leggauss(k)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return mid + half * x, half * w

    hat = mle_mixed(st).for_structure(s)
    c1, c2 = math.log(hat.tau1_sq), math.log(hat.tau2_sq)
    factors = st.factors[s]
    child = next((i for i, f in enumerate(factors) if f.has_parent), None)
    w_moment = 0.0 if child is None else factors[child].xx
    w_center = factors[child].xy / w_moment if w_moment > 0.0 else 0.0
    u1, wu1 = gl(nodes, c1 - 12.0, c1 + 12.0)
    u2, wu2 = gl(nodes, c2 - 12.0, c2 + 12.0)
    peak = -math.inf
    cells = []
    for j, a in enumerate(u1):
        t1 = math.exp(a)
        for k, b in enumerate(u2):
            t2 = math.exp(b)
            if child is None:
                theta = Params(0.0, t1, t2)
                lv = loglik(st, s, theta) + prior_logpdf_fn(theta) + a + b
            else:
                lo, hi = w_window
                if w_moment > 0.0:
                    half = 12.0 * math.sqrt((t1, t2)[child] / w_moment)
                    lo, hi = max(lo, w_center - half), min(hi, w_center + half)
                    if not lo < hi:
                        lo, hi = w_window
                wg, ww = gl(w_nodes, lo, hi)
                lw = np.array(
                    [
                        loglik(st, s, Params(float(w), t1, t2))
                        + prior_logpdf_fn(Params(float(w), t1, t2))
                        for w in wg
                    ]
                )
                m = float(np.max(lw))
                lv = m + math.log(float(np.sum(ww * np.exp(lw - m)))) + a + b
            cells.append((wu1[j] * wu2[k], lv))
            peak = max(peak, lv)
    total = 0.0
    for weight, lv in cells:
        total += weight * math.exp(lv - peak)
    return peak + math.log(total)


@pytest.mark.parametrize("s", list(Structure))
def test_generic_matches_reference_loop_bitwise(symmetric_hyper, s):
    rng = np.random.default_rng(14)
    obs = sample_obs(Structure.S1, Params(1, 1, 1), 6, rng)
    interv = sample_interv(Structure.S1, Params(1, 1, 1), InterventionSpec(1.5), 3, rng)
    st = suffstats(obs, interv)
    calls = []

    def prior(theta):
        calls.append(theta)
        return prior_logpdf(theta, s, symmetric_hyper)

    got = quadrature_log_marginal_generic(st, s, prior, nodes=8, w_nodes=6)
    assert len(calls) == (8 * 8 if s is Structure.S3 else 8 * 8 * 6)
    want = _generic_reference(
        st, s, lambda t: prior_logpdf(t, s, symmetric_hyper), (-20.0, 20.0), 8, 6
    )
    assert got == want


@pytest.mark.parametrize("s", list(Structure))
def test_every_evidence_route_returns_float(symmetric_hyper, s):
    rng = np.random.default_rng(14)
    obs = sample_obs(Structure.S1, Params(1, 1, 1), 6, rng)
    interv = sample_interv(Structure.S1, Params(1, 1, 1), InterventionSpec(1.5), 3, rng)
    st = suffstats(obs, interv)

    def prior(theta):
        return prior_logpdf(theta, s, symmetric_hyper)

    values = [
        log_marginal_mixed(st, s, symmetric_hyper),
        quadrature_log_marginal(st, s, symmetric_hyper),
        quadrature_log_marginal_generic(st, s, prior, nodes=8, w_nodes=6),
        laplace_log_marginal(st, s, prior, mle_mixed(st).for_structure(s)),
    ]
    assert [type(v) for v in values] == [float] * 4


def _laplace_weight_prior(s, h, scale=0.7):
    """A non-conjugate prior: the structure's inverse-gamma variance factors
    (the S3 prior on the variances) times a Laplace(0, ``scale``) weight."""

    def fn(theta):
        variances = prior_logpdf(Params(0.0, theta.tau1_sq, theta.tau2_sq), Structure.S3, h)
        if s is Structure.S3:
            return variances
        return variances - abs(theta.w) / scale - math.log(2.0 * scale)

    return fn


def _recording(fn):
    thetas = []

    def wrapped(theta):
        thetas.append(theta)
        return fn(theta)

    return wrapped, thetas


def _informative(st) -> bool:
    """Whether every structure has an MLE (the reference loop centers on it)."""
    try:
        mle_mixed(st)
    except DegenerateData:
        return False
    return True


class TestGenericOracleSlabs:
    """The generic oracle evaluates the likelihood one slab at a time; its
    value and its callback calls are those of the scalar triple loop."""

    @given(mixed_data(min_n=2), hs.integers(4, 10), hs.integers(2, 6), hs.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop_bitwise(self, symmetric_hyper, data, nodes, w_nodes, laplace):
        obs, interv, _ = data
        st = suffstats(obs, interv)
        assume(_informative(st))
        h = symmetric_hyper
        for s in Structure:
            fn = _laplace_weight_prior(s, h) if laplace else (lambda t, s=s: prior_logpdf(t, s, h))
            got = quadrature_log_marginal_generic(st, s, fn, nodes=nodes, w_nodes=w_nodes)
            want = _generic_reference(st, s, fn, (-20.0, 20.0), nodes, w_nodes)
            assert type(got) is float
            assert got == want

    @pytest.mark.parametrize("s", list(Structure))
    def test_callback_contract(self, symmetric_hyper, s):
        st = suffstats(sample_obs(Structure.S1, Params(1, 1, 1), 7, 5))
        fn = _laplace_weight_prior(s, symmetric_hyper)
        got_fn, thetas = _recording(fn)
        want_fn, want = _recording(fn)
        quadrature_log_marginal_generic(st, s, got_fn, nodes=5, w_nodes=3)
        _generic_reference(st, s, want_fn, (-20.0, 20.0), 5, 3)
        got = [(t.w, t.tau1_sq, t.tau2_sq) for t in thetas]
        # one call per node, in (tau1_sq, tau2_sq, w) order, w fastest
        assert len(got) == (5 * 5 if s is Structure.S3 else 5 * 5 * 3)
        assert got == [(t.w, t.tau1_sq, t.tau2_sq) for t in want]
        assert all(type(x) is float for call in got for x in call)
        t1 = [c[1] for c in got]
        assert t1 == sorted(t1)
        if s is Structure.S3:
            assert all(c[0] == 0.0 for c in got)
        # each node skips Params' checks, not its type or behaviour
        for theta, (w, t1, t2) in zip(thetas, got):
            assert type(theta) is Params
            for name in ("w", "tau1_sq", "tau2_sq"):
                with pytest.raises(FrozenInstanceError):
                    setattr(theta, name, 1.0)
            twin = Params(w, t1, t2)
            assert theta == twin and hash(theta) == hash(twin) and repr(theta) == repr(twin)


class TestGenericOracleGrid:
    """The window and the grid are checked at entry, before the first
    callback; a bad window or a grid that would overflow raises
    ``InvalidParameter``, with no numpy warning on the way."""

    @pytest.mark.parametrize("s", list(Structure))
    @pytest.mark.parametrize(
        "window", [(-math.inf, math.inf), (-20.0, math.inf), (math.nan, 20.0), (5.0, -5.0), (1.0, 1.0)]
    )
    def test_non_finite_w_window_is_rejected_at_entry(self, symmetric_hyper, s, window):
        # the weight moment is 0 under S1, so the window would be used as is;
        # a reversed or empty window fails the same check (under S1 it read
        # as a grid with no prior-times-likelihood mass)
        st = suffstats([[1, 0], [2, 0], [0.5, 0]])
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="w_window must be finite"):
                quadrature_log_marginal_generic(st, s, calls.append, w_window=window)
        assert calls == []

    @pytest.mark.parametrize("s", list(Structure))
    def test_huge_variance_is_rejected_at_entry(self, s):
        # the grid around an MLE variance of about 7e304 reaches past the
        # largest float; this raised a raw OverflowError
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match=r"^log-variances \(70\d\.\d+, -13\.\d+\) beyond \+-697\.8 overflow the grid$"):
                quadrature_log_marginal_generic(_huge_variance_data(), s, calls.append)
        assert calls == []

    def test_overflowing_weight_nodes_raise_the_first_nodes_error(self):
        # a finite window wider than the largest float spreads its nodes to
        # +-inf
        st = suffstats([[1, 0], [2, 0], [0.5, 0]])
        calls = []
        with pytest.raises(InvalidParameter, match=r"^w_window \(-1e\+308, 1e\+308\) is too wide: its weight nodes overflow$"):
            quadrature_log_marginal_generic(
                st, Structure.S1, calls.append, w_window=(-1e308, 1e308), nodes=6, w_nodes=4
            )
        assert calls == []

    @pytest.mark.parametrize("s", list(Structure))
    @pytest.mark.parametrize("centers", [(-800.0, 0.0), (0.0, -800.0), (-800.0, -800.0)])
    def test_underflowing_variance_nodes_raise_the_first_nodes_error(self, monkeypatch, s, centers):
        # exp(-812) is 0.0: the lowest nodes of that axis would underflow
        monkeypatch.setattr(approx, "_quadrature_centers", lambda st, s, fallback: centers)
        calls = []
        with pytest.raises(InvalidParameter) as got:
            quadrature_log_marginal_generic(_oracle_data(), s, calls.append, nodes=6, w_nodes=4)
        assert str(got.value) == f"log-variances {centers!r} beyond +-697.8 overflow the grid"
        assert calls == []


def _oracle_data():
    rng = np.random.default_rng(14)
    obs = sample_obs(Structure.S1, Params(1, 1, 1), 6, rng)
    interv = sample_interv(Structure.S1, Params(1, 1, 1), InterventionSpec(1.5), 3, rng)
    return suffstats(obs, interv)


class TestPriorCallbackRobustness:
    @pytest.mark.parametrize("s", list(Structure))
    @pytest.mark.parametrize("value", [-math.inf, math.nan, math.inf])
    def test_grid_without_mass(self, s, value):
        # no mass at all: NaN and +inf are rejected at the first node, -inf
        # everywhere leaves nothing to integrate
        expected = NonConvergedQuadrature if value == -math.inf else InvalidParameter
        with pytest.raises(expected):
            quadrature_log_marginal_generic(_oracle_data(), s, lambda t: value, nodes=6, w_nodes=4)

    def test_nan_on_every_weight_cell_names_the_node(self, symmetric_hyper):
        def fn(theta):
            return math.nan if theta.w != 0.0 else prior_logpdf(theta, Structure.S1, symmetric_hyper)

        with pytest.raises(InvalidParameter, match=r"NaN at Params\(w=.*tau1_sq=.*tau2_sq="):
            quadrature_log_marginal_generic(_oracle_data(), Structure.S1, fn, nodes=6, w_nodes=4)

    @pytest.mark.parametrize("s", list(Structure))
    def test_nan_on_part_of_the_grid(self, symmetric_hyper, s):
        # the parent returned NaN here under S3 and dropped the NaN cells
        # from the integral silently under S1 and S2
        st = _oracle_data()
        hat = mle_mixed(st).for_structure(s)

        def fn(theta):
            if theta.tau2_sq > 4.0 * hat.tau2_sq:
                return math.nan
            return prior_logpdf(theta, s, symmetric_hyper)

        with pytest.raises(InvalidParameter, match="NaN"):
            quadrature_log_marginal_generic(st, s, fn, nodes=6, w_nodes=4)

    @pytest.mark.parametrize("s", list(Structure))
    def test_positive_infinity_at_one_node_names_it(self, symmetric_hyper, s):
        # unchecked, the cell holding the node drops out of the integral (its
        # row max is +inf, so its mass is NaN) and a finite value comes back
        calls = []

        def fn(theta):
            calls.append(theta)
            return math.inf if len(calls) == 1 else prior_logpdf(theta, s, symmetric_hyper)

        with pytest.raises(InvalidParameter, match=r"\+inf at Params\(w=.*tau1_sq=.*tau2_sq=") as info:
            quadrature_log_marginal_generic(_oracle_data(), s, fn, nodes=6, w_nodes=4)
        assert str(calls[0]) in str(info.value)

    @pytest.mark.parametrize("s", list(Structure))
    def test_truncated_prior_still_integrates(self, symmetric_hyper, s):
        # -inf on part of the grid is a prior with bounded support: those
        # nodes carry no mass, and the rest integrate as before
        st = _oracle_data()
        hat = mle_mixed(st).for_structure(s)

        def fn(theta):
            if theta.w < 0.0 or theta.tau1_sq > 4.0 * hat.tau1_sq:
                return -math.inf
            return prior_logpdf(theta, s, symmetric_hyper)

        got = quadrature_log_marginal_generic(st, s, fn, nodes=8, w_nodes=6)
        full = quadrature_log_marginal_generic(
            st, s, lambda t: prior_logpdf(t, s, symmetric_hyper), nodes=8, w_nodes=6
        )
        assert math.isfinite(got) and got < full
        if s is Structure.S3:  # the reference loop has no weight cells to skip
            assert got == _generic_reference(st, s, fn, (-20.0, 20.0), 8, 6)

    def test_laplace_rejects_nan_prior(self):
        st = _oracle_data()
        mle = mle_mixed(st).for_structure(Structure.S1)
        with pytest.raises(InvalidParameter, match="NaN"):
            laplace_log_marginal(st, Structure.S1, lambda t: math.nan, mle)

    def test_laplace_rejects_positive_infinite_prior(self):
        # unchecked, the evidence is +inf
        st = _oracle_data()
        mle = mle_mixed(st).for_structure(Structure.S1)
        with pytest.raises(InvalidParameter, match=r"\+inf at Params\("):
            laplace_log_marginal(st, Structure.S1, lambda t: math.inf, mle)
