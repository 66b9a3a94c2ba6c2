"""Fisher information, exact Hessians, Laplace evidence, and the quadrature
engine itself."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings

from bicausal import (
    DegenerateData,
    InterventionSpec,
    InvalidParameter,
    NonConcaveAtMle,
    Params,
    Regime,
    Structure,
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
