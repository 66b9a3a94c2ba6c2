"""Fisher information, exact Hessians, Laplace evidence, and the quadrature
engine itself."""

import math
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as hs

from bicausal import (
    ArgumentOutOfDomain,
    BgeHyper,
    BicausalError,
    Cov2,
    DegenerateData,
    InterventionSpec,
    InvalidParameter,
    NonConcaveAtMle,
    NonConvergedQuadrature,
    NumericalDegeneracy,
    Params,
    Regime,
    Structure,
    augmented_odds_statistic,
    bge_symmetric_hyper,
    fisher,
    hessian_diagnostics,
    implied_covariance,
    laplace_log_marginal,
    log_marginal_mixed,
    loglik,
    loglik_hessian,
    mixed_fisher,
    mle_mixed,
    posterior,
    prior_logpdf,
    quadrature_log_marginal,
    quadrature_log_marginal_generic,
    sample_interv,
    sample_obs,
    sample_suffstats,
    suffstats,
)
from bicausal import approx
from bicausal.estimation import SuffStats, _loglik

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


    def test_curvatures_far_apart_are_negative_definite(self, symmetric_hyper):
        # two rows scaled by about 5e10 and 7e44: at the S2 MLE the curvatures
        # are -3.5e-43, -3.2e-68 and -8.9e-179, eigvalsh read the smallest
        # eigenvalue of -H as -7.4e-210, and the route raised NonConcaveAtMle
        st = suffstats([[-5.26e10, 3.71e44], [-2.47e10, 6.83e44]])
        mle = mle_mixed(st).theta2
        assert hessian_diagnostics(st, Structure.S2, mle).negative_definite
        # log det(-H) from -H scaled to a unit diagonal, then scaled back
        neg = -loglik_hessian(st, Structure.S2, mle)
        scale = 1.0 / np.sqrt(np.diag(neg))
        sign, logdet = np.linalg.slogdet(neg * np.outer(scale, scale))
        assert sign == 1.0
        logdet -= 2.0 * float(np.sum(np.log(scale)))
        want = (loglik(st, Structure.S2, mle) + 1.5 * math.log(2.0 * math.pi) - 0.5 * logdet
                + prior_logpdf(mle, Structure.S2, symmetric_hyper))
        lap = laplace_log_marginal(st, Structure.S2, lambda t: prior_logpdf(t, Structure.S2, symmetric_hyper), mle)
        assert lap == pytest.approx(want, rel=1e-14)


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

    def test_overflowing_rate_is_refused(self):
        # quad/2 + beta overflows, so the mode log(B/k) is inf; the closed
        # form reads NaN there
        st = suffstats([[1e-100, 7e153], [2e-100, -7e153], [0.5e-100, 7e153]])
        h = BgeHyper(3, 3, 3, 3, 3, 3, 1.7e308, 1.0)
        for s in Structure:
            with pytest.raises(NonConvergedQuadrature, match=r" at inf is below the float resolution$"):
                quadrature_log_marginal(st, s, h)

    def test_concentrated_prior_matches_exact(self):
        # shapes and beta of 1e4: each variance's mass lies within about
        # 0.01 of its mode, which windows centred at the MLE did not resolve
        st = suffstats([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0]])
        h = bge_symmetric_hyper(1e4, 1e4)
        for s in Structure:
            want = log_marginal_mixed(st, s, h)
            assert abs(quadrature_log_marginal(st, s, h) - want) < 1e-9 * abs(want)

    def test_collinear_rows_at_huge_lambda_match_exact(self):
        # yy - xy^2/(xx + 1/lam) rounds to -1 ulp of yy on collinear rows;
        # that form is 0, not a NumericalDegeneracy
        st = suffstats([[1, 0.3], [-2, -0.6]])
        h = BgeHyper(3, 3, 3, 3, 3, 3, 0.5, 1e300)
        for s, want in ((Structure.S1, -346.567), (Structure.S2, -353.452)):
            got = quadrature_log_marginal(st, s, h)
            assert got == pytest.approx(want, abs=1e-3)
            assert abs(got - log_marginal_mixed(st, s, h)) < 1e-9 * abs(want)

    def test_huge_lambda_times_moment_matches_exact(self):
        # lam * (xx + 1/lam) overflows: S2's evidence read -inf
        st = _huge_variance_data()
        h = BgeHyper(3, 3, 3, 3, 3, 3, 0.5, 1e300)
        for s in Structure:
            want = log_marginal_mixed(st, s, h)
            assert abs(quadrature_log_marginal(st, s, h) - want) < 1e-10 * abs(want)

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


# the hyperparameter sets of the oracle benchmark and of criterion 3
WORKLOAD_HYPERS = [
    bge_symmetric_hyper(3.0, 0.5),
    BgeHyper(4.0, 2.5, 2.5, 3.0, 3.0, 3.0, 0.5, 1.0),
    BgeHyper(2.0, 1.5, 1.8, 2.2, 1.2, 2.8, 0.8, 0.6),
]
_coord = hs.floats(-10.0, 10.0, allow_subnormal=False)


def _conjugate_reference(st, s, h):
    """The conjugate oracle integrated one axis at a time in u = log tau_sq,
    its integrand ``c - k*u - B*exp(-u)`` written out: each axis's window
    is tested on a 48-node pass per widening (boundary height against the
    highest node), then climbs the node ladder on its own."""
    (quad1, const1), (quad2, const2) = (approx._weight_collapsed(f, h.lam) for f in st.factors[s])
    if quad1 < 0.0 or quad2 < 0.0:
        raise NumericalDegeneracy("negative residual quadratic form")

    def log_integral_1d(logf, lo, hi, k):
        x, w = approx._gl_rule(k)
        u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        lf = logf(u)
        peak = float(np.max(lf))
        total = float(np.sum(0.5 * (hi - lo) * w * np.exp(lf - peak)))
        return peak + math.log(total), max(logf(np.array([lo, hi])).tolist()) - peak

    def log_integral(quad, cnt, shape):
        k, log_b = 0.5 * cnt + shape, math.log(0.5 * quad + h.beta)
        c = shape * math.log(h.beta) - math.lgamma(shape)

        def logf(u):
            return c - k * u - np.exp(log_b - u)

        center, half = log_b - math.log(k), 12.0 * min(1.0, k**-0.5)
        if not half > 1e-9 * max(1.0, abs(center)):
            raise NonConvergedQuadrature("1d window below the float resolution")
        lo, hi = center - half, center + half
        for widenings in range(9):
            if log_integral_1d(logf, lo, hi, 48)[1] < math.log(1e-10):
                break
            if widenings == 8:
                raise NonConvergedQuadrature("1d window keeps boundary mass after 8 widenings")
            lo, hi = lo - 6.0, hi + 6.0
        prev = None
        for k_nodes in (64, 96, 144, 216, 324, 486, 729):
            val = log_integral_1d(logf, lo, hi, k_nodes)[0]
            if prev is not None and abs(val - prev) < 1e-6:
                return val
            prev = val
        raise NonConvergedQuadrature("1d refinement stalled")

    (f1, f2), (a1, a2) = st.factors[s], h.alphas_for(s)
    with np.errstate(over="ignore"):
        log_i1 = log_integral(quad1, f1.count, a1)
        log_i2 = log_integral(quad2, f2.count, a2)
    return -(st.n + 0.5 * st.m) * math.log(2.0 * math.pi) + const1 + const2 + log_i1 + log_i2


def _outcome(fn, *args):
    """``(value, None)``, or ``(None, error type)`` for a library error."""
    try:
        return fn(*args), None
    except BicausalError as e:
        return None, type(e)


class TestConjugateOracleReference:
    @given(
        hs.lists(hs.tuples(_coord, _coord), max_size=8),
        hs.lists(_coord, max_size=5),
        hs.floats(-3.0, 3.0, allow_subnormal=False),
        hs.sampled_from(WORKLOAD_HYPERS),
        hs.sampled_from(list(Structure)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_axis_reference(self, pairs, y1, y, h, s):
        obs = np.array(pairs, dtype=np.float64).reshape(-1, 2)
        st = suffstats(obs, np.column_stack([y1, np.full(len(y1), y)]) if y1 else None)
        got, got_err = _outcome(quadrature_log_marginal, st, s, h)
        want, want_err = _outcome(_conjugate_reference, st, s, h)
        assert got_err is want_err
        if want_err is None:
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("s", list(Structure))
    def test_shapes_of_1e10_match_exact(self, s):
        # the u-space integrand's terms of about 2e11 cancelled, and the
        # reference's ladder stalls on their rounding noise
        st = suffstats([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0]])
        h = BgeHyper(*[1e10] * 6, 0.5, 1.0)
        if s is not Structure.S1:
            with pytest.raises(NonConvergedQuadrature):
                _conjugate_reference(st, s, h)
        want = log_marginal_mixed(st, s, h)
        assert abs(quadrature_log_marginal(st, s, h) - want) < 1e-9 * abs(want)


def _axis_reference(k):
    """One log-variance axis integrated with no memo: ``("value", v)``, or the
    failure's ``(kind, k-only fact)``. Each level is the ``math.fsum`` of
    its node terms ``exp(-k*(d + expm1(-d))) * w`` with ``d = half * x``."""
    half = 12.0 * min(1.0, k**-0.5)
    for widenings in range(9):
        if max(-k * (d + math.expm1(-d)) for d in (-half, half)) < math.log(1e-10):
            break
        if widenings == 8:
            return "window", half
        half += 6.0
    prev = math.inf
    for nodes in (64, 96, 144, 216, 324, 486, 729):
        x, w = np.polynomial.legendre.leggauss(nodes)
        d = half * x
        level = math.log(half * math.fsum(np.exp(-k * (d + np.expm1(-d))) * w))
        if abs(level - prev) < 1e-6:
            return "value", level
        prev = level
    return "stalled", prev


class TestAxisMemo:
    """The conjugate oracle's per-axis outcome depends on ``k`` alone and is
    memoised on it, a failure as much as a value."""

    @staticmethod
    def _memoised(k):
        return approx._log_axis_integral(k, 12.0 * min(1.0, k**-0.5), approx._NODE_LADDER)

    @given(hs.floats(1e-2, 1e12))
    @example(0.5)  # widens six times, then converges
    @example(0.05)  # keeps boundary mass after eight widenings
    @example(1e26 + 1.5)  # the ladder stalls on rounding noise
    @settings(max_examples=60, deadline=None)
    def test_equals_an_uncached_evaluation_bitwise(self, k):
        want = _axis_reference(k)
        assert self._memoised(k) == want  # a miss, or a hit from an earlier example
        assert self._memoised(k) == want

    def test_datasets_of_one_shape_share_their_integrals(self):
        rng = np.random.default_rng(3)
        approx._log_axis_integral.cache_clear()
        for _ in range(32):
            interv = np.column_stack([rng.normal(size=3), np.full(3, 1.5)])
            st = suffstats(rng.normal(size=(4, 2)), interv)
            for s in Structure:
                quadrature_log_marginal(st, s, WORKLOAD_HYPERS[2])
        info = approx._log_axis_integral.cache_info()
        assert info.misses <= 6 and info.hits + info.misses == 32 * 3 * 2

    # (hits, misses) over two calls: node 1 stalls, so each call reads one
    # axis; node 1's integral converges and node 2's window fails, so each
    # call reads two. The second call reads only hits.
    @pytest.mark.parametrize(
        "rows, interv, h, pattern, counts",
        [
            ([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0]], None, BgeHyper(*[1e26] * 6, 0.5, 1.0),
             r"^1d refinement stalled at 729 nodes \(last value ", (1, 1)),
            (np.empty((0, 2)), [[1.0, 1.5], [2.0, 1.5], [0.3, 1.5]], bge_symmetric_hyper(0.55, 0.5),
             r"^1d window \[.*\] keeps boundary mass after 8 widenings$", (2, 2)),
        ],
        ids=["stalled", "window"],
    )
    def test_a_failing_axis_is_memoised(self, rows, interv, h, pattern, counts):
        st = suffstats(rows, interv)
        approx._log_axis_integral.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(NonConvergedQuadrature, match=pattern) as info:
                quadrature_log_marginal(st, Structure.S1, h)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        info = approx._log_axis_integral.cache_info()
        assert (info.hits, info.misses) == counts

    # node 1 stalls (shape 1e26) while node 2, on its own, fails its window
    # (shape 0.05) or its float resolution (1e33): the first failing axis in
    # node order raises
    @pytest.mark.parametrize(
        "s, node1_shape, h, node2_pattern",
        [
            (Structure.S1, "alpha1", BgeHyper(1e26, 0.05, 3.0, 3.0, 3.0, 3.0, 0.5, 1.0), r"^1d window \["),
            (Structure.S2, "alpha3", BgeHyper(3.0, 3.0, 1e26, 1e33, 3.0, 3.0, 0.5, 1.0), r"float resolution$"),
        ],
        ids=["window", "resolution"],
    )
    def test_the_first_failing_axis_in_node_order_raises(self, s, node1_shape, h, node2_pattern):
        st = suffstats(np.empty((0, 2)))
        with pytest.raises(NonConvergedQuadrature, match=r"^1d refinement stalled at 729 nodes \(last value 18897"):
            quadrature_log_marginal(st, s, h)
        with pytest.raises(NonConvergedQuadrature, match=node2_pattern):
            quadrature_log_marginal(st, s, replace(h, **{node1_shape: 3.0}))


class TestGaussLegendreRule:
    def test_one_rule_per_node_count(self, symmetric_hyper, monkeypatch):
        built = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(k):
            built.append(k)
            return leggauss(k)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        approx._gl_rule.cache_clear()
        approx._log_axis_integral.cache_clear()
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

    @pytest.mark.parametrize("k", [64, 729])
    def test_level_is_a_scalar_leggauss_sum(self, k, monkeypatch):
        # a ladder of one level twice returns that level; it equals the
        # u-space integrand exp(c - k*u - B*exp(-u)) summed one float at a
        # time over leggauss nodes on each axis's window around log(B/k)
        monkeypatch.setattr(approx, "_NODE_LADDER", (k, k))
        st = suffstats([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0]])
        h = bge_symmetric_hyper(10.0, 0.5)
        x, w = (a.tolist() for a in np.polynomial.legendre.leggauss(k))
        want = -3.0 * math.log(2.0 * math.pi)
        for f, shape in zip(st.factors[Structure.S3], h.alphas_for(Structure.S3)):
            kk, b = 0.5 * f.count + shape, 0.5 * f.yy + h.beta
            mode, half = math.log(b / kk), 12.0 * min(1.0, kk**-0.5)
            assert -kk * (half + math.expm1(-half)) < math.log(1e-10)  # no widening
            c = shape * math.log(h.beta) - math.lgamma(shape)
            us = [mode + half * xj for xj in x]
            terms = [half * wj * math.exp(c - kk * u - b * math.exp(-u)) for u, wj in zip(us, w)]
            want += math.log(math.fsum(terms))
        assert quadrature_log_marginal(st, Structure.S3, h) == pytest.approx(want, rel=1e-13)


class TestGaussHermiteRule:
    def test_cached_rule_is_read_only(self):
        z, lw = approx._gh_rule(16)
        assert approx._gh_rule(16)[0] is z
        with pytest.raises(ValueError):
            z[0] = 0.0
        with pytest.raises(ValueError):
            lw[0] = 0.0

    @pytest.mark.parametrize("k", [4, 16, 48])
    def test_rule_integrates_a_gaussian_times_a_polynomial(self, k):
        # sum(exp(lw) * f(z)) is the plain integral of f over the line
        z, lw = approx._gh_rule(k)
        x, w = np.polynomial.hermite.hermgauss(k)
        np.testing.assert_array_equal(z, math.sqrt(2.0) * x)
        got = float(np.sum(np.exp(lw) * np.exp(-0.5 * z * z) * (1.0 + z * z)))
        assert got == pytest.approx(2.0 * math.sqrt(2.0 * math.pi), rel=1e-12)


def _generic_reference(st, s, prior_logpdf_fn, nodes, w_nodes):
    """The generic oracle at one fixed level as a plain scalar loop: the
    oracle's own mode search gives the centre and the Cholesky factor, then
    one ``Params`` per node, ``tau1_sq`` outermost and ``w`` fastest, with
    the node's coordinates, weight and log-weight formed one float at a time.
    The slab sums are the oracle's log-sum-exp."""
    log_target, const = approx._log_target(st, s, prior_logpdf_fn)
    d = 2 if s is Structure.S3 else 3
    centre, chol = approx._mode_and_scale(log_target, approx._mode_start(st, s), d, strict=False)
    c, L = centre.tolist(), chol.tolist()
    f = next((f for f in st.factors[s] if f.has_parent), None)
    child = [f.has_parent for f in st.factors[s]].index(True) if f is not None else None
    informative = f is not None and f.xx >= sys.float_info.min and math.isfinite(f.xy / f.xx)
    xx, w_hat = (f.xx, f.xy / f.xx) if informative else (1.0, 0.0)
    (z1, lw1), (z2, lw2), (z3, lw3) = (
        [a.tolist() for a in approx._gh_rule(k)] for k in (nodes, nodes, w_nodes)
    )
    slabs = []
    for zi, lwi in zip(z1, lw1):
        u1 = c[0] + L[0][0] * zi
        lg = []
        for zj, lwj in zip(z2, lw2):
            u2 = c[1] + L[1][0] * zi + L[1][1] * zj
            t1, t2 = math.exp(u1), math.exp(u2)
            if d == 2:
                p = prior_logpdf_fn(Params(0.0, t1, t2))
                lg.append(_loglik(st, s, 0.0, t1, t2, u1, u2) + p + (u1 + u2) + (lwi + lwj))
                continue
            for zk, lwk in zip(z3, lw3):
                v = c[2] + L[2][0] * zi + L[2][1] * zj + L[2][2] * zk
                w = w_hat + math.sqrt((t1, t2)[child]) * (1.0 / math.sqrt(xx)) * v
                p = prior_logpdf_fn(Params(w, t1, t2))
                jac = u1 + u2 + 0.5 * (u1, u2)[child]
                lg.append(_loglik(st, s, w, t1, t2, u1, u2) + p + jac + (lwi + (lwj + lwk)))
        lg = np.array(lg)
        peak = float(lg.max())
        slabs.append(peak + math.log(float(np.sum(np.exp(lg - peak)))) if peak > -math.inf else -math.inf)
    peak = max(slabs)
    total = 0.0
    for lv in slabs:
        total += math.exp(lv - peak)
    return peak + math.log(total) + float(np.sum(np.log(np.diag(chol)))) + const


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
    assert len(calls) == _search_calls(s) + (8 * 8 if s is Structure.S3 else 8 * 8 * 6)
    want = _generic_reference(st, s, lambda t: prior_logpdf(t, s, symmetric_hyper), 8, 6)
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


def _informative(st) -> bool:
    """Whether every structure has an MLE."""
    try:
        mle_mixed(st)
    except DegenerateData:
        return False
    return True


def _recording(fn):
    thetas = []

    def wrapped(theta):
        thetas.append(theta)
        return fn(theta)

    return wrapped, thetas



def _search_calls(s):
    """The mode search's callbacks, the same for any data: two starts, a
    block of differences per Newton step and at the last point, and a block
    of trial points per Newton step."""
    d = 2 if s is Structure.S3 else 3
    stencil = 2 * d + 2 * d * (d - 1)
    steps = approx._NEWTON_STEPS
    return 2 + (steps + 1) * stencil + steps * len(approx._LINE_FRACTIONS)


class TestGenericOracleSlabs:
    """The generic oracle evaluates its rule one slab at a time; its value
    and its callback calls are those of the scalar loop over the nodes, and
    the mode search before them makes the same number of calls for any
    data."""

    @given(mixed_data(), hs.integers(4, 10), hs.integers(2, 6), hs.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop_bitwise(self, symmetric_hyper, data, nodes, w_nodes, laplace):
        # a fixed level returns a value for every dataset, the kinked prior's
        # too: a search that ends without negative-definite curvature keeps
        # the last factor it found
        obs, interv, _ = data
        st = suffstats(obs, interv)
        h = symmetric_hyper
        for s in Structure:
            fn, calls = _recording(_laplace_weight_prior(s, h) if laplace else (lambda t, s=s: prior_logpdf(t, s, h)))
            got = quadrature_log_marginal_generic(st, s, fn, nodes=nodes, w_nodes=w_nodes)
            assert len(calls) == _search_calls(s) + nodes * nodes * (1 if s is Structure.S3 else w_nodes)
            assert type(got) is float
            assert got == _generic_reference(st, s, fn, nodes, w_nodes)

    @pytest.mark.parametrize("s", list(Structure))
    def test_callback_contract(self, symmetric_hyper, s):
        st = suffstats(sample_obs(Structure.S1, Params(1, 1, 1), 7, 5))
        fn = _laplace_weight_prior(s, symmetric_hyper)
        got_fn, thetas = _recording(fn)
        want_fn, want = _recording(fn)
        quadrature_log_marginal_generic(st, s, got_fn, nodes=5, w_nodes=3)
        _generic_reference(st, s, want_fn, 5, 3)
        got = [(t.w, t.tau1_sq, t.tau2_sq) for t in thetas]
        assert got == [(t.w, t.tau1_sq, t.tau2_sq) for t in want]
        assert all(type(x) is float for call in got for x in call)
        # the mode search's calls, then one call per node in (tau1_sq,
        # tau2_sq, w) order, w fastest
        rule = 5 * 5 if s is Structure.S3 else 5 * 5 * 3
        assert len(got) == _search_calls(s) + rule
        t1 = [c[1] for c in got[-rule:]]
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

    def test_search_without_curvature_keeps_the_identity_at_a_fixed_level(self):
        # flat along y0: no difference step gives negative-definite
        # curvature. The ladder refuses; a fixed level takes the best point
        # found, on the unit scale, after the same number of calls
        def target(y):
            calls.append(y.shape[-1] if y.ndim > 1 else 1)
            return -((y[1] - 1.0) ** 2)

        calls = []
        with pytest.raises(NonConvergedQuadrature, match=r"^generic quadrature: no negative-definite curvature at \[1\.0, 1\.0\]$"):
            approx._mode_and_scale(target, (1.0, 2.0), 2, strict=True)
        strict_calls, calls = sum(calls), []
        centre, chol = approx._mode_and_scale(target, (1.0, 2.0), 2, strict=False)
        assert centre.tolist() == [1.0, 1.0] and chol.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert sum(calls) == strict_calls == _search_calls(Structure.S3)

    @pytest.mark.parametrize("s", list(Structure))
    def test_ladder_stops_where_two_levels_agree(self, symmetric_hyper, s):
        # the default ladder runs 16 and 24 nodes per axis on this dataset,
        # after the mode search, and its value is the 24-node level's
        st = _oracle_data()
        fn, calls = _recording(lambda t: prior_logpdf(t, s, symmetric_hyper))
        got = quadrature_log_marginal_generic(st, s, fn)
        per_level = [k * k * (1 if s is Structure.S3 else k) for k in (16, 24)]
        assert len(calls) == _search_calls(s) + sum(per_level)
        assert got == quadrature_log_marginal_generic(st, s, lambda t: prior_logpdf(t, s, symmetric_hyper), nodes=24)
        assert abs(got - log_marginal_mixed(st, s, symmetric_hyper)) < 1e-6


class TestGenericOracleAccuracy:
    """Adaptive Gauss-Hermite against the closed form, where the old fixed
    grid missed the mass: small data, and data with no MLE."""

    @given(mixed_data(min_n=2), hs.sampled_from(WORKLOAD_HYPERS), hs.sampled_from(list(Structure)))
    @settings(max_examples=20, deadline=None)
    def test_matches_exact_under_the_workload_hyperparameters(self, data, h, s):
        st = suffstats(*data[:2])
        try:
            got = quadrature_log_marginal_generic(st, s, lambda t: prior_logpdf(t, s, h))
        except NonConvergedQuadrature:
            # a refusal, not a silent error; rare (1 of 600 random datasets
            # of n = 2..8 stalled), and hypothesis fails the test if it is not
            reject()
        assert abs(got - log_marginal_mixed(st, s, h)) < 1e-6

    @pytest.mark.parametrize("h", WORKLOAD_HYPERS[:2], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("s", list(Structure))
    @pytest.mark.parametrize(
        "obs, interv",
        [
            (np.zeros((3, 2)), None),
            (np.empty((0, 2)), [[1.0, 1.5], [2.0, 1.5], [0.3, 1.5]]),
            (np.empty((0, 2)), [[1.0, 0.0], [2.0, 0.0]]),
            ([[0.5, -1.0]], [[1.0, 0.7], [-0.4, 0.7]]),
            ([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]], None),
            (np.empty((0, 2)), [[0.0, 5e-162]]),
        ],
        ids=["zeros", "interventional", "interventional-at-0", "one-row", "constant-x2", "subnormal-moment"],
    )
    def test_data_without_an_mle_matches_exact(self, obs, interv, s, h):
        # mle_mixed raises, and the mode search starts at 0; the old grid,
        # centred there, was off by up to 0.65 nats. Under S1 the last
        # dataset's weight moment m*y^2 is subnormal, where sqrt(tau/xx)
        # overflowed
        st = suffstats(obs, interv)
        with pytest.raises(DegenerateData):
            mle_mixed(st)
        got = quadrature_log_marginal_generic(st, s, lambda t: prior_logpdf(t, s, h))
        assert abs(got - log_marginal_mixed(st, s, h)) < 1e-6

    @given(
        hs.one_of(hs.integers(0, 4).map(lambda k: [(0.0, 0.0)] * k), hs.lists(hs.tuples(_coord, _coord), min_size=1, max_size=1)),
        hs.lists(_coord, max_size=5),
        hs.floats(-3.0, 3.0, allow_subnormal=False),
        hs.sampled_from(WORKLOAD_HYPERS[:2]),
        hs.sampled_from(list(Structure)),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_data_without_an_mle_matches_exact_or_is_refused(self, pairs, y1, y, h, s):
        # zero rows or a single row, and any interventional rows
        st = suffstats(np.array(pairs).reshape(-1, 2), np.column_stack([y1, np.full(len(y1), y)]) if y1 else None)
        assume(not _informative(st))
        try:
            got = quadrature_log_marginal_generic(st, s, lambda t: prior_logpdf(t, s, h))
        except NonConvergedQuadrature:
            # a skewed posterior of one row can move the 48-node level by a
            # few 1e-6; a refusal, not a silent error
            reject()
        assert abs(got - log_marginal_mixed(st, s, h)) < 1e-6

    @pytest.mark.parametrize("s", [Structure.S1, Structure.S2])
    def test_kinked_prior_stalls_the_ladder(self, symmetric_hyper, s):
        # the Laplace weight prior has a kink at w = 0; its last two levels
        # differ by 3.6e-6 (S1) and 1.2e-5 (S2), and the ladder says so
        with pytest.raises(NonConvergedQuadrature, match=r"^generic quadrature stalled at 48 nodes per axis"):
            quadrature_log_marginal_generic(_oracle_data(), s, _laplace_weight_prior(s, symmetric_hyper))

    @pytest.mark.parametrize("s", list(Structure))
    def test_truncated_prior_stalls_the_ladder(self, symmetric_hyper, s):
        # a prior with bounded support drops mass between nodes; its last
        # two levels differ by 1.6e-3 to 2.2e-3, and the ladder says so
        fn = _truncated_prior(s, symmetric_hyper)
        with pytest.raises(NonConvergedQuadrature, match=r"^generic quadrature stalled at 48 nodes per axis"):
            quadrature_log_marginal_generic(_oracle_data(), s, fn)


def _truncated_prior(s, h):
    """The conjugate prior cut to ``w >= 0`` and ``tau1_sq <= 2`` times its MLE."""
    hat = mle_mixed(_oracle_data()).for_structure(s)

    def fn(theta):
        if theta.w < 0.0 or theta.tau1_sq > 2.0 * hat.tau1_sq:
            return -math.inf
        return prior_logpdf(theta, s, h)

    return fn


class TestOraclesAtLargeN:
    """Both oracles read only the sufficient statistics, so they check the
    closed form at the harness's sample sizes. Each stays within 32 ulp of
    it; over seeds 0-8 the worst was 10 ulp."""

    @pytest.mark.parametrize("total", [10**2, 10**3, 10**4, 10**5, 10**6])
    def test_match_the_closed_form_within_32_ulp(self, total):
        for true_s, theta in ((Structure.S1, Params(1.0, 1.0, 1.0)), (Structure.S3, Params(0.0, 1.0, 1.0))):
            st = sample_suffstats(true_s, theta, total // 2, total - total // 2, InterventionSpec(1.5), seed=0)
            for h in WORKLOAD_HYPERS[:2]:
                for s in Structure:
                    want = log_marginal_mixed(st, s, h)
                    assert abs(quadrature_log_marginal(st, s, h) - want) <= 32 * math.ulp(want), (s, h)
                want = log_marginal_mixed(st, Structure.S1, h)
                got = quadrature_log_marginal_generic(st, Structure.S1, lambda t, h=h: prior_logpdf(t, Structure.S1, h))
                assert abs(got - want) <= 32 * math.ulp(want), h


class TestGenericOracleGrid:
    """The start of the mode search and every block of nodes are checked
    before their callbacks; a start or a node that would overflow a variance
    raises ``InvalidParameter``, with no numpy warning on the way."""

    @pytest.mark.parametrize("s", list(Structure))
    @pytest.mark.parametrize(
        "window", [(-math.inf, math.inf), (-20.0, math.inf), (math.nan, 20.0), (5.0, -5.0), (1.0, 1.0)]
    )
    def test_non_finite_w_window_is_rejected_at_entry(self, symmetric_hyper, s, window):
        # the weight window is gone with the fixed grid: a caller that still
        # passes one, finite or not, is refused before any callback rather
        # than integrated on a rule it did not ask for
        st = suffstats([[1, 0], [2, 0], [0.5, 0]])
        calls = []
        with pytest.raises(TypeError, match="w_window"):
            quadrature_log_marginal_generic(st, s, calls.append, w_window=window)
        assert calls == []

    @pytest.mark.parametrize("s", list(Structure))
    def test_huge_variance_is_rejected_at_entry(self, s):
        # the nodes around an MLE variance of about 7e304 reach past the
        # largest float; this raised a raw OverflowError
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match=r"^log-variances \(70\d\.\d+, -13\.\d+\) beyond \+-697\.8 overflow the grid$"):
                quadrature_log_marginal_generic(_huge_variance_data(), s, calls.append)
        assert calls == []

    @pytest.mark.parametrize("s", list(Structure))
    @pytest.mark.parametrize("centers", [(-800.0, 0.0), (0.0, -800.0), (-800.0, -800.0)])
    def test_underflowing_variance_nodes_raise_the_first_nodes_error(self, monkeypatch, s, centers):
        # exp(-800) is 0.0: a search started there would underflow
        monkeypatch.setattr(approx, "_mode_start", lambda st, s: centers)
        calls = []
        with pytest.raises(InvalidParameter) as got:
            quadrature_log_marginal_generic(_oracle_data(), s, calls.append, nodes=6, w_nodes=4)
        assert str(got.value) == f"log-variances {centers!r} beyond +-697.8 overflow the grid"
        assert calls == []

    @pytest.mark.parametrize("s", list(Structure))
    def test_overflowing_nodes_are_rejected_before_their_callbacks(self, monkeypatch, symmetric_hyper, s):
        # a mode at log-variance 707 puts the outer slab of a 6-node rule
        # (707 + 3.32) past the largest float; that slab is refused before
        # its calls, and no call sees a variance that is not a finite float
        d = 2 if s is Structure.S3 else 3
        monkeypatch.setattr(
            approx, "_mode_and_scale", lambda log_target, start, dim, strict: (np.array([707.0, 0.0, 0.0][:d]), np.eye(d))
        )
        fn, calls = _recording(lambda t: 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match=r"^log-variance nodes reach \+-710\.\d+, beyond \+-709\.8: their variances overflow$"):
                quadrature_log_marginal_generic(_oracle_data(), s, fn, nodes=6, w_nodes=4)
        assert calls and all(0.0 < t.tau1_sq < math.inf for t in calls)


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
        # everywhere leaves nothing to search or integrate
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
        # from the integral silently under S1 and S2; the 6-node rule
        # reaches about 2.4 times the MLE variance
        st = _oracle_data()
        hat = mle_mixed(st).for_structure(s)

        def fn(theta):
            if theta.tau2_sq > 2.0 * hat.tau2_sq:
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
        # -inf on part of the rule is a prior with bounded support: those
        # nodes carry no mass, and the rest integrate as before at a fixed
        # level (the ladder stalls on it: TestGenericOracleAccuracy)
        st = _oracle_data()
        fn = _truncated_prior(s, symmetric_hyper)
        got = quadrature_log_marginal_generic(st, s, fn, nodes=8, w_nodes=6)
        full = quadrature_log_marginal_generic(
            st, s, lambda t: prior_logpdf(t, s, symmetric_hyper), nodes=8, w_nodes=6
        )
        assert math.isfinite(got) and got < full
        assert got == _generic_reference(st, s, fn, 8, 6)

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


#: the category of each refusal an information-layer call may raise
_INFO_REFUSALS = {InvalidParameter: "invalid-parameter", NumericalDegeneracy: "numerical-degeneracy"}
_VARIANCE = hs.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_MAGNITUDE = hs.tuples(hs.sampled_from([-1.0, 1.0]), hs.floats(-150.0, 150.0)).map(lambda t: t[0] * 10.0 ** t[1])
_INFO_ETAS = hs.one_of(hs.sampled_from([0.0, 1.0, 5e-324]), hs.floats(0.0, 1.0), hs.floats(-323.3, 0.0).map(
    lambda e: min(10.0 ** e, 1.0)))


def _info_outcome(call, *args, refusals=_INFO_REFUSALS):
    """A call's value with warnings as errors, or the type of its refusal,
    one of ``refusals``, checked against its category."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return call(*args)
    except tuple(refusals) as exc:
        assert exc.category == refusals[type(exc)]
        return type(exc)


@hs.composite
def _scaled_stats(draw):
    """Sufficient statistics of up to 9 observational and 9 interventional
    rows, each column scaled by 10^U(-150, 150), at a y of the same range;
    None where the sums leave the floats (``suffstats`` refuses them)."""
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    n, m = draw(hs.integers(0, 9)), draw(hs.integers(0, 9))
    scale = np.array([abs(draw(_MAGNITUDE)), abs(draw(_MAGNITUDE))])
    interv = np.column_stack([rng.standard_normal(m) * scale[0], np.full(m, draw(_MAGNITUDE))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return suffstats(rng.standard_normal((n, 2)) * scale, interv)
    except InvalidParameter:
        return None


class TestInformationLayerFuzz:
    """Every call of the information layer returns finite numbers or refuses
    with its category, at variances of 1e+-300, weights and y of 1e+-150 and
    eta of 0, 1 and the smallest subnormal; any warning fails."""

    @given(hs.sampled_from(list(Structure)), _MAGNITUDE, _VARIANCE, _VARIANCE, _MAGNITUDE, _INFO_ETAS)
    @example(Structure.S1, 1.0, 1e-160, 1.0, 1.5, 0.5)
    @example(Structure.S3, 0.0, 1e-300, 1.0, 1.5, 5e-324)
    @settings(max_examples=150, deadline=None)
    def test_fisher_and_mixed_fisher(self, s, w, t1, t2, y, eta):
        theta, iv = Params(0.0 if s is Structure.S3 else w, t1, t2), InterventionSpec(y)
        for call, args in ((fisher, (Regime.OBSERVATIONAL,)), (fisher, (Regime.INTERVENTIONAL, iv)),
                           (mixed_fisher, (eta, iv))):
            out = _info_outcome(call, s, theta, *args)
            assert out is NumericalDegeneracy or np.isfinite(out).all()
            # only a variance below about 5e-155, or a weight entry past the
            # floats, has an information that is not a float
            assert out is not NumericalDegeneracy or min(t1, t2) < 1e-150 or max(t1 / t2, t2 / t1, y * y / t1) > 1e300

    @given(_scaled_stats(), hs.sampled_from(list(Structure)), _MAGNITUDE, _VARIANCE, _VARIANCE)
    @settings(max_examples=100, deadline=None)
    def test_hessian_and_diagnostics(self, st, s, w, t1, t2):
        assume(st is not None)
        theta = Params(0.0 if s is Structure.S3 else w, t1, t2)
        out = _info_outcome(loglik_hessian, st, s, theta)
        assert out is NumericalDegeneracy or np.isfinite(out).all()
        report = _info_outcome(hessian_diagnostics, st, s, theta)
        assert report is NumericalDegeneracy or (
            np.isfinite(report.eigenvalues).all() and math.isfinite(report.determinant))

    @given(_scaled_stats(), hs.sampled_from([Structure.S1, Structure.S2]), _VARIANCE, _VARIANCE,
           hs.sampled_from([bge_symmetric_hyper(3.0, 0.5), BgeHyper(2.0, 1.5, 1.8, 2.2, 1.2, 2.8, 0.8, 0.6),
                            BgeHyper(1e12, 0.01, 30.0, 1e6, 0.5, 1e12, 1e-300, 1e300)]))
    @settings(max_examples=100, deadline=None)
    def test_augmented_odds_statistic(self, st, s, t1, t2, h):
        assume(st is not None)
        post = _info_outcome(posterior, st, h)
        assume(not isinstance(post, type))
        out = _info_outcome(augmented_odds_statistic, st, post, s, Params(0.0, t1, t2), h)
        assert isinstance(out, type) or math.isfinite(out)
        if st.n == 0:
            assert out is (InvalidParameter if st.m == 0 else NumericalDegeneracy)

    @given(hs.sampled_from(list(Structure)), _MAGNITUDE, _VARIANCE, _VARIANCE)
    @settings(max_examples=100, deadline=None)
    def test_implied_covariance(self, s, w, t1, t2):
        theta = Params(0.0 if s is Structure.S3 else w, t1, t2)
        # valid parameters whose covariance is singular in floats are out of its domain
        out = _info_outcome(implied_covariance, s, theta, refusals={ArgumentOutOfDomain: "argument-out-of-domain"})
        assert out is ArgumentOutOfDomain or all(map(math.isfinite, (out.c11, out.c12, out.c22)))
        if s is Structure.S3:  # a diagonal matrix of positive variances
            assert out == Cov2(t1, 0.0, t2)

    @given(_VARIANCE, _VARIANCE, hs.one_of(hs.floats(-1.0, 1.0), hs.floats(-10.0, 10.0)),
           hs.one_of(hs.none(), _VARIANCE.map(lambda v: -v), _VARIANCE))
    @settings(max_examples=150, deadline=None)
    def test_cov2(self, c11, c22, r, c12):
        # a correlation r, or an off-diagonal entry of any size
        c12 = r * math.sqrt(c11) * math.sqrt(c22) if c12 is None else c12
        out = _info_outcome(Cov2, c11, c12, c22)
        # the exact determinant, away from the few ulp where its rounding decides
        det = Fraction(c11) * Fraction(c22) - Fraction(c12) ** 2
        if abs(det) > Fraction(1, 10 ** 12) * Fraction(c11) * Fraction(c22):
            assert (out is InvalidParameter) == (det < 0)
