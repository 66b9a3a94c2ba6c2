"""Concentration exponents: closed forms, limits, concavity, optima, and the
Gaussian-KL mixture cross-check."""

import dataclasses
import math
import sys
import warnings
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as hs

from bicausal import (
    ArgumentOutOfDomain,
    BgeHyper,
    BicausalError,
    Cov2,
    InterventionSpec,
    InvalidParameter,
    Params,
    RateCurve,
    RateId,
    RateInput,
    STRUCTURES,
    Structure,
    bge_symmetric_hyper,
    d12,
    d13,
    d21,
    d23,
    gain_transform,
    gamma_log_jacobian_det,
    gamma_map,
    gamma_map_inverse,
    implied_covariance,
    interv_logpdf_y1,
    invgamma_logpdf,
    kl_centered_bivariate,
    kl_mixture_exponent,
    kl_univariate,
    loglik,
    loglik_hessian,
    mixing_helps_s1,
    mle_mixed,
    nonident_posterior_limit,
    obs_kl_s1_vs_s3,
    obs_logpdf,
    optimal_eta,
    param_dim,
    posterior,
    prior_logpdf,
    pseudo_true_limits,
    pushforward_prior_logpdf,
    sample_curve,
    sample_interv,
    sample_obs,
    suffstats,
)
from bicausal.experiments import write_rates_csv
from bicausal.rates import _log_prior_ratio

from conftest import random_params


def ri(theta, y, eta):
    return RateInput(theta_star=theta, y=y, eta=eta)


UNIT = Params(1.0, 1.0, 1.0)


class TestD12:
    def test_collapsed_mixture_closed_form(self):
        # w=tau=y=1 makes both mixture variances 2: d12 = (1-eta)/2 * log 2
        for eta in (0.0, 0.25, 0.5, 0.8, 1.0):
            assert d12(ri(UNIT, 1.0, eta)) == pytest.approx(
                0.5 * (1.0 - eta) * math.log(2.0), abs=1e-14
            )
        assert d12(ri(UNIT, 1.0, 0.0)) == pytest.approx(0.34657359, abs=1e-7)

    def test_boundary_limits(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            theta = random_params(rng)
            y = float(rng.uniform(-2.5, 2.5))
            hi = d12(ri(theta, y, 1.0))
            lo = d12(ri(theta, y, 0.0))
            want_lo = 0.5 * math.log1p(theta.w ** 2 * y ** 2 / theta.tau1_sq)
            assert abs(hi) < 1e-9
            assert lo == pytest.approx(want_lo, abs=1e-9)
            # clamped evaluation stays continuous at the boundary
            assert abs(d12(ri(theta, y, 1e-7)) - lo) < 2e-6
            assert abs(d12(ri(theta, y, 1.0 - 1e-7)) - hi) < 2e-6


class TestD21:
    def test_boundary_zeros(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            theta = random_params(rng)
            y = float(rng.uniform(0.2, 2.5))
            assert abs(d21(ri(theta, y, 0.0))) < 1e-9
            assert abs(d21(ri(theta, y, 1.0))) < 1e-9
            assert abs(d21(ri(theta, y, 1e-7))) < 2e-6
            assert abs(d21(ri(theta, y, 1.0 - 1e-7))) < 2e-6

    @pytest.mark.parametrize("w", [1e-12, 1.0, 1e8])
    def test_exact_zero_at_both_ends(self, w):
        # at w = 1e8, tau2_sq is absorbed when added to w^2*tau1_sq; the
        # exponent must still vanish exactly at both ends
        for eta in (0.0, 1.0):
            assert d21(ri(Params(w, 1.0, 1.0), 0.5, eta)) == 0.0

    def test_hand_value(self):
        # 0.5*log(5/6) + 0.25*log(2)
        want = 0.5 * math.log(5.0 / 6.0) + 0.25 * math.log(2.0)
        assert d21(ri(UNIT, 1.0, 0.5)) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.0821260172, abs=1e-9)

    def test_positive_inside(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            theta = random_params(rng)
            y = float(rng.uniform(0.2, 2.5))
            for eta in np.linspace(0.01, 0.99, 21):
                assert d21(ri(theta, y, float(eta))) > 0.0


class TestOrderingsAndSpecialCases:
    def test_d13_dominates_d12(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            theta = random_params(rng)
            y = float(rng.uniform(-2.5, 2.5))
            for eta in (0.2, 0.5, 0.8):
                a, b = d12(ri(theta, y, eta)), d13(ri(theta, y, eta))
                assert b > a
            assert d13(ri(theta, y, 0.0)) == pytest.approx(d12(ri(theta, y, 0.0)), abs=1e-12)

    def test_d21_below_d23(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            theta = random_params(rng)
            y = float(rng.uniform(0.2, 2.5))
            for eta in (0.2, 0.5, 0.8):
                assert d21(ri(theta, y, eta)) < d23(ri(theta, y, eta))

    def test_no_edge_no_divergence(self):
        theta = Params(0.0, 1.3, 0.7)
        for eta in (0.1, 0.5, 0.9):
            for f in (d12, d21, d13, d23):
                assert f(ri(theta, 1.5, eta)) == pytest.approx(0.0, abs=1e-14)

    def test_obs_kl_unit(self):
        assert obs_kl_s1_vs_s3(UNIT) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        assert obs_kl_s1_vs_s3(Params(0.0, 1.0, 2.0)) == 0.0

    def test_obs_kl_matches_d13_observational_limit(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta = random_params(rng)
            y = float(rng.uniform(-2, 2))
            assert d13(ri(theta, y, 1.0)) == pytest.approx(obs_kl_s1_vs_s3(theta), abs=1e-9)

    def test_concavity_second_differences(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(0.001, 0.999, 1000)
        for _ in range(20):
            theta = random_params(rng)
            y = float(rng.uniform(0.2, 2.0))
            if abs(y * y - theta.tau2_sq) < 1e-2:
                y += 0.1
            for f in (d12, d21):
                vals = np.array([f(ri(theta, y, float(e))) for e in grid])
                second = np.diff(vals, 2)
                assert np.all(second < 0.0)


class TestMixingCondition:
    def test_documented_true_case(self):
        assert mixing_helps_s1(Params(1.0, 1.0, 4.0), 0.1) is True

    def test_large_intervention_false(self):
        # y^2 above the cause's variance makes the left side negative
        assert mixing_helps_s1(Params(1.0, 1.0, 1.0), 2.0) is False

    def test_no_edge_false(self):
        assert mixing_helps_s1(Params(0.0, 1.0, 1.0), 0.5) is False

    def test_zero_intervention_value_helps_weak_edge(self):
        # at y = 0 the condition reads x > log1p(x), true for every w != 0;
        # the optimum tends to 1/2 as w -> 0
        theta = Params(1e-9, 1.0, 4.0)
        assert mixing_helps_s1(theta, 0.0) is True
        eta_star, value = optimal_eta(RateId.D12, theta, 0.0)
        assert abs(eta_star - 0.5) <= 1e-12
        assert value > 0.0


class TestOptimalEta:
    def test_matches_dense_grid(self):
        e = grid = np.linspace(1e-9, 1 - 1e-9, 10 ** 6)
        theta = UNIT
        vals = 0.5 * np.log(1 - e * e / (e * 2 + (1 - e))) + 0.5 * e * np.log(2.0)
        eta_star, value = optimal_eta(RateId.D21, theta, 1.0)
        assert abs(eta_star - grid[int(np.argmax(vals))]) < 1e-3
        assert value == pytest.approx(float(np.max(vals)), abs=1e-9)

    def test_boundary_report_when_mixing_hurts(self):
        theta = Params(1.0, 1.0, 1.0)
        eta_star, value = optimal_eta(RateId.D12, theta, 2.0)
        assert eta_star == 0.0
        assert value == pytest.approx(d12(ri(theta, 2.0, 0.0)), abs=1e-12)

    def test_interior_local_maximality(self):
        theta = Params(1.0, 1.0, 4.0)
        eta_star, value = optimal_eta(RateId.D12, theta, 0.1)
        assert 0.0 < eta_star < 1.0
        assert value >= d12(ri(theta, 0.1, eta_star + 0.01))
        assert value >= d12(ri(theta, 0.1, eta_star - 0.01))

    @pytest.mark.parametrize("w", [0.0, 1e-200])
    def test_vanishing_weight_reports_zero(self, w):
        # x = w^2*tau1_sq/tau2_sq is 0 (w^2 underflows at 1e-200): both
        # exponents vanish identically, so no interior point is singled out
        for rid in (RateId.D12, RateId.D21):
            assert optimal_eta(rid, Params(w, 1.0, 4.0), 0.1) == (0.0, 0.0)

    def test_randomized_grid_agreement(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(1e-6, 1 - 1e-6, 4001)
        for _ in range(100):
            theta = random_params(rng)
            y = float(rng.uniform(0.2, 2.0))
            eta_star, _ = optimal_eta(RateId.D21, theta, y)
            vals = d21(ri(theta, y, grid))
            assert abs(eta_star - grid[int(np.argmax(vals))]) < 1e-3


def _dlog1p(t):
    """``log(1 + t)`` to 60 significant digits, with ``1 + t`` formed exactly."""
    if t == 0:
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 60 + max(0, -abs(t).adjusted())
        return (1 + t).ln()


def _decimals(theta, y):
    """``(w^2, tau1_sq, tau2_sq, y^2)`` as exact decimals."""
    w, t1, t2, y = (Decimal(v) for v in (theta.w, theta.tau1_sq, theta.tau2_sq, y))
    return w * w, t1, t2, y * y


def _ref_d12(theta, y, eta):
    """``d12`` in 60-digit decimal, from the mixture variances."""
    with localcontext() as ctx:
        ctx.prec = 60
        w2, t1, t2, y2 = _decimals(theta, y)
        e = Decimal(eta)
        if e == 1:  # both logarithms are log1p(x): d12 is 0, not their rounding
            return Decimal(0)
        x, z = w2 * t2 / t1, w2 * y2 / t1
        return (_dlog1p(e * x + (1 - e) * z) - e * _dlog1p(x)) / 2


def _ref_d21(theta, y, eta):
    """``d21`` in 60-digit decimal, in its original form
    ``0.5*log(1 - eta^2*a/(eta*s + (1-eta)*y^2)) + (eta/2)*log(s/tau2_sq)``."""
    with localcontext() as ctx:
        ctx.prec = 60
        w2, t1, t2, y2 = _decimals(theta, y)
        e = Decimal(eta)
        if e == 1:  # the two logarithms are log(t2/s) and log(s/t2): d21 is 0, not their rounding
            return Decimal(0)
        a = w2 * t1
        s = a + t2
        inner = -e * a / s if y2 == 0 else -e * e * a / (e * s + (1 - e) * y2)
        return (_dlog1p(inner) + e * _dlog1p(a / t2)) / 2


def _ref_argmax(slope):
    """Decimal bisection of a decreasing derivative on (0, 1)."""
    lo, hi = Decimal(0), Decimal(1)
    for _ in range(45):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
    return float((lo + hi) / 2)


def _ref_eta_d12(theta, y):
    """Zero of ``2*d12' = (x - z)/(1 + z + eta*(x - z)) - log1p(x)``, or 0
    when it is not positive at 0."""
    with localcontext() as ctx:
        ctx.prec = 60
        w2, t1, t2, y2 = _decimals(theta, y)
        x, z = w2 * t2 / t1, w2 * y2 / t1
        lg = _dlog1p(x)
        slope = lambda e: (x - z) / (1 + z + e * (x - z)) - lg
        return _ref_argmax(slope) if slope(Decimal(0)) > 0 else 0.0


def _ref_eta_d21(theta, y):
    """Zero of ``2*d21' = log1p(x) - x*eta*(eta*(1+x) + (2-eta)*c) /
    (E*(E - eta^2*x))``, ``E = eta*(1+x) + (1-eta)*c``, differentiated from
    the original form."""
    with localcontext() as ctx:
        ctx.prec = 60
        w2, t1, t2, y2 = _decimals(theta, y)
        x, c = w2 * t1 / t2, y2 / t2
        lg = _dlog1p(x)

        def slope(e):
            big = e * (1 + x) + (1 - e) * c
            return lg - x * e * (e * (1 + x) + (2 - e) * c) / (big * (big - e * e * x))

        return _ref_argmax(slope)


def _decade(lo, hi):
    return hs.floats(lo, hi).map(lambda e: 10.0 ** e)


@hs.composite
def _weak_to_strong(draw):
    """``(theta, y)`` with ``|w|`` in [1e-12, 1e3], both variances in
    [1e-2, 1e2] and ``y`` 0 or in [1e-3, 1e2], all log-uniform."""
    w = draw(hs.sampled_from([-1.0, 1.0])) * draw(_decade(-12.0, 3.0))
    theta = Params(w, draw(_decade(-2.0, 2.0)), draw(_decade(-2.0, 2.0)))
    return theta, draw(hs.one_of(hs.just(0.0), _decade(-3.0, 2.0)))


_ETAS = hs.one_of(
    hs.floats(0.0, 1.0), hs.floats(0.0, 1e-9), hs.floats(0.0, 1e-9).map(lambda d: 1.0 - d)
)


class TestDecimalReference:
    """The exponents and their optima against 60-digit decimal evaluations,
    from the weak-edge limit (where the logarithms cancel to first order) to
    strong edges."""

    @given(_weak_to_strong(), _ETAS)
    @settings(max_examples=250, deadline=None)
    def test_exponents_keep_their_digits(self, case, eta):
        theta, y = case
        for f, ref in ((d12, _ref_d12), (d21, _ref_d21)):
            got, want = f(ri(theta, y, eta)), ref(theta, y, eta)
            # a subnormal value carries fewer digits: below the normal range the error is absolute
            err = abs(Decimal(float(got)) - want)
            assert err <= Decimal(1e-14) * abs(want) + Decimal(sys.float_info.min), (f.__name__, got, float(want))

    def test_exponents_on_a_grid_of_weights(self):
        # every half decade of w at theta = (w, 1, 4): the draws above rarely
        # land where one form hands over to the other
        for w in 10.0 ** np.arange(-12.0, 3.5, 0.5):
            theta = Params(float(w), 1.0, 4.0)
            for y in (0.0, 0.1, 3.0):
                for eta in (1e-9, 0.3, 0.9, 1.0 - 1e-9):
                    for f, ref in ((d12, _ref_d12), (d21, _ref_d21)):
                        got, want = f(ri(theta, y, eta)), ref(theta, y, eta)
                        rel = float(abs(Decimal(float(got)) - want) / want)
                        assert rel <= 1e-14, (f.__name__, w, y, eta)

    @given(_weak_to_strong())
    @settings(max_examples=100, deadline=None)
    def test_optima_match_decimal_bisection(self, case):
        theta, y = case
        assume(theta.w != 0.0)
        assert abs(optimal_eta(RateId.D21, theta, y)[0] - _ref_eta_d21(theta, y)) <= 1e-10
        if mixing_helps_s1(theta, y):
            assert abs(optimal_eta(RateId.D12, theta, y)[0] - _ref_eta_d12(theta, y)) <= 1e-10

    @given(_weak_to_strong(), hs.floats(1e-9, 1.0 - 1e-9))
    @settings(max_examples=150, deadline=None)
    def test_positive_inside_for_any_edge(self, case, eta):
        theta, y = case
        for f in (d12, d13, d21, d23):
            assert f(ri(theta, y, eta)) > 0.0, f.__name__

    def test_weak_edge_rates_csv_is_positive(self, tmp_path):
        # RateCurve checks only finiteness, so the exponents themselves must
        # stay positive where a difference of logarithms cancels (w = 1e-8)
        theta = Params(1e-8, 1.0, 4.0)
        write_rates_csv(tmp_path / "rates.csv", theta, 0.1, 999, [])
        lines = [ln for ln in (tmp_path / "rates.csv").read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "eta,d12,d21,d13,d23,d12_gain,d21_gain"
        table = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
        assert table.shape == (999, 7)
        assert np.all(table[:, 1:] > 0.0)


def _ref_d12_mp(theta, y, eta):
    """``d12`` at 700 digits in its log1p form, as :func:`_ref_d21_mp`."""
    with mpmath.workdps(700):
        w, t1, t2, yy, e = (mpmath.mpf(v) for v in (theta.w, theta.tau1_sq, theta.tau2_sq, y, eta))
        x, z = w * w * t2 / t1, w * w * yy * yy / t1
        return (mpmath.log1p(e * x + (1 - e) * z) - e * mpmath.log1p(x)) / 2


def _ref_d21_mp(theta, y, eta):
    """``d21`` at 700 digits in its log1p form: terms of size ``x`` cancel to
    about ``x^2``, so at ``x`` near 1e-300 fewer digits do not resolve it."""
    with mpmath.workdps(700):
        w, t1, t2, yy, e = (mpmath.mpf(v) for v in (theta.w, theta.tau1_sq, theta.tau2_sq, y, eta))
        x, c = w * w * t1 / t2, yy * yy / t2
        u = e * x / (e + (1 - e) * c) if c else x
        return (mpmath.log1p((1 - e) * u) - mpmath.log1p(u) + e * mpmath.log1p(x)) / 2


_EXTREME = hs.one_of(_decade(-150.0, 150.0), _decade(-2.0, 2.0))


class TestD21ExtremeMagnitudes:
    @given(hs.sampled_from([-1.0, 1.0]), _EXTREME, _EXTREME, _EXTREME, hs.one_of(hs.just(0.0), _EXTREME),
           hs.floats(0.0, 1.0))
    # u = eta*x/(eta + (1-eta)*c) underflows at c = 2.5e197: the term
    # (1-eta)*c*u vanished with it, and d21 returned 0 against 8.19e-164
    @example(-1.0, 4.443652710044642e-91, 2.992341960299697e18, 3.4479293664680952, 9.276504258574735e98,
             0.9563346594226189)
    # 1 - eta rounds to 1, so g((1-eta)*u) - g(u) was 0 and d21 -1.53e-301
    @example(1.0, 1.0, 1.0, 1.0, 0.0, 1e-300)
    # w^2*tau1_sq underflowed to a subnormal and x = w^2*tau1_sq/tau2_sq to
    # 0, so d21 read 0 against 1.10e-270
    @example(1.0, 2.29e-117, 5.40e-115, 6.51e-79, 1.66e92, 0.504)
    # the last row of figure1's rates_a.csv: the logarithms cancelled to
    # O(1 - eta), and d12 was off by 1.7e-7 relative, d21 by 3.6e-8
    @example(1.0, 1.0, 1.0, 4.0, 0.1, 1.0 - 1e-9)
    @settings(max_examples=200, deadline=None)
    def test_matches_a_700_digit_reference(self, sign, w, t1, t2, y, eta):
        theta = Params(sign * w, t1, t2)
        try:
            values = d12(ri(theta, y, eta)), d21(ri(theta, y, eta))
        except ArgumentOutOfDomain:
            assume(False)
        assert values[1] >= 0.0
        for value, want in zip(values, (_ref_d12_mp(theta, y, eta), _ref_d21_mp(theta, y, eta))):
            assert abs(value - want) <= 1e-12 * abs(want) + sys.float_info.min, (value, float(want))


def _ref_all_mp(theta, y, eta):
    """The four exponents at 700 digits, keyed by their functions."""
    with mpmath.workdps(700):
        w, t1, t2, e = (mpmath.mpf(v) for v in (theta.w, theta.tau1_sq, theta.tau2_sq, eta))
        r12, r21 = _ref_d12_mp(theta, y, eta), _ref_d21_mp(theta, y, eta)
        return {d12: r12, d21: r21, d13: r12 + e * mpmath.log1p(w * w * t2 / t1) / 2,
                d23: e * mpmath.log1p(w * w * t1 / t2) / 2}


#: eta over [1e-300, 1 - 1e-16]: uniform, log-uniform towards 0 and towards 1
_ETAS_FULL = hs.one_of(
    hs.floats(1e-300, 1.0 - 1e-16), _decade(-300.0, 0.0), _decade(-16.0, 0.0).map(lambda d: 1.0 - d)
).filter(lambda e: 1e-300 <= e <= 1.0 - 1e-16)
#: (true structure, wrong structure) of each exponent's KL mixture
_KL_PAIRS = {d12: (Structure.S1, Structure.S2), d21: (Structure.S2, Structure.S1),
             d13: (Structure.S1, Structure.S3), d23: (Structure.S2, Structure.S3)}


class TestMpmathReference:
    """Every rate route against a 700-digit reference, at magnitudes of
    1e+-150 and eta over [1e-300, 1 - 1e-16], with Python-float and
    ``np.float64`` fields (a RuntimeWarning fails the test)."""

    @given(hs.sampled_from([-1.0, 1.0]), _EXTREME, _EXTREME, _EXTREME, hs.one_of(hs.just(0.0), _EXTREME),
           _ETAS_FULL, hs.sampled_from([float, np.float64]))
    @example(1.0, 1.0, 1.0, 4.0, 0.1, 1e-300, float)
    @example(1.0, 1.0, 1.0, 4.0, 0.1, 1.0 - 1e-16, np.float64)
    @settings(max_examples=200, deadline=None)
    def test_every_route_keeps_its_digits(self, sign, w, t1, t2, y, eta, kind):
        theta = Params(*map(kind, (sign * w, t1, t2)))
        try:
            r = ri(theta, y, eta)
        except ArgumentOutOfDomain:
            reject()
        want = _ref_all_mp(theta, y, eta)
        # the closed forms are sums of non-negative terms, each to a few ulp
        for f in (d12, d21, d13, d23):
            assert abs(f(r) - want[f]) <= 1e-14 * abs(want[f]) + sys.float_info.min, f.__name__
        for rid, f in ((RateId.D12, d12), (RateId.D21, d21)):
            eta_star, value = optimal_eta(rid, theta, y)
            best = _ref_all_mp(theta, y, eta_star)[f]
            assert abs(value - best) <= 1e-14 * abs(best) + sys.float_info.min, rid
        # the KL route reads the rounded pseudo-true limits: a variance ratio
        # off by a relative eps moves a gap term by about eps*sqrt(2*gap),
        # and two variances one rounding apart give a gap near eps^2
        for f, models in _KL_PAIRS.items():
            try:
                value = kl_mixture_exponent(*models, theta, y, eta)
            except ArgumentOutOfDomain:
                continue
            assert value >= 0.0
            scale = abs(want[f])  # a value below 1e-1000 may read as a tiny negative at 700 digits
            assert abs(value - want[f]) <= 1e-12 * scale + 1e-14 * mpmath.sqrt(scale) + 1e-30, models


class TestArrayEta:
    @pytest.mark.parametrize(
        "theta, y",
        [(Params(1.0, 1.0, 4.0), 0.1), (UNIT, 2.0), (Params(0.7, 0.5, 2.0), 0.4)],
        ids=["mixing-helps", "mixing-hurts", "generic"],
    )
    def test_curve_equals_scalar_calls_bitwise(self, theta, y):
        for rid, f in ((RateId.D12, d12), (RateId.D21, d21), (RateId.D13, d13), (RateId.D23, d23)):
            curve = sample_curve(rid, theta, y, num=999)
            scalar = [f(ri(theta, y, float(e))) for e in curve.eta]
            np.testing.assert_array_equal(curve.values, scalar)

    def test_integral_float_count_is_its_int(self):
        a, b = (sample_curve(RateId.D12, UNIT, 1.0, num=k) for k in (5, 5.0))
        assert (a.eta.tobytes(), a.values.tobytes()) == (b.eta.tobytes(), b.values.tobytes())


class TestGainTransform:
    def test_constant_gain_when_mixture_collapses(self):
        curve = sample_curve(RateId.D12, UNIT, 1.0, num=101)
        gain = gain_transform(curve)
        # d12 keeps its relative accuracy as eta -> 1, so the 1/(1-eta)
        # division keeps the constant to rounding up to the eta clamp
        np.testing.assert_allclose(gain.values, 0.5 * math.log(2.0), rtol=1e-12)
        assert gain.exponent_id is RateId.D12_GAIN

    def test_monotone_nondecreasing(self):
        for theta, y in ((Params(1.0, 1.0, 4.0), 0.1), (UNIT, 2.0), (Params(0.7, 0.5, 2.0), 0.4)):
            for which in (RateId.D12, RateId.D21):
                gain = gain_transform(sample_curve(which, theta, y, num=400))
                assert np.all(np.diff(gain.values) > -1e-9)

    def test_limit_at_zero(self):
        curve = sample_curve(RateId.D12, Params(1.0, 1.0, 4.0), 0.1, num=1001)
        gain = gain_transform(curve)
        assert gain.values[0] == pytest.approx(d12(ri(Params(1.0, 1.0, 4.0), 0.1, 0.0)), abs=1e-6)


class TestPseudoTrueLimits:
    def test_true_s1_observational_limit_is_reparameterization(self):
        lims = pseudo_true_limits(Structure.S1, UNIT, 2.0, 1.0)
        np.testing.assert_allclose(
            lims[Structure.S2].as_array(), gamma_map(UNIT).as_array(), rtol=1e-12
        )

    def test_true_s1_hand_value(self):
        lims = pseudo_true_limits(Structure.S1, UNIT, 2.0, 0.5)
        np.testing.assert_allclose(lims[Structure.S2].as_array(), [0.5, 3.5, 0.5], rtol=1e-12)

    def test_true_s3_all_identical(self):
        theta = Params(0.0, 1.3, 0.6)
        lims = pseudo_true_limits(Structure.S3, theta, 1.0, 0.4)
        for s in Structure:
            np.testing.assert_array_equal(lims[s].as_array(), [0.0, 1.3, 0.6])

    @pytest.mark.parametrize("true_model", [Structure.S1, Structure.S2])
    def test_matches_large_sample_mle(self, true_model):
        from bicausal import InterventionSpec, sample_interv

        theta = Params(0.9, 1.2, 0.7)
        y, eta = 1.6, 0.6
        total = 400_000
        n = int(eta * total)
        rng = np.random.default_rng(10)
        obs = sample_obs(true_model, theta, n, rng)
        interv = sample_interv(true_model, theta, InterventionSpec(y), total - n, rng)
        st = suffstats(obs, interv)
        triple = mle_mixed(st)
        lims = pseudo_true_limits(true_model, theta, y, eta)
        for s in Structure:
            np.testing.assert_allclose(
                triple.for_structure(s).as_array(), lims[s].as_array(), rtol=0.03, atol=0.01
            )

    # eta*w*tau1_sq and eta*s rounded as subnormals, at y = 0 and where y*y
    # underflows: the S1 weight read 4.2%, 1.1e-5 and 4.2% off; and e*w did
    # after the (eta, y^2) scaling, where |w| is tiny and tau1_sq large: 17% off
    @pytest.mark.parametrize("theta, y, eta", [(Params(2.0, 3.0, 0.5), 0.0, 5e-324),
                                               (Params(1e-10, 1.0, 1.0), 0.0, 1e-310),
                                               (Params(2.0, 3.0, 0.5), 1e-170, 5e-324),
                                               (Params(6.85e-73, 9.6e141, 5.4e-74), -4.6e-37, 5e-324)])
    def test_s1_limit_keeps_its_digits_where_eta_underflows(self, theta, y, eta):
        got = pseudo_true_limits(Structure.S2, theta, y, eta)[Structure.S1]
        with localcontext() as ctx:
            ctx.prec = 60
            w, t1, t2, e, yy = map(Decimal, (theta.w, theta.tau1_sq, theta.tau2_sq, eta, y))
            den = e * (w * w * t1 + t2) + (1 - e) * yy * yy
            want = (e * w * t1 / den, t1 * (e * (t2 + (1 - e) * w * w * t1) + (1 - e) * yy * yy) / den)
        assert abs(got.w - float(want[0])) <= 1e-14 * float(abs(want[0]))
        assert abs(got.tau1_sq - float(want[1])) <= 1e-14 * float(want[1])


#: Seed of the reversal sweep, fixed before its test was written.
_REVERSAL_SEED = 0
#: Extreme magnitudes: |w| to 1e+-165, variances to 1e+-300, y to 1e+-150.
_WIDE_W = hs.one_of(hs.just(0.0), hs.tuples(hs.sampled_from([-1.0, 1.0]), _decade(-165.0, 165.0)).map(
    lambda t: t[0] * t[1]))
_WIDE_TAU = _decade(-300.0, 300.0)
_WIDE_Y = hs.one_of(hs.just(0.0), _decade(-150.0, 150.0))


def _reversal_draws(rng, n):
    """``n`` draws of ``(w, tau1_sq, tau2_sq, y, eta)``: ``|w|`` from 10^U(+-165)
    or a normal times e^U(+-3), each variance from 10^U(+-300) or e^U(+-3),
    ``y`` 0 or +-10^U(+-150), ``eta`` one of 0, 1, 5e-324 and U(0, 1)."""
    for _ in range(n):
        if rng.random() < 0.5:
            w = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-165.0, 165.0)
        else:
            w = rng.standard_normal() * math.exp(rng.uniform(-3.0, 3.0))
        t1, t2 = (10.0 ** rng.uniform(-300.0, 300.0) if rng.random() < 0.5 else math.exp(rng.uniform(-3.0, 3.0))
                  for _ in range(2))
        y = 0.0 if rng.random() < 0.25 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-150.0, 150.0)
        yield tuple(map(float, (w, t1, t2, y, (0.0, 1.0, 5e-324, rng.uniform())[rng.integers(4)])))


def _normal(v):
    return sys.float_info.min <= abs(v) <= sys.float_info.max


def _reversal_misses(w, t1, t2, y, eta):
    """The fields of both maps and of the pseudo-true limits that are more
    than 1e-14 off an 80-digit reference, where it is a normal float (a 0
    must be exact), and the log-Jacobian more than 1e-15 of its two logs
    plus eps (one rounding of ``s``) off; and each call that refuses although every field it returns is a normal
    float, whether or not its ``s = w^2*tau_parent + tau_child`` is."""
    theta, misses = Params(w, t1, t2), []
    with mpmath.workdps(80):
        w, t1, t2, yy, e = map(mpmath.mpf, (w, t1, t2, y, eta))
        s1, s2 = w * w * t2 + t1, w * w * t1 + t2  # node 1's and node 2's observational variance
        mix1, den = e * s1 + (1 - e) * (w * w * yy * yy + t1), e * s2 + (1 - e) * yy * yy
        calls = [(gamma_map, (theta,), {None: (w * t2 / s1, s1, t1 * t2 / s1)}),
                 (gamma_map_inverse, (theta,), {None: (w * t1 / s2, t1 * t2 / s2, s2)}),
                 (pseudo_true_limits, (Structure.S1, theta, y, eta),
                  {Structure.S1: (w, t1, t2), Structure.S2: (w * t2 / s1, mix1, t1 * t2 / s1),
                   Structure.S3: (0, mix1, t2)})]
        if den:  # at eta = y = 0 the S1 limit of a true S2 model is undefined
            num = e * (t2 + (1 - e) * w * w * t1) + (1 - e) * yy * yy
            calls.append((pseudo_true_limits, (Structure.S2, theta, y, eta),
                          {Structure.S1: (e * w * t1 / den, t1 * num / den, s2), Structure.S2: (w, t1, t2),
                           Structure.S3: (0, t1, s2)}))
        for f, args, want in calls:
            try:
                out = f(*args)
            except ArgumentOutOfDomain:
                if all(map(_normal, (v for fields in want.values() for v in fields if v))):
                    misses.append((f.__name__, args, "refused"))
                continue
            for key, fields in want.items():
                got = out if key is None else out[key]
                misses += [(f.__name__, args, key, i, g, mpmath.nstr(r, 17))
                           for i, (g, r) in enumerate(zip(got.as_array(), fields))
                           if (_normal(r) and not abs(g - r) <= 1e-14 * abs(r) if r else g != 0)]
        logs = mpmath.log(t2), mpmath.log(s1)
        # 1e-15 of the two logs, plus one rounding of s (eps absolute)
        bound = 1e-15 * (abs(logs[0]) + abs(logs[1])) + sys.float_info.epsilon
        if not abs(gamma_log_jacobian_det(theta) - (logs[0] - logs[1])) <= bound:
            misses.append(("gamma_log_jacobian_det", theta))
    return misses


class TestEdgeReversalReference:
    """One body reverses an edge for both maps and for the pseudo-true limits,
    with every product on frexp mantissas: each field holds an 80-digit
    reference, and at eta = 1 a limit is its map, bit for bit."""

    #: where plain products lost digits: the reversed tau2_sq of a tiny
    #: tau1_sq*tau2_sq read 2.3% off, the reversed weight of a tiny w*tau1_sq
    #: read 0 against 3.7e-297, and the log-Jacobian of a subnormal w*w read
    #: 736.4067379055011 against 736.40670790712823; and where s overflows
    #: although the value does not: the S2 limit (-4.09e-125, 5.36e63,
    #: 1.11e-250) of a true S1 model was refused, at eta = 0 too, and the
    #: log-Jacobian read -inf against -921.0340371976183; and where y^2 or
    #: w^2*y^2 overflows: the S1 limit of a true S2 model at eta = 0 is the
    #: truth, and node 1's mixture moment at eta = 1 - 2^-53 is about 1.1e294;
    #: and a log-Jacobian near 0, 6.2e-17 off, within one rounding of s
    POINTS = [(-7.459552422120487, 4.512029488677232e-114, 1.1212662742947803e-210, 0.0, 1.0),
              (1.289889138892309e-118, 5.355020632231876e-62, 1.5360310771001508e-240, 0.0, 1.0),
              (1.234e-160, 1e-300, 1.1e300, 0.0, 1.0),
              (6.85e-73, 9.6e141, 5.4e-74, -4.6e-37, 5e-324),
              (-2.442613755997142e124, 0.06650976965612826, 5.891042551265339e81, -2.997497558050209e-93, 5e-324),
              (-2.442613755997142e124, 0.06650976965612826, 5.891042551265339e81, -2.997497558050209e-93, 0.0),
              (1e200, 1.0, 1.0, 0.0, 1.0),
              (0.0, 6.53996952628337e296, 6.53996952628337e296, -2.5573364124188608e154, 0.0),
              (1.0, 1.0, 1.0, 1e155, 1.0 - 2.0**-53),
              (1.3315082263276805e-06, 1.0189124125129612, 1.005610526831049, 0.0, 1.0)]

    @pytest.mark.parametrize("point", POINTS)
    def test_points(self, point):
        assert _reversal_misses(*point) == []

    def test_seeded_sweep(self):
        rng = np.random.default_rng(_REVERSAL_SEED)
        misses = [m for draw in _reversal_draws(rng, 1500) for m in _reversal_misses(*draw)]
        assert not misses, (len(misses), misses[:5])

    @given(_WIDE_W, _WIDE_TAU, _WIDE_TAU, _WIDE_Y)
    @settings(max_examples=300, deadline=None)
    def test_observational_limits_are_the_maps_bitwise(self, w, t1, t2, y):
        theta = Params(w, t1, t2)
        for true, other, reverse in ((Structure.S1, Structure.S2, gamma_map),
                                     (Structure.S2, Structure.S1, gamma_map_inverse)):
            try:
                want = reverse(theta).as_array().tobytes()
            except ArgumentOutOfDomain:  # a reversed variance has left the floats
                with pytest.raises(ArgumentOutOfDomain):
                    pseudo_true_limits(true, theta, y, 1.0)
                continue
            assert pseudo_true_limits(true, theta, y, 1.0)[other].as_array().tobytes() == want


def _kl_bivariate_mp(cov0, cov1):
    """``KL(N(0, cov0) || N(0, cov1))`` at 50 digits, by the matrix formula."""
    with mpmath.workdps(50):
        (a, b, _, d), (p, q, _, r) = (map(mpmath.mpf, np.ravel(c)) for c in (cov0, cov1))
        det0, det1 = a * d - b * b, p * r - q * q
        return (((r * a - 2 * q * b + p * d) / det1) - 2 + mpmath.log(det1 / det0)) / 2


class TestKlCenteredBivariate:
    def test_determinant_beyond_the_floats(self):
        # Cov2 refused 1e160*I as not positive definite: its determinant overflowed
        want = 0.5 * (2e-160 - 2.0 + 320.0 * math.log(10.0))
        assert kl_centered_bivariate(np.eye(2), 1e160 * np.eye(2)) == pytest.approx(want, rel=1e-14)

    def test_nearby_matrices(self):
        # the matrix route read -1.1e-16, its terms cancelling
        c = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert kl_centered_bivariate(c, c * (1 + 1e-9)) == 5.000000820737076e-19

    def test_against_a_50_digit_reference(self):
        rng = np.random.default_rng(29)

        def cov():
            s1, s2 = 10.0 ** rng.uniform(-3.0, 3.0, 2)
            c12 = rng.uniform(-0.99, 0.99) * math.sqrt(s1 * s2)
            return np.array([[s1, c12], [c12, s2]])

        for _ in range(300):
            cov0, cov1 = cov(), cov()
            got, want = kl_centered_bivariate(cov0, cov1), _kl_bivariate_mp(cov0, cov1)
            assert got >= 0.0
            assert abs(got - want) <= 1e-12 * want + 1e-14 * mpmath.sqrt(want) + 1e-30, (cov0, cov1)

    def test_is_the_chain_rule_of_the_kl_mixture(self):
        # at eta = 1 kl_mixture_exponent is the KL from the true covariance to
        # the wrong model's pseudo-true one, whatever node order it sums in
        theta = Params(0.8, 1.5, 0.6)
        for true, wrong in ((Structure.S1, Structure.S3), (Structure.S2, Structure.S3)):
            lim = pseudo_true_limits(true, theta, 1.2, 1.0)[wrong]
            got = kl_centered_bivariate(implied_covariance(true, theta).as_matrix(),
                                        implied_covariance(wrong, lim).as_matrix())
            assert got == pytest.approx(kl_mixture_exponent(true, wrong, theta, 1.2, 1.0), rel=1e-14)


class TestKlMixtureIdentity:
    def test_d12_and_d21(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = random_params(rng)
            y = float(rng.uniform(0.2, 2.5))
            eta = float(rng.uniform(0.02, 0.98))
            assert d12(ri(theta, y, eta)) == pytest.approx(
                kl_mixture_exponent(Structure.S1, Structure.S2, theta, y, eta), rel=1e-12
            )
            assert d21(ri(theta, y, eta)) == pytest.approx(
                kl_mixture_exponent(Structure.S2, Structure.S1, theta, y, eta), rel=1e-12
            )

    def test_d13_and_d23(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            theta = random_params(rng)
            y = float(rng.uniform(0.2, 2.5))
            eta = float(rng.uniform(0.02, 0.98))
            assert d13(ri(theta, y, eta)) == pytest.approx(
                kl_mixture_exponent(Structure.S1, Structure.S3, theta, y, eta), rel=1e-12
            )
            assert d23(ri(theta, y, eta)) == pytest.approx(
                kl_mixture_exponent(Structure.S2, Structure.S3, theta, y, eta), rel=1e-12
            )

    # var0/var1 - 1 + log(var1/var0) cancels: it read -1.2e-32 at var1 = 1 + 2^-52
    @pytest.mark.parametrize("mean0, var0, mean1, var1", [
        (0.0, 1.0, 0.0, 1.0 + 2.0**-52), (0.0, 1.0, 0.0, 1.0 - 2.0**-53), (0.0, 3.0, 0.0, 3.0 * (1.0 + 1e-9)),
        (0.0, 1.0, 0.0, 1.0 - 1e-7), (1.0, 2.0, 3.0, 4.0), (0.0, 1e-300, 1e-150, 1e-280),
    ])
    def test_univariate_kl_against_reference(self, mean0, var0, mean1, var1):
        with mpmath.workdps(50):
            m0, v0, m1, v1 = map(mpmath.mpf, (mean0, var0, mean1, var1))
            want = float((v0 / v1 - 1 + (m1 - m0) ** 2 / v1 + mpmath.log(v1 / v0)) / 2)
        got = kl_univariate(mean0, var0, mean1, var1)
        assert got >= 0.0
        assert got == pytest.approx(want, rel=1e-14)


class TestNonidentPosteriorLimit:
    def test_symmetric_hyper_gives_half(self, symmetric_hyper):
        rng = np.random.default_rng(13)
        for _ in range(20):
            theta = random_params(rng)
            lim = nonident_posterior_limit(theta, symmetric_hyper, Structure.S1)
            assert lim == pytest.approx(0.5, abs=1e-9)

    def test_true_s1_and_s2_limits_sum_to_one(self):
        h = BgeHyper(4.0, 2.5, 2.5, 3.0, 3.0, 3.0, 0.5, 1.0)
        rng = np.random.default_rng(14)
        for _ in range(20):
            theta = random_params(rng)
            a = nonident_posterior_limit(theta, h, Structure.S1)
            b = nonident_posterior_limit(theta, h, Structure.S2)
            assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_posterior_approaches_limit(self):
        h = BgeHyper(4.0, 2.5, 2.5, 3.0, 3.0, 3.0, 0.5, 1.0)
        theta = UNIT
        lim = nonident_posterior_limit(theta, h, Structure.S1)
        vals = []
        for seed in range(20):
            st = suffstats(sample_obs(Structure.S1, theta, 100_000, seed))
            vals.append(posterior(st, h).prob(Structure.S1))
        assert float(np.mean(vals)) == pytest.approx(lim, abs=0.05)

    def test_zero_weight_rejected(self, symmetric_hyper):
        with pytest.raises(InvalidParameter):
            nonident_posterior_limit(Params(0.0, 1.0, 1.0), symmetric_hyper, Structure.S1)

    def test_a_log_ratio_of_1e18_does_not_overflow(self):
        # log r is about -1.9e18 here: the S2 limit is 0 and the S1 limit 1
        theta, h = Params(1e5, 1e-8, 1.0), bge_symmetric_hyper(3.0, 2.0)
        assert nonident_posterior_limit(theta, h, Structure.S2) == 0.0
        assert nonident_posterior_limit(theta, h, Structure.S1) == 1.0


def _log_prior_ratio_reference(theta, h, dps=100):
    """The pulled-back ``S2`` log prior minus the ``S1`` log prior, both
    densities written out term by term at ``dps`` digits."""
    with mpmath.workdps(dps):
        w, t1, t2 = (mpmath.mpf(v) for v in (theta.w, theta.tau1_sq, theta.tau2_sq))
        beta, lam = mpmath.mpf(h.beta), mpmath.mpf(h.lam)

        def invgamma(x, shape):
            a = mpmath.mpf(shape)
            return a * mpmath.log(beta) - mpmath.loggamma(a) - (a + 1) * mpmath.log(x) - beta / x

        def normal(x, var):
            return -(mpmath.log(2 * mpmath.pi * var) + x * x / var) / 2

        s = w * w * t2 + t1  # node 1's variance under S2; its weight and node 2's variance follow
        w2, t2_s2 = w * t2 / s, t1 * t2 / s
        log_s2 = invgamma(s, h.alpha3) + invgamma(t2_s2, h.alpha4) + normal(w2, lam * t2_s2) + mpmath.log(t2 / s)
        log_s1 = invgamma(t1, h.alpha1) + invgamma(t2, h.alpha2) + normal(w, lam * t1)
        return float(log_s2 - log_s1)


_RATIO_HYPERS = [
    bge_symmetric_hyper(3.0, 0.5),
    BgeHyper(4.0, 2.5, 2.5, 3.0, 3.0, 3.0, 0.5, 1.0),
    BgeHyper(2.0, 1.5, 1.8, 2.2, 1.2, 2.8, 0.8, 0.6),
]


class TestLogPriorRatio:
    @given(
        hs.floats(-6.0, 6.0),
        hs.sampled_from([-1.0, 1.0]),
        hs.floats(-8.0, 8.0),
        hs.floats(-8.0, 8.0),
        hs.sampled_from(_RATIO_HYPERS),
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_the_two_densities(self, log_w, sign, log_t1, log_t2, h):
        w, t1, t2 = sign * 10.0**log_w, 10.0**log_t1, 10.0**log_t2
        want = _log_prior_ratio_reference(Params(w, t1, t2), h)
        # the weight term's factor tau2_sq*(1 - w^2) - tau1_sq cancels near its
        # zero: a rounding of its two terms is allowed for
        scale = abs(h.beta - 0.5 / h.lam) * w * w * (t2 * abs(1.0 - w * w) + t1) / (t1 * (w * w * t2 + t1))
        bound = 1e-14 * max(1.0, abs(want)) + 4.0 * sys.float_info.epsilon * scale
        assert abs(_log_prior_ratio(Params(w, t1, t2), h) - want) <= bound

    def test_symmetric_hyper_gives_exactly_zero(self):
        assert _log_prior_ratio(Params(1e5, 1e-8, 1.0), bge_symmetric_hyper(3.0, 0.5)) == 0.0

    # s = w^2*tau2_sq + tau1_sq and the weight term's w^2*(tau2_sq - s) leave
    # the floats where the ratio does not: each of these was refused; the two
    # densities cancel terms of 1e400 at w = 1e200, so the reference needs 500 digits
    @pytest.mark.parametrize("w, h", [(1e200, _RATIO_HYPERS[0]), (1e200, _RATIO_HYPERS[1]), (1e150, _RATIO_HYPERS[2])])
    def test_beyond_the_floats_of_s(self, w, h):
        theta = Params(w, 1.0, 1.0)
        want = _log_prior_ratio_reference(theta, h, dps=500)  # 0 under the symmetric prior, and so exactly
        assert abs(_log_prior_ratio(theta, h) - want) <= 1e-14 * abs(want)

    def test_an_overflowing_ratio_is_refused(self):
        # log r is about 3.3e398 here
        with pytest.raises(ArgumentOutOfDomain):
            _log_prior_ratio(Params(1e200, 1.0, 1.0), _RATIO_HYPERS[2])


class TestValidation:
    def test_rate_input_domain(self):
        for bad in (-0.1, 1.5, math.nan, np.array([0.2, np.nan]), np.array([0.2, 1.5]), np.array([-0.1, 0.5])):
            with pytest.raises(InvalidParameter):
                RateInput(UNIT, 1.0, bad)
        RateInput(UNIT, 1.0, np.array([0.0, 0.5, 1.0]))

    def test_curve_grid_validated(self):
        with pytest.raises(InvalidParameter):
            RateCurve(np.array([0.2, 0.1]), np.array([1.0, 1.0]), RateId.D12)

    def test_d21_zero_intervention_value_allowed_inside(self):
        # y = 0 is permitted for eta in (0, 1]; the exponent stays finite
        assert math.isfinite(d21(ri(UNIT, 0.0, 0.5)))
        # and at eta = 0, where the mixture denominator vanishes, it is 0
        assert d21(ri(UNIT, 0.0, 0.0)) == 0.0
        grid = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(d21(ri(UNIT, 0.0, grid)), [d21(ri(UNIT, 0.0, float(e))) for e in grid])

    def test_overflowing_moments_rejected(self):
        # w^2 * tau2_sq overflows: the exponents would read NaN or inf, and
        # mixing_helps_s1 a plain False
        huge = Params(1e160, 1.0, 1.0)
        with pytest.raises(ArgumentOutOfDomain, match="second moments overflow"):
            RateInput(huge, 1.0, 0.5)
        with pytest.raises(ArgumentOutOfDomain, match="second moments overflow"):
            mixing_helps_s1(huge, 1.0)
        # w^2 * y^2 alone can overflow too
        with pytest.raises(ArgumentOutOfDomain):
            RateInput(UNIT, 1e200, 0.5)

    def test_pseudo_true_limit_overflow_is_a_library_error(self):
        # w^2*tau1_sq overflows, so the S1 limit of a true S2 model leaves the floats
        with pytest.raises(BicausalError):
            pseudo_true_limits(Structure.S2, Params(1e150, 1e10, 1.0), 1.0, 0.5)
        # tau1_sq^2 = 1e400 once overflowed inside this limit, which is representable
        lim = pseudo_true_limits(Structure.S2, Params(1.0, 1e200, 1.0), 1.0, 0.5)[Structure.S1]
        np.testing.assert_allclose(lim.as_array(), [1.0, 5e199, 1e200], rtol=1e-15)


#: eta over [5e-324, 1]: uniform, and log-uniform down to the smallest subnormal
_ETAS_TO_SUBNORMAL = hs.one_of(hs.floats(5e-324, 1.0), _decade(-323.3, 0.0).filter(lambda e: 5e-324 <= e <= 1.0))
_SIGNED = hs.tuples(hs.sampled_from([-1.0, 1.0]), _EXTREME).map(lambda t: t[0] * t[1])
_NON_FINITE = hs.sampled_from([math.nan, math.inf, -math.inf])
#: the refusals a rate-layer call may raise, with their categories
_REFUSALS = {InvalidParameter: "invalid-parameter", ArgumentOutOfDomain: "argument-out-of-domain"}


@hs.composite
def _covariance(draw):
    """``(matrix, kind)``: a symmetric matrix of magnitudes 1e+-150 whose
    correlation lies in [-1, 1] ("pd", including the singular |r| = 1), one
    with a correlation beyond 1 or a non-positive diagonal ("indefinite"), or
    one whose off-diagonal entries differ by an ulp ("asymmetric")."""
    a, d = draw(_EXTREME), draw(_EXTREME)
    kind = draw(hs.sampled_from(["pd", "indefinite", "asymmetric"]))
    r = draw(hs.one_of(hs.floats(-1.0, 1.0), hs.sampled_from([-1.0, 1.0])))
    if kind == "indefinite":
        if draw(hs.booleans()):
            r = draw(hs.sampled_from([-1.0, 1.0])) * draw(hs.floats(1.01, 10.0))
        else:
            a = draw(hs.sampled_from([-a, 0.0]))
    c12 = r * math.sqrt(abs(a) * d)
    c21 = math.nextafter(c12, math.inf) if kind == "asymmetric" else c12
    return np.array([[a, c12], [c21, d]]), kind


def _outcome(call, *args):
    """A call's value with warnings as errors, or the type of its refusal,
    checked against its category."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return call(*args)
    except tuple(_REFUSALS) as exc:
        assert exc.category == _REFUSALS[type(exc)]
        return type(exc)


def _refusal_or_kl(call, *args):
    """A KL call's :func:`_outcome`, its value checked finite and non-negative."""
    out = _outcome(call, *args)
    assert isinstance(out, type) or (math.isfinite(out) and out >= 0.0), (args, out)
    return out


class TestRateLayerFuzz:
    """Every call of the KL and pseudo-true routes returns a finite value (a
    KL at least 0) or refuses with its category, at magnitudes of 1e+-150,
    eta down to the smallest subnormal, and matrices that are singular,
    indefinite or asymmetric; any warning fails."""

    @given(hs.one_of(_SIGNED, hs.just(0.0), _NON_FINITE), hs.one_of(_EXTREME, hs.just(1e-310), hs.just(0.0),
           _SIGNED, _NON_FINITE), _SIGNED, _EXTREME)
    @settings(max_examples=100, deadline=None)
    def test_kl_univariate(self, mean0, var0, mean1, var1):
        out = _refusal_or_kl(kl_univariate, mean0, var0, mean1, var1)
        if not (math.isfinite(mean0) and 0.0 < var0 < math.inf):
            assert out is InvalidParameter
        elif var0 < sys.float_info.min:
            assert out is ArgumentOutOfDomain

    @given(_covariance(), _covariance())
    @settings(max_examples=100, deadline=None)
    def test_kl_centered_bivariate(self, cov0, cov1):
        out = _refusal_or_kl(kl_centered_bivariate, cov0[0], cov1[0])
        if (cov0[1], cov1[1]) != ("pd", "pd"):
            assert out is InvalidParameter

    @given(hs.sampled_from(list(_KL_PAIRS.values())), hs.sampled_from([-1.0, 1.0]), _EXTREME, _EXTREME, _EXTREME,
           hs.one_of(hs.just(0.0), _SIGNED), _ETAS_TO_SUBNORMAL, hs.sampled_from([float, np.float64]))
    @example((Structure.S2, Structure.S1), 1.0, 2.0, 3.0, 0.5, 0.0, 5e-324, float)
    @settings(max_examples=100, deadline=None)
    def test_kl_mixture_exponent(self, models, sign, w, t1, t2, y, eta, kind):
        out = _refusal_or_kl(kl_mixture_exponent, *models, Params(*map(kind, (sign * w, t1, t2))), y, eta)
        assert out is not InvalidParameter

    @given(hs.sampled_from(list(Structure)), hs.sampled_from([-1.0, 1.0]), _EXTREME, _EXTREME, _EXTREME,
           hs.one_of(hs.just(0.0), _SIGNED), _ETAS_TO_SUBNORMAL, hs.sampled_from([float, np.float64]))
    @example(Structure.S2, 1.0, 2.0, 3.0, 0.5, 0.0, 5e-324, float)
    @example(Structure.S2, 1.0, 2.0, 3.0, 0.5, 1e-170, 5e-324, float)
    @settings(max_examples=100, deadline=None)
    def test_pseudo_true_limits(self, true, sign, w, t1, t2, y, eta, kind):
        theta = Params(*map(kind, (0.0 if true is Structure.S3 else sign * w, t1, t2)))
        out = _outcome(pseudo_true_limits, true, theta, y, eta)
        assert out is not InvalidParameter
        for lim in () if out is ArgumentOutOfDomain else out.values():
            assert all(map(math.isfinite, lim.as_array())) and lim.tau1_sq > 0.0 and lim.tau2_sq > 0.0


#: each numpy scalar type with the magnitudes of its values: TestRateLayerFuzz's
#: for float64, float32's own range, and integers up to 1e18 for int64
_SCALAR_MAGNITUDES = {
    np.float64: _EXTREME,
    np.float32: hs.one_of(_decade(-40.0, 38.0), _decade(-2.0, 2.0)),
    np.int64: hs.one_of(hs.integers(1, 100), _decade(0.0, 18.0).map(int)),
}
_SCALAR_ETAS = {np.float64: _ETAS_TO_SUBNORMAL, np.float32: hs.floats(0.0, 1.0), np.int64: hs.sampled_from([0, 1])}
_SCALAR_NAMES = ("w", "t1", "t2", "y", "eta", "a1", "a2", "a3", "a4", "a5", "a6", "beta", "lam", "x1", "x2", "mean")
#: five observational rows and three interventional ones, at y = 1.5
_SCALAR_DATA = suffstats([[0.3, -1.2], [1.1, 0.4], [-0.7, 0.9], [2.0, 1.6], [-1.4, -0.2]],
                         [[0.8, 1.5], [-0.5, 1.5], [1.9, 1.5]])


def _scalars(kind, **values):
    """The arguments of :data:`_SCALAR_CALLS` as scalars of ``kind``; a name
    not given is 1."""
    return {name: kind(values.get(name, 1)) for name in _SCALAR_NAMES}


@hs.composite
def _scalar_arguments(draw):
    """``(s, args)``: a structure, and every numeric argument as a numpy
    scalar of one type; ``w`` is 0 under ``S3``."""
    s, kind = draw(hs.sampled_from(list(Structure))), draw(hs.sampled_from(list(_SCALAR_MAGNITUDES)))
    magnitude = _SCALAR_MAGNITUDES[kind]
    values = {name: draw(magnitude) for name in _SCALAR_NAMES}
    for name in ("w", "y", "x1", "x2", "mean"):
        values[name] *= draw(hs.sampled_from([-1, 1, 0 if name in ("w", "y") else 1]))
    values["eta"] = draw(_SCALAR_ETAS[kind])
    values["w"] *= s is not Structure.S3
    return s, _scalars(kind, **values)


def _theta(a):
    return Params(a["w"], a["t1"], a["t2"])


def _hyper(a):
    return BgeHyper(a["a1"], a["a2"], a["a3"], a["a4"], a["a5"], a["a6"], a["beta"], a["lam"])


def _rate_input(a):
    return RateInput(_theta(a), a["y"], a["eta"])


#: a call of every public function of sem, priors and rates, and of loglik and
#: loglik_hessian, on a structure and the arguments of :func:`_scalars`
_SCALAR_CALLS = {
    "Params": lambda s, a: _theta(a),
    "Cov2": lambda s, a: Cov2(a["t1"], a["w"], a["t2"]),
    "param_dim": lambda s, a: param_dim(s),
    "gamma_map": lambda s, a: gamma_map(_theta(a)),
    "gamma_map_inverse": lambda s, a: gamma_map_inverse(_theta(a)),
    "gamma_log_jacobian_det": lambda s, a: gamma_log_jacobian_det(_theta(a)),
    "implied_covariance": lambda s, a: implied_covariance(s, _theta(a)),
    "obs_logpdf": lambda s, a: obs_logpdf((a["x1"], a["x2"]), s, _theta(a)),
    "interv_logpdf_y1": lambda s, a: interv_logpdf_y1(a["x1"], s, _theta(a), InterventionSpec(a["y"])),
    "sample_obs": lambda s, a: sample_obs(s, _theta(a), 3, 0),
    "sample_interv": lambda s, a: sample_interv(s, _theta(a), InterventionSpec(a["y"]), 3, 0),
    "BgeHyper": lambda s, a: _hyper(a),
    "bge_symmetric_hyper": lambda s, a: bge_symmetric_hyper(a["a1"], a["beta"]),
    "invgamma_logpdf": lambda s, a: invgamma_logpdf(a["t1"], a["a1"], a["beta"]),
    "prior_logpdf": lambda s, a: prior_logpdf(_theta(a), s, _hyper(a)),
    "pushforward_prior_logpdf": lambda s, a: pushforward_prior_logpdf(_theta(a), _hyper(a)),
    "RateInput": lambda s, a: _rate_input(a),
    "d12": lambda s, a: d12(_rate_input(a)),
    "d21": lambda s, a: d21(_rate_input(a)),
    "d13": lambda s, a: d13(_rate_input(a)),
    "d23": lambda s, a: d23(_rate_input(a)),
    "obs_kl_s1_vs_s3": lambda s, a: obs_kl_s1_vs_s3(_theta(a)),
    "mixing_helps_s1": lambda s, a: mixing_helps_s1(_theta(a), a["y"]),
    "optimal_eta D12": lambda s, a: optimal_eta(RateId.D12, _theta(a), a["y"]),
    "optimal_eta D21": lambda s, a: optimal_eta(RateId.D21, _theta(a), a["y"]),
    "sample_curve": lambda s, a: gain_transform(sample_curve(RateId.D12, _theta(a), a["y"], num=5)),
    "pseudo_true_limits": lambda s, a: pseudo_true_limits(s, _theta(a), a["y"], a["eta"]),
    "nonident_posterior_limit": lambda s, a: nonident_posterior_limit(_theta(a), _hyper(a), s),
    "kl_centered_bivariate": lambda s, a: kl_centered_bivariate(
        np.array([[a["t1"], a["w"]], [a["w"], a["t2"]]]), np.array([[a["t2"], a["x1"]], [a["x1"], a["t1"]]])),
    "kl_univariate": lambda s, a: kl_univariate(a["mean"], a["t1"], a["x1"], a["t2"]),
    "kl_mixture_exponent": lambda s, a: kl_mixture_exponent(
        s, STRUCTURES[(STRUCTURES.index(s) + 1) % 3], _theta(a), a["y"], a["eta"]),
    "loglik": lambda s, a: loglik(_SCALAR_DATA, s, _theta(a)),
    "loglik_hessian": lambda s, a: loglik_hessian(_SCALAR_DATA, s, _theta(a)),
}


def _bits(x):
    """``x`` as comparable bits: a float by its type and hex, an array by its
    dtype, shape and bytes, and a dataclass, mapping or sequence by its parts."""
    if isinstance(x, float):
        return type(x), x.hex()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return type(x), tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (dict, tuple, list)):
        return type(x), tuple((k, _bits(v)) for k, v in (x.items() if isinstance(x, dict) else enumerate(x)))
    return type(x), x


def _behaviour(call, *args):
    """A call's value as :func:`_bits`, or its refusal's type, category and
    message; a warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return _bits(call(*args))
        except BicausalError as exc:
            return type(exc), exc.category, str(exc)


class TestNumpyScalarArguments:
    """numpy float64, float32 and integral int64 arguments behave as the Python
    floats of their values do in every call of :data:`_SCALAR_CALLS`: the same
    bits, or the same refusal with the same message, and no warning."""

    @given(_scalar_arguments())
    # a float32 w*w overflowed where s is a float, and the refusal named inf
    @example((Structure.S1, _scalars(np.float32, w=1e20, t2=1e20, eta=0.5, y=0.5)))
    # d12 was a float32, 1.8e-7 off the float64 value
    @example((Structure.S1, _scalars(np.float32, w=1.1, t1=1.3, t2=4.7, y=0.1, eta=0.3)))
    # w*w overflowed in float64 scalars with a RuntimeWarning
    @example((Structure.S2, _scalars(np.float64, w=1e160, t1=1e-100, y=1e-3)))
    @settings(max_examples=100, deadline=None)
    def test_as_python_floats(self, drawn):
        s, args = drawn
        floats = {name: float(v) for name, v in args.items()}
        for name, call in _SCALAR_CALLS.items():
            assert _behaviour(call, s, args) == _behaviour(call, s, floats), name
