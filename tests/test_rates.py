"""Concentration exponents: closed forms, limits, concavity, optima, and the
Gaussian-KL mixture cross-check."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from bicausal import (
    ArgumentOutOfDomain,
    BgeHyper,
    BicausalError,
    InvalidParameter,
    Params,
    RateCurve,
    RateId,
    RateInput,
    Structure,
    d12,
    d13,
    d21,
    d23,
    gain_transform,
    gamma_map,
    kl_mixture_exponent,
    mixing_helps_s1,
    mle_mixed,
    nonident_posterior_limit,
    obs_kl_s1_vs_s3,
    optimal_eta,
    posterior,
    pseudo_true_limits,
    sample_curve,
    sample_obs,
    suffstats,
)
from bicausal.experiments import write_rates_csv

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
        x, z = w2 * t2 / t1, w2 * y2 / t1
        return (_dlog1p(e * x + (1 - e) * z) - e * _dlog1p(x)) / 2


def _ref_d21(theta, y, eta):
    """``d21`` in 60-digit decimal, in its original form
    ``0.5*log(1 - eta^2*a/(eta*s + (1-eta)*y^2)) + (eta/2)*log(s/tau2_sq)``."""
    with localcontext() as ctx:
        ctx.prec = 60
        w2, t1, t2, y2 = _decimals(theta, y)
        e = Decimal(eta)
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
            if want == 0:
                assert got == 0.0
            else:
                rel = float(abs(Decimal(float(got)) - want) / abs(want))
                assert rel * min(eta, 1.0 - eta) <= 1e-14, (f.__name__, got, float(want))

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
                        assert rel * min(eta, 1.0 - eta) <= 1e-14, (f.__name__, w, y, eta)

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


class TestGainTransform:
    def test_constant_gain_when_mixture_collapses(self):
        curve = sample_curve(RateId.D12, UNIT, 1.0, num=101)
        gain = gain_transform(curve)
        # near the eta clamp the 1/(1-eta) division amplifies rounding, so
        # constancy holds to ~1e-7 there and to 1e-12 on the interior
        np.testing.assert_allclose(gain.values, 0.5 * math.log(2.0), atol=1e-6)
        interior = gain.values[gain.eta < 0.99]
        np.testing.assert_allclose(interior, 0.5 * math.log(2.0), rtol=1e-12)
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


class TestKlMixtureIdentity:
    def test_d12_and_d21(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = random_params(rng)
            y = float(rng.uniform(0.2, 2.5))
            eta = float(rng.uniform(0.02, 0.98))
            assert d12(ri(theta, y, eta)) == pytest.approx(
                kl_mixture_exponent(Structure.S1, Structure.S2, theta, y, eta), abs=1e-9
            )
            assert d21(ri(theta, y, eta)) == pytest.approx(
                kl_mixture_exponent(Structure.S2, Structure.S1, theta, y, eta), abs=1e-9
            )

    def test_d13_and_d23(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            theta = random_params(rng)
            y = float(rng.uniform(0.2, 2.5))
            eta = float(rng.uniform(0.02, 0.98))
            assert d13(ri(theta, y, eta)) == pytest.approx(
                kl_mixture_exponent(Structure.S1, Structure.S3, theta, y, eta), abs=1e-9
            )
            assert d23(ri(theta, y, eta)) == pytest.approx(
                kl_mixture_exponent(Structure.S2, Structure.S3, theta, y, eta), abs=1e-9
            )


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
        # tau1_sq^2 overflows inside the S1 limit of a true S2 model
        with pytest.raises(BicausalError):
            pseudo_true_limits(Structure.S2, Params(1.0, 1e200, 1.0), 1.0, 0.5)
