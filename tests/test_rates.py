"""Concentration exponents: closed forms, limits, concavity, optima, and the
Gaussian-KL mixture cross-check."""

import math

import numpy as np
import pytest

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


class TestOptimalEta:
    def test_matches_dense_grid(self):
        grid = np.linspace(1e-9, 1 - 1e-9, 10 ** 6)
        theta = UNIT
        vals = np.array(
            [
                0.5 * np.log(1 - e * e / (e * 2 + (1 - e)))
                + 0.5 * e * np.log(2.0)
                for e in grid
            ]
        )
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

    def test_randomized_grid_agreement(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(1e-6, 1 - 1e-6, 4001)
        for _ in range(100):
            theta = random_params(rng)
            y = float(rng.uniform(0.2, 2.0))
            eta_star, _ = optimal_eta(RateId.D21, theta, y)
            vals = [d21(ri(theta, y, float(e))) for e in grid]
            assert abs(eta_star - grid[int(np.argmax(vals))]) < 1e-3


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
