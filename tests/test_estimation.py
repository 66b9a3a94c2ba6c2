"""Sufficient statistics, closed-form MLEs, log-likelihood identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bicausal import (
    DegenerateData,
    InterventionSpec,
    InvalidParameter,
    Params,
    Structure,
    gamma_map,
    interv_logpdf_y1,
    loglik,
    mle_mixed,
    mle_obs,
    obs_logpdf,
    sample_interv,
    sample_obs,
    suffstats,
)
from bicausal.estimation import SuffStats

from conftest import mixed_data, random_params


class TestSuffStats:
    def test_hand_observational(self):
        st = suffstats([(1.0, 1.0), (1.0, -1.0)])
        assert (st.s1x, st.s2x, st.s12x) == (2.0, 2.0, 0.0)
        assert (st.n, st.m) == (2, 0)

    def test_empty(self):
        st = suffstats(np.empty((0, 2)))
        assert st.s1x == st.s2x == st.s12x == 0.0
        assert st.n == 0 and st.m == 0 and st.y is None

    def test_hand_interventional(self):
        st = suffstats(np.empty((0, 2)), [(3.0, 2.0), (-1.0, 2.0)])
        assert (st.s1y, st.s2y, st.s12y) == (10.0, 8.0, 4.0)
        assert st.m == 2 and st.y == 2.0

    def test_s2y_exact_product(self):
        rng = np.random.default_rng(0)
        yv = sample_interv(Structure.S1, Params(1, 1, 1), InterventionSpec(1.7), 101, rng)
        st = suffstats(np.empty((0, 2)), yv)
        assert st.s2y == 101 * 1.7 * 1.7

    def test_mixed_intervention_values_rejected(self):
        with pytest.raises(Exception):
            suffstats(np.empty((0, 2)), [(1.0, 2.0), (1.0, 3.0)])

    # 1e200 is finite but its square overflows; tier-1 turns a numpy
    # RuntimeWarning on the way into an error, so none may be emitted
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
    @pytest.mark.parametrize("block", ["obs", "interv"])
    def test_non_finite_statistics_rejected(self, bad, block):
        obs = [[bad, 1.0], [1.0, 2.0], [0.5, 0.1]]
        interv = None
        if block == "interv":
            obs, interv = [[1.0, 2.0], [3.0, 1.0], [0.5, 0.2]], [[bad, 1.5], [1.0, 1.5]]
        with pytest.raises(InvalidParameter, match="must be finite"):
            suffstats(obs, interv)

    # finite entries whose squares, or whose chunk sums, overflow: the sum
    # reads inf, not the NaN of the compensation step's inf - inf
    @pytest.mark.parametrize("block", ["obs", "interv"])
    @pytest.mark.parametrize("spread", [False, True])
    def test_overflowing_sum_reports_inf(self, block, spread):
        big = [[1e160, 2.0], [1.0, 2.0]]
        if spread:
            # each 4096-row chunk sums to 1.5e308; the two together overflow
            big = [[math.sqrt(1.5e308), 2.0]] + [[0.0, 2.0]] * 4095 + [[math.sqrt(1.5e308), 2.0]]
        obs, interv, name = big, None, "s1x"
        if block == "interv":
            obs, interv, name = [[1.0, 2.0], [0.5, 0.1]], big, "s1y"
        with pytest.raises(InvalidParameter, match=f"{name} must be finite, got inf"):
            suffstats(obs, interv)

    def test_overflowing_moment_products_rejected(self):
        # every sum is finite, but their products overflow: within the
        # observational block, and pooled over both blocks
        with pytest.raises(InvalidParameter, match="moment products must be finite"):
            suffstats([[1e100, 1e100], [1.0, 2.0], [0.5, 0.1]])
        with pytest.raises(InvalidParameter, match="moment products must be finite"):
            SuffStats(1e300, 1.0, 0.0, 1.0, 1e300, 0.0, 3, 2, 1.0)

    def test_factor_map_layout(self):
        # node 1 pools both blocks; node 2 is free in the observational block only
        st = SuffStats(2.0, 3.0, 1.5, 5.0, 7.0, 4.0, 4, 3, 1.0)
        root1, root2 = (5.0 + 2.0, 0.0, 0.0, 7, False), (3.0, 0.0, 0.0, 4, False)
        assert st.factors[Structure.S1] == ((7.0, 5.5, 10.0, 7, True), root2)
        assert st.factors[Structure.S2] == (root1, (3.0, 1.5, 2.0, 4, True))
        assert st.factors[Structure.S3] == (root1, root2)
        assert st.factors is st.factors  # built once per statistics object

    def test_non_finite_field_rejected(self):
        with pytest.raises(InvalidParameter, match="s12x must be finite"):
            SuffStats(1.0, 1.0, math.nan, 0.0, 0.0, 0.0, 3, 0)
        with pytest.raises(InvalidParameter, match="y must be finite"):
            SuffStats(1.0, 1.0, 0.5, 1.0, 1.0, 0.5, 3, 1, math.inf)


class TestMleObs:
    def test_isotropic_hand_case(self):
        st = SuffStats(2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 2, 0)
        triple = mle_obs(st)
        for th in (triple.theta1, triple.theta2, triple.theta3):
            assert (th.w, th.tau1_sq, th.tau2_sq) == (0.0, 1.0, 1.0)

    def test_pushforward_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            theta = random_params(rng)
            n = int(rng.integers(2, 2000))
            st = suffstats(sample_obs(Structure.S1, theta, n, rng))
            triple = mle_obs(st)
            mapped = gamma_map(triple.theta1)
            np.testing.assert_allclose(
                mapped.as_array(), triple.theta2.as_array(), rtol=1e-12, atol=1e-300
            )

    def test_consistency(self):
        theta = Params(1.0, 1.0, 1.0)
        st = suffstats(sample_obs(Structure.S1, theta, 10 ** 5, 5))
        hat = mle_obs(st).theta1
        np.testing.assert_allclose(hat.as_array(), theta.as_array(), rtol=0.03)

    def test_rejects_mixed_stats(self):
        st = SuffStats(2.0, 2.0, 0.0, 1.0, 4.0, 2.0, 2, 1, y=2.0)
        with pytest.raises(Exception):
            mle_obs(st)

    def test_degenerate_collinear(self):
        st = suffstats([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(DegenerateData):
            mle_obs(st)

    def test_too_few_samples(self):
        with pytest.raises(DegenerateData):
            mle_obs(suffstats([(1.0, 2.0)]))


class TestMleMixed:
    def test_hand_case(self):
        st = suffstats([(1.0, 1.0), (1.0, -1.0)], [(2.0, 1.0)])
        assert (st.s1y, st.s2y, st.s12y) == (4.0, 1.0, 2.0)
        th1 = mle_mixed(st).theta1
        np.testing.assert_allclose(
            [th1.w, th1.tau1_sq, th1.tau2_sq], [2.0 / 3.0, 14.0 / 9.0, 1.0], rtol=1e-15
        )

    def test_reduces_to_obs_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta = random_params(rng)
            st = suffstats(sample_obs(Structure.S1, theta, int(rng.integers(2, 500)), rng))
            a = mle_obs(st)
            b = mle_mixed(st)
            for s in Structure:
                assert a.for_structure(s) == b.for_structure(s)

    def test_consistency_mixed(self):
        theta = Params(1.0, 1.0, 1.0)
        rng = np.random.default_rng(11)
        obs = sample_obs(Structure.S1, theta, 50_000, rng)
        interv = sample_interv(Structure.S1, theta, InterventionSpec(2.0), 50_000, rng)
        hat = mle_mixed(suffstats(obs, interv)).theta1
        np.testing.assert_allclose(hat.as_array(), theta.as_array(), rtol=0.03)

    def test_hand_case_matches_numeric_maximization(self):
        st = suffstats([(1.0, 1.0), (1.0, -1.0)], [(2.0, 1.0)])
        hat = mle_mixed(st).theta1
        base = loglik(st, Structure.S1, hat)
        rng = np.random.default_rng(9)
        for _ in range(500):
            cand = Params(
                hat.w + rng.normal(0, 0.2),
                hat.tau1_sq * math.exp(rng.normal(0, 0.2)),
                hat.tau2_sq * math.exp(rng.normal(0, 0.2)),
            )
            assert loglik(st, Structure.S1, cand) <= base + 1e-12


class TestLoglik:
    def test_empty_is_zero(self):
        st = suffstats(np.empty((0, 2)))
        for s in Structure:
            w = 0.0 if s is Structure.S3 else 0.5
            assert loglik(st, s, Params(w, 1.0, 2.0)) == 0.0

    def test_per_sample_summation_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            theta_gen = random_params(rng)
            iv = InterventionSpec(float(rng.uniform(-2, 2)))
            obs = sample_obs(Structure.S1, theta_gen, int(rng.integers(1, 30)), rng)
            interv = sample_interv(Structure.S1, theta_gen, iv, int(rng.integers(1, 30)), rng)
            st = suffstats(obs, interv)
            for s in Structure:
                theta = random_params(rng, allow_zero_w=True)
                if s is Structure.S3:
                    theta = Params(0.0, theta.tau1_sq, theta.tau2_sq)
                direct = sum(obs_logpdf(row, s, theta) for row in obs) + sum(
                    interv_logpdf_y1(row[0], s, theta, iv) for row in interv
                )
                assert loglik(st, s, theta) == pytest.approx(direct, abs=1e-10, rel=1e-10)

    @given(
        mixed_data(),
        hs.sampled_from(list(Structure)),
        hs.floats(-3.0, 3.0),
        hs.floats(0.1, 10.0),
        hs.floats(0.1, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_per_sample_summation_property(self, data, s, w, t1, t2):
        obs, interv, y = data
        st = suffstats(obs, interv)
        theta = Params(0.0 if s is Structure.S3 else w, t1, t2)
        iv = InterventionSpec(y)
        rows = [] if interv is None else interv
        direct = sum(obs_logpdf(row, s, theta) for row in obs) + sum(
            interv_logpdf_y1(row[0], s, theta, iv) for row in rows
        )
        assert loglik(st, s, theta) == pytest.approx(direct, abs=1e-9, rel=1e-9)

    def test_equal_maxima_observational(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            st = suffstats(sample_obs(Structure.S1, random_params(rng), int(rng.integers(2, 300)), rng))
            triple = mle_obs(st)
            a = loglik(st, Structure.S1, triple.theta1)
            b = loglik(st, Structure.S2, triple.theta2)
            assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("s", list(Structure))
    def test_local_maximality(self, s):
        rng = np.random.default_rng(41)
        obs = sample_obs(Structure.S1, Params(0.8, 1.2, 0.9), 200, rng)
        interv = sample_interv(Structure.S1, Params(0.8, 1.2, 0.9), InterventionSpec(1.5), 100, rng)
        st = suffstats(obs, interv)
        hat = mle_mixed(st).for_structure(s)
        base = loglik(st, s, hat)
        for _ in range(1000):
            dw = 0.0 if s is Structure.S3 else rng.normal(0, 0.1)
            cand = Params(
                hat.w + dw,
                hat.tau1_sq * math.exp(rng.normal(0, 0.1)),
                hat.tau2_sq * math.exp(rng.normal(0, 0.1)),
            )
            assert loglik(st, s, cand) <= base + 1e-12

    def test_compensated_sums_large_n(self):
        # sums of 1e6 near-unit terms retain 1e-10 agreement with fsum
        rng = np.random.default_rng(77)
        x = sample_obs(Structure.S1, Params(1.0, 1.0, 1.0), 10 ** 6, rng)
        st = suffstats(x)
        assert st.s1x == pytest.approx(math.fsum(x[:, 0] * x[:, 0]), rel=1e-12)
        assert st.s12x == pytest.approx(math.fsum(x[:, 0] * x[:, 1]), rel=1e-12, abs=1e-8)
