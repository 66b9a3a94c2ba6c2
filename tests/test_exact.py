"""Closed-form marginal likelihoods and structure posteriors against the
quadrature oracle and known limits."""

import math

import numpy as np
import pytest

from bicausal import (
    BgeHyper,
    InterventionSpec,
    InvalidParameter,
    Params,
    Structure,
    StructurePosterior,
    augmented_odds_statistic,
    bge_symmetric_hyper,
    log_marginal_mixed,
    log_marginal_obs,
    posterior,
    quadrature_log_marginal,
    sample_interv,
    sample_obs,
    suffstats,
)
from bicausal.estimation import SuffStats

from conftest import random_params

HYPER_SETTINGS = [
    bge_symmetric_hyper(3.0, 0.5),
    BgeHyper(4.0, 2.5, 2.5, 3.0, 3.0, 3.0, 0.5, 1.0),
    BgeHyper(2.0, 1.5, 1.8, 2.2, 1.2, 2.8, 0.8, 0.6),
]


def random_dataset(rng, n, m):
    theta = random_params(rng)
    obs = sample_obs(Structure.S1, theta, n, rng)
    interv = None
    if m:
        interv = sample_interv(Structure.S1, theta, InterventionSpec(float(rng.uniform(-2, 2))), m, rng)
    return suffstats(obs, interv)


class TestEmptyData:
    def test_all_marginals_zero(self, symmetric_hyper):
        st = suffstats(np.empty((0, 2)))
        for s in Structure:
            assert log_marginal_mixed(st, s, symmetric_hyper) == 0.0

    def test_uniform_posterior(self, symmetric_hyper):
        post = posterior(suffstats(np.empty((0, 2))), symmetric_hyper)
        np.testing.assert_allclose(post.p, [1 / 3] * 3, atol=1e-15)


class TestQuadratureOracleAgreement:
    @pytest.mark.parametrize("hyper_idx", [0, 1, 2])
    def test_observational(self, hyper_idx):
        h = HYPER_SETTINGS[hyper_idx]
        rng = np.random.default_rng(100 + hyper_idx)
        for _ in range(10):
            st = random_dataset(rng, 5, 0)
            for s in Structure:
                exact = log_marginal_obs(st, s, h)
                oracle = quadrature_log_marginal(st, s, h)
                assert abs(math.expm1(oracle - exact)) < 1e-4

    @pytest.mark.parametrize("hyper_idx", [0, 1, 2])
    def test_mixed(self, hyper_idx):
        h = HYPER_SETTINGS[hyper_idx]
        rng = np.random.default_rng(200 + hyper_idx)
        for _ in range(10):
            st = random_dataset(rng, 4, 3)
            for s in Structure:
                exact = log_marginal_mixed(st, s, h)
                oracle = quadrature_log_marginal(st, s, h)
                assert abs(math.expm1(oracle - exact)) < 1e-4

    def test_reduction_is_bitwise(self, symmetric_hyper):
        rng = np.random.default_rng(7)
        st = random_dataset(rng, 8, 0)
        for s in Structure:
            assert log_marginal_obs(st, s, symmetric_hyper) == log_marginal_mixed(
                st, s, symmetric_hyper
            )


class TestScoreEquivalence:
    @pytest.mark.parametrize("n", [2, 17, 1000, 100_000])
    def test_equal_connected_marginals(self, n, symmetric_hyper):
        theta = Params(0.8, 1.0, 1.5)
        st = suffstats(sample_obs(Structure.S1, theta, n, n))
        a = log_marginal_obs(st, Structure.S1, symmetric_hyper)
        b = log_marginal_obs(st, Structure.S2, symmetric_hyper)
        assert a == b  # exact cancellation by construction
        post = posterior(st, symmetric_hyper)
        assert abs(post.p[0] - post.p[1]) < 1e-10


class TestPosterior:
    def test_sums_to_one(self, symmetric_hyper):
        rng = np.random.default_rng(8)
        for _ in range(20):
            st = random_dataset(rng, int(rng.integers(2, 50)), int(rng.integers(0, 10)))
            post = posterior(st, symmetric_hyper)
            assert abs(float(np.sum(post.p)) - 1.0) < 1e-12

    def test_large_n_connected_split(self, symmetric_hyper):
        st = suffstats(sample_obs(Structure.S1, Params(1, 1, 1), 50_000, 3))
        post = posterior(st, symmetric_hyper)
        assert post.p[0] == pytest.approx(0.5, abs=0.02)
        assert post.p[1] == pytest.approx(0.5, abs=0.02)
        assert post.p[2] < 1e-6

    def test_s3_data_concentrates(self, symmetric_hyper):
        st = suffstats(sample_obs(Structure.S3, Params(0, 1, 1), 5000, 4))
        post = posterior(st, symmetric_hyper)
        assert post.prob(Structure.S3) > 0.9

    def test_scores_are_raw_log_marginals(self, symmetric_hyper):
        # a uniform structure prior cancels in the normalization, so the
        # scores are the marginals themselves and a common shift moves nothing
        st = random_dataset(np.random.default_rng(9), 30, 10)
        post = posterior(st, symmetric_hyper)
        raw = [log_marginal_mixed(st, s, symmetric_hyper) for s in Structure]
        np.testing.assert_array_equal(post.logp, raw)
        shifted = StructurePosterior.from_logp(post.logp + math.log(1.0 / 3.0))
        np.testing.assert_allclose(shifted.p, post.p, rtol=1e-14)

    def test_log_inverse_odds_matches_probabilities(self, symmetric_hyper):
        st = random_dataset(np.random.default_rng(10), 20, 5)
        post = posterior(st, symmetric_hyper)
        for s in Structure:
            p = post.prob(s)
            assert post.log_inverse_odds(s) == pytest.approx(math.log((1.0 - p) / p), rel=1e-12)

    def test_log_inverse_odds_safe_at_huge_n(self, symmetric_hyper):
        # synthetic statistics at n = 1e6: no overflow anywhere in log space
        n = 10 ** 6
        st = SuffStats(2.0 * n, 1.0 * n, 1.0 * n, 0.0, 0.0, 0.0, n, 0)
        vals = [log_marginal_mixed(st, s, symmetric_hyper) for s in Structure]
        assert all(math.isfinite(v) for v in vals)
        assert math.isfinite(posterior(st, symmetric_hyper).log_inverse_odds(Structure.S1))

    def test_monotone_sanity_sweep(self, symmetric_hyper):
        # growing perfectly correlated evidence makes S3 monotonically less likely
        prev = None
        for n in (10, 100, 1000, 10_000, 100_000, 1_000_000):
            st = SuffStats(2.0 * n, 1.0 * n, 0.9 * n, 0.0, 0.0, 0.0, n, 0)
            p3 = posterior(st, symmetric_hyper).prob(Structure.S3)
            assert math.isfinite(p3)
            if prev is not None:
                assert p3 <= prev
            prev = p3


class TestAugmentedOdds:
    def test_rejects_connected_theta(self, symmetric_hyper):
        st = suffstats(sample_obs(Structure.S3, Params(0, 1, 1), 100, 0))
        with pytest.raises(InvalidParameter):
            augmented_odds_statistic(st, Structure.S1, Params(0.5, 1, 1), symmetric_hyper)
        with pytest.raises(InvalidParameter):
            augmented_odds_statistic(st, Structure.S3, Params(0.0, 1, 1), symmetric_hyper)

    def test_finite_for_nondegenerate_data(self, symmetric_hyper):
        rng = np.random.default_rng(17)
        theta = Params(0.0, 1.0, 1.0)
        for seed in range(25):
            st = suffstats(sample_obs(Structure.S3, theta, 500, seed))
            for s in (Structure.S1, Structure.S2):
                assert math.isfinite(augmented_odds_statistic(st, s, theta, symmetric_hyper))

    def test_median_near_chi2_median(self, symmetric_hyper):
        # chi-squared(1) median is 0.4549; prior correction enters with its
        # exact coefficient so no residual shift remains
        theta = Params(0.0, 1.0, 1.0)
        stats = []
        for seed in range(500):
            st = suffstats(sample_obs(Structure.S3, theta, 5000, 9000 + seed))
            stats.append(augmented_odds_statistic(st, Structure.S1, theta, symmetric_hyper))
        med = float(np.median(stats))
        assert med == pytest.approx(0.4549, abs=0.12)
