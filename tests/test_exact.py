"""Closed-form marginal likelihoods and structure posteriors against the
quadrature oracle and known limits."""

import dataclasses
import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from bicausal import (
    BgeHyper,
    InterventionSpec,
    InvalidParameter,
    NumericalDegeneracy,
    Params,
    Structure,
    StructurePosterior,
    augmented_odds_statistic,
    bge_symmetric_hyper,
    log_marginal_mixed,
    log_marginal_obs,
    mixed_fisher,
    posterior,
    prior_logpdf,
    quadrature_log_marginal,
    sample_interv,
    sample_obs,
    sample_suffstats,
    suffstats,
)
from bicausal.estimation import _SUMS, SuffStats

from conftest import mixed_data, random_params

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

    # terms of order a*log(a) cancel at these shapes, so a rounding of theirs
    # would read as an evidence far from 0 (the conjugate oracle's is -0.398
    # at a = 1e14)
    @pytest.mark.parametrize("a", [1e8, 1e11, 1e14])
    def test_all_marginals_zero_at_large_shapes(self, a):
        st, h = suffstats(np.empty((0, 2))), BgeHyper(*[a] * 6, 1e-12, 1e-300)
        assert [log_marginal_mixed(st, s, h) for s in Structure] == [0.0, 0.0, 0.0]

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


@hs.composite
def synthetic_stats(draw):
    """Finite, non-degenerate statistics at synthetic counts up to 1e12:
    per-sample moments times the counts, with the correlation bounded away
    from +-1."""
    n = draw(hs.integers(2, 10 ** 12))
    m = draw(hs.integers(0, 10 ** 12))
    v1, v2 = draw(hs.floats(1e-3, 1e3)), draw(hs.floats(1e-3, 1e3))
    r = draw(hs.floats(-0.99, 0.99))
    obs = (n * v1, n * v2, n * r * math.sqrt(v1 * v2))
    if m == 0:
        return SuffStats(*obs, 0.0, 0.0, 0.0, n, 0)
    y = draw(hs.floats(-5.0, 5.0))
    mu, var = draw(hs.floats(-10.0, 10.0)), draw(hs.floats(1e-3, 1e3))
    return SuffStats(*obs, m * (mu * mu + var), m * y * y, y * m * mu, n, m, y)


random_hypers = hs.builds(
    BgeHyper,
    *[hs.floats(0.1, 20.0)] * 6,
    beta=hs.floats(0.01, 10.0),
    lam=hs.floats(0.01, 100.0),
)
symmetric_hypers = hs.floats(0.6, 20.0).map(lambda a: bge_symmetric_hyper(a, 0.5))


def _score_or_error(st, s, h):
    try:
        return log_marginal_mixed(st, s, h)
    except NumericalDegeneracy:
        return "degenerate"


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

    @given(
        hs.integers(0, 10 ** 9),
        hs.floats(0.0, 1e100),
        hs.floats(0.0, 1e100),
        hs.floats(-1.0, 1.0),
        hs.floats(0.5, 50.0, exclude_min=True),
    )
    @example(6, 46.0, 35.0, 0.0, 1.0)  # ties at beta = 1/4 only if the root's log(2*beta) is a constant
    @settings(max_examples=300, deadline=None)
    def test_equal_connected_marginals_property(self, n, s1x, s2x, r, alpha):
        st = SuffStats(s1x, s2x, r * math.sqrt(s1x * s2x), 0.0, 0.0, 0.0, n, 0)
        # 1/lam = 2*beta at beta = 1/2 and at beta = 1/4, where log(2*beta) is not 0
        for h in (bge_symmetric_hyper(alpha, 0.5), BgeHyper(alpha, alpha - 0.5, alpha - 0.5, alpha, alpha, alpha, 0.25, 2.0)):
            assert _score_or_error(st, Structure.S1, h) == _score_or_error(st, Structure.S2, h)


CORRUPT_OBS = (1e20, 1e20, 1e20 * (1.0 + 4e-10))  # Cauchy-Schwarz holds within its slack only


@hs.composite
def synthetic_batches(draw):
    """A batch of one to six cells sharing ``n``, ``m`` and ``y`` (``m = 0``
    often), as one array-valued SuffStats and as its single cells. The cells
    are drawn like ``synthetic_stats``; one of them may be replaced by
    observational sums whose augmented determinants can be negative."""
    n = draw(hs.integers(2, 10 ** 12))
    m = draw(hs.one_of(hs.just(0), hs.integers(1, 10 ** 12)))
    y = draw(hs.floats(-5.0, 5.0)) if m else None
    rows = []
    for _ in range(draw(hs.integers(1, 6))):
        v1, v2 = draw(hs.floats(1e-3, 1e3)), draw(hs.floats(1e-3, 1e3))
        r = draw(hs.floats(-0.99, 0.99))
        row = (n * v1, n * v2, n * r * math.sqrt(v1 * v2))
        if m:
            mu, var = draw(hs.floats(-10.0, 10.0)), draw(hs.floats(1e-3, 1e3))
            row += (m * (mu * mu + var), m * y * y, y * m * mu)
        rows.append(row + (0.0,) * (6 - len(row)))
    if draw(hs.booleans()):
        i = draw(hs.integers(0, len(rows) - 1))
        rows[i] = CORRUPT_OBS + rows[i][3:]
    batch = SuffStats(*np.array(rows).T.copy(), n, m, y)
    return batch, [SuffStats(*row, n, m, y) for row in rows]


def _same_bits(batch_values, cell_values) -> bool:
    """Equal bit patterns cell by cell, where a NaN batch cell stands for a
    cell that raised ``NumericalDegeneracy``."""
    degenerate = [v == "degenerate" for v in cell_values]
    finite = np.array([v for v in cell_values if v != "degenerate"], dtype=np.float64)
    nan = np.isnan(batch_values)
    return nan.tolist() == degenerate and batch_values[~nan].tobytes() == finite.tobytes()


class TestBatchEvidence:
    """One evidence body for a batch and for one dataset: the single call is
    the one-cell case, so the two agree bitwise."""

    @given(synthetic_batches(), hs.one_of(random_hypers, symmetric_hypers))
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_stacked_single_calls(self, data, h):
        batch, cells = data
        for s in Structure:
            got = log_marginal_mixed(batch, s, h)
            assert got.shape == (len(cells),)
            assert _same_bits(got, [_score_or_error(c, s, h) for c in cells])
        post = posterior(batch, h)
        assert post.logp.shape == post.p.shape == (3, len(cells))
        for i, c in enumerate(cells):
            if np.isnan(post.logp[:, i]).any():
                continue
            one = posterior(c, h)
            assert post.logp[:, i].tobytes() == one.logp.tobytes()
            assert post.p[:, i].tobytes() == one.p.tobytes()
            for s in Structure:
                assert post.prob(s)[i] == one.prob(s)
                assert post.log_inverse_odds(s)[i] == one.log_inverse_odds(s)
                assert post.log_odds(s, Structure.S3)[i] == one.log_odds(s, Structure.S3)

    @given(
        hs.integers(0, 10 ** 9),
        hs.lists(hs.tuples(hs.floats(0.0, 1e100), hs.floats(0.0, 1e100), hs.floats(-1.0, 1.0)), min_size=1, max_size=8),
        hs.floats(0.5, 50.0, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_symmetric_connected_scores_equal_in_every_cell(self, n, cells, alpha):
        h = bge_symmetric_hyper(alpha, 0.5)
        s1x, s2x, r = np.array(cells).T
        zeros = np.zeros(len(cells))
        batch = SuffStats(s1x.copy(), s2x.copy(), r * np.sqrt(s1x * s2x), zeros, zeros, zeros, n, 0)
        a, b = (log_marginal_mixed(batch, s, h) for s in (Structure.S1, Structure.S2))
        assert np.isnan(a).tolist() == np.isnan(b).tolist()
        assert a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()

    def test_non_positive_determinant(self, symmetric_hyper):
        h, good = symmetric_hyper, (1.0, 1.0, 0.5)
        st = SuffStats(*CORRUPT_OBS, 0.0, 0.0, 0.0, 5, 0)
        for s in (Structure.S1, Structure.S2):
            with pytest.raises(
                NumericalDegeneracy,
                match=r"^augmented determinant non-positive \(-\d[^)]*\); sufficient statistics corrupted$",
            ):
                log_marginal_mixed(st, s, h)
        zeros = np.zeros(2)
        batch = SuffStats(*np.array([good, CORRUPT_OBS]).T.copy(), zeros, zeros, zeros, 5, 0)
        single = SuffStats(*good, 0.0, 0.0, 0.0, 5, 0)
        for s in Structure:
            got = log_marginal_mixed(batch, s, h)
            assert got[0] == log_marginal_mixed(single, s, h)
            assert np.isnan(got[1]) == (s is not Structure.S3)
        post = posterior(batch, h)
        assert np.all(np.isfinite(post.p[:, 0])) and np.all(np.isnan(post.p[:, 1]))

    def test_odds_statistic_batch_equals_single_calls(self, symmetric_hyper):
        theta = Params(0.0, 1.0, 1.0)
        cells = [suffstats(sample_obs(Structure.S3, theta, 300, seed)) for seed in range(5)]
        batch = SuffStats(*(np.array([getattr(c, k) for c in cells]) for k in _SUMS), 300, 0)
        post = posterior(batch, symmetric_hyper)
        for s in (Structure.S1, Structure.S2):
            got = augmented_odds_statistic(batch, post, s, theta, symmetric_hyper)
            want = [augmented_odds_statistic(c, posterior(c, symmetric_hyper), s, theta, symmetric_hyper) for c in cells]
            assert got.tobytes() == np.array(want).tobytes()


class TestPosterior:
    def test_sums_to_one(self, symmetric_hyper):
        rng = np.random.default_rng(8)
        for _ in range(20):
            st = random_dataset(rng, int(rng.integers(2, 50)), int(rng.integers(0, 10)))
            post = posterior(st, symmetric_hyper)
            assert abs(float(np.sum(post.p)) - 1.0) < 1e-12

    @given(synthetic_stats(), hs.one_of(random_hypers, symmetric_hypers))
    @settings(max_examples=300, deadline=None)
    def test_finite_and_normalized_property(self, st, h):
        post = posterior(st, h)
        assert np.all(np.isfinite(post.logp)) and np.all(np.isfinite(post.p))
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


def _matrix_route_statistic(st, post, i, theta, h):
    """Reference: the statistic as the Laplace constant's general form writes
    it, from the public ``prior_logpdf`` and ``mixed_fisher``: twice the log
    prior ratio at ``theta``, ``log(2*pi)`` and the log ratio of the
    eta-weighted information determinants."""
    total = st.n + st.m
    eta, iv = st.n / total, InterventionSpec(st.y) if st.m > 0 else None
    log_prior_ratio = prior_logpdf(theta, i, h) - prior_logpdf(theta, Structure.S3, h)
    det_i, det_3 = (float(np.prod(np.diag(mixed_fisher(s, theta, eta, iv)))) for s in (i, Structure.S3))
    return (2.0 * (0.5 * math.log(total) + post.log_odds(i, Structure.S3)) - 2.0 * log_prior_ratio
            - math.log(2.0 * math.pi) + math.log(det_i / det_3))


class TestAugmentedOdds:
    def test_closed_form_matches_matrix_route(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            theta = Params(0.0, *np.exp(rng.uniform(-3.0, 3.0, 2)))
            n, m = int(rng.integers(2, 501)), int(rng.integers(0, 301))
            iv = InterventionSpec(float(rng.uniform(-3.0, 3.0)))
            st = suffstats(sample_obs(Structure.S3, theta, n, rng), sample_interv(Structure.S3, theta, iv, m, rng))
            h = HYPER_SETTINGS[int(rng.integers(3))]
            post = posterior(st, h)
            for s in (Structure.S1, Structure.S2):
                got = augmented_odds_statistic(st, post, s, theta, h)
                assert abs(got - _matrix_route_statistic(st, post, s, theta, h)) <= 1e-13

    def test_no_observational_row_is_refused(self, symmetric_hyper):
        # node 2's variance is then uninformed, under S1 as under S2
        st = suffstats(np.empty((0, 2)), [[1.0, 1.5], [2.0, 1.5]])
        for s in (Structure.S1, Structure.S2):
            with pytest.raises(NumericalDegeneracy, match="^weighted information determinant not positive$"):
                augmented_odds_statistic(st, posterior(st, symmetric_hyper), s, Params(0, 1, 1), symmetric_hyper)

    @pytest.mark.parametrize("tau1_sq", [1e-160, 1e-300])
    def test_finite_at_tiny_variances(self, symmetric_hyper, tau1_sq):
        # the matrix route read NaN at 1e-160 and divided by zero at 1e-300
        theta, iv = Params(0.0, tau1_sq, 1.0), InterventionSpec(1.5)
        st = suffstats(sample_obs(Structure.S3, theta, 200, 3), sample_interv(Structure.S3, theta, iv, 200, 4))
        post = posterior(st, symmetric_hyper)
        for s in (Structure.S1, Structure.S2):
            assert math.isfinite(augmented_odds_statistic(st, post, s, theta, symmetric_hyper))

    def test_rejects_connected_theta(self, symmetric_hyper):
        st = suffstats(sample_obs(Structure.S3, Params(0, 1, 1), 100, 0))
        post = posterior(st, symmetric_hyper)
        with pytest.raises(InvalidParameter):
            augmented_odds_statistic(st, post, Structure.S1, Params(0.5, 1, 1), symmetric_hyper)
        with pytest.raises(InvalidParameter):
            augmented_odds_statistic(st, post, Structure.S3, Params(0.0, 1, 1), symmetric_hyper)

    def test_finite_for_nondegenerate_data(self, symmetric_hyper):
        rng = np.random.default_rng(17)
        theta = Params(0.0, 1.0, 1.0)
        for seed in range(25):
            st = suffstats(sample_obs(Structure.S3, theta, 500, seed))
            post = posterior(st, symmetric_hyper)
            for s in (Structure.S1, Structure.S2):
                assert math.isfinite(augmented_odds_statistic(st, post, s, theta, symmetric_hyper))

    def test_median_near_chi2_median(self, symmetric_hyper):
        # chi-squared(1) median is 0.4549; prior correction enters with its
        # exact coefficient so no residual shift remains
        theta = Params(0.0, 1.0, 1.0)
        stats = []
        for seed in range(500):
            st = suffstats(sample_obs(Structure.S3, theta, 5000, 9000 + seed))
            post = posterior(st, symmetric_hyper)
            stats.append(augmented_odds_statistic(st, post, Structure.S1, theta, symmetric_hyper))
        med = float(np.median(stats))
        assert med == pytest.approx(0.4549, abs=0.12)


def _three_branch_log_marginal(st, s, h):
    """Reference: the evidence written per structure on the six sums, one
    branch each for S1, S2 and S3, as it stood before the evidence read the
    per-node factor map, with ``log(U/V)`` taken by the evidence's rule:
    ``log1p((U-V)/V)`` for ``U/V`` in ``[1/2, 2]``, ``log(U) - log(V)``
    outside."""
    n, m, batch = st.n, st.m, np.ndim(st.s1x) > 0
    s1x, s2x, s12x, s1y, s2y, s12y = st.s1x, st.s2x, st.s12x, st.s1y, st.s2y, st.s12y
    s1x_beta = s1x + 2.0 * h.beta
    s2x_beta = s2x + 2.0 * h.beta
    lam_minus_beta = 1.0 / h.lam - 2.0 * h.beta
    log_pi = math.log(math.pi)
    if s is Structure.S3:
        a1, a2 = h.alpha5, h.alpha6
        norm = (
            (a1 + a2) * math.log(2.0 * h.beta)
            - (n + 0.5 * m) * log_pi
            + math.lgamma(a1 + 0.5 * (n + m))
            + math.lgamma(a2 + 0.5 * n)
            - math.lgamma(a1)
            - math.lgamma(a2)
        )
        # the node terms summed before they are subtracted, as the evidence sums them
        out = norm - ((a1 + 0.5 * (n + m)) * np.log(s1x_beta + s1y) + (a2 + 0.5 * n) * np.log(s2x_beta))
        return out if batch else float(out)
    if s is Structure.S1:
        a_c, a_o = h.alpha1, h.alpha2
        u = s2x + 1.0 / h.lam + s2y
        v = s2x_beta
        u_minus_v = lam_minus_beta + s2y
        b = s12x + s12y
        delta = (s1x_beta + s1y) * u - b * b
        coef_u = a_c + 0.5 * (n + m - 1)
        coef_v = a_o + 0.5 * n
        coef_delta = a_c + 0.5 * (n + m)
        lg_data = math.lgamma(a_c + 0.5 * (n + m)) + math.lgamma(a_o + 0.5 * n)
    else:
        a_c, a_o = h.alpha4, h.alpha3
        u = s1x + 1.0 / h.lam
        v = s1x_beta + s1y
        u_minus_v = lam_minus_beta - s1y
        delta = u * s2x_beta - s12x * s12x
        coef_u = a_c + 0.5 * (n - 1)
        coef_v = a_o + 0.5 * (n + m)
        coef_delta = a_c + 0.5 * n
        lg_data = math.lgamma(a_o + 0.5 * (n + m)) + math.lgamma(a_c + 0.5 * n)
    norm = (
        (a_c + a_o) * math.log(2.0 * h.beta)
        - 0.5 * math.log(h.lam)
        - (n + 0.5 * m) * log_pi
        + lg_data
        - math.lgamma(a_c)
        - math.lgamma(a_o)
    )
    positive = delta > 0.0
    if not (batch or positive):
        raise NumericalDegeneracy("augmented determinant non-positive")
    r = u_minus_v / v
    log_u_over_v = np.where((r >= -0.5) & (r <= 1.0), np.log1p(r), np.log(u) - np.log(v))
    out = (
        norm
        + coef_u * log_u_over_v
        + (coef_u - coef_v) * np.log(v)
        - coef_delta * np.log(np.where(positive, delta, np.nan))
    )
    return out if batch else float(out)


def _reference_or_error(st, s, h):
    try:
        return _three_branch_log_marginal(st, s, h)
    except NumericalDegeneracy:
        return "degenerate"


def _rounding_scale(st, s, h):
    """Each term of the evidence times its condition number, summed from the
    raw sums: two roundings of the same formula part by a few eps times this.

    ``log1p((U-V)/V)`` amplifies a rounding of ``U - V`` by ``V/U``, large
    when ``U << V`` (under S2, an interventional block much larger than the
    observational one); ``log(Delta)`` amplifies by ``(A*U + B^2)/Delta``,
    large when the cross-moment nearly saturates Cauchy-Schwarz. The factor
    body rounds ``U``, ``U - V`` and ``A`` in another order than the
    three-branch formula, so it may part from it by that much when ``m > 0``.
    """
    n, m, beta2 = st.n, st.m, 2.0 * h.beta
    shapes = {Structure.S1: (h.alpha1, h.alpha2), Structure.S2: (h.alpha3, h.alpha4)}.get(s, (h.alpha5, h.alpha6))
    counts = (n + m, n)
    norm = (n + 0.5 * m) * math.log(math.pi) + sum(
        abs(math.lgamma(a + 0.5 * c)) + abs(math.lgamma(a)) + a * abs(math.log(beta2)) for a, c in zip(shapes, counts)
    )
    with np.errstate(all="ignore"):
        if s is Structure.S3:
            moments = (st.s1x + st.s1y + beta2, st.s2x + beta2)
            return norm + sum((a + 0.5 * c) * (1.0 + np.abs(np.log(v))) for a, c, v in zip(shapes, counts, moments))
        if s is Structure.S1:
            (a_c, a_o), (c_c, c_o) = shapes, counts
            u, v = st.s2x + st.s2y + 1.0 / h.lam, st.s2x + beta2
            a, b = st.s1x + st.s1y + beta2, st.s12x + st.s12y
        else:
            (a_o, a_c), (c_o, c_c) = shapes, counts
            u, v = st.s1x + 1.0 / h.lam, st.s1x + st.s1y + beta2
            a, b = st.s2x + beta2, st.s12x
        coef_u, coef_v, coef_delta = a_c + 0.5 * (c_c - 1), a_o + 0.5 * c_o, a_c + 0.5 * c_c
        delta = a * u - b * b
        return (
            norm
            + abs(math.log(h.lam))
            + abs(coef_u) * (1.0 + v / u + np.abs(np.log(u / v)))
            + abs(coef_u - coef_v) * (1.0 + np.abs(np.log(v)))
            + coef_delta * (1.0 + (a * u + b * b) / np.abs(delta) + np.abs(np.log(np.abs(delta))))
        )


def _agree(got, want, st, s, h) -> bool:
    """Within 1e-13 relative or 32 eps times the rounding scale. A NaN cell
    or ``"degenerate"`` matches only itself."""
    scale = np.atleast_1d(_rounding_scale(st, s, h)).tolist()
    for a, b, c in zip(np.atleast_1d(got).tolist(), np.atleast_1d(want).tolist(), scale):
        if isinstance(a, str) or isinstance(b, str):
            ok = a == b
        elif math.isnan(a) or math.isnan(b):
            ok = repr(a) == repr(b)  # distinct floats have distinct reprs
        else:
            ok = abs(a - b) <= max(1e-13 * abs(b), 32.0 * np.finfo(float).eps * c)
        if not ok:
            return False
    return True


class TestFactorEvidence:
    """The evidence reads the per-node factor map. It must reproduce the
    three-branch formula on the raw sums, within the rounding of either."""

    @given(hs.one_of(synthetic_stats(), mixed_data().map(lambda d: suffstats(d[0], d[1]))),
           hs.one_of(random_hypers, symmetric_hypers))
    @settings(max_examples=300, deadline=None)
    def test_single_dataset_matches_three_branch_formula(self, st, h):
        for s in Structure:
            assert _agree(_score_or_error(st, s, h), _reference_or_error(st, s, h), st, s, h)

    @given(synthetic_batches(), hs.one_of(random_hypers, symmetric_hypers))
    @settings(max_examples=300, deadline=None)
    def test_batch_matches_three_branch_formula(self, data, h):
        batch, _ = data
        for s in Structure:
            got, want = log_marginal_mixed(batch, s, h), _three_branch_log_marginal(batch, s, h)
            assert _agree(got, want, batch, s, h)


# pi to 50 digits, for the decimal reference below
_PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


class TestSmallAugmentedMoment:
    """``U << V``: under S2 an interventional block that dwarfs the
    observational one. ``log1p((U-V)/V)`` would amplify the rounding of
    ``U - V`` by ``V/U`` (~1e12 here, an error of ~2e-3); ``log(U) -
    log(V)`` keeps the evidence to a few ulp."""

    ST = SuffStats(s1x=0.349, s2x=349.0, s12x=0.0, s1y=1.0995e12, s2y=0.0, s12y=0.0, n=349, m=2_762_592_030, y=0.0)
    H = BgeHyper(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.01, 1.0)

    def _reference(self):
        """The S2 evidence in 50-digit decimal arithmetic on the exact
        values of the sums; the lgamma normalizers are the float ones the
        evidence itself uses, so only the data terms are compared."""
        st, h = self.ST, self.H
        with localcontext() as ctx:
            ctx.prec = 50
            n, m = st.n, st.m
            a_root, a_child = Decimal(h.alpha3), Decimal(h.alpha4)
            beta2, lam = 2 * Decimal(h.beta), Decimal(h.lam)
            u = Decimal(st.s1x) + 1 / lam
            v = Decimal(st.s1x) + Decimal(st.s1y) + beta2
            delta = (Decimal(st.s2x) + beta2) * u - Decimal(st.s12x) * Decimal(st.s12x)
            k_root, k_child = h.alpha3 + 0.5 * (n + m), h.alpha4 + 0.5 * n  # exact in binary
            lgammas = (math.lgamma(k_root), math.lgamma(k_child), -math.lgamma(h.alpha3), -math.lgamma(h.alpha4))
            coef_u = a_child + Decimal(n - 1) / 2
            out = (
                (a_child + a_root) * beta2.ln()
                - lam.ln() / 2
                - (n + Decimal(m) / 2) * _PI_50.ln()
                + sum(Decimal(g) for g in lgammas)
                + coef_u * (u / v).ln()
                + (coef_u - Decimal(k_root)) * v.ln()
                - Decimal(k_child) * delta.ln()
            )
            return float(out)

    def test_matches_fifty_digit_reference(self):
        want = self._reference()
        got = log_marginal_mixed(self.ST, Structure.S2, self.H)
        # the float sum's own rounding: a few ulp of the result (~1.9e-6)
        assert abs(got - want) <= 8 * math.ulp(want)

    def test_batch_takes_each_cells_branch(self):
        # a second cell with U/V inside [1/2, 2] keeps log1p in the batch
        st, other = self.ST, dataclasses.replace(self.ST, s1y=1.0)
        batch = SuffStats(*(np.array([getattr(st, f), getattr(other, f)]) for f in _SUMS), st.n, st.m, st.y)
        got = log_marginal_mixed(batch, Structure.S2, self.H).tolist()
        assert got == [log_marginal_mixed(c, Structure.S2, self.H) for c in (st, other)]

    def test_discarded_log1p_branch_is_quiet(self):
        # U/V rounds to 0, so r = -1 and log1p(r) is -inf in the branch that
        # np.where discards; it warned ("divide by zero") on one cell and on
        # a batch alike, and the suite turns that warning into a failure
        st = SuffStats(0.015625, 2.0, 0.0, 140737488355559.0, 0.0, 0.0, 2, 480332724763, 0.0)
        h = BgeHyper(1, 1, 1, 1, 1, 1, 0.1015625, 32.0)
        batch = SuffStats(*(np.array([getattr(st, f)]) for f in _SUMS), st.n, st.m, st.y)
        got = log_marginal_mixed(st, Structure.S2, h)
        assert math.isfinite(got)
        assert log_marginal_mixed(batch, Structure.S2, h).tobytes() == np.array([got]).tobytes()


class TestOverflowingEvidence:
    """``yy + 2*beta`` beyond the largest float: one dataset's evidence
    raises instead of reading NaN or -inf, without a warning; a batch keeps
    such cells non-finite."""

    ST = suffstats([[1e-100, 7e153], [2e-100, -7e153], [0.5e-100, 7e153]])

    @pytest.mark.parametrize("beta", [1.7e308, 5e307])
    @pytest.mark.parametrize("s", list(Structure))
    def test_one_dataset_raises(self, s, beta):
        h = BgeHyper(3, 3, 3, 3, 3, 3, beta, 1.0)
        with pytest.raises(NumericalDegeneracy, match=rf"^log marginal likelihood under {s.value} is (nan|-inf): "):
            log_marginal_mixed(self.ST, s, h)

    def test_posterior_raises(self):
        with pytest.raises(NumericalDegeneracy):
            posterior(self.ST, BgeHyper(3, 3, 3, 3, 3, 3, 1.7e308, 1.0))

    def test_batch_cells_stay_non_finite(self):
        batch = SuffStats(*(np.array([getattr(self.ST, f)] * 2) for f in _SUMS), self.ST.n, 0)
        for s in Structure:
            got = log_marginal_mixed(batch, s, BgeHyper(3, 3, 3, 3, 3, 3, 5e307, 1.0))
            assert got.shape == (2,) and not np.isfinite(got).any()


class TestOverflowingDeterminant:
    """``(yy + 2*beta)*U`` beyond the largest float while both moments and
    ``xy^2`` are finite: one dataset's connected evidence raises as when an
    augmented moment overflows, and a batch keeps the cell non-finite, not
    the finite value that ``rho^2 = xy^2/inf = 0`` would give."""

    ST = SuffStats(1e154, 1e154, 6e153, 0.0, 0.0, 0.0, n=2, m=0)
    H = BgeHyper(3, 3, 3, 3, 3, 3, 5e153, 1e-154)  # yy + 2*beta = xx + 1/lam = 2e154

    @pytest.mark.parametrize("s", [Structure.S1, Structure.S2])
    def test_one_dataset_raises(self, s):
        with pytest.raises(NumericalDegeneracy, match=rf"^log marginal likelihood under {s.value} is nan: "):
            log_marginal_mixed(self.ST, s, self.H)

    def test_batch_cell_stays_non_finite(self):
        batch = SuffStats(*(np.array([getattr(self.ST, f), 1.0]) for f in _SUMS), self.ST.n, 0)
        for s in (Structure.S1, Structure.S2):
            got = log_marginal_mixed(batch, s, self.H)
            assert np.isnan(got[0]) and np.isfinite(got[1])


def _evidence_mp(st, s, h):
    """The evidence at 60 digits on the exact values of the float sums and
    hyperparameters: each root's ``-k*log(yy + 2*beta)``, and the child's
    ``-log(lam)/2 + (k - 1/2)*log(U) - k*log(Delta)``, with exact log-gammas."""
    with mpmath.workdps(60):
        mp = mpmath.mpf
        beta2, lam = 2 * mp(h.beta), mp(h.lam)
        out = -(st.n + mp(st.m) / 2) * mpmath.log(mpmath.pi)
        for f, a in zip(st.factors[s], h.alphas_for(s)):
            a = mp(a)
            k = a + mp(f.count) / 2
            out += a * mpmath.log(beta2) - mpmath.loggamma(a) + mpmath.loggamma(k)
            v = mp(f.yy) + beta2
            if f.has_parent:
                u = mp(f.xx) + 1 / lam
                out += -mpmath.log(lam) / 2 + (k - mp(1) / 2) * mpmath.log(u) - k * mpmath.log(v * u - mp(f.xy) ** 2)
            else:
                out -= k * mpmath.log(v)
        return float(out)


class TestEvidenceReference:
    """Every structure's evidence on drawn statistics at N = 1e2 to 1e9,
    observational and at eta = 1/2, under the three test priors, against a
    60-digit evaluation (720 evidences; seeds fixed before the bound was
    set). Measured: at most 13 ulp of the value; the bound leaves room for
    another platform's logarithms."""

    TRUTHS = [(Structure.S3, Params(0.0, 1.0, 1.0)), (Structure.S1, Params(0.8, 1.0, 1.5)),
              (Structure.S2, Params(-0.6, 2.0, 0.5))]

    @pytest.mark.parametrize("exponent", range(2, 10))
    def test_within_a_few_ulp(self, exponent):
        total = 10 ** exponent
        for seed in range(5):
            truth, theta = self.TRUTHS[seed % 3]
            for n in (total, total // 2):
                iv = InterventionSpec(1.5) if n < total else None
                st = sample_suffstats(truth, theta, n, total - n, iv, seed=1000 * exponent + seed)
                for h in HYPER_SETTINGS:
                    for s in Structure:
                        want = _evidence_mp(st, s, h)
                        assert abs(log_marginal_mixed(st, s, h) - want) <= 20 * math.ulp(want), (seed, n, h, s)
