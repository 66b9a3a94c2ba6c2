"""Sufficient statistics, closed-form MLEs, log-likelihood identities."""

import hashlib
import math

import numpy as np
import pytest
import scipy.stats
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
    implied_covariance,
    obs_logpdf,
    sample_interv,
    sample_obs,
    sample_suffstats,
    suffstats,
)
from bicausal import estimation
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

    def test_counts_must_be_integers(self):
        with pytest.raises(InvalidParameter, match="n must be a finite integer"):
            SuffStats(1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 2.5, 0)
        with pytest.raises(InvalidParameter, match="m must be a finite integer"):
            SuffStats(1.0, 1.0, 0.5, 1.0, 1.0, 0.5, 3, 1.5, 1.0)
        with pytest.raises(InvalidParameter, match="n must be a finite integer"):
            sample_suffstats(Structure.S1, Params(1.0, 1.0, 1.0), 2.5, seed=0)
        st = SuffStats(1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 3.0, 0)
        assert type(st.n) is int and st.n == 3

    def test_non_finite_field_rejected(self):
        with pytest.raises(InvalidParameter, match="s12x must be finite"):
            SuffStats(1.0, 1.0, math.nan, 0.0, 0.0, 0.0, 3, 0)
        with pytest.raises(InvalidParameter, match="y must be finite"):
            SuffStats(1.0, 1.0, 0.5, 1.0, 1.0, 0.5, 3, 1, math.inf)


GOOD_SUMS = {"s1x": 2.0, "s2x": 3.0, "s12x": 1.5, "s1y": 5.0, "s2y": 7.0, "s12y": 4.0}


class TestSuffStatsBatch:
    """A batch (array sums sharing n, m and y) runs the checks of one
    dataset, once, as reductions over its cells."""

    @pytest.mark.parametrize(
        "name, bad, match",
        [
            ("s12x", math.nan, "s12x must be finite, got nan"),
            ("s1y", math.inf, "s1y must be finite, got inf"),
            ("s1x", 1e308, "moment products must be finite, got inf"),
            ("s2x", -1.0, "sums of squares must be nonnegative"),
            ("s12x", 5.0, "observational block violates Cauchy-Schwarz"),
            ("s12y", 10.0, "interventional block violates Cauchy-Schwarz"),
        ],
    )
    def test_one_bad_cell_fails_like_the_single_dataset(self, name, bad, match):
        cell = {**GOOD_SUMS, name: bad}
        with pytest.raises(InvalidParameter, match=match):
            SuffStats(**cell, n=4, m=3, y=1.0)
        batch = {k: np.array([GOOD_SUMS[k], cell[k], GOOD_SUMS[k]]) for k in GOOD_SUMS}
        with pytest.raises(InvalidParameter, match=match):
            SuffStats(**batch, n=4, m=3, y=1.0)

    def test_valid_batch_keeps_its_arrays(self):
        batch = {k: np.full(3, v) for k, v in GOOD_SUMS.items()}
        st = SuffStats(**batch, n=4, m=3, y=1.0)
        assert all(getattr(st, k) is batch[k] for k in batch)
        with pytest.raises(InvalidParameter, match="y must be finite"):
            SuffStats(**batch, n=4, m=3, y=math.nan)

    def test_malformed_batch_rejected(self):
        arrays = {k: np.full(3, v) for k, v in GOOD_SUMS.items()}
        changes = [
            {"s2x": np.full(2, 3.0)},  # lengths differ
            {"s2x": 3.0},  # a number among arrays
            {"s1x": np.full(3, 2)},  # not float64
            {k: v.reshape(3, 1) for k, v in arrays.items()},  # not 1-d
        ]
        for change in changes:
            with pytest.raises(InvalidParameter, match="1-d float64 arrays of one length"):
                SuffStats(**{**arrays, **change}, n=4, m=3, y=1.0)


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

    @given(
        mixed_data(),
        hs.sampled_from(list(Structure)),
        hs.lists(hs.floats(-3.0, 3.0), min_size=1, max_size=4),
        hs.lists(hs.floats(0.1, 10.0), min_size=1, max_size=4),
        hs.lists(hs.floats(0.1, 10.0), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_grid_body_is_bitwise_the_scalar_call(self, data, s, ws, t1s, t2s):
        # the body broadcast over a (w, tau1, tau2) grid, with the variances'
        # logs taken by math.log, gives every cell's scalar loglik bitwise
        obs, interv, _ = data
        st = suffstats(obs, interv)
        ws = [0.0] if s is Structure.S3 else ws
        w, t1, t2 = np.ix_(ws, t1s, t2s)
        log_t1, log_t2 = (np.array([math.log(t) for t in ts]).reshape(v.shape) for ts, v in ((t1s, t1), (t2s, t2)))
        grid = estimation._loglik(st, s, w, t1, t2, log_t1, log_t2)
        want = [[[loglik(st, s, Params(a, b, c)) for c in t2s] for b in t1s] for a in ws]
        assert grid.tolist() == want
        # and the scalar keeps its association: const + logdet - r1/(2 t1) - r2/(2 t2)
        f1, f2 = st.factors[s]
        a, b, c = ws[0], t1s[0], t2s[0]
        const = -(st.n + 0.5 * st.m) * math.log(2.0 * math.pi)
        logdet = -0.5 * f1.count * math.log(b) - 0.5 * f2.count * math.log(c)
        assert want[0][0][0] == const + logdet - f1.residual(a) / (2.0 * b) - f2.residual(a) / (2.0 * c)

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


class TestSampleSuffStats:
    """The direct draw of the statistics against the raw-sample path."""

    THETA = {
        Structure.S1: Params(0.8, 1.3, 0.7),
        Structure.S2: Params(-0.6, 0.9, 1.6),
        Structure.S3: Params(0.0, 1.2, 0.5),
    }
    NAMES = ("s1x", "s2x", "s12x", "s1y", "s2y", "s12y")

    @pytest.mark.parametrize("n, m", [(7, 0), (7, 4), (1, 1)])
    @pytest.mark.parametrize("s", list(Structure))
    def test_law_matches_raw_path(self, s, n, m):
        theta, iv, reps = self.THETA[s], InterventionSpec(1.5), 4000
        rng = np.random.default_rng(606)
        raw, direct = [], []
        for _ in range(reps):
            interv = sample_interv(s, theta, iv, m, rng) if m else None
            raw.append(suffstats(sample_obs(s, theta, n, rng), interv))
            direct.append(sample_suffstats(s, theta, n, m, iv, seed=rng))
        for name in self.NAMES:
            a = [getattr(st, name) for st in raw]
            b = [getattr(st, name) for st in direct]
            p = scipy.stats.ks_2samp(a, b).pvalue
            assert p > 1e-3, f"{name}: two-sample KS p-value {p:.2e}"

    @pytest.mark.parametrize("s", list(Structure))
    def test_first_moments(self, s):
        theta, y, n, m, reps = self.THETA[s], 1.5, 50, 30, 10000
        rng = np.random.default_rng(707)
        draws = [sample_suffstats(s, theta, n, m, InterventionSpec(y), seed=rng) for _ in range(reps)]
        cov = implied_covariance(s, theta)
        mu = theta.w * y if s is Structure.S1 else 0.0
        expected = {
            "s1x": n * cov.c11,
            "s2x": n * cov.c22,
            "s12x": n * cov.c12,
            "s1y": m * (theta.tau1_sq + mu * mu),
            "s12y": m * y * mu,
        }
        for name, want in expected.items():
            v = np.array([getattr(st, name) for st in draws])
            se = v.std(ddof=1) / math.sqrt(reps)
            assert abs(v.mean() - want) < 4.0 * se, f"{name}: mean {v.mean()} vs {want} (se {se})"
        assert all(st.s2y == m * y * y for st in draws)

    @settings(max_examples=200, deadline=None)
    @given(
        s=hs.sampled_from(list(Structure)),
        n=hs.integers(0, 6),
        m=hs.integers(0, 6),
        w=hs.floats(-5.0, 5.0),
        t1=hs.floats(1e-3, 1e3),
        t2=hs.floats(1e-3, 1e3),
        y=hs.floats(-5.0, 5.0),
        seed=hs.integers(0, 2**64 - 1),
    )
    def test_small_draws_are_valid_and_repeat_from_the_seed(self, s, n, m, w, t1, t2, y, seed):
        theta = Params(0.0 if s is Structure.S3 else w, t1, t2)
        a, b = (sample_suffstats(s, theta, n, m, InterventionSpec(y), seed=seed) for _ in range(2))
        assert (a.n, a.m, a.y) == (n, m, y if m else None)
        fields = [np.array([getattr(st, k) for k in self.NAMES]).tobytes() for st in (a, b)]
        assert fields[0] == fields[1]

    @settings(max_examples=200, deadline=None)
    @given(
        s=hs.sampled_from(list(Structure)),
        n=hs.integers(0, 6),
        m=hs.integers(0, 6),
        w=hs.floats(-5.0, 5.0),
        t1=hs.floats(1e-3, 1e3),
        t2=hs.floats(1e-3, 1e3),
        y=hs.floats(-5.0, 5.0),
        seed=hs.integers(0, 2**64 - 1),
    )
    def test_one_row_draw_is_the_scalar_draw(self, s, n, m, w, t1, t2, y, seed):
        # the vector body with one row takes the scalar draw's variates and
        # gives its numbers bitwise
        theta, iv = Params(0.0 if s is Structure.S3 else w, t1, t2), InterventionSpec(y)
        row = estimation._draw_sums(s, theta, n, m, iv, np.random.default_rng(seed), 1)
        st = sample_suffstats(s, theta, n, m, iv, seed=seed)
        assert [np.shape(v) for v in row] == [(1,)] * len(self.NAMES)
        assert np.concatenate(row).tobytes() == np.array([getattr(st, k) for k in self.NAMES]).tobytes()

    def test_fixed_seeds_give_pinned_statistics(self):
        # the digest was taken before the draw body became vector-valued; a
        # change means a fixed seed no longer gives the same statistics
        h = hashlib.sha256()
        for s in Structure:
            theta = self.THETA[s]
            for n, m in ((0, 1), (1, 0), (2, 0), (7, 0), (1, 1), (7, 4), (500, 300), (10**6, 10**5)):
                for seed in (0, 1, 2**63 + 5, np.random.SeedSequence(7, spawn_key=(3, 1))):
                    st = sample_suffstats(s, theta, n, m, InterventionSpec(1.5), seed=seed)
                    h.update(np.array([getattr(st, k) for k in self.NAMES]).tobytes())
            rng = np.random.default_rng(11)
            for _ in range(5):
                st = sample_suffstats(s, theta, 40, 9, InterventionSpec(-0.25), seed=rng)
                h.update(np.array([getattr(st, k) for k in self.NAMES]).tobytes())
        assert h.hexdigest() == "1f634989eab741f0b438e578997163b1991af5308e3fa41d4e5c879421318e93"

    def test_invalid_arguments_rejected(self):
        theta = self.THETA[Structure.S1]
        with pytest.raises(InvalidParameter, match="counts"):
            sample_suffstats(Structure.S1, theta, -1, seed=0)
        with pytest.raises(InvalidParameter, match="intervention"):
            sample_suffstats(Structure.S1, theta, 5, 2, seed=0)
        with pytest.raises(InvalidParameter, match="S3 requires w = 0"):
            sample_suffstats(Structure.S3, theta, 5, seed=0)
