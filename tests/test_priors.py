"""Hierarchical prior densities, the pulled-back alternative prior, and the
score-equivalent hyperparameter constructor."""

import dataclasses
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bicausal import (
    BgeHyper,
    InvalidParameter,
    Params,
    Structure,
    bge_symmetric_hyper,
    prior_logpdf,
    pushforward_prior_logpdf,
)

from bicausal.sem import _edge
from conftest import random_params

#: The symmetric hyperparameters and the two asymmetric sets of the
#: oracle cross-check benchmark.
HYPERS = (
    bge_symmetric_hyper(3.0, 0.5),
    BgeHyper(4.0, 2.5, 2.5, 3.0, 3.0, 3.0, 0.5, 1.0),
    BgeHyper(2.0, 1.5, 1.8, 2.2, 1.2, 2.8, 0.8, 0.6),
)


def _formula_prior_logpdf(theta, s, h):
    """The prior as two inverse-gamma log-densities plus the weight's normal
    log-density, each written out in full and summed left to right."""

    def invgamma(x, shape, rate):
        if x <= 0.0:
            raise InvalidParameter(f"inverse-gamma support is (0, inf), got {x!r}")
        return shape * math.log(rate) - math.lgamma(shape) - (shape + 1.0) * math.log(x) - rate / x

    def norm(x, var):
        return -0.5 * (math.log(2.0 * math.pi) + math.log(var)) - x * x / (2.0 * var)

    edge = _edge(s, theta.w)
    a1, a2 = h._alphas(edge)
    tau = (theta.tau1_sq, theta.tau2_sq)
    out = invgamma(tau[0], a1, h.beta) + invgamma(tau[1], a2, h.beta)
    if edge is not None:
        out += norm(theta.w, h.lam * tau[edge[1]])
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidParameter as exc:
        return type(exc), str(exc)


class TestBgeHyper:
    def test_symmetric_example(self):
        h = bge_symmetric_hyper(3.0, 0.5)
        assert (h.alpha1, h.alpha2, h.alpha3, h.alpha4, h.alpha5, h.alpha6) == (
            3.0,
            2.5,
            2.5,
            3.0,
            3.0,
            3.0,
        )
        assert h.beta == 0.5 and h.lam == 1.0

    def test_boundary_alpha_rejected(self):
        with pytest.raises(InvalidParameter):
            bge_symmetric_hyper(0.5, 1.0)

    def test_positivity_enforced(self):
        with pytest.raises(InvalidParameter):
            BgeHyper(1, 1, 1, 1, 1, -1, 1, 1)
        with pytest.raises(InvalidParameter):
            BgeHyper(1, 1, 1, 1, 1, 1, 0.0, 1)

    @pytest.mark.parametrize("h", HYPERS)
    def test_cached_prior_constants_are_invisible(self, h):
        # a fresh twin never computed its constants; the original has
        fresh = BgeHyper(*dataclasses.astuple(h))
        prior_logpdf(Params(0.5, 1.0, 2.0), Structure.S1, h)
        assert "_prior_constants" in vars(h) and "_prior_constants" not in vars(fresh)
        assert h == fresh and hash(h) == hash(fresh) and repr(h) == repr(fresh)
        assert dataclasses.asdict(h) == dataclasses.asdict(fresh)
        back = pickle.loads(pickle.dumps(h))
        assert back == h and hash(back) == hash(h) and repr(back) == repr(h)
        theta = Params(-0.7, 0.3, 4.0)
        for s in Structure:
            t = theta if s is not Structure.S3 else Params(0.0, 0.3, 4.0)
            assert prior_logpdf(t, s, back) == prior_logpdf(t, s, fresh)
        # a replaced field gets its own constants
        moved = dataclasses.replace(h, beta=2.0 * h.beta)
        assert prior_logpdf(theta, Structure.S1, moved) == _formula_prior_logpdf(theta, Structure.S1, moved)


class TestPriorLogpdf:
    def test_unit_inverse_gamma_point(self):
        # two IG(1, 1) factors at x = 1: each contributes -1
        h = BgeHyper(1, 1, 1, 1, 1.0, 1.0, 1.0, 1.0)
        v = prior_logpdf(Params(0.0, 1.0, 1.0), Structure.S3, h)
        assert v == pytest.approx(-2.0, abs=1e-14)

    def test_finite_everywhere(self, symmetric_hyper):
        rng = np.random.default_rng(2)
        for _ in range(200):
            theta = random_params(rng, allow_zero_w=True)
            for s in (Structure.S1, Structure.S2):
                assert math.isfinite(prior_logpdf(theta, s, symmetric_hyper))
            theta3 = Params(0.0, theta.tau1_sq, theta.tau2_sq)
            assert math.isfinite(prior_logpdf(theta3, Structure.S3, symmetric_hyper))

    def test_s3_rejects_nonzero_weight(self, symmetric_hyper):
        with pytest.raises(InvalidParameter):
            prior_logpdf(Params(0.3, 1.0, 1.0), Structure.S3, symmetric_hyper)

    @given(
        hs.sampled_from(list(Structure)),
        hs.sampled_from(HYPERS),
        hs.floats(-20.0, 20.0),
        hs.floats(-20.0, 20.0),
        hs.floats(-1e3, 1e3, allow_subnormal=False),
    )
    @settings(max_examples=500, deadline=None)
    def test_equals_the_written_out_formula_bitwise(self, s, h, u1, u2, w):
        # the constants taken ahead from h must not change a rounding
        for theta in (Params(w, math.exp(u1), math.exp(u2)), Params(0.0, math.exp(u1), math.exp(u2))):
            want = _outcome(_formula_prior_logpdf, theta, s, h)
            got = _outcome(prior_logpdf, theta, s, h)
            assert got == want
            assert type(got) is type(want)

    @pytest.mark.parametrize("h", HYPERS)
    @pytest.mark.parametrize(
        "theta, s",
        [
            (Params(0.3, 1.0, 1.0), Structure.S3),
            (Params(-1e-300, 1.0, 1.0), "S3"),
            (Params(0.0, 1.0, 1.0), "S4"),
            (Params(0.0, 1.0, 1.0), []),
            (Params(0.0, 1.0, 1.0), {"S1": 1}),
            (SimpleNamespace(w=0.5, tau1_sq=-1.0, tau2_sq=1.0), Structure.S1),
            (SimpleNamespace(w=0.5, tau1_sq=1.0, tau2_sq=0.0), Structure.S2),
            (SimpleNamespace(w=0.0, tau1_sq=0.0, tau2_sq=-2.0), Structure.S3),
        ],
    )
    def test_errors_match_the_written_out_formula(self, h, theta, s):
        want = _outcome(_formula_prior_logpdf, theta, s, h)
        assert isinstance(want, tuple)  # each case is an error
        assert _outcome(prior_logpdf, theta, s, h) == want

    def test_total_mass_is_one(self, symmetric_hyper):
        # tensor quadrature with the weight standardized by its conditional scale
        h = symmetric_hyper
        nodes, weights = np.polynomial.legendre.leggauss(200)

        def quad1d(logf, lo, hi):
            x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
            w = 0.5 * (hi - lo) * weights
            return float(w @ np.exp(logf(x)))

        def ig_logpdf_logspace(u, shape):
            t = np.exp(u)
            return shape * math.log(h.beta) - math.lgamma(shape) - (shape + 1.0) * u - h.beta / t + u

        # w standardized by its conditional scale sqrt(lam*tau1_sq): standard normal
        mass_t1 = quad1d(lambda u: ig_logpdf_logspace(u, h.alpha1), -20.0, 10.0)
        mass_t2 = quad1d(lambda u: ig_logpdf_logspace(u, h.alpha2), -20.0, 10.0)
        mass_w = quad1d(lambda v: -0.5 * math.log(2 * math.pi) - 0.5 * v ** 2, -10.0, 10.0)
        assert mass_t1 * mass_t2 * mass_w == pytest.approx(1.0, abs=1e-3)


class TestPushforward:
    def test_jacobian_value_at_unit_point(self, symmetric_hyper):
        # |det J| at (1,1,1) is 1/2; check through the density identity
        theta = Params(1.0, 1.0, 1.0)
        from bicausal import gamma_map

        direct = prior_logpdf(gamma_map(theta), Structure.S2, symmetric_hyper)
        assert pushforward_prior_logpdf(theta, symmetric_hyper) == pytest.approx(
            direct + math.log(0.5), abs=1e-14
        )

    def test_symmetric_hyper_matches_s1_prior(self, symmetric_hyper):
        rng = np.random.default_rng(5)
        for _ in range(300):
            theta = random_params(rng, allow_zero_w=True)
            a = pushforward_prior_logpdf(theta, symmetric_hyper)
            b = prior_logpdf(theta, Structure.S1, symmetric_hyper)
            assert abs(a - b) < 1e-9

    def test_asymmetric_hyper_differs(self):
        h = BgeHyper(4.0, 2.5, 2.5, 3.0, 3.0, 3.0, 0.5, 1.0)
        theta = Params(1.0, 1.0, 1.0)
        assert abs(
            pushforward_prior_logpdf(theta, h) - prior_logpdf(theta, Structure.S1, h)
        ) > 1e-3

    def test_zero_weight_direct_value(self, symmetric_hyper):
        # at w = 0 the map only swaps variance roles and |det J| = tau2_sq/tau1_sq
        theta = Params(0.0, 2.0, 0.5)
        direct = prior_logpdf(Params(0.0, 2.0, 0.5), Structure.S2, symmetric_hyper)
        assert pushforward_prior_logpdf(theta, symmetric_hyper) == pytest.approx(
            direct + math.log(0.5 / 2.0), abs=1e-14
        )

    def test_density_positive_and_finite(self):
        h = BgeHyper(4.0, 2.5, 2.0, 3.0, 3.0, 3.0, 0.8, 1.3)
        rng = np.random.default_rng(12)
        for _ in range(200):
            theta = random_params(rng, allow_zero_w=True)
            assert math.isfinite(pushforward_prior_logpdf(theta, h))
