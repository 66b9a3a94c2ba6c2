"""Model layer: reparameterization, implied laws, densities, samplers."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from bicausal import (
    BicausalError,
    Cov2,
    InterventionSpec,
    InvalidParameter,
    Params,
    Structure,
    gamma_log_jacobian_det,
    gamma_map,
    gamma_map_inverse,
    implied_covariance,
    interv_logpdf_y1,
    obs_logpdf,
    sample_interv,
    sample_obs,
)

LOG_2PI = math.log(2.0 * math.pi)

variances = st.floats(0.25, 4.0)
# exactly zero or of sensible magnitude; subnormal weights only lose float
# precision without modeling meaning
weights = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 2.0),
    st.floats(-2.0, -1e-6),
)


def dense_gaussian_logpdf(x, cov: Cov2) -> float:
    """Independent oracle: scipy dense bivariate normal."""
    return float(multivariate_normal(mean=[0.0, 0.0], cov=cov.as_matrix()).logpdf(x))


class TestGammaMap:
    def test_unit_point(self):
        g = gamma_map(Params(1.0, 1.0, 1.0))
        assert (g.w, g.tau1_sq, g.tau2_sq) == (0.5, 2.0, 0.5)

    def test_zero_weight_fixed_point_up_to_swap(self):
        g = gamma_map(Params(0.0, 1.7, 0.4))
        assert g.w == 0.0
        assert (g.tau1_sq, g.tau2_sq) == (1.7, 0.4)

    def test_hand_value(self):
        # s = 4*3 + 1 = 13
        g = gamma_map(Params(2.0, 1.0, 3.0))
        np.testing.assert_allclose(
            [g.w, g.tau1_sq, g.tau2_sq], [6.0 / 13.0, 13.0, 3.0 / 13.0], rtol=1e-15
        )

    @staticmethod
    def _written_out(theta):
        """Both maps written out in plain floats, one slot at a time: ``S1 -> S2``
        with ``s = w^2*tau2_sq + tau1_sq`` and ``S2 -> S1`` with
        ``s = w^2*tau1_sq + tau2_sq``; and every step they take."""
        w, t1, t2 = theta.w, theta.tau1_sq, theta.tau2_sq
        s = w * w * t2 + t1
        forward = (w * t2 / s, s, t1 * t2 / s)
        steps = [w * w, w * w * t2, w * t2, t1 * t2, *forward]
        s = w * w * t1 + t2
        inverse = (w * t1 / s, t1 * t2 / s, s)
        return forward, inverse, [*steps, w * w * t1, w * t1, *inverse]

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(-1e5, 1e5),
        st.floats(1e-8, 1e8),
        st.floats(1e-8, 1e8),
    )
    def test_maps_match_written_out_formulas_bitwise(self, w, t1, t2):
        # the maps form their products on frexp mantissas: a step that leaves
        # the normal range (w*w*t2 at w = 5e-324) loses digits the maps keep
        theta = Params(w, t1, t2)
        forward, inverse, steps = self._written_out(theta)
        assume(all(sys.float_info.min <= abs(v) < math.inf or v == w == 0.0 for v in steps))
        g, h = gamma_map(theta), gamma_map_inverse(theta)
        assert (g.w, g.tau1_sq, g.tau2_sq) == forward
        assert (h.w, h.tau1_sq, h.tau2_sq) == inverse

    @given(weights, variances, variances)
    def test_inverse_roundtrip(self, w, t1, t2):
        theta = Params(w, t1, t2)
        back = gamma_map_inverse(gamma_map(theta))
        np.testing.assert_allclose(back.as_array(), theta.as_array(), rtol=1e-12)

    @given(weights, variances, variances)
    def test_jacobian_det_matches_central_differences(self, w, t1, t2):
        theta = Params(w, t1, t2)
        p0 = theta.as_array()
        eps = 1e-6
        jac = np.zeros((3, 3))
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            hi = gamma_map(Params(*(p0 + step))).as_array()
            lo = gamma_map(Params(*(p0 - step))).as_array()
            jac[:, j] = (hi - lo) / (2.0 * eps)
        np.testing.assert_allclose(
            abs(np.linalg.det(jac)),
            math.exp(gamma_log_jacobian_det(theta)),
            rtol=1e-6,
        )


class TestImpliedCovariance:
    def test_s1_unit(self):
        c = implied_covariance(Structure.S1, Params(1.0, 1.0, 1.0))
        np.testing.assert_array_equal(c.as_matrix(), [[2.0, 1.0], [1.0, 1.0]])

    def test_s3_diagonal(self):
        c = implied_covariance(Structure.S3, Params(0.0, 2.0, 3.0))
        np.testing.assert_array_equal(c.as_matrix(), [[2.0, 0.0], [0.0, 3.0]])

    def test_s3_rejects_nonzero_weight(self):
        with pytest.raises(InvalidParameter):
            implied_covariance(Structure.S3, Params(0.5, 1.0, 1.0))

    def test_reparameterized_s2_matches_s1(self):
        theta = Params(1.0, 1.0, 1.0)
        a = implied_covariance(Structure.S1, theta).as_matrix()
        b = implied_covariance(Structure.S2, gamma_map(theta)).as_matrix()
        np.testing.assert_allclose(b, a, atol=1e-12)

    @given(weights, variances, variances)
    def test_covariance_equivalence_and_positivity(self, w, t1, t2):
        theta = Params(w, t1, t2)
        a = implied_covariance(Structure.S1, theta)
        b = implied_covariance(Structure.S2, gamma_map(theta))
        np.testing.assert_allclose(a.as_matrix(), b.as_matrix(), rtol=1e-12, atol=1e-12)
        for s, th in ((Structure.S1, theta), (Structure.S2, theta)):
            c = implied_covariance(s, th)
            assert c.c11 > 0 and c.c11 * c.c22 - c.c12 ** 2 > 0


class TestObsLogpdf:
    def test_standard_normal_origin(self):
        v = obs_logpdf((0.0, 0.0), Structure.S3, Params(0.0, 1.0, 1.0))
        assert v == pytest.approx(-LOG_2PI, abs=1e-15)

    def test_dense_gaussian_oracle_at_unit_point(self):
        theta = Params(1.0, 1.0, 1.0)
        got = obs_logpdf((1.0, 1.0), Structure.S1, theta)
        want = dense_gaussian_logpdf([1.0, 1.0], implied_covariance(Structure.S1, theta))
        assert got == pytest.approx(want, abs=1e-12)
        # direct quadratic-form evaluation: -log(2pi) - 1/2
        assert got == pytest.approx(-LOG_2PI - 0.5, abs=1e-12)

    @given(weights, variances, variances, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    @settings(max_examples=200)
    def test_likelihood_equivalence(self, w, t1, t2, x1, x2):
        theta = Params(w, t1, t2)
        a = obs_logpdf((x1, x2), Structure.S1, theta)
        b = obs_logpdf((x1, x2), Structure.S2, gamma_map(theta))
        assert abs(a - b) < 1e-12

    @given(weights, variances, variances, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    @settings(max_examples=50)
    def test_matches_dense_oracle(self, w, t1, t2, x1, x2):
        theta = Params(w, t1, t2)
        for s in (Structure.S1, Structure.S2):
            got = obs_logpdf((x1, x2), s, theta)
            want = dense_gaussian_logpdf([x1, x2], implied_covariance(s, theta))
            assert got == pytest.approx(want, abs=1e-10)


class TestIntervLogpdf:
    def test_mode_height(self):
        theta = Params(0.7, 1.3, 1.0)
        iv = InterventionSpec(2.0)
        v = interv_logpdf_y1(0.7 * 2.0, Structure.S1, theta, iv)
        assert v == pytest.approx(-0.5 * math.log(2.0 * math.pi * 1.3), abs=1e-15)

    def test_s2_s3_identical(self):
        theta = Params(0.7, 1.3, 1.0)
        theta3 = Params(0.0, 1.3, 1.0)
        iv = InterventionSpec(2.0)
        for y1 in (-1.5, 0.0, 2.2):
            assert interv_logpdf_y1(y1, Structure.S2, theta, iv) == interv_logpdf_y1(
                y1, Structure.S3, theta3, iv
            )

    def test_unit_value(self):
        v = interv_logpdf_y1(0.0, Structure.S1, Params(1.0, 1.0, 1.0), InterventionSpec(2.0))
        assert v == pytest.approx(-0.5 * LOG_2PI - 2.0, abs=1e-14)

    def test_node1_target_rejected(self):
        with pytest.raises(InvalidParameter):
            InterventionSpec(1.0, target=1)


class TestSamplers:
    def test_empty(self):
        assert sample_obs(Structure.S1, Params(1, 1, 1), 0, 0).shape == (0, 2)
        assert sample_interv(Structure.S1, Params(1, 1, 1), InterventionSpec(1.0), 0, 0).shape == (0, 2)

    def test_seed_determinism(self):
        theta = Params(0.5, 1.0, 2.0)
        a = sample_obs(Structure.S2, theta, 64, 123)
        b = sample_obs(Structure.S2, theta, 64, 123)
        np.testing.assert_array_equal(a, b)
        c = sample_interv(Structure.S2, theta, InterventionSpec(1.5), 64, 123)
        d = sample_interv(Structure.S2, theta, InterventionSpec(1.5), 64, 123)
        np.testing.assert_array_equal(c, d)

    @pytest.mark.parametrize("s", [Structure.S1, Structure.S2, Structure.S3])
    def test_sample_covariance_close_to_implied(self, s):
        theta = Params(0.0 if s is Structure.S3 else 0.9, 1.4, 0.7)
        x = sample_obs(s, theta, 10 ** 6, 2024)
        emp = x.T @ x / x.shape[0]
        want = implied_covariance(s, theta).as_matrix()
        np.testing.assert_allclose(emp, want, rtol=0.01, atol=0.01)

    def test_interventional_moments(self):
        theta = Params(0.9, 1.4, 0.7)
        iv = InterventionSpec(2.0)
        y = sample_interv(Structure.S1, theta, iv, 10 ** 6, 7)
        assert np.all(y[:, 1] == 2.0)
        assert np.mean(y[:, 0]) == pytest.approx(0.9 * 2.0, rel=0.01)
        y3 = sample_interv(Structure.S3, Params(0.0, 1.4, 0.7), iv, 10 ** 6, 8)
        assert np.var(y3[:, 0]) == pytest.approx(1.4, rel=0.01)

    def test_invalid_counts(self):
        with pytest.raises(InvalidParameter):
            sample_obs(Structure.S1, Params(1, 1, 1), -1, 0)

    def test_counts_must_be_integers(self):
        theta, iv = Params(1, 1, 1), InterventionSpec(1.0)
        for bad in (2.5, math.nan, "3"):
            with pytest.raises(InvalidParameter, match="must be a finite integer"):
                sample_obs(Structure.S1, theta, bad, 0)
            with pytest.raises(InvalidParameter, match="must be a finite integer"):
                sample_interv(Structure.S1, theta, iv, bad, 0)
        # an integral float is the integer it holds
        assert sample_obs(Structure.S1, theta, 3.0, 0).tobytes() == sample_obs(Structure.S1, theta, 3, 0).tobytes()


class TestValidation:
    def test_params_require_positive_variances(self):
        with pytest.raises(InvalidParameter):
            Params(0.0, 0.0, 1.0)
        with pytest.raises(InvalidParameter):
            Params(0.0, 1.0, -2.0)

    def test_cov2_requires_positive_definite(self):
        with pytest.raises(InvalidParameter):
            Cov2(1.0, 2.0, 1.0)

    # positive definite matrices whose c11*c22 overflows or underflows, which
    # the determinant test refused as "not positive definite"
    @pytest.mark.parametrize("make, want", [
        (lambda: Cov2(1e160, 0.0, 1e160), (1e160, 0.0, 1e160)),
        (lambda: Cov2(1e-170, -1e-171, 1e-170), (1e-170, -1e-171, 1e-170)),
        (lambda: Cov2(1e300, 5e154, 1e10), (1e300, 5e154, 1e10)),
        (lambda: implied_covariance(Structure.S3, Params(0.0, 1e160, 1e160)), (1e160, 0.0, 1e160)),
    ], ids=["diagonal 1e160", "diagonal 1e-170", "mixed scales", "S3 covariance at 1e160"])
    def test_cov2_accepts_products_beyond_the_floats(self, make, want):
        c = make()
        assert (c.c11, c.c12, c.c22) == want

    # c11 = w^2*tau2_sq + tau1_sq where w*w is subnormal (rounded first, c11 was
    # 5.6e-6 off) or overflows (c11 was inf, and the matrix refused)
    @pytest.mark.parametrize("theta, want", [
        (Params(1e-160, 1e-20, 1e300), (2e-20, 1e140, 1e300)),
        (Params(1e155, 1e10, 1e-300), (2e10, 1e-145, 1e-300)),
    ], ids=["w*w subnormal", "w*w overflows"])
    def test_implied_covariance_where_w_squared_leaves_the_floats(self, theta, want):
        c = implied_covariance(Structure.S1, theta)
        assert (c.c11, c.c12, c.c22) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_cov2_decides_as_the_determinant_where_it_is_a_normal_float(self):
        # near-singular matrices: correlations within a few ulp of +-1
        rng = np.random.default_rng(31)
        for _ in range(10_000):
            c11, c22 = 10.0 ** rng.uniform(-150.0, 150.0, 2)
            r = 1.0 - int(rng.integers(-4, 6)) * 2.0 ** -53 * float(rng.choice([0.5, 1.0, 2.0]))
            c12 = float(rng.choice([-1.0, 1.0])) * r * math.sqrt(c11) * math.sqrt(c22)
            det = c11 * c22 - c12 * c12
            try:
                Cov2(c11, c12, c22)
                accepted = True
            except InvalidParameter:
                accepted = False
            assert accepted == (det > 0.0), (c11, c12, c22)

    def test_overflowing_squares_raise_library_errors(self):
        # squares are products: x ** 2 raises a bare OverflowError here
        with pytest.raises(BicausalError):
            Cov2(1.0, 1e160, 1.0)
        with pytest.raises(BicausalError):
            implied_covariance(Structure.S1, Params(1e160, 1.0, 1.0))
        with pytest.raises(InvalidParameter):
            Cov2(math.inf, 0.0, 1.0)
