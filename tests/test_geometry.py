import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecond import (
    Cap,
    SpherePoint,
    SubsphereVariety,
    j_integral,
    j_integral_quad,
    kinematic_constant,
    sphere_volume,
)
from subsphere_tube import subsphere_tube_volume


def unit(v):
    return SpherePoint.from_vector(np.asarray(v, dtype=float))


class TestSphereVolume:
    def test_s0_is_two_points(self):
        assert sphere_volume(0) == pytest.approx(2.0)

    def test_circle(self):
        assert sphere_volume(1) == pytest.approx(2 * math.pi)

    def test_s3(self):
        # Gamma((3+1)/2) = Gamma(2) = 1
        assert sphere_volume(3) == pytest.approx(2 * math.pi**2, rel=1e-14)

    def test_large_p_finite(self):
        assert 0.0 < sphere_volume(200) < math.inf

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            sphere_volume(-1)


class TestJIntegral:
    def test_empty_interval(self):
        assert j_integral(5, 3, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_integral(self):
        # J_{2,1}(pi/2) = int_0^{pi/2} cos = 1
        assert j_integral(2, 1, math.pi / 2) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 12])
    def test_half_sphere_value(self, p):
        target = sphere_volume(p) / (2 * sphere_volume(p - 1))
        assert j_integral(p, p, math.pi / 2) == pytest.approx(target, rel=1e-12)

    @given(
        p=st.integers(1, 20),
        k_frac=st.floats(0.0, 1.0),
        alpha=st.floats(1e-3, math.pi / 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_quadrature(self, p, k_frac, alpha):
        k = 1 + round(k_frac * (p - 1))
        assert abs(j_integral(p, k, alpha) - j_integral_quad(p, k, alpha)) <= 1e-10

    @given(p=st.integers(1, 20), alpha=st.floats(1e-3, math.pi / 2))
    @settings(max_examples=60, deadline=None)
    def test_moment_bounds(self, p, alpha):
        eps = math.sin(alpha)
        for k in range(1, p + 1):
            val = j_integral(p, k, alpha)
            if k < p:
                assert val <= eps**k / k + 1e-12
            else:
                upper = sphere_volume(p) / (2 * sphere_volume(p - 1)) * eps**p
                assert eps**p / p - 1e-12 <= val <= upper + 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            j_integral(3, 0, 0.5)
        with pytest.raises(ValueError):
            j_integral(3, 4, 0.5)
        with pytest.raises(ValueError):
            j_integral(3, 2, 2.0)

    @pytest.mark.parametrize("p,k,alpha", [(3, [1, 4], 0.5), ([0, 2], 1, 0.5),
                                           ([[3], [2]], [1, 3], 0.5), (3, [1, 0], [0.5, 0.6]),
                                           (3, [1, 2], [0.5, -0.1]), ([3, 4], 1, [0.5, 2.0])])
    def test_any_bad_point_raises(self, p, k, alpha):
        with pytest.raises(ValueError):
            j_integral(p, k, alpha)

    def test_scalar_inputs_give_a_float(self):
        assert type(j_integral(5, 3, 0.4)) is float
        assert type(j_integral(np.int64(5), np.int64(3), np.float64(0.4))) is float
        assert j_integral(np.array([5]), 3, 0.4).shape == (1,)

    def test_broadcast_grid_matches_one_call_per_p_k(self):
        # the grid of `verify jintegrals` in one call: every point keeps its bits
        p, k = (np.array(v)[:, None] for v in zip(*SUITE_PK))
        grid = j_integral(p, k, SUITE_ALPHAS)
        assert grid.shape == (len(SUITE_PK), len(SUITE_ALPHAS))
        rows = np.array([j_integral(pi, ki, SUITE_ALPHAS) for pi, ki in SUITE_PK])
        assert grid.tobytes() == rows.tobytes()
        # and the sum of `verify_weyl_tube_bound`: one call over k at a scalar alpha
        assert j_integral(6, np.arange(1, 7), 0.3).tolist() == [
            j_integral(6, i, 0.3) for i in range(1, 7)]


# Independent reference: 1/2 B_x(k/2, (p-k+1)/2) at x = sin^2 alpha, evaluated by
# mpmath at 40 digits. 30 digits are not enough next to alpha = pi/2, where
# 1 - sin^2 alpha keeps only the digits beyond the 18th.
REF_DPS = 40
# J below the smallest normal double cannot be represented to 1e-12 relative.
NORMAL_FLOOR = 1e-300
REF_PS = [1, 2, 3, 5, 8, 13, 24, 40, 63, 100, 150, 200]
REF_ALPHAS = np.concatenate([np.geomspace(1e-4, math.pi / 2, 13),
                             [math.pi / 4, math.pi / 2 - 1e-6, math.pi / 2 - 1e-10]])


def j_reference(p, k, alpha):
    with mpmath.workdps(REF_DPS):
        x = mpmath.sin(mpmath.mpf(alpha)) ** 2
        return 0.5 * mpmath.betainc(mpmath.mpf(k) / 2, mpmath.mpf(p - k + 1) / 2, 0, x)


def sphere_volume_reference(p):
    with mpmath.workdps(REF_DPS):
        return 2 * mpmath.pi ** (mpmath.mpf(p + 1) / 2) / mpmath.gamma(mpmath.mpf(p + 1) / 2)


def assert_relative(value, ref, rel=1e-12):
    if ref < NORMAL_FLOOR:
        assert 0.0 <= value <= NORMAL_FLOOR
    else:
        assert abs(value - float(ref)) <= rel * float(ref)


class TestJIntegralReference:
    @pytest.mark.parametrize("p", REF_PS)
    def test_relative_error_against_mpmath(self, p):
        for k in sorted({1, 2, (p + 1) // 2, p - 1, p} & set(range(1, p + 1))):
            for alpha in REF_ALPHAS:
                assert_relative(j_integral(p, k, float(alpha)), j_reference(p, k, alpha))

    @given(p=st.integers(1, 200), k_frac=st.floats(0.0, 1.0),
           log_alpha=st.floats(math.log(1e-4), math.log(math.pi / 2)))
    @settings(max_examples=200, deadline=None)
    def test_random_points_against_mpmath(self, p, k_frac, log_alpha):
        k = 1 + round(k_frac * (p - 1))
        alpha = min(math.exp(log_alpha), math.pi / 2)
        assert_relative(j_integral(p, k, alpha), j_reference(p, k, alpha))

    def test_array_matches_scalar(self):
        vals = j_integral(24, 7, REF_ALPHAS)
        assert vals.shape == REF_ALPHAS.shape
        assert np.array_equal(vals, [j_integral(24, 7, float(a)) for a in REF_ALPHAS])

    @pytest.mark.parametrize("p", [2, 8, 24, 63, 200])
    @pytest.mark.parametrize("sigma", [1.0, 0.25, 0.01, 1e-3])
    def test_ball_and_tube_volumes(self, p, sigma):
        alpha = math.asin(sigma)
        for k in (1, p // 2, p):
            ref = (sphere_volume_reference(p - k) * sphere_volume_reference(k - 1)
                   * j_reference(p, k, alpha))
            assert_relative(subsphere_tube_volume(p, k, sigma), ref)


# the grid of `verify jintegrals`: p <= 20, 1 <= k <= p, 20 alphas
SUITE_PK = [(p, k) for p in range(1, 21) for k in range(1, p + 1)]
SUITE_ALPHAS = np.linspace(0.1, math.pi / 2, 20)


class TestJIntegralQuad:
    def test_array_matches_closed_form_on_the_suite_grid(self):
        p, k = (np.array(v)[:, None] for v in zip(*SUITE_PK))
        quad = j_integral_quad(p, k, SUITE_ALPHAS)
        assert quad.shape == (len(SUITE_PK), 20)
        exact = np.array([j_integral(pi, ki, SUITE_ALPHAS) for pi, ki in SUITE_PK])
        assert np.max(np.abs(quad - exact)) <= 1e-13

    @pytest.mark.parametrize("p,k,alpha", [(1, 1, 1e-3), (3, 2, 1e-3), (5, 1, 0.02),
                                           (8, 4, 0.7), (20, 20, 1e-3), (20, 1, 1.5),
                                           (12, 6, math.pi / 2)])
    def test_scalar_matches_mpmath(self, p, k, alpha):
        value, ref = j_integral_quad(p, k, alpha), float(j_reference(p, k, alpha))
        assert type(value) is float
        assert abs(value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("p,k,alpha", [(200, 199, 0.05), (200, 200, 0.3), (200, 100, 0.3),
                                           (200, 1, 1.5), (400, 300, 0.2), (63, 63, 0.01),
                                           (63, 32, math.pi / 2)])
    def test_large_p_matches_mpmath(self, p, k, alpha):
        # sin^{k-1} grows on the scale alpha / (k - 1): panels follow k as well as p
        value, ref = j_integral_quad(p, k, alpha), float(j_reference(p, k, alpha))
        assert abs(value - ref) <= 5e-14 * ref

    def test_broadcasts_like_numpy(self):
        alphas = np.array([1e-3, 0.3, 1.2])
        grid = j_integral_quad(np.array([[4], [6]]), 2, alphas)
        assert grid.shape == (2, 3)
        for row, p in zip(grid, (4, 6)):
            assert np.allclose(row, j_integral(p, 2, alphas), rtol=1e-12, atol=1e-16)

    @pytest.mark.parametrize("p,k,alpha", [(3, [1, 4], 0.5), ([0, 2], 1, 0.5),
                                           (3, 1, [0.5, -0.1]), (3, 1, [0.5, 2.0]),
                                           (3, 1, math.nan)])
    def test_any_bad_point_raises(self, p, k, alpha):
        with pytest.raises(ValueError):
            j_integral_quad(p, k, alpha)


class TestBallVolume:
    # the tube around S^0 = {+-e_0} is two geodesic balls: subsphere_tube_volume(p, p, sin a)
    def test_hemisphere_s2(self):
        assert subsphere_tube_volume(2, 2, 1.0) == pytest.approx(2 * 2 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("p", range(1, 15))
    def test_hemisphere_any_p(self, p):
        assert subsphere_tube_volume(p, p, 1.0) == pytest.approx(sphere_volume(p), rel=1e-12)

    def test_s2_cap(self):
        # J_{2,2}(a) = 1 - cos a, so one ball has volume 2 pi (1 - cos a)
        assert subsphere_tube_volume(2, 2, math.sin(math.pi / 3)) == pytest.approx(
            2 * math.pi, rel=1e-12)


class TestSubsphereTube:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 9])
    def test_full_tube_codim_one(self, p):
        assert subsphere_tube_volume(p, 1, 1.0) == pytest.approx(sphere_volume(p), rel=1e-10)

    def test_equator_band_s2(self):
        beta = 0.37
        assert subsphere_tube_volume(2, 1, math.sin(beta)) == pytest.approx(
            4 * math.pi * math.sin(beta), rel=1e-12
        )

    def test_monotone_in_eps(self):
        vals = [subsphere_tube_volume(4, 2, e) for e in np.linspace(0.05, 1.0, 30)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestKinematicConstant:
    def test_known_values(self):
        assert kinematic_constant(2, 0) == pytest.approx(math.pi, rel=1e-12)
        assert kinematic_constant(3, 0) == pytest.approx(2 * math.pi, rel=1e-12)
        assert kinematic_constant(3, 1) == pytest.approx(math.pi, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            kinematic_constant(2, 1)
        with pytest.raises(ValueError):
            kinematic_constant(1, 0)


class TestSubsphereDistance:
    @staticmethod
    def distance(x, m):
        return SubsphereVariety(x.p, m).distances(x.coords[None])[0]

    def test_on_subsphere(self):
        assert self.distance(unit([0.6, 0.8, 0.0, 0.0]), 1) == 0.0

    def test_pole(self):
        assert self.distance(unit([0, 0, 0, 1]), 1) == pytest.approx(1.0)

    def test_angle(self):
        theta = 0.44
        x = unit([math.cos(theta), 0.0, math.sin(theta)])
        assert self.distance(x, 1) == pytest.approx(math.sin(theta), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            SubsphereVariety(2, 2)


class TestTypes:
    def test_point_requires_unit_norm(self):
        with pytest.raises(ValueError):
            SpherePoint(np.array([1.0, 1.0]))

    def test_cap_radius_range(self):
        with pytest.raises(ValueError):
            Cap(unit([1, 0, 0]), 0.0)
        with pytest.raises(ValueError):
            Cap(unit([1, 0, 0]), 1.5)
        assert Cap(unit([1, 0, 0]), 1.0).alpha == pytest.approx(math.pi / 2)
