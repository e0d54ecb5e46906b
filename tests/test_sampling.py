import math

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc, hyp2f1

from spherecond import Cap, RngStream, SpherePoint, sample_uniform_cap, sample_uniform_sphere
from spherecond.geometry import j_integral
from spherecond.sampling import _cap_radii, _small_cap_radii
from spherecond.varieties import SubsphereVariety, tube_cap_counts
from weyl_rotation import sample_rotation


def north(p):
    v = np.zeros(p + 1)
    v[0] = 1.0
    return SpherePoint(v)


def radial_cdf(p, x, x0):
    """CDF of sin^2(rho/2) for uniform points on the cap with sin^2(alpha/2) = x0.

    The law is Beta(p/2, p/2) truncated at x0. Its CDF is evaluated through
    I_x(a, a) = x^a (1-x)^a F(2a, 1; a+1; x) / (a B(a, a)) (DLMF 8.17.8), so
    the constant cancels and nothing underflows for tiny caps in high
    dimension, where I_x0 itself is below the smallest double.
    """
    a = p / 2

    def unnormalized(y):
        return (y / x0) ** a * ((1 - y) / (1 - x0)) ** a * hyp2f1(2 * a, 1, a + 1, y)

    return np.clip(unnormalized(x) / unnormalized(x0), 0.0, 1.0)


def radial_cdf_mpmath(p, x, x0):
    with mpmath.workdps(30):
        a = mpmath.mpf(p) / 2
        return float(mpmath.betainc(a, a, 0, x) / mpmath.betainc(a, a, 0, x0))


def half_angle_sq(points, p):
    # sin^2(rho/2) = |z - a|^2 / 4 for the north-pole center a, free of arccos round-off
    return np.sum((points - north(p).coords) ** 2, axis=1) / 4.0


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 3).generator.random(16)
        b = RngStream(42, 3).generator.random(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator.random(16)
        b = RngStream(42, 1).generator.random(16)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RngStream(1, 0).generator.random(16)
        b = RngStream(2, 0).generator.random(16)
        assert not np.array_equal(a, b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RngStream(-1)


class TestUniformSphere:
    def test_batch_shape_and_norms(self):
        pts = sample_uniform_sphere(3, RngStream(0), size=500)
        assert pts.shape == (500, 4)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_mean_near_zero(self):
        pts = sample_uniform_sphere(2, RngStream(5), size=200_000)
        # per-coordinate std is 1/sqrt(3); 5-sigma window on the mean
        assert np.all(np.abs(pts.mean(axis=0)) < 5 / math.sqrt(3 * 200_000))

    def test_coordinate_distribution(self):
        # on S^2 each coordinate is uniform on [-1, 1]
        pts = sample_uniform_sphere(2, RngStream(11), size=100_000)
        for j in range(3):
            assert stats.kstest(pts[:, j], stats.uniform(-1, 2).cdf).pvalue > 1e-4


class TestCapSampling:
    def test_support(self):
        sigma = 0.3
        cap = Cap(north(3), sigma)
        pts = sample_uniform_cap(cap, RngStream(2), size=20_000)
        cos_alpha = math.sqrt(1 - sigma**2)
        assert np.all(pts[:, 0] >= cos_alpha - 1e-12)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_radial_law(self):
        # fraction of samples within angular radius rho is J(rho)/J(alpha)
        p, sigma = 3, 0.8
        cap = Cap(north(p), sigma)
        pts = sample_uniform_cap(cap, RngStream(3), size=100_000)
        rho = np.arccos(np.clip(pts[:, 0], -1, 1))
        alpha = cap.alpha
        for frac in (0.25, 0.5, 0.75):
            r = frac * alpha
            expected = j_integral(p, p, r) / j_integral(p, p, alpha)
            observed = float((rho <= r).mean())
            assert observed == pytest.approx(expected, abs=0.006)

    def test_full_cap_matches_conditioned_uniform(self):
        # sigma = 1 cap sampling vs uniform sampling conditioned on the hemisphere
        p = 3
        cap = Cap(north(p), 1.0)
        cap_pts = sample_uniform_cap(cap, RngStream(4), size=100_000)
        uni = sample_uniform_sphere(p, RngStream(5), size=220_000)
        uni = uni[uni[:, 0] >= 0][:100_000]
        ks = stats.ks_2samp(cap_pts[:, 0], uni[:, 0])
        assert ks.pvalue > 0.01
        ks_side = stats.ks_2samp(cap_pts[:, 1], uni[:, 1])
        assert ks_side.pvalue > 0.01

    def test_inverse_cdf_residual(self):
        # radii map the stream's uniforms u onto the truncated Beta(p/2, p/2) CDF
        n = 2000
        for p, alpha in [(5, 1.1), (24, math.asin(0.25)), (3, math.pi / 2)]:
            u = RngStream(8).generator.random(n)
            rho = _cap_radii(p, alpha, RngStream(8).generator, n)
            assert np.all((rho >= 0.0) & (rho <= alpha))
            mass = betainc(p / 2, p / 2, math.sin(alpha / 2) ** 2)
            resid = np.abs(betainc(p / 2, p / 2, np.sin(rho / 2) ** 2) - u * mass)
            assert np.max(resid) <= 1e-12 * mass

    @pytest.mark.parametrize("p, sigma", [(15, 0.05), (63, 0.01), (200, 0.01), (24, 0.25), (2, 1.0)])
    def test_radial_law_ks(self, p, sigma):
        cap = Cap(north(p), sigma)
        x0 = math.sin(cap.alpha / 2) ** 2
        pts = sample_uniform_cap(cap, RngStream(12), size=20_000)
        x = half_angle_sq(pts, p)
        assert np.all(x <= x0 * (1 + 1e-12))
        assert stats.kstest(radial_cdf(p, x, x0), "uniform").pvalue > 1e-4

    @pytest.mark.parametrize("p, sigma", [(15, 0.05), (63, 0.01), (200, 0.01)])
    def test_reference_cdf_matches_mpmath(self, p, sigma):
        x0 = math.sin(math.asin(sigma) / 2) ** 2
        for x in x0 * np.array([1e-3, 0.3, 0.8, 0.97, 0.999]):
            assert radial_cdf(p, x, x0) == pytest.approx(radial_cdf_mpmath(p, x, x0), rel=1e-10)

    def test_tiny_cap_takes_rejection_fallback(self):
        # the truncated beta mass at p=200, sigma=0.01 is below the smallest double
        p, alpha = 200, math.asin(0.01)
        assert betainc(p / 2, p / 2, math.sin(alpha / 2) ** 2) < np.finfo(float).tiny
        rho = _cap_radii(p, alpha, RngStream(13).generator, 1000)
        fallback = _small_cap_radii(p, alpha, RngStream(13).generator, 1000)
        assert np.array_equal(rho, fallback)

    @pytest.mark.parametrize("p", [1, 2, 50])
    def test_vanishing_cap(self, p):
        # sin^2(alpha/2) underflows to 0; rho/alpha then follows Beta(p, 1)
        alpha, n = 1e-200, 4000
        rho = _cap_radii(p, alpha, RngStream(16).generator, n)
        assert np.all((rho >= 0.0) & (rho <= alpha))
        mean, var = p / (p + 1), p / ((p + 1) ** 2 * (p + 2))
        assert abs(np.mean(rho / alpha) - mean) <= 5 * math.sqrt(var / n)

    @pytest.mark.parametrize("p, sigma", [(5, 0.9), (24, 0.25), (63, 0.5)])
    def test_rejection_sampler_law(self, p, sigma):
        # the fallback is exact wherever it runs, also on caps the inverse serves
        alpha = math.asin(sigma)
        rho = _small_cap_radii(p, alpha, RngStream(14).generator, 20_000)
        assert np.all((rho >= 0.0) & (rho <= alpha))
        x = np.sin(rho / 2) ** 2
        assert stats.kstest(radial_cdf(p, x, math.sin(alpha / 2) ** 2), "uniform").pvalue > 1e-4

    def test_fallback_counts_identical_across_workers(self):
        # rejection draws a variable number of uniforms; blocks keep workers out of it
        cap = Cap(north(200), 0.01)
        variety = SubsphereVariety(200, 100)
        grid = [0.0068, 0.0071, 0.0074]
        c1 = tube_cap_counts(variety, cap, grid, 20_000, seed=15, workers=1)
        c2 = tube_cap_counts(variety, cap, grid, 20_000, seed=15, workers=2)
        assert np.array_equal(c1, c2)
        assert 0 < c1[0] < c1[-1] < 20_000

    def test_rotation_invariance_of_center(self):
        # sampling around a rotated center equals rotating samples statistically
        sigma = 0.6
        c = SpherePoint.from_vector(np.array([1.0, 2.0, -0.5, 0.3]))
        pts = sample_uniform_cap(Cap(c, sigma), RngStream(6), size=50_000)
        dots = pts @ c.coords
        assert np.all(dots >= math.sqrt(1 - sigma**2) - 1e-12)
        ref = sample_uniform_cap(Cap(north(3), sigma), RngStream(7), size=50_000)
        ks = stats.ks_2samp(dots, ref[:, 0])
        assert ks.pvalue > 0.01


class TestRotations:
    def test_orthogonal(self):
        m = sample_rotation(5, RngStream(1))
        assert np.allclose(m.T @ m, np.eye(5), atol=1e-12)

    def test_haar_first_column(self):
        # first column of a Haar orthogonal matrix is uniform on the sphere
        cols = np.array([sample_rotation(3, RngStream(10, k))[:, 0]
                         for k in range(20_000)])
        for j in range(3):
            assert stats.kstest(cols[:, j], stats.uniform(-1, 2).cdf).pvalue > 1e-4

    def test_determinant_signs_mix(self):
        dets = [np.linalg.det(sample_rotation(3, RngStream(20, k)))
                for k in range(400)]
        frac = np.mean(np.array(dets) > 0)
        assert 0.35 < frac < 0.65
