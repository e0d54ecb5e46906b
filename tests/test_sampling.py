import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc, hyp2f1

from spherecond import Cap, RngStream, SpherePoint, sample_uniform_cap
from spherecond.geometry import j_integral, sphere_volume
from spherecond.sampling import _cap_radii
from spherecond.varieties import SubsphereVariety, clopper_pearson, tube_cap_counts
from sphere_sampling import sample_uniform_sphere
from subsphere_tube import subsphere_tube_volume
from weyl_rotation import sample_rotation


def north(p):
    v = np.zeros(p + 1)
    v[0] = 1.0
    return SpherePoint(v)


def radial_cdf(p, x, x0):
    """CDF of sin^2(rho/2) for uniform points on the cap with sin^2(alpha/2) = x0.

    The law is Beta(p/2, p/2) truncated at x0, with CDF I_x(a, a) / I_x0(a, a).
    Where I_x0 is near or below the smallest double (tiny caps in high
    dimension), the CDF is evaluated through
    I_x(a, a) = x^a (1-x)^a F(2a, 1; a+1; x) / (a B(a, a)) (DLMF 8.17.8) in log
    space, so the constant cancels and nothing underflows. That series form is
    kept to small x0: scipy's hyp2f1 loses all accuracy at large a near x = 1/2.
    """
    a = p / 2
    mass = betainc(a, a, x0)
    if mass > 1e-250:
        return np.clip(betainc(a, a, x) / mass, 0.0, 1.0)

    def log_unnormalized(y):
        return a * (np.log(y) + np.log1p(-y)) + np.log(hyp2f1(2 * a, 1, a + 1, y))

    return np.clip(np.exp(log_unnormalized(x) - log_unnormalized(x0)), 0.0, 1.0)


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

    @pytest.mark.parametrize("p, sigma", [(15, 0.05), (63, 0.01), (200, 0.01), (24, 0.25), (2, 1.0)])
    def test_radial_law_ks(self, p, sigma):
        cap = Cap(north(p), sigma)
        x0 = math.sin(cap.alpha / 2) ** 2
        pts = sample_uniform_cap(cap, RngStream(12), size=20_000)
        x = half_angle_sq(pts, p)
        assert np.all(x <= x0 * (1 + 1e-12))
        assert stats.kstest(radial_cdf(p, x, x0), "uniform").pvalue > 1e-4

    @pytest.mark.parametrize("p, sigma", [(15, 0.05), (63, 0.01), (200, 0.01), (399, 1.0),
                                          (399, 0.2), (399, 1e-3)])
    def test_reference_cdf_matches_mpmath(self, p, sigma):
        x0 = math.sin(math.asin(sigma) / 2) ** 2
        for x in x0 * np.array([1e-3, 0.3, 0.8, 0.97, 0.999]):
            assert radial_cdf(p, x, x0) == pytest.approx(radial_cdf_mpmath(p, x, x0), rel=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 50])
    def test_vanishing_cap(self, p):
        # sin^2(alpha/2) underflows to 0; rho/alpha then follows Beta(p, 1)
        alpha, n = 1e-200, 4000
        rho = _cap_radii(p, alpha, RngStream(16).generator, n)
        assert np.all((rho >= 0.0) & (rho <= alpha))
        mean, var = p / (p + 1), p / ((p + 1) ** 2 * (p + 2))
        assert abs(np.mean(rho / alpha) - mean) <= 5 * math.sqrt(var / n)

    # (3, 1.0) and (399, 1.0) put the tangent below the cap's edge; (8, 0.935),
    # the lowest acceptance rate, and (63, 0.99) keep it at the edge just short
    # of the switch; at p = 399, sigma = 1e-3, I_x0 underflows; p = 2 is the inversion
    @pytest.mark.parametrize("p, sigma", [(5, 0.9), (24, 0.25), (63, 0.5), (3, 1.0), (8, 0.935),
                                          (63, 0.99), (399, 1.0), (399, 1e-3), (2, 1.0),
                                          (2, 0.5), (2, 0.01), (2, 1e-3)])
    def test_rejection_sampler_law(self, p, sigma):
        alpha = math.asin(sigma)
        rho = _cap_radii(p, alpha, RngStream(14).generator, 20_000)
        assert rho.shape == (20_000,)
        assert np.all((rho >= 0.0) & (rho <= alpha))
        x = np.sin(rho / 2) ** 2
        assert stats.kstest(radial_cdf(p, x, math.sin(alpha / 2) ** 2), "uniform").pvalue > 1e-4

    @pytest.mark.parametrize("p", [2, 3, 8, 24, 63, 399])
    @pytest.mark.parametrize("sigma", [1.0, 0.935, 0.5, 0.01])
    def test_rejection_sampler_efficiency(self, p, sigma):
        # two uniforms per proposal; an envelope anchored at alpha on a wide cap
        # needs about 10 proposals per radius at p = 63; p = 2 inverts one uniform
        class Counting:
            def __init__(self, gen):
                self.gen, self.draws = gen, 0

            def random(self, size):
                self.draws += size
                return self.gen.random(size)

        gen, n = Counting(RngStream(17).generator), 20_000
        rho = _cap_radii(p, math.asin(sigma), gen, n)
        assert rho.shape == (n,)
        if p == 2:
            assert gen.draws == n
        else:
            assert gen.draws / 2 <= 1.7 * n

    @pytest.mark.parametrize("alpha", [math.pi / 2, 1.0, 0.3, 1e-3, 1e-200])
    def test_inversion_stays_in_the_cap(self, alpha):
        # at U = 1, 2 arcsin(sin(alpha / 2)) rounds above alpha for about one alpha in
        # 15; the clamp keeps every radius in [0, alpha], at the largest uniforms too
        class Edges:
            def random(self, size):
                u = [0.0, 0.25, np.nextafter(1.0, 0.0), 1.0]
                return np.resize(u, size)

        alphas = np.append(np.linspace(alpha / 2, alpha, 1001), alpha)
        for a in alphas.tolist():
            rho = _cap_radii(2, a, Edges(), 4)
            assert np.all((rho >= 0.0) & (rho <= a))
            assert rho[0] == 0.0 and rho[-1] == pytest.approx(a, rel=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 3, 63, 399])
    @pytest.mark.parametrize("alpha", [math.pi / 2, 1e-200])
    def test_no_runtime_warning(self, p, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rho = _cap_radii(p, alpha, RngStream(18).generator, 20_000)
        assert np.all((rho >= 0.0) & (rho <= alpha))

    def test_fallback_counts_identical_across_workers(self):
        # the radii draw a variable number of uniforms; blocks keep workers out of it
        cap = Cap(north(200), 0.01)
        variety = SubsphereVariety(200, 100)
        grid = [0.0068, 0.0071, 0.0074]
        c1 = tube_cap_counts(variety, cap, grid, 20_000, seed=15, workers=1)
        c2 = tube_cap_counts(variety, cap, grid, 20_000, seed=15, workers=2)
        assert np.array_equal(c1, c2)
        assert 0 < c1[0] < c1[-1] < 20_000

    def test_zero_tangent_vector_is_drawn_again(self):
        # an all-zero tangent row has no direction; that row takes the next draw,
        # which is zero too once, then not
        p = 3
        cap = Cap(SpherePoint.from_vector(np.array([1.0, 2.0, -0.5, 0.3])), 0.6)
        gen = RngStream(19).generator

        class ZeroTangent:
            def __init__(self):
                self.calls = []

            def random(self, size):
                return gen.random(size)

            def standard_normal(self, shape):
                self.calls.append(shape)
                g = gen.standard_normal(shape)
                if len(self.calls) <= 2:
                    g[0] = 0.0
                return g

        stream = RngStream(19)
        stream.generator = ZeroTangent()
        pts = sample_uniform_cap(cap, stream, size=100)
        assert stream.generator.calls == [(100, p), (1, p), (1, p)]
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12
        assert np.all(pts @ cap.center.coords >= math.sqrt(1 - 0.6**2) - 1e-12)

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

    @pytest.mark.parametrize("p", [3, 24])
    @pytest.mark.parametrize("center", ["negative first coordinate", "zero first coordinate"])
    def test_interval_miss_rate_away_from_the_pole(self, p, center):
        # the sigma = 1 cap is a hemisphere; the tube around {x_p = 0} is symmetric
        # under z -> -z, so its share of any hemisphere is its share of the sphere.
        # Over 400 seeds a 99% interval misses Bin(400, 0.01) times, and
        # P{Bin(400, 0.01) >= 17} = 9.2e-7. Neither centre is the subsphere's pole e_p,
        # where the distance |x_p| = cos rho would not see the tangent directions
        a = np.linspace(1.0, 0.5, p + 1)
        a[0] = 0.0 if center == "zero first coordinate" else -2.0
        cap = Cap(SpherePoint.from_vector(a), 1.0)
        variety, grid, samples = SubsphereVariety(p, p - 1), [0.01, 0.05, 0.2], 2048
        exact = [subsphere_tube_volume(p, 1, eps) / sphere_volume(p) for eps in grid]
        misses = np.zeros(len(grid), dtype=int)
        for seed in range(400):
            counts = tube_cap_counts(variety, cap, grid, samples, seed=seed)
            for k, (hits, ratio) in enumerate(zip(counts.tolist(), exact)):
                lo, hi = clopper_pearson(hits, samples)
                misses[k] += not lo <= ratio <= hi
        assert np.all(misses < 17), misses.tolist()


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
