import math

import mpmath
import numpy as np
import pytest

from spherecond import (
    Cap,
    CurveVariety,
    DeterminantVariety,
    McEstimate,
    RngStream,
    SpherePoint,
    SubsphereVariety,
    UnionVariety,
    band_volume,
    clopper_pearson,
    distance_to_variety,
    estimate_tube_cap_ratio,
    geodesic_sphere_mu,
    sample_uniform_sphere,
    sphere_volume,
    verify_kinematic,
    verify_weyl_tube_bound,
)
from spherecond.varieties import (
    kinematic_rhs_analytic,
    subsphere_tube_cap_ratio_exact,
    tube_cap_counts,
)


def north(p):
    v = np.zeros(p + 1)
    v[0] = 1.0
    return SpherePoint(v)


GREAT_CIRCLE = CurveVariety([((0, 0, 1), 1.0)], degree=1)
# the two curves of the benchmark's tube workload: x^2 - y^2 and (x^2 - y^2)(x^2 - z^2)
CONIC = ([((2, 0, 0), 1.0), ((0, 2, 0), -1.0)], 2)
QUARTIC = ([((4, 0, 0), 1.0), ((2, 0, 2), -1.0), ((2, 2, 0), -1.0), ((0, 2, 2), 1.0)], 4)


def band_volume_mpmath(p, alpha, beta):
    """O_{p-1} int_{alpha-beta}^{alpha+beta} sin^{p-1}, via incomplete beta at 50 digits."""
    with mpmath.workdps(50):
        def ball(x):  # int_0^x sin^{p-1} for x <= pi
            if x > mpmath.pi / 2:
                return 2 * ball(mpmath.pi / 2) - ball(mpmath.pi - x)
            return mpmath.betainc(mpmath.mpf(p) / 2, 0.5, 0, mpmath.sin(x) ** 2) / 2

        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        if a > mpmath.pi / 2:  # reflect, so the difference keeps its digits near pi
            a = mpmath.pi - a
        area = 2 * mpmath.pi ** (mpmath.mpf(p) / 2) / mpmath.gamma(mpmath.mpf(p) / 2)
        return float(area * (ball(a + b) - ball(a - b)))


class TestClopperPearson:
    def test_contains_point_estimate(self):
        lo, hi = clopper_pearson(37, 1000)
        assert lo <= 0.037 <= hi

    def test_extremes(self):
        lo, hi = clopper_pearson(0, 100)
        assert lo == 0.0 and hi < 0.06
        lo, hi = clopper_pearson(100, 100)
        assert hi == 1.0 and lo > 0.94

    def test_fractional_successes(self):
        lo_f, hi_f = clopper_pearson(36.5, 1000)
        lo, hi = clopper_pearson(37, 1000)
        assert lo_f <= lo and hi_f <= hi

    def test_wider_at_higher_level(self):
        lo99, hi99 = clopper_pearson(50, 1000, level=0.99)
        lo95, hi95 = clopper_pearson(50, 1000, level=0.95)
        assert lo99 <= lo95 and hi95 <= hi99

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            clopper_pearson(0, 0)


class TestSubsphereVariety:
    def test_distance_matches_coords(self):
        v = SubsphereVariety(4, 2)
        x = SpherePoint.from_vector(np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
        assert v.distance(x) == pytest.approx(math.sqrt(2.0 / 5.0), rel=1e-12)

    def test_on_variety(self):
        v = SubsphereVariety(3, 1)
        assert v.distance(north(3)) == 0.0

    def test_degree(self):
        assert SubsphereVariety(5, 2).degree == 1


class TestDeterminantVariety:
    def test_scaled_identity(self):
        v = DeterminantVariety(2)
        x = SpherePoint.from_vector(np.eye(2).ravel())
        assert v.distance(x) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_singular_matrix(self):
        v = DeterminantVariety(2)
        x = SpherePoint.from_vector(np.array([1.0, 0.0, 0.0, 0.0]))
        assert v.distance(x) == pytest.approx(0.0, abs=1e-12)

    def test_degree_and_dim(self):
        v = DeterminantVariety(3)
        assert (v.p, v.degree) == (8, 3)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            distance_to_variety(north(2), DeterminantVariety(2))


class TestCurveVariety:
    def test_great_circle_exact(self):
        # distance to {x2 = 0} is |x2|
        pts = sample_uniform_sphere(2, RngStream(0), size=2000)
        d = GREAT_CIRCLE.distances(pts)
        assert np.max(np.abs(d - np.abs(pts[:, 2]))) < 5e-6

    def test_on_curve_points(self):
        mesh = GREAT_CIRCLE._mesh
        d = GREAT_CIRCLE.distances(mesh[:100])
        assert np.max(d) < 1e-8

    def test_distance_is_upper_bound_conic(self):
        # x0^2 - x1^2 = 0 is the pair of great circles x0 = +-x1;
        # exact distance is computable from the two planes
        curve = CurveVariety([((2, 0, 0), 1.0), ((0, 2, 0), -1.0)], degree=2)
        pts = sample_uniform_sphere(2, RngStream(1), size=2000)
        n1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
        n2 = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        exact = np.minimum(np.abs(pts @ n1), np.abs(pts @ n2))
        d = curve.distances(pts)
        assert np.all(d >= exact - 1e-9)
        assert np.max(d - exact) < 5e-6

    def test_no_round_off_below_exact_next_to_curve(self):
        # the oracle must not under-report distances of points hugging the curve,
        # where sin(arccos(c)) resolves only ~1.5e-8
        curve = CurveVariety([((2, 0, 0), 1.0), ((0, 2, 0), -1.0)], degree=2)
        gen = np.random.default_rng(3)
        on = gen.standard_normal((4000, 3))
        on[:, 1] = np.where(gen.random(4000) < 0.5, 1.0, -1.0) * on[:, 0]
        on /= np.linalg.norm(on, axis=1, keepdims=True)
        offset = 10.0 ** gen.uniform(-11, -5, 4000) * np.where(gen.random(4000) < 0.5, 1.0, -1.0)
        near = on + offset[:, None] * np.array([1.0, 0.0, 0.0])
        pts = np.vstack([near, sample_uniform_sphere(2, RngStream(2), size=4000)])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        exact = np.minimum(np.abs(pts[:, 0] - pts[:, 1]), np.abs(pts[:, 0] + pts[:, 1])) / math.sqrt(2)
        assert np.all(curve.distances(pts) >= exact - 1e-12)

    @pytest.mark.parametrize("curve,size", [(CONIC, 760), (QUARTIC, 1258)])
    def test_mesh_on_curve(self, curve, size):
        c = CurveVariety(*curve)
        mesh = c._mesh
        assert mesh.shape == (size, 3)
        assert np.max(np.abs(np.linalg.norm(mesh, axis=1) - 1.0)) < 1e-15
        assert np.max(np.abs(c._eval(mesh))) < 1e-9

    def test_quartic_mesh_on_its_great_circles(self):
        m = CurveVariety(*QUARTIC)._mesh
        x, y, z = m.T
        d = np.min(np.abs([x - y, x + y, x - z, x + z]), axis=0) / math.sqrt(2)
        assert np.max(d) < 1e-12

    def test_quartic_tube_hits_pinned(self):
        # pinned: reworking the mesh build must leave the mesh, and so these counts, unchanged
        counts = tube_cap_counts(CurveVariety(*QUARTIC), Cap(north(2), 1.0),
                                 [0.02, 0.05, 0.1], samples=20_000, seed=11)
        assert counts.tolist() == [1593, 3845, 7135]

    def test_mesh_build_is_batched(self, monkeypatch):
        # one evaluation per scan, bisection step and Newton step, not per bracket
        curve = CurveVariety(*QUARTIC)
        calls = 0
        evaluate = curve._eval

        def counting(pts):
            nonlocal calls
            calls += 1
            return evaluate(pts)

        monkeypatch.setattr(curve, "_eval", counting)
        mesh = curve._build_mesh()
        assert np.array_equal(mesh, curve._mesh)
        assert calls <= 64

    def test_json_roundtrip(self):
        doc = {"p": 2, "degree": 2,
               "monomials": [{"alpha": [2, 0, 0], "coeff": 1.0},
                             {"alpha": [0, 2, 0], "coeff": -1.0}]}
        curve = CurveVariety.from_json(doc)
        assert curve.degree == 2

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            # x0^2 + x1^2 + x2^2 = 1 on the sphere: no zeros
            CurveVariety([((2, 0, 0), 1.0), ((0, 2, 0), 1.0), ((0, 0, 2), 1.0)], degree=2)

    def test_bad_exponents_rejected(self):
        with pytest.raises(ValueError):
            CurveVariety([((1, 0, 0), 1.0)], degree=2)


class TestUnionVariety:
    def test_distance_is_min(self):
        u = UnionVariety([SubsphereVariety(3, 1), SubsphereVariety(3, 2)])
        pts = sample_uniform_sphere(3, RngStream(2), size=500)
        d = u.distances(pts)
        d1 = SubsphereVariety(3, 1).distances(pts)
        d2 = SubsphereVariety(3, 2).distances(pts)
        assert np.allclose(d, np.minimum(d1, d2))

    def test_degree_rule(self):
        u = UnionVariety([DeterminantVariety(2), SubsphereVariety(3, 1)])
        assert u.degree == 2 * 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            UnionVariety([])


class TestTubeEstimates:
    def test_subsphere_matches_closed_form(self):
        p, eps = 3, 0.4
        cap = Cap(north(p), 1.0)
        # the hemisphere is symmetric about {x_p = 0}, so the cap ratio
        # equals the full-sphere tube/sphere ratio
        est = estimate_tube_cap_ratio(SubsphereVariety(p, p - 1), cap, eps,
                                      samples=60_000, rng=RngStream(3))
        exact = subsphere_tube_cap_ratio_exact(p, eps)
        assert est.ci_low <= exact <= est.ci_high

    def test_eps_one_hits_everything(self):
        cap = Cap(north(2), 0.7)
        est = estimate_tube_cap_ratio(SubsphereVariety(2, 1), cap, 1.0,
                                      samples=2000, rng=RngStream(4))
        assert est.estimate == 1.0

    def test_worker_invariance(self):
        cap = Cap(north(3), 0.5)
        v = DeterminantVariety(2)
        c1 = tube_cap_counts(v, cap, [0.1, 0.3], 20_000, seed=5, workers=1)
        c2 = tube_cap_counts(v, cap, [0.1, 0.3], 20_000, seed=5, workers=4)
        assert np.array_equal(c1, c2)

    def test_determinant_tube_equals_tail_event(self):
        # distance < eps iff kappa_F > 1/eps for unit-norm matrices
        from spherecond import frobenius_condition
        from spherecond.sampling import sample_uniform_cap
        cap = Cap(north(3), 1.0)
        pts = sample_uniform_cap(cap, RngStream(6), size=500)
        v = DeterminantVariety(2)
        d = v.distances(pts)
        for row, dist in zip(pts, d):
            kappa = frobenius_condition(row.reshape(2, 2))
            assert (dist < 0.25) == (kappa > 4.0) or abs(dist - 0.25) < 1e-12

    def test_mcestimate_validation(self):
        with pytest.raises(ValueError):
            McEstimate(estimate=0.5, ci_low=0.6, ci_high=0.7, samples=10, seed=0)


class TestGeodesicSphereIdentities:
    def test_mu_zero_is_area(self):
        # i = 0 integral is just the hypersurface volume O_{p-1} sin^{p-1}(alpha)
        assert geodesic_sphere_mu(3, 0.7, 0) == pytest.approx(
            sphere_volume(2) * math.sin(0.7) ** 2, rel=1e-12
        )

    def test_kinematic_analytic_grid(self):
        for p in (2, 3, 4, 5):
            for i in range(p - 1):
                for a in (0.3, 0.6, 1.0, 1.4):
                    lhs = geodesic_sphere_mu(p, a, i)
                    rhs = kinematic_rhs_analytic(p, i, a)
                    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_kinematic_monte_carlo(self):
        lhs, analytic, est = verify_kinematic(3, 1, 0.8, samples=200_000,
                                              rng=RngStream(7))
        assert analytic == pytest.approx(lhs, rel=1e-10)
        half = max(est.ci_high - est.estimate, est.estimate - est.ci_low)
        assert abs(est.estimate - lhs) <= 3 * half

    def test_band_volume_s2(self):
        # band on S^2 between colatitudes a-b and a+b: 2 pi (cos(a-b) - cos(a+b))
        a, b = 0.9, 0.2
        assert band_volume(2, a, b) == pytest.approx(
            2 * math.pi * (math.cos(a - b) - math.cos(a + b)), rel=1e-12
        )

    @pytest.mark.parametrize("p", [2, 3, 24, 63])
    @pytest.mark.parametrize("alpha", [0.3, 1.2, 2.0])
    @pytest.mark.parametrize("beta", [1e-12, 1e-8, 1e-4, "alpha/2"])
    def test_band_volume_against_mpmath(self, p, alpha, beta):
        beta = alpha / 2 if beta == "alpha/2" else beta
        assert band_volume(p, alpha, beta) == pytest.approx(
            band_volume_mpmath(p, alpha, beta), rel=1e-12, abs=0.0)

    def test_band_crossing_equator(self):
        a, b = 1.5, 0.3  # a + b > pi/2: the band crosses the equator
        vol = band_volume(3, a, b)
        assert 0 < vol < sphere_volume(3)

    def test_weyl_tube_bound_holds(self):
        for p in (2, 3, 4, 6):
            for a in (0.4, 0.9, 1.3, math.pi / 2):
                for frac in (0.25, 0.5, 0.75):
                    lhs, rhs, ok = verify_weyl_tube_bound(p, a, frac * a)
                    assert ok, (p, a, frac)

    def test_weyl_tube_equality_at_equator(self):
        for p in (2, 3, 5):
            lhs, rhs, ok = verify_weyl_tube_bound(p, math.pi / 2, 0.5)
            assert ok
            assert lhs == pytest.approx(rhs, rel=1e-12)
