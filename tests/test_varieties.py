import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from spherecond import (
    Cap,
    CurveVariety,
    DeterminantVariety,
    RngStream,
    SpherePoint,
    SubsphereVariety,
    WeylPolynomial,
    band_volume,
    clopper_pearson,
    geodesic_sphere_mu,
    sample_uniform_sphere,
    sphere_volume,
    subsphere_tube_volume,
    verify_kinematic,
    verify_weyl_tube_bound,
)
from spherecond import varieties
from spherecond.bounds import ProblemDescriptor
from spherecond.varieties import (
    _BLOCK,
    Variety,
    _merge_moments,
    _moments,
    empirical_bernstein,
    kinematic_rhs_analytic,
    run_blocks,
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


class GreatCircles(Variety):
    """Union of the great circles {n . x = 0} on S^2; exact distance min |n . x| / |n|."""

    def __init__(self, normals):
        self.normals = np.array(normals, dtype=float)
        self.normals /= np.linalg.norm(self.normals, axis=1, keepdims=True)
        self.p, self.degree, self.distance_kind = 2, len(self.normals), "exact"

    def distances(self, points):
        return np.min(np.abs(points @ self.normals.T), axis=1)


def _conic(c):
    """x^2 - c y^2 = 0: the great circles x = +-sqrt(c) y, both through the poles +-e_z."""
    r = math.sqrt(c)
    return ([((2, 0, 0), 1.0), ((0, 2, 0), -c)], 2), [(1.0, -r, 0.0), (1.0, r, 0.0)]


# name -> (curve, normals of the great circles whose union it is)
GREAT_CIRCLE_UNIONS = {
    "conic-1": _conic(1.0),
    "conic-1.01": _conic(1.01),
    "conic-3": _conic(3.0),
    "quartic": (QUARTIC, [(1.0, -1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, -1.0), (1.0, 0.0, 1.0)]),
}


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

    def test_wider_at_higher_level(self):
        lo99, hi99 = clopper_pearson(50, 1000, level=0.99)
        lo95, hi95 = clopper_pearson(50, 1000, level=0.95)
        assert lo99 <= lo95 and hi95 <= hi99

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            clopper_pearson(0, 0)


class TestEmpiricalBernstein:
    def test_closed_form(self):
        # n = 1001 samples, mean 0.3, sample variance 0.04, level 0.99: L = ln 400
        lo, hi = empirical_bernstein(1001, 0.3, 0.04 * 1000)
        log_term = math.log(400.0)
        half = math.sqrt(2 * 0.04 * log_term / 1001) + 7 * log_term / (3 * 1000)
        assert (lo, hi) == pytest.approx((0.3 - half, 0.3 + half), rel=1e-14)

    def test_clipped_to_unit_interval(self):
        assert empirical_bernstein(100, 0.0, 0.0)[0] == 0.0
        assert empirical_bernstein(100, 1.0, 0.0)[1] == 1.0
        assert empirical_bernstein(1, 0.5, 0.0) == (0.0, 1.0)

    def test_merged_blocks_give_the_two_pass_interval(self):
        x = np.random.default_rng(3).random(30_000) ** 3
        merged = _merge_moments([_moments(x[s:s + 8192]) for s in range(0, x.size, 8192)])
        mean = math.fsum(x) / x.size
        m2 = math.fsum((x - mean) ** 2)
        assert empirical_bernstein(*merged) == pytest.approx(
            empirical_bernstein(x.size, mean, m2), rel=1e-12)


class TestSubsphereVariety:
    def test_distance_matches_coords(self):
        v = SubsphereVariety(4, 2)
        x = SpherePoint.from_vector(np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
        assert v.distances(x.coords[None])[0] == pytest.approx(math.sqrt(2.0 / 5.0), rel=1e-12)

    def test_on_variety(self):
        v = SubsphereVariety(3, 1)
        assert v.distances(north(3).coords[None])[0] == 0.0

    def test_degree(self):
        assert SubsphereVariety(5, 2).degree == 1


class TestDeterminantVariety:
    def test_scaled_identity(self):
        v = DeterminantVariety(2)
        x = SpherePoint.from_vector(np.eye(2).ravel())
        assert v.distances(x.coords[None])[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_singular_matrix(self):
        v = DeterminantVariety(2)
        x = SpherePoint.from_vector(np.array([1.0, 0.0, 0.0, 0.0]))
        assert v.distances(x.coords[None])[0] == pytest.approx(0.0, abs=1e-12)

    def test_degree_and_dim(self):
        v = DeterminantVariety(3)
        assert (v.p, v.degree) == (8, 3)

    @pytest.mark.parametrize("l,m", [(2, 2), (3, 3), (3, 1), (2, 1), (4, 3), (5, 2)])
    def test_dim_and_degree_match_moore_penrose(self, l, m):
        v = DeterminantVariety(l, m)
        assert (v.p, v.degree) == ProblemDescriptor("moore-penrose", l=l, m=m).ambient_dim_and_degree()

    def test_rectangular_distance_is_smallest_singular_value(self):
        pts = sample_uniform_sphere(11, RngStream(3), size=50)
        d = DeterminantVariety(4, 3).distances(pts)
        ref = [np.linalg.svd(row.reshape(4, 3), compute_uv=False)[-1] for row in pts]
        assert np.array_equal(d, ref)

    @pytest.mark.parametrize("shape", [(1,), (1, 1), (2, 3), (2, 0)])
    def test_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            DeterminantVariety(*shape)


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
        # x0^2 - x1^2 = 0 is the pair of great circles x0 = +-x1, crossing at (0, 0, +-1).
        # Everywhere the oracle is an upper bound; next to the curve and away from the
        # crossings (where the mesh may pick the farther branch) it is exact to round-off
        curve = CurveVariety(*CONIC)
        pts = sample_uniform_sphere(2, RngStream(1), size=200_000)
        exact = GreatCircles(GREAT_CIRCLE_UNIONS["conic-1"][1]).distances(pts)
        d = curve.distances(pts)
        assert np.all(d >= exact - 1e-9)
        near = (exact < 0.05) & (np.abs(pts[:, 2]) <= math.cos(0.1))
        assert np.count_nonzero(near) > 5000
        assert np.max(d[near] - exact[near]) <= 1e-12

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

    @pytest.mark.parametrize("curve", [CONIC, QUARTIC], ids=["conic", "quartic"])
    def test_mesh_on_curve(self, curve):
        c = CurveVariety(*curve)
        mesh = c._mesh
        assert np.max(np.abs(np.linalg.norm(mesh, axis=1) - 1.0)) < 1e-15
        assert np.max(np.abs(c.poly(mesh))) < 1e-9
        # no point repeats, up to sign
        both = np.round(np.vstack([mesh, -mesh]), 9)
        assert np.unique(both, axis=0).shape[0] == 2 * mesh.shape[0]

    def test_quartic_mesh_on_its_great_circles(self):
        m = CurveVariety(*QUARTIC)._mesh
        x, y, z = m.T
        d = np.min(np.abs([x - y, x + y, x - z, x + z]), axis=0) / math.sqrt(2)
        assert np.max(d) < 1e-12

    @pytest.mark.parametrize("curve,normals", list(GREAT_CIRCLE_UNIONS.values()),
                             ids=list(GREAT_CIRCLE_UNIONS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_exact_great_circle_distance(self, curve, normals, seed):
        # an upper bound on the exact distance, within 0.02 also next to crossings;
        # meridian components (x^2 - c y^2) are found whether or not c = 1
        pts = sample_uniform_sphere(2, RngStream(seed), size=20_000)
        over = CurveVariety(*curve).distances(pts) - GreatCircles(normals).distances(pts)
        assert np.min(over) >= -1e-12
        assert np.max(over) <= 0.02

    @pytest.mark.parametrize("curve", [CONIC, QUARTIC], ids=["conic", "quartic"])
    def test_rows_do_not_interact_across_blocks(self, curve):
        # splits that cut the nearest-point blocks (_NEAREST_ROWS) and the Newton
        # chunks (_CHUNK_ROWS) anywhere give the same bits as one call
        c = CurveVariety(*curve)
        pts = sample_uniform_sphere(2, RngStream(4), size=20_011)
        whole = c.distances(pts)
        for rows in (127, 128, 129, 4097):
            parts = [c.distances(pts[s:s + rows]) for s in range(0, 20_011, rows)]
            assert np.array_equal(np.concatenate(parts), whole)
        # one row per call costs ~1 ms, so only over rows that cross two block boundaries
        single = [c.distances(pts[s:s + 1]) for s in range(300)]
        assert np.array_equal(np.concatenate(single), whole[:300])

    def test_distances_memory_is_bounded(self):
        # memory must not scale with rows x mesh points: the nearest-point search
        # reuses one (_NEAREST_ROWS, mesh) buffer, 1.3 MB for the quartic's mesh
        c = CurveVariety(*QUARTIC)
        pts = sample_uniform_sphere(2, RngStream(5), size=32768)
        tracemalloc.start()
        try:
            c.distances(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_quartic_tube_hits_pinned(self):
        cap, eps = Cap(north(2), 1.0), [0.02, 0.05, 0.1]
        counts = tube_cap_counts(CurveVariety(*QUARTIC), cap, eps, samples=20_000, seed=11)
        exact = tube_cap_counts(GreatCircles(GREAT_CIRCLE_UNIONS["quartic"][1]), cap, eps,
                                samples=20_000, seed=11)
        # the oracle over-estimates distances, so it can only miss hits: at least
        # the counts of the meridian-scan mesh, at most the exact counts
        assert np.all(counts >= [1593, 3845, 7135])
        assert np.all(counts <= exact)
        assert counts.tolist() == [1596, 3845, 7135]

    def test_mesh_build_is_batched(self, monkeypatch):
        # one evaluation for the lattice, one per Newton step and one for the check
        curve = CurveVariety(*QUARTIC)
        calls = 0
        evaluate = WeylPolynomial.__call__

        def counting(poly, pts):
            nonlocal calls
            calls += 1
            return evaluate(poly, pts)

        monkeypatch.setattr(WeylPolynomial, "__call__", counting)
        mesh = curve._build_mesh()
        assert np.array_equal(mesh, curve._mesh)
        assert calls <= 18

    def test_repeated_exponents_add_up(self):
        split = CurveVariety([((2, 0, 0), 0.25), ((0, 2, 0), -1.0), ((2, 0, 0), 0.75)], degree=2)
        assert split.poly.coefficients == {(2, 0, 0): 1.0, (0, 2, 0): -1.0}
        assert np.array_equal(split._mesh, CurveVariety(*CONIC)._mesh)

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


class TestTubeEstimates:
    def test_subsphere_matches_closed_form(self):
        p, eps = 3, 0.4
        cap = Cap(north(p), 1.0)
        # the hemisphere is symmetric about {x_p = 0}, so the cap ratio
        # equals the full-sphere tube/sphere ratio
        hits = tube_cap_counts(SubsphereVariety(p, p - 1), cap, [eps], 60_000, seed=3)[0]
        lo, hi = clopper_pearson(int(hits), 60_000)
        exact = subsphere_tube_volume(p, 1, eps) / sphere_volume(p)
        assert lo <= exact <= hi

    def test_eps_one_hits_everything(self):
        cap = Cap(north(2), 0.7)
        hits = tube_cap_counts(SubsphereVariety(2, 1), cap, [1.0], 2000, seed=4)[0]
        assert hits / 2000 == 1.0

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

    def test_count_includes_distance_equal_to_eps(self):
        # the tail event C >= t is sigma_min <= 1/t, so the tube count is d <= eps
        class AtHalf(Variety):
            p, degree = 2, 1

            def distances(self, points):
                return np.full(points.shape[0], 0.5)

        counts = tube_cap_counts(AtHalf(), Cap(north(2), 1.0), [0.25, 0.5], 100, seed=1)
        assert counts.tolist() == [0, 100]


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
        lhs, est, lo, hi = verify_kinematic(3, 1, 0.8, samples=200_000, seed=7)
        assert lo <= est <= hi
        assert lo <= lhs <= hi

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("p,i,alpha", [(2, 0, 0.6), (3, 1, 0.8), (4, 1, 1.2)])
    def test_kinematic_interval_covers_analytic(self, seed, p, i, alpha):
        _, _, lo, hi = verify_kinematic(p, i, alpha, samples=50_000, seed=seed)
        assert lo <= kinematic_rhs_analytic(p, i, alpha) <= hi

    @pytest.mark.parametrize("p,i,alpha", [(1, 0, 0.6), (3, -1, 0.6), (3, 2, 0.6),
                                           (3, 1, 0.0), (3, 1, 2.0)])
    def test_kinematic_rejects_bad_input_before_sampling(self, monkeypatch, p, i, alpha):
        def no_sampling(*args, **kwargs):
            raise AssertionError("(p, i, alpha) is checked before sampling")

        monkeypatch.setattr(varieties, "run_blocks", no_sampling)
        with pytest.raises(ValueError):
            verify_kinematic(p, i, alpha, samples=1000, seed=7)
        with pytest.raises(ValueError):
            kinematic_rhs_analytic(p, i, alpha)

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


def _block_id(args):
    index, count = args
    return np.array([index, count])


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        _SerialPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestRunBlocks:
    def test_returns_kernel_results_in_block_order(self):
        parts = run_blocks(_block_id, (), 2 * _BLOCK + 5)
        assert [part.tolist() for part in parts] == [[0, _BLOCK], [1, _BLOCK], [2, 5]]

    @pytest.mark.parametrize("workers,samples,size", [
        (64, 3 * _BLOCK, 3), (2, 3 * _BLOCK, 2), (64, _BLOCK, None), (2, 1, None),
    ])
    def test_pool_has_no_more_workers_than_blocks(self, monkeypatch, workers, samples, size):
        monkeypatch.setattr(varieties, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        total = run_blocks(_block_id, (), samples, workers)
        assert _SerialPool.sizes == ([] if size is None else [size])
        assert np.array_equal(total, run_blocks(_block_id, (), samples, 1))

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            run_blocks(_block_id, (), 0)
        with pytest.raises(ValueError):
            tube_cap_counts(DeterminantVariety(2), Cap(north(3), 1.0), [0.1], 0, seed=1)
        with pytest.raises(ValueError):
            verify_kinematic(3, 1, 0.8, samples=0, seed=7)
