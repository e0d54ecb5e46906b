import concurrent.futures
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

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
    frobenius_condition,
    geodesic_sphere_mu,
    sphere_volume,
    verify_kinematic,
    verify_weyl_tube_bound,
)
from spherecond import varieties
from spherecond.bounds import ProblemDescriptor
from spherecond.conditioning import _sum
from spherecond.sampling import sample_uniform_cap
from spherecond.varieties import (
    _BLOCK,
    Variety,
    _kinematic_block,
    _col_cross,
    _dot,
    _merge_moments,
    _moments,
    empirical_bernstein,
    kinematic_rhs_analytic,
    run_blocks,
    tube_cap_counts,
)
import curve_reference
from cntr_reference import at_rows
from sphere_sampling import sample_uniform_sphere
from subsphere_tube import subsphere_tube_volume


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


def pencil(d):
    """Re (x0 + i x1)^d = sum over even k of C(d, k) (-1)^(k/2) x0^(d-k) x1^k: the d great
    circles through the poles +-e_z at the angles (pi / 2 + m pi) / d in the (x0, x1) plane."""
    return [((d - k, k, 0), math.comb(d, k) * (-1.0) ** (k // 2)) for k in range(0, d + 1, 2)], d


def pencil_distances(points, d):
    """Exact projective distances to the pencil: r |sin w|, with r = |(x0, x1)| and w the
    angle from (x0, x1) to the nearest zero line."""
    w = np.mod(np.arctan2(points[:, 1], points[:, 0]) - math.pi / (2 * d), math.pi / d)
    return np.hypot(points[:, 0], points[:, 1]) * np.sin(np.minimum(w, math.pi / d - w))


def cell_boundary_points(gen, count):
    """Points on the edges and corners of the cube-map cells of the curve oracle, with face
    ties |x_i| = |x_j| (u or v = +-1) among them, in random signs, and the six poles +-e_i."""
    steps = np.linspace(-1.0, 1.0, varieties._CELLS + 1)
    free = gen.uniform(-1.0, 1.0, count)
    face = [np.stack([np.ones(count), np.full(count, w), free], axis=1) for w in steps]
    face += [np.stack([np.ones(count), free, np.full(count, w)], axis=1) for w in steps]
    face.append(np.array([(1.0, a, b) for a in steps for b in steps]))
    pts = np.vstack([np.roll(np.vstack(face), k, axis=1) for k in range(3)])
    pts *= np.where(gen.random(pts.shape) < 0.5, -1.0, 1.0)
    pts = np.vstack([pts, np.eye(3), -np.eye(3)])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


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


def planted_columns(n, singular_values, gen):
    """Unit n x k matrices U diag(s) V^T, one per row of the (count, k) singular values,
    as rows."""
    count, k = singular_values.shape
    u, _ = np.linalg.qr(gen.standard_normal((count, n, k)))
    v, _ = np.linalg.qr(gen.standard_normal((count, k, k)))
    rows = ((u * singular_values[:, None, :]) @ np.swapaxes(v, 1, 2)).reshape(-1, k * n)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def two_column_families(n, count, gen):
    """Random unit n x 2 matrices, near-singular ones (sigma_min from 1e-14 to 1e-2)
    and near-orthonormal ones (sigma_1 / sigma_2 - 1 from 1e-16 to 1e-2)."""
    rows = gen.standard_normal((count, 2 * n))
    small = 10.0 ** gen.uniform(-14, -2, count)
    gap = 10.0 ** gen.uniform(-16, -2, count)
    return {
        "random": rows / np.linalg.norm(rows, axis=1, keepdims=True),
        "near-singular": planted_columns(
            n, np.stack([np.sqrt(1.0 - small ** 2), small], axis=1), gen),
        "near-orthonormal": planted_columns(
            n, np.stack([1.0 + gap, np.ones(count)], axis=1), gen),
    }


def three_column_families(n, count, gen):
    """Unit n x 3 matrices: random ones; random ones whose first column is scaled by
    1e-12 to 1e-2; and planted singular values with a tiny s_min (1e-12 to 1e-2), near
    rank 1 (two of them from 1e-12 to 1e-2), or a near-double smallest pair, a
    near-double largest pair or a near-triple (relative gaps from 1e-16 to 1e-2)."""
    def powers(lo, hi):
        return 10.0 ** gen.uniform(lo, hi, count)

    one, mid = np.ones(count), gen.uniform(0.05, 0.95, count)
    small, gap = powers(-12, -2), powers(-16, -2)
    planted = {
        "tiny s_min": [one, mid, small],
        "near-rank-1": [one, small, powers(-12, -2)],
        "near-double smallest": [one, mid * (1.0 + gap), mid],
        "near-double largest": [one + gap, one, mid],
        "near-triple": [one + gap, one + powers(-16, -2), one],
    }
    scale = np.stack([powers(-12, -2), one, one], axis=1)[:, None, :]
    families = {
        "random": gen.standard_normal((count, 3 * n)),
        "tiny first column": (gen.standard_normal((count, n, 3)) * scale).reshape(count, -1),
    }
    families = {name: r / np.linalg.norm(r, axis=1, keepdims=True)
                for name, r in families.items()}
    families.update({name: planted_columns(n, np.stack(s, axis=1), gen)
                     for name, s in planted.items()})
    return families


def many_column_families(n, m, count, gen):
    """Unit n x m matrices, m >= 3: random ones; random ones whose first column is scaled
    by 1e-12 to 1e-2; planted singular values with a tiny s_min (1e-12 to 1e-2), near
    rank 1 (all but one from 1e-12 to 1e-2), a near-double smallest pair (relative gap
    from 1e-16 to 1e-2) or all equal (orthonormal columns, scaled); uniform samples of
    the caps of radius 0.25 and 0.01 around E_11, the `north` centre; and, drawn last,
    the `near_full_clusters` families."""
    def powers(lo, hi, k=1):
        return 10.0 ** gen.uniform(lo, hi, (count, k))

    one, mid = np.ones((count, 1)), gen.uniform(0.05, 0.95, (count, m - 2))
    planted = {
        "tiny s_min": [one, mid, powers(-12, -2)],
        "near-rank-1": [one, powers(-12, -2, m - 1)],
        "near-double smallest": [one, mid[:, :-1], mid[:, -1:] * (1.0 + powers(-16, -2)),
                                 mid[:, -1:]],
        "all equal": [np.ones((count, m))],
    }
    scale = np.ones((count, 1, m))
    scale[:, 0, 0] = powers(-12, -2)[:, 0]
    families = {
        "random": gen.standard_normal((count, m * n)),
        "tiny first column": (gen.standard_normal((count, n, m)) * scale).reshape(count, -1),
    }
    families = {name: r / np.linalg.norm(r, axis=1, keepdims=True)
                for name, r in families.items()}
    families.update({name: planted_columns(n, np.concatenate(s, axis=1), gen)
                     for name, s in planted.items()})
    for sigma in (0.25, 0.01):
        stream = RngStream(int(gen.integers(2 ** 31)))
        families[f"cap {sigma}"] = sample_uniform_cap(Cap(north(n * m - 1), sigma), stream,
                                                      size=count)
    families.update(near_full_clusters(n, m, count, gen))
    return families


def near_full_clusters(n, m, count, gen):
    """Unit n x m matrices whose m singular values are 1, 1 + g_1, (1 + g_1)(1 + g_2), ...:
    one family per band of relative gaps g_k (1e-16 to 1e-12, 1e-12 to 1e-8 and 1e-8 to
    1e-2), and one of an isolated s_min below a tight cluster, with g_1 from 1e-5 to 1e-1
    and later gaps from 1e-16 to 1e-8; its first row has g_1 = 3.7e-5 and later gaps
    1.4e-8. A kernel that returns the first mu past lambda errs on these families by up
    to 5e-13, 3.5e-9, 2.2e-16 and 4e-12, all above the exact value."""
    def cluster(gaps):
        values = np.cumprod(np.concatenate([np.ones((count, 1)), 1.0 + gaps], axis=1), axis=1)
        return planted_columns(n, values, gen)

    families = {f"near-full cluster 1e{lo}..1e{hi}":
                cluster(10.0 ** gen.uniform(lo, hi, (count, m - 1)))
                for lo, hi in ((-16, -12), (-12, -8), (-8, -2))}
    gaps = 10.0 ** np.concatenate([gen.uniform(-5, -1, (count, 1)),
                                   gen.uniform(-16, -8, (count, m - 2))], axis=1)
    gaps[0] = [3.7e-5] + [1.4e-8] * (m - 2)
    families["isolated below a cluster"] = cluster(gaps)
    return families


def mpmath_two_column_smallest_singular_values(rows):
    """50-digit s_min of n x 2 matrices, from the Gram matrix [[a, g], [g, b]]: the
    smallest eigenvalue 2 D / (T + sqrt(T^2 - 4 D)), the cancellation-free form of
    (T - sqrt(T^2 - 4 D)) / 2, with T = a + b and D = a b - g^2."""
    out = []
    with mpmath.workdps(50):
        for r in rows:
            a, b = r[0::2].tolist(), r[1::2].tolist()
            aa, bb, ab = mpmath.fdot(a, a), mpmath.fdot(b, b), mpmath.fdot(a, b)
            t, d = aa + bb, aa * bb - ab * ab
            out.append(float(mpmath.sqrt(2 * d / (t + mpmath.sqrt(t * t - 4 * d)))))
    return np.array(out)


def mpmath_smallest_singular_values(rows, n, m):
    with mpmath.workdps(50):
        return np.array([float(min(mpmath.svd_r(mpmath.matrix(r.reshape(n, m).tolist()),
                                                compute_uv=False))) for r in rows])


def check_singular_rows(n, m, seed):
    gen = np.random.default_rng(seed)
    e11 = np.zeros((n, m))
    e11[0, 0] = 1.0  # the `north` cap centre: Gram-Schmidt meets r_22 = 0 (and r_33 = 0)
    zero_column, equal_columns = gen.standard_normal((2, n, m))
    zero_column[:, 1] = 0.0
    equal_columns[:, -1] = equal_columns[:, 0]
    mats = np.stack([e11, zero_column, equal_columns])
    mats /= np.linalg.norm(mats, axis=(1, 2), keepdims=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = DeterminantVariety(n, m).distances(mats.reshape(3, -1))
    assert d[0] == 0.0
    assert np.all(d[1:] <= 1e-15)


def check_rows_do_not_interact(v, rows):
    # reversed, split and single rows give the same bits as the whole batch
    d = v.distances(rows)
    assert np.array_equal(v.distances(rows[::-1]), d[::-1])
    pieces = [v.distances(rows[s]) for s in (slice(0, 1), slice(1, 97), slice(97, None))]
    assert np.array_equal(np.concatenate(pieces), d)
    assert np.array_equal([v.distances(row[None])[0] for row in rows[::23]], d[::23])


def count_laguerre_passes(monkeypatch):
    """The row counts of every _laguerre call, appended to the list returned."""
    rows, laguerre = [], varieties._laguerre

    def counted(mu, *args):
        rows.append(len(mu))
        return laguerre(mu, *args)

    monkeypatch.setattr(varieties, "_laguerre", counted)
    return rows


# a fresh interpreter prints the kB that one 8192-row 200 x 2 block adds to its peak RSS
_BLOCK_RSS_PROBE = """
import resource
import numpy as np
from spherecond import DeterminantVariety
pts = np.random.default_rng(0).standard_normal((8192, 400))
pts /= np.linalg.norm(pts, axis=1, keepdims=True)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
DeterminantVariety(200, 2).distances(pts)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(varieties.__file__)))


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
        pts = sample_uniform_sphere(19, RngStream(3), size=50)
        d = DeterminantVariety(5, 4).distances(pts)
        assert d == pytest.approx(mpmath_smallest_singular_values(pts, 5, 4), rel=0.0, abs=1e-15)
        # m = 3 is the bidiagonal kernel too: within round-off of a 50-digit SVD
        pts = sample_uniform_sphere(11, RngStream(3), size=50)
        d = DeterminantVariety(4, 3).distances(pts)
        assert d == pytest.approx(mpmath_smallest_singular_values(pts, 4, 3), rel=0.0, abs=1e-15)
        # m = 2 is Gram-Schmidt plus a closed form: each side is within round-off
        for n in (2, 5):
            pts = sample_uniform_sphere(2 * n - 1, RngStream(3), size=50)
            d = DeterminantVariety(n, 2).distances(pts)
            ref = [np.linalg.svd(row.reshape(n, 2), compute_uv=False)[-1] for row in pts]
            assert d == pytest.approx(ref, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 20, 200])
    def test_two_columns_match_mpmath(self, n):
        # absolute error on unit matrices; over these families LAPACK's reaches 3.3e-16.
        # Fewer rows at n = 200, where each 50-digit Gram matrix takes 3.5 ms
        gen = np.random.default_rng(700 + n)
        for family, rows in two_column_families(n, 300 if n <= 20 else 60, gen).items():
            err = np.abs(DeterminantVariety(n, 2).distances(rows)
                         - mpmath_two_column_smallest_singular_values(rows))
            assert np.max(err) <= 4.5e-16, family

    def test_two_column_reference_is_the_svd(self):
        # the Gram-matrix reference gives the same doubles as a 50-digit SVD
        rows = np.concatenate(list(two_column_families(4, 20, np.random.default_rng(3)).values()))
        assert np.array_equal(mpmath_two_column_smallest_singular_values(rows),
                              mpmath_smallest_singular_values(rows, 4, 2))

    @pytest.mark.parametrize("n,m", [(2, 1), (5, 1), (40, 1), (2, 2), (3, 2), (5, 2),
                                     (3, 3), (4, 3), (6, 3)])
    def test_gram_schmidt_needs_no_svd(self, monkeypatch, n, m):
        pts = sample_uniform_sphere(n * m - 1, RngStream(5), size=20)
        expected = DeterminantVariety(n, m).distances(pts)

        def no_svd(*args, **kwargs):
            raise AssertionError(f"np.linalg.svd called for m = {m}")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert np.array_equal(DeterminantVariety(n, m).distances(pts), expected)
        if m == 1:  # R = (|a|): the row norm, summed in another order
            norm = np.linalg.norm(pts, axis=1)
            assert np.all(np.abs(expected - norm) <= np.spacing(norm))
        singular = np.zeros((1, m * n))
        singular[0, 0] = 1.0
        with warnings.catch_warnings():  # E_11: singular unless it is n x 1
            warnings.simplefilter("error")
            assert DeterminantVariety(n, m).distances(singular)[0] == (1.0 if m == 1 else 0.0)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_three_columns_match_mpmath(self, n):
        # absolute error on unit matrices; over these families LAPACK's reaches 4e-15
        gen = np.random.default_rng(900 + n)
        for family, rows in three_column_families(n, 60, gen).items():
            err = np.abs(DeterminantVariety(n, 3).distances(rows)
                         - mpmath_smallest_singular_values(rows, n, 3))
            assert np.max(err) <= 1e-15, family

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_three_columns_singular_rows(self, n):
        check_singular_rows(n, 3, 40 + n)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_two_columns_singular_rows(self, n):
        check_singular_rows(n, 2, 20 + n)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_three_column_rows_do_not_interact(self, n):
        # rows take different numbers of Laguerre passes; a finished row stays as it is
        gen = np.random.default_rng(60 + n)
        check_rows_do_not_interact(
            DeterminantVariety(n, 3),
            np.concatenate(list(three_column_families(n, 40, gen).values())))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_two_column_rows_do_not_interact(self, n):
        gen = np.random.default_rng(80 + n)
        check_rows_do_not_interact(
            DeterminantVariety(n, 2),
            np.concatenate(list(two_column_families(n, 40, gen).values())))

    def test_two_hundred_by_two_block_memory(self):
        # O(n) memory per matrix: all n(n - 1)/2 minors of each row would take about 5 GB
        done = subprocess.run([sys.executable, "-c", _BLOCK_RSS_PROBE], capture_output=True,
                              text=True, timeout=120, check=True,
                              env={**os.environ, "PYTHONPATH": SRC_DIR})
        assert int(done.stdout) <= 64 * 1024  # kB

    @pytest.mark.parametrize("n,m,count", [(4, 4, 40), (5, 4, 40), (5, 5, 40), (8, 8, 40),
                                           (16, 4, 10), (16, 16, 4)])
    def test_many_columns_match_mpmath(self, n, m, count):
        # absolute error on unit matrices; over these families LAPACK's reached 1.7e-15
        gen = np.random.default_rng(1100 + 10 * n + m)
        for family, rows in many_column_families(n, m, count, gen).items():
            err = np.abs(DeterminantVariety(n, m).distances(rows)
                         - mpmath_smallest_singular_values(rows, n, m))
            assert np.max(err) <= 1e-15, family

    @pytest.mark.parametrize("n,m,count", [(3, 3, 20), (4, 3, 20), (6, 3, 20), (20, 3, 10),
                                           (4, 4, 20), (5, 5, 20), (8, 8, 10), (8, 4, 20),
                                           (16, 16, 3), (32, 4, 10)])
    def test_near_full_cluster_matches_mpmath(self, n, m, count):
        # a Laguerre step taken where m S_2 - S_1^2 cancelled may pass lambda by about the
        # cluster's width; the row must then end below lambda, never above it
        gen = np.random.default_rng(1200 + 10 * n + m)
        for family, rows in near_full_clusters(n, m, count, gen).items():
            err = DeterminantVariety(n, m).distances(rows) - mpmath_smallest_singular_values(
                rows, n, m)
            assert np.max(np.abs(err)) <= 1e-15, family
            assert np.max(err) <= 1e-15, family

    @pytest.mark.parametrize("n,m", [(4, 3), (5, 5), (8, 8)])
    def test_cap_sample_pass_counts(self, monkeypatch, n, m):
        # cap samples have no clusters: 3.37 to 3.54 passes per row and 6 to 8 per block
        rows = count_laguerre_passes(monkeypatch)
        for sigma in (0.25, 0.01, 1.0):
            pts = sample_uniform_cap(Cap(north(n * m - 1), sigma), RngStream(5, 1), size=8192)
            rows.clear()
            DeterminantVariety(n, m).distances(pts)
            assert sum(rows) / len(pts) <= 3.6 and len(rows) <= 8, sigma

    @pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (32, 3), (4, 4), (16, 4), (32, 4),
                                     (16, 16)])
    def test_equal_singular_values_take_few_bracket_passes(self, monkeypatch, n, m):
        # m S_2 - S_1^2 cancels to 0 on these rows, where the step is exact; lowered by
        # its rounding bound, which stays finite there, it ends the row in 4 or 5 passes
        rows = count_laguerre_passes(monkeypatch)
        planted = planted_columns(n, np.ones((40, m)), np.random.default_rng(1300 + 10 * n + m))
        d = DeterminantVariety(n, m).distances(planted)
        assert len(rows) <= 5
        assert np.max(np.abs(d - 1.0 / np.sqrt(m))) <= 1e-15

    # the shapes the tests use and the corners of the kernel's range (m >= 3, n <= 32,
    # n m^2 <= 8192)
    BIDIAGONAL_SHAPES = [(3, 3), (4, 3), (32, 3), (4, 4), (5, 4), (5, 5), (6, 4), (8, 8),
                         (16, 4), (16, 16), (32, 4), (32, 16), (20, 20)]

    @pytest.mark.parametrize("n,m", BIDIAGONAL_SHAPES)
    def test_bidiagonal_needs_no_svd(self, monkeypatch, n, m):
        pts = sample_uniform_sphere(n * m - 1, RngStream(5), size=20)
        expected = DeterminantVariety(n, m).distances(pts)

        def no_svd(*args, **kwargs):
            raise AssertionError(f"np.linalg.svd called for {n} x {m}")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert np.array_equal(DeterminantVariety(n, m).distances(pts), expected)
        check_singular_rows(n, m, 50 + n + m)  # E_11 gives exactly 0.0, warnings as errors

    @pytest.mark.parametrize("n,m", BIDIAGONAL_SHAPES)
    def test_bidiagonal_rows_do_not_interact(self, n, m):
        # rows take different numbers of Laguerre steps and leave the arrays when done
        gen = np.random.default_rng(90 + n + m)
        check_rows_do_not_interact(
            DeterminantVariety(n, m),
            np.concatenate(list(many_column_families(n, m, 20, gen).values())))

    @pytest.mark.parametrize("n,m", [(32, 4), (32, 16), (20, 20)])
    def test_large_bidiagonal_blocks_match_lapack(self, n, m):
        # past 16 x 16 a 50-digit SVD is too slow for the suite; on random rows and cap
        # samples LAPACK errs by about 2e-16
        gen = np.random.default_rng(70 + n + m)
        families = many_column_families(n, m, 50, gen)
        for family in ("random", "cap 0.25", "cap 0.01"):
            rows = families[family]
            ref = np.linalg.svd(rows.reshape(-1, n, m), compute_uv=False)[:, -1]
            assert DeterminantVariety(n, m).distances(rows) == pytest.approx(
                ref, rel=0.0, abs=1e-15), family

    @pytest.mark.parametrize("n,m", [(48, 3), (200, 4), (32, 24), (32, 32)])
    def test_slow_kernel_shapes_stay_on_lapack(self, n, m):
        # outside n <= 32 and n m^2 <= 8192: tall or large blocks, where the kernel measured
        # slower than LAPACK (at 48 x 3 it was still faster, but one rule serves every m)
        pts = sample_uniform_sphere(n * m - 1, RngStream(5), size=20)
        ref = np.linalg.svd(pts.reshape(-1, n, m), compute_uv=False)[:, -1]
        assert np.array_equal(DeterminantVariety(n, m).distances(pts), ref)

    @pytest.mark.parametrize("s", [1e-20, 1e-44, 1e-60, 1e-100, 1e-150])
    def test_bidiagonal_tiny_singular_values(self, monkeypatch, s):
        # one diagonal entry s of signed, scaled permutations, where every reflection is
        # an exact swap and s_min = s, and of upper bidiagonal matrices, where LAPACK is
        # relatively accurate. Rows whose mu_0 is under _MU_FLOOR (s below about 1e-45)
        # take LAPACK: without the floor the recurrence's 1 / t^2 overflowed at 1e-100.
        # At 1e-44 the permutations' mu_0 is within 1e3 of the floor; they stay on the
        # kernel.
        gen = np.random.default_rng(31)
        perms, bidiag = np.zeros((2, 12, 8, 8))
        for perm, b in zip(perms, bidiag):
            sv = gen.uniform(0.1, 1.0, 8) * gen.choice([-1.0, 1.0], 8)
            sv[gen.integers(8)] = s
            perm[gen.permutation(8), np.arange(8)] = sv
            b[np.arange(8), np.arange(8)] = sv
            b[np.arange(7), np.arange(1, 8)] = gen.uniform(0.2, 1.0, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = varieties._bidiagonal_smin(np.concatenate([perms, bidiag]))
        ref = np.concatenate([np.full(12, s), np.linalg.svd(bidiag, compute_uv=False)[:, -1]])
        assert d == pytest.approx(ref, rel=2e-15, abs=0.0)
        if s >= 1e-44:

            def no_svd(*args, **kwargs):
                raise AssertionError("np.linalg.svd called")

            monkeypatch.setattr(np.linalg, "svd", no_svd)
            assert np.array_equal(varieties._bidiagonal_smin(perms), d[:12])

    def test_clustered_smallest_roots_converge(self):
        # k equal smallest singular values converge linearly; k = 10 of 16 took 68 steps
        gen = np.random.default_rng(8)
        sv = np.concatenate([np.full(10, 0.3), np.linspace(1.0, 0.6, 6)])
        rows = planted_columns(16, np.tile(sv, (4, 1)), gen)
        d = DeterminantVariety(16).distances(rows)
        assert d == pytest.approx(np.full(4, 0.3 / np.linalg.norm(sv)), rel=0.0, abs=1e-15)

    def test_laguerre_step_cap_raises(self, monkeypatch):
        # random 5 x 5 rows need three to six steps
        pts = sample_uniform_sphere(24, RngStream(5), size=200)
        monkeypatch.setattr(varieties, "_LAGUERRE_STEPS", 2)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge in 2 steps"):
            DeterminantVariety(5).distances(pts)

    def test_condition_times_distance_is_one(self):
        # kappa_F reads LAPACK's SVD, the distance the closed form. Both err by round-off
        # of |A| = 1, so the product keeps 1e-12 for sigma_min down to about 1e-3.
        gen = np.random.default_rng(17)
        mats = gen.standard_normal((500, 2, 2))
        mats /= np.linalg.norm(mats, axis=(1, 2), keepdims=True)
        small = 10.0 ** gen.uniform(-3, -1, 500)
        near = planted_columns(2, np.stack([np.ones(500), small], axis=1), gen)
        mats = np.concatenate([mats, near.reshape(-1, 2, 2)])
        kappa = frobenius_condition(mats)
        dist = DeterminantVariety(2).distances(mats.reshape(-1, 4))
        assert np.min(dist) < 1.1e-3
        assert np.max(np.abs(kappa * dist - 1.0)) <= 1e-12

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
        assert np.max(np.abs(at_rows(c.poly, mesh)[0])) < 1e-9
        # no point repeats, up to sign
        both = np.round(np.vstack([mesh, -mesh]), 9)
        assert np.unique(both, axis=0).shape[0] == 2 * mesh.shape[0]

    @pytest.mark.parametrize("d", [8, 20])
    def test_high_degree_mesh_on_curve(self, d):
        # x^d - y^d = 0 is |x| = |y|; at high degree |f| is tiny off the curve too, so the
        # mesh keeps a point by its first-order distance |f| / |grad|
        curve = CurveVariety([((d, 0, 0), 1.0), ((0, d, 0), -1.0)], degree=d)
        exact = GreatCircles(GREAT_CIRCLE_UNIONS["conic-1"][1])
        assert np.max(exact.distances(curve._mesh)) <= 1e-9
        pts = sample_uniform_sphere(2, RngStream(5), size=20_000)
        assert np.min(curve.distances(pts) - exact.distances(pts)) >= -1e-9

    def test_degree_above_twenty_rejected(self):
        # past it the mesh misses branches: 0.031 over the exact distance at d = 32
        with pytest.raises(ValueError, match="above 20"):
            CurveVariety([((21, 0, 0), 1.0), ((0, 21, 0), -1.0)], degree=21)

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
        # splits that cut the blocks of _BLOCK rows and the cells' row groups anywhere
        # give the same bits as one call
        c = CurveVariety(*curve)
        pts = sample_uniform_sphere(2, RngStream(4), size=20_011)
        whole = c.distances(pts)
        for rows in (127, 128, 129, 4097, _BLOCK - 1, _BLOCK + 1):
            parts = [c.distances(pts[s:s + rows]) for s in range(0, 20_011, rows)]
            assert np.array_equal(np.concatenate(parts), whole)
        # one row per call costs ~1 ms, so only over rows that cross two block boundaries
        single = [c.distances(pts[s:s + 1]) for s in range(300)]
        assert np.array_equal(np.concatenate(single), whole[:300])

    def test_distances_memory_is_bounded(self):
        # memory must not scale with rows x mesh points: the nearest-point search
        # takes one _BLOCK of rows and at most _DOT_ENTRIES |dot|s at a time; 2e5 rows
        # are the size of the benchmark's quality check
        c = CurveVariety(*QUARTIC)
        for rows in (32768, 200_000):
            pts = sample_uniform_sphere(2, RngStream(5), size=rows)
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
        # the oracle over-estimates distances, so it can only miss hits; on these
        # samples (p = 2 radii by inversion) it misses none
        assert counts.tolist() == exact.tolist() == [1598, 3841, 7271]

    def test_mesh_build_is_batched(self, monkeypatch):
        # one power table, serving f and the gradient, for the lattice, one per Newton
        # step and one for the check
        curve = CurveVariety(*QUARTIC)
        calls = 0
        table = WeylPolynomial._table

        def counting(poly, cols):
            nonlocal calls
            calls += 1
            return table(poly, cols)

        monkeypatch.setattr(WeylPolynomial, "_table", counting)
        mesh = curve._build_mesh()
        assert np.array_equal(mesh, curve._mesh)
        assert calls <= 18

    @pytest.mark.parametrize("curve", [CONIC, QUARTIC, GREAT_CIRCLE_UNIONS["conic-3"][0]],
                             ids=["conic", "quartic", "conic-3"])
    def test_mesh_matches_row_reference(self, curve):
        # the column kernel builds the mesh the (N, 3) kernel built, bit for bit
        c = CurveVariety(*curve)
        ref = curve_reference.build_mesh(c.poly)
        assert c._mesh.shape == ref.shape and c._mesh.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("curve", [CONIC, QUARTIC], ids=["conic", "quartic"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distances_match_row_reference(self, curve, seed):
        # the column kernel gives the (N, 3) kernel's distances, bit for bit
        c = CurveVariety(*curve)
        pts = sample_uniform_sphere(2, RngStream(seed, 7), size=200_000)
        assert c.distances(pts).tobytes() == curve_reference.distances(c, pts).tobytes()

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


def curve_doc(curve):
    monomials, degree = curve
    return {"p": 2, "degree": degree,
            "monomials": [{"alpha": list(a), "coeff": c} for a, c in monomials]}


class TestLoadCurve:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The curves whose mesh was built, from an empty cache of loaded curves."""
        built, build = [], CurveVariety._build_mesh

        def counting(curve):
            built.append(curve)
            return build(curve)

        monkeypatch.setattr(CurveVariety, "_build_mesh", counting)
        varieties._curve.cache_clear()
        yield built
        varieties._curve.cache_clear()

    @staticmethod
    def write(path, doc, **kwargs) -> str:
        path.write_text(json.dumps(doc, **kwargs))
        return str(path)

    def test_one_build_per_document(self, tmp_path, builds):
        # another path, other whitespace and another key order: the same document
        doc = curve_doc(QUARTIC)
        a = self.write(tmp_path / "a.json", doc)
        b = self.write(tmp_path / "b.json", dict(reversed(doc.items())), indent=2)
        curve = varieties.load_curve(a)
        assert varieties.load_curve(b) is curve and varieties.load_curve(a) is curve
        assert builds == [curve]
        assert curve._mesh.tobytes() == CurveVariety(*QUARTIC)._mesh.tobytes()

    def test_edited_file_builds_again(self, tmp_path, builds):
        path = self.write(tmp_path / "curve.json", curve_doc(CONIC))
        conic = varieties.load_curve(path)
        self.write(tmp_path / "curve.json", curve_doc(QUARTIC))
        quartic = varieties.load_curve(path)
        assert quartic is not conic and quartic.degree == 4
        self.write(tmp_path / "curve.json", curve_doc(CONIC))
        assert varieties.load_curve(path) is conic
        assert builds == [conic, quartic]

    def test_monomial_order_is_part_of_the_key(self, tmp_path, builds):
        # the order sets the order of the polynomial's sums, and so their bits
        doc = curve_doc(QUARTIC)
        flipped = {**doc, "monomials": doc["monomials"][::-1]}
        curve = varieties.load_curve(self.write(tmp_path / "a.json", doc))
        other = varieties.load_curve(self.write(tmp_path / "b.json", flipped))
        assert other is not curve and builds == [curve, other]

    @pytest.mark.parametrize("doc,builds_per_call", [
        ({"p": 2, "degree": 2}, 0),
        (curve_doc(([((2, 0, 0), 1.0), ((0, 2, 0), 1.0), ((0, 0, 2), 1.0)], 2)), 1),
    ], ids=["no-monomials", "no-real-points"])
    def test_bad_document_raises_every_time(self, tmp_path, builds, doc, builds_per_call):
        path = self.write(tmp_path / "bad.json", doc)
        for calls in (1, 2):
            with pytest.raises(ValueError):
                varieties.load_curve(path)
            assert len(builds) == calls * builds_per_call


CELL_CURVES = [CONIC, QUARTIC, GREAT_CIRCLE_UNIONS["conic-3"][0]] + [pencil(d) for d in range(2, 7)]
CELL_CURVE_IDS = ["conic", "quartic", "conic-3"] + [f"pencil-{d}" for d in range(2, 7)]


class TestCurveCells:
    """The cell table prunes the nearest-point search without changing its result."""

    @pytest.mark.parametrize("curve", CELL_CURVES, ids=CELL_CURVE_IDS)
    def test_nearest_matches_full_scan(self, curve):
        # uniform points, the benchmark's north and crossing caps, cell edges and corners,
        # face ties and the crossing point +-e_z: the first largest |dot| of the whole mesh
        c = CurveVariety(*curve)
        crossing = Cap(SpherePoint(np.array([0.0, 0.0, 1.0])), 0.25)
        pts = np.vstack([sample_uniform_sphere(2, RngStream(3), size=30_000),
                         sample_uniform_cap(Cap(north(2), 1.0), RngStream(5, 1), size=8192),
                         sample_uniform_cap(crossing, RngStream(5, 2), size=8192),
                         cell_boundary_points(np.random.default_rng(7), 100)])
        assert np.array_equal(c._nearest(pts), curve_reference.nearest(c, pts))
        assert c.distances(pts).tobytes() == curve_reference.distances(c, pts).tobytes()

    @pytest.mark.parametrize("curve", CELL_CURVES, ids=CELL_CURVE_IDS)
    def test_candidates_hold_every_mesh_point_in_reach(self, curve):
        # for every cell, each mesh point within d_c + 2 r of the centre c is a candidate,
        # and the candidates ascend; angles by atan2(|c x m|, |c . m|), r over the corners
        c = CurveVariety(*curve)
        centres, radius = varieties._cell_geometry()
        steps = np.linspace(-1.0, 1.0, varieties._CELLS + 1)
        corners = {}
        for k in range(3):
            for i, a in enumerate(steps):
                for j, b in enumerate(steps):
                    corners[k, i, j] = np.roll([1.0, a, b], k) / math.sqrt(1.0 + a * a + b * b)

        def angles(x, pts):
            return np.arctan2(np.linalg.norm(np.cross(x, pts), axis=-1), np.abs(pts @ x))

        cells = varieties._CELLS
        assert len(c._cand_at) == 3 * cells ** 2 + 1
        for cell, centre in enumerate(centres):
            k, i, j = cell // cells ** 2, cell // cells % cells, cell % cells
            r = max(angles(centre, np.array([corners[k, i + a, j + b]]))[0]
                    for a in (0, 1) for b in (0, 1))
            assert radius[cell] >= r - 1e-15
            to_mesh = angles(centre, c._mesh)
            cand = c._cand[c._cand_at[cell]:c._cand_at[cell + 1]]
            assert np.all(np.diff(cand) > 0)
            assert set(np.flatnonzero(to_mesh <= to_mesh.min() + 2.0 * r)) <= set(cand.tolist())

    @pytest.mark.parametrize("d", range(2, 7))
    def test_pencil_distances_bound_the_exact_ones(self, d):
        # Re (x0 + i x1)^d: an upper bound on the exact distance r |sin w|, within 0.02
        c = CurveVariety(*pencil(d))
        pole = Cap(SpherePoint(np.array([0.0, 0.0, 1.0])), 0.25)
        pts = np.vstack([sample_uniform_sphere(2, RngStream(d), size=50_000),
                         sample_uniform_cap(pole, RngStream(d, 1), size=50_000)])
        over = c.distances(pts) - pencil_distances(pts, d)
        assert np.min(over) >= -1e-12
        assert np.max(over) <= 0.02


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


def kinematic_block_reference(args):
    """The block before it skipped the normalisation: angles from normalised points."""
    p, i, alpha, seed, index, count = args
    z = sample_uniform_sphere(p, RngStream(seed, index + 1), size=count)
    sin_rho = np.linalg.norm(z[:, i + 2:], axis=1)
    cos_rho = np.sqrt(np.clip(1.0 - sin_rho**2, 0.0, 1.0))
    inside = cos_rho > np.cos(alpha)
    cos_delta = np.zeros(count)
    cos_delta[inside] = np.cos(alpha) / cos_rho[inside]
    return _moments(np.where(inside, cos_delta**i, 0.0))


def kinematic_block_summed(args):
    """The block before its columns were added one by one: row sums over strided slices,
    and the cap's rows selected by a masked division."""
    p, i, alpha, seed, index, count = args
    sq = RngStream(seed, index + 1).generator.standard_normal((count, p + 1))
    sq *= sq
    near = np.sum(sq[:, :i + 2], axis=1)
    cos2_rho = near / (near + np.sum(sq[:, i + 2:], axis=1))
    cos2_alpha = math.cos(alpha) ** 2
    inside = cos2_rho > cos2_alpha
    ratio = np.divide(cos2_alpha, cos2_rho, out=np.zeros(count), where=inside)
    return _moments(np.where(inside, ratio ** (0.5 * i), 0.0))


def kinematic_block_single(args):
    """The block before one draw served every case: one (p, i), its own (count, p + 1)
    draw from stream index + 1."""
    p, i, alpha, seed, index, count = args
    sq = RngStream(seed, index + 1).generator.standard_normal((count, p + 1))
    sq *= sq
    near = _sum(sq[:, :i + 2])
    cos2_rho = near / (near + _sum(sq[:, i + 2:]))
    cos2_alpha = math.cos(alpha) ** 2
    inside = cos2_rho > cos2_alpha
    ratio = cos2_alpha / np.maximum(cos2_rho, cos2_alpha)
    return _moments(np.where(inside, ratio ** (0.5 * i), 0.0))


# the four cases of `verify kinematic`, and every case up to p = 6
VERIFY_CASES = ((2, 0), (3, 0), (3, 1), (4, 1))
ALL_CASES = tuple((p, i) for p in range(2, 7) for i in range(p - 1))


class TestKinematicBlock:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("alpha", [0.2, 0.6, 1.2])
    @pytest.mark.parametrize("seed", [1, 3, 101])
    def test_same_bits_as_summed_reference(self, p, alpha, seed):
        cases = tuple((p, i) for i in range(p - 1))
        for index in (0, 4, 9):
            parts = _kinematic_block((cases, alpha, seed, index, 4096))
            assert parts == [kinematic_block_summed((p, i, alpha, seed, index, 4096))
                             for _, i in cases]

    @pytest.mark.parametrize("cases", [VERIFY_CASES, ALL_CASES, ((4, 1), (2, 0))],
                             ids=["verify", "all", "unsorted"])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("index", [0, 4, 61])
    @pytest.mark.parametrize("count", [288, 4096, _BLOCK])
    def test_one_draw_gives_each_case_its_own_bits(self, cases, seed, index, count):
        # the prefix of one (count, max p + 1) draw is each case's (count, p + 1) draw
        parts = _kinematic_block((cases, 0.6, seed, index, count))
        assert parts == [kinematic_block_single((p, i, 0.6, seed, index, count))
                         for p, i in cases]

    @pytest.mark.parametrize("p,i,alpha", [(2, 0, 0.6), (3, 0, 0.6), (3, 1, 0.6),
                                           (4, 1, 0.6), (5, 2, 1.2), (6, 3, 0.2)])
    @pytest.mark.parametrize("seed,index", [(1, 0), (3, 5), (101, 2)])
    def test_moments_match_normalised_reference(self, p, i, alpha, seed, index):
        block = (p, i, alpha, seed, index, _BLOCK)
        [(n, mean, m2)] = _kinematic_block((((p, i),), alpha, seed, index, _BLOCK))
        n_ref, mean_ref, m2_ref = kinematic_block_reference(block)
        assert n == n_ref
        assert mean == pytest.approx(mean_ref, rel=1e-12)
        assert m2 == pytest.approx(m2_ref, rel=1e-12)


class TestRowDot:
    def test_same_bits_as_numpy_reductions(self):
        # dot and cross products of points held as three coordinate columns: the curve
        # kernel's dot is the one row-dot helper, `_dot`
        a, b = np.random.default_rng(53).standard_normal((2, 50_000, 3))
        a[:100] *= 1e-150
        cols_a, cols_b = list(a.T.copy()), list(b.T.copy())
        assert np.array_equal(_dot(cols_a, cols_b), np.sum(a * b, axis=1))
        assert np.array_equal(np.sqrt(_dot(cols_a, cols_a)), np.linalg.norm(a, axis=1))
        assert np.array_equal(np.stack(_col_cross(cols_a, cols_b), axis=1), np.cross(a, b))


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
        [(lhs, est, lo, hi)] = verify_kinematic([(3, 1)], 0.8, samples=200_000, seed=7)
        assert lo <= est <= hi
        assert lo <= lhs <= hi

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("p,i,alpha", [(2, 0, 0.6), (3, 1, 0.8), (4, 1, 1.2)])
    def test_kinematic_interval_covers_analytic(self, seed, p, i, alpha):
        [(_, _, lo, hi)] = verify_kinematic([(p, i)], alpha, samples=50_000, seed=seed)
        assert lo <= kinematic_rhs_analytic(p, i, alpha) <= hi

    def test_kinematic_cases_do_not_interact(self):
        # each case gets the bits it gets alone, and any worker count gives the same
        together = verify_kinematic(VERIFY_CASES, 0.6, samples=20_000, seed=5)
        alone = [verify_kinematic([case], 0.6, samples=20_000, seed=5)[0]
                 for case in VERIFY_CASES]
        assert together == alone
        assert verify_kinematic(VERIFY_CASES, 0.6, samples=20_000, seed=5,
                                workers=2) == together

    @pytest.mark.parametrize("p,i,alpha", [(1, 0, 0.6), (3, -1, 0.6), (3, 2, 0.6),
                                           (3, 1, 0.0), (3, 1, 2.0)])
    def test_kinematic_rejects_bad_input_before_sampling(self, monkeypatch, p, i, alpha):
        def no_sampling(*args, **kwargs):
            raise AssertionError("(p, i, alpha) is checked before sampling")

        monkeypatch.setattr(varieties, "run_blocks", no_sampling)
        with pytest.raises(ValueError):
            verify_kinematic([(p, i)], alpha, samples=1000, seed=7)
        with pytest.raises(ValueError):  # a bad case after good ones
            verify_kinematic([(2, 0), (3, 1), (p, i)], alpha, samples=1000, seed=7)
        with pytest.raises(ValueError):
            kinematic_rhs_analytic(p, i, alpha)
        with pytest.raises(ValueError):
            verify_kinematic([], 0.6, samples=1000, seed=7)

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
    """Stands in for ProcessPoolExecutor: records its size, each map's chunk size and each
    shutdown, and maps in-process."""

    sizes: list = []
    chunks: list = []
    shut: list = []

    def __init__(self, max_workers):
        self.size = max_workers
        _SerialPool.sizes.append(max_workers)

    def map(self, fn, items, chunksize=1):
        _SerialPool.chunks.append(chunksize)
        return map(fn, items)

    def shutdown(self):
        _SerialPool.shut.append(self.size)


@pytest.fixture
def serial_pool(monkeypatch):
    """run_blocks starts _SerialPools, from no cached pool; the cached pool is put back
    afterwards, so no fake outlives the test."""
    # run_blocks imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(varieties, "_pool", None)
    for name in ("sizes", "chunks", "shut"):
        monkeypatch.setattr(_SerialPool, name, [])


class TestRunBlocks:
    def test_returns_kernel_results_in_block_order(self):
        parts = run_blocks(_block_id, (), 2 * _BLOCK + 5)
        assert [part.tolist() for part in parts] == [[0, _BLOCK], [1, _BLOCK], [2, 5]]

    @pytest.mark.parametrize("workers,samples,size", [
        (64, 3 * _BLOCK, 3), (2, 3 * _BLOCK, 2), (64, _BLOCK, None), (2, 1, None),
        (2, 16 * _BLOCK, 2), (3, 16 * _BLOCK, 3),
    ])
    def test_pool_has_no_more_workers_than_blocks(self, serial_pool, workers, samples, size):
        total = run_blocks(_block_id, (), samples, workers)
        assert _SerialPool.sizes == ([] if size is None else [size])
        # one contiguous run per worker: 3 blocks on 2 go as 2 + 1, 16 on 3 as 6 + 6 + 4
        blocks = -(-samples // _BLOCK)
        assert _SerialPool.chunks == ([] if size is None else [-(-blocks // size)])
        assert np.array_equal(total, run_blocks(_block_id, (), samples, 1))

    def test_pool_serves_every_run_of_its_size(self, serial_pool):
        for samples in (3 * _BLOCK, 5 * _BLOCK, 3 * _BLOCK):
            run_blocks(_block_id, (), samples, 2)
        assert _SerialPool.sizes == [2] and _SerialPool.shut == []
        run_blocks(_block_id, (), 3 * _BLOCK, 3)
        assert _SerialPool.sizes == [2, 3] and _SerialPool.shut == [2]
        run_blocks(_block_id, (), 3 * _BLOCK, 1)  # serial: the pool stays
        assert _SerialPool.shut == [2]

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            run_blocks(_block_id, (), 0)
        with pytest.raises(ValueError):
            tube_cap_counts(DeterminantVariety(2), Cap(north(3), 1.0), [0.1], 0, seed=1)
        with pytest.raises(ValueError):
            verify_kinematic([(3, 1)], 0.8, samples=0, seed=7)
