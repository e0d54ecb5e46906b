"""Variety distance oracles, Monte Carlo tube estimates, and exact checks.

Varieties are symmetric subsets of S^p with an attached projective
distance evaluator: great subspheres (exact), rank-deficient matrices via
the smallest singular value (exact), and plane curves on S^2 via a mesh of
Newton-projected hemisphere lattice points with Newton refinement (upper
bound on the true distance). The curve oracle finds each query's nearest
mesh point in cache-sized row blocks against one reused buffer, and
evaluates the polynomial from a multiply-only power table.
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.special import betaincinv

from .conditioning import WeylPolynomial
from .geometry import (
    Cap,
    j_integral,
    kinematic_constant,
    sphere_volume,
    _log_binom,
)
from .sampling import RngStream, sample_uniform_cap, sample_uniform_sphere


# ---------------------------------------------------------------------------
# confidence intervals


def clopper_pearson(successes: int, trials: int, level: float = 0.99):
    """Clopper-Pearson interval for a binomial proportion; integer counts only."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    a = 1.0 - level
    if successes <= 0.0:
        lo = 0.0
    else:
        lo = float(betaincinv(successes, trials - successes + 1, a / 2))
    if successes >= trials:
        hi = 1.0
    else:
        hi = float(betaincinv(successes + 1, trials - successes, 1 - a / 2))
    return lo, hi


def empirical_bernstein(n: int, mean: float, m2: float, level: float = 0.99):
    """Two-sided interval for the mean of n i.i.d. samples in [0, 1], given their
    (n, mean, M2): the empirical-Bernstein bound (Maurer and Pontil 2009, Theorem 4)
    at (1 - level) / 2 on each side, clipped to [0, 1]."""
    if n < 2:
        return 0.0, 1.0
    log_term = math.log(4.0 / (1.0 - level))
    half = (math.sqrt(2.0 * (m2 / (n - 1)) * log_term / n)
            + 7.0 * log_term / (3.0 * (n - 1)))
    return max(0.0, mean - half), min(1.0, mean + half)


# ---------------------------------------------------------------------------
# varieties


class Variety:
    """Base class: a symmetric subset of S^p with a distance evaluator."""

    p: int
    degree: int
    distance_kind: str

    def distances(self, points: np.ndarray) -> np.ndarray:
        """Projective distances from rows of `points` to the variety."""
        raise NotImplementedError


class SubsphereVariety(Variety):
    """The great subsphere {x_{m+1} = ... = x_p = 0} of S^p; degree 1."""

    def __init__(self, p: int, m: int):
        if not 0 <= m <= p - 1:
            raise ValueError("need 0 <= m <= p - 1")
        self.p, self.m = p, m
        self.degree = 1
        self.distance_kind = "exact"

    def distances(self, points: np.ndarray) -> np.ndarray:
        return np.linalg.norm(points[:, self.m + 1:], axis=1)


class DeterminantVariety(Variety):
    """Rank-deficient n x m matrices (n >= m; square if m is None) on S^{nm-1}, cut out
    by the m x m minors; distance is the smallest singular value (Eckart-Young)."""

    def __init__(self, n: int, m: int | None = None):
        m = n if m is None else m
        if not n >= m >= 1 or n * m < 2:
            raise ValueError("need n >= m >= 1 and n * m >= 2")
        self.n, self.m = n, m
        self.p = n * m - 1
        self.degree = m
        self.distance_kind = "exact"

    def distances(self, points: np.ndarray) -> np.ndarray:
        mats = points.reshape(-1, self.n, self.m)
        return np.linalg.svd(mats, compute_uv=False)[:, -1]


# hemisphere lattice size; the mesh keeps about sqrt(2 _MESH_SIZE / pi) points per
# unit of curve length (645 for x^2 - y^2, 1281 for the quartic). A coarser mesh
# errs more between branches near crossings: at 4096 distances ran up to 0.0204
# over the exact ones, at 8192 caps around a crossing lost tube hits.
_MESH_SIZE = 16384
_NEWTON_STEPS = 2
# rows per pass of the Newton refinement, which bounds its temporaries for any N,
# and rows per block of the nearest-point search, whose (rows, mesh) |dot| buffer
# stays in cache (1.3 MB for the quartic's 1281 mesh points)
_CHUNK_ROWS = 4096
_NEAREST_ROWS = 128


class CurveVariety(Variety):
    """Zero set on S^2 of the homogeneous polynomial `poly` in three variables.

    The mesh is a Fibonacci lattice on the upper hemisphere, cut to the
    points within one lattice spacing of the curve and Newton-projected onto
    it. Distance: the mesh point nearest up to sign, then two rounds of
    tangential sliding and Newton reprojection. The reported distance is an
    upper bound of the true distance.

    The nearest point is the largest |dot| with the mesh, taken _NEAREST_ROWS
    query rows at a time in one (_NEAREST_ROWS, mesh) buffer; the refinement
    runs on chunks of _CHUNK_ROWS rows. Rows never interact, so any split of
    the queries gives the same bits. `WeylPolynomial` evaluates f and its
    gradient from a power table built by multiplication only.
    """

    def __init__(self, monomials, degree: int):
        self.p = 2
        self.degree = int(degree)
        self.distance_kind = "mesh-newton"
        coefficients: dict = {}
        for alpha, c in monomials:  # repeated exponent triples add up
            alpha = tuple(int(e) for e in alpha)
            coefficients[alpha] = coefficients.get(alpha, 0.0) + float(c)
        self.poly = WeylPolynomial(n=2, degree=self.degree, coefficients=coefficients)
        self._mesh = self._build_mesh()
        if self._mesh.size == 0:
            raise ValueError("curve has no real points on S^2 at mesh resolution")
        self._mesh_t = np.ascontiguousarray(self._mesh.T)

    @classmethod
    def from_json(cls, doc) -> "CurveVariety":
        if not isinstance(doc, dict) or doc.get("p", 2) != 2:
            raise ValueError("curve JSON must be an object for a curve on S^2 (p = 2)")
        try:
            monos = [(m["alpha"], m["coeff"]) for m in doc["monomials"]]
            degree = doc["degree"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"curve JSON needs degree, monomials, alpha, coeff: {exc!r}") from None
        return cls(monos, degree=degree)

    def _tangential_grad(self, pts: np.ndarray) -> np.ndarray:
        g = self.poly.gradient(pts)
        return g - pts * np.sum(g * pts, axis=1, keepdims=True)

    def _project(self, pts: np.ndarray, steps: int = 8) -> np.ndarray:
        """Newton steps moving points onto the curve along the surface gradient."""
        for _ in range(steps):
            f = self.poly(pts)
            g = self._tangential_grad(pts)
            gn = np.sum(g * g, axis=1)
            gn = np.where(gn < 1e-30, 1.0, gn)
            pts = pts - (f / gn)[:, None] * g
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        return pts

    def _build_mesh(self) -> np.ndarray:
        # f(-x) = +-f(x), so a Fibonacci lattice on the upper hemisphere sees every
        # component; lattice points within one spacing of the curve to first order
        # are Newton-projected onto it, and those that converge are kept
        k = np.arange(_MESH_SIZE) + 0.5
        z = k / _MESH_SIZE
        phi = k * (math.pi * (3.0 - math.sqrt(5.0)))
        r = np.sqrt(1.0 - z * z)
        lattice = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        slope = np.linalg.norm(self._tangential_grad(lattice), axis=1)
        near = np.abs(self.poly(lattice)) <= math.sqrt(2.0 * math.pi / _MESH_SIZE) * slope
        mesh = self._project(lattice[near], steps=16)
        return mesh[np.abs(self.poly(mesh)) < 1e-9]

    def distances(self, points: np.ndarray) -> np.ndarray:
        out = np.empty(points.shape[0])
        buf = np.empty((_NEAREST_ROWS, self._mesh_t.shape[1]))
        for start in range(0, points.shape[0], _CHUNK_ROWS):
            chunk = points[start:start + _CHUNK_ROWS]
            # nearest mesh point up to sign (largest |dot|), one cache-sized block at a time
            idx = np.empty(chunk.shape[0], dtype=np.intp)
            for s in range(0, chunk.shape[0], _NEAREST_ROWS):
                rows = chunk[s:s + _NEAREST_ROWS]
                dots = buf[:rows.shape[0]]
                np.matmul(rows, self._mesh_t, out=dots)
                np.abs(dots, out=dots)
                np.argmax(dots, axis=1, out=idx[s:s + rows.shape[0]])
            best = self._mesh[idx]
            # align hemispheres so the refinement target is the nearer antipode
            flip = np.sum(best * chunk, axis=1) < 0
            best[flip] *= -1.0
            for _ in range(_NEWTON_STEPS):
                # slide along the curve tangent toward the query point
                g = self._tangential_grad(best)
                gn = np.linalg.norm(g, axis=1, keepdims=True)
                gn = np.where(gn < 1e-30, 1.0, gn)
                t = np.cross(best, g / gn)
                step = np.sum((chunk - best) * t, axis=1)
                best = best + step[:, None] * t
                best /= np.linalg.norm(best, axis=1, keepdims=True)
                best = self._project(best, steps=3)
            # |best x z| = sin of the angle, accurate also next to the curve
            out[start:start + _CHUNK_ROWS] = np.linalg.norm(np.cross(best, chunk), axis=1)
        return out


# ---------------------------------------------------------------------------
# Monte Carlo tube/cap ratio

_BLOCK = 8192  # fixed block size keeps results independent of worker count


def run_blocks(kernel, args: tuple, samples: int, workers: int = 1) -> list:
    """kernel((*args, index, count)) for the blocks of at most _BLOCK samples, in block order.

    Each kernel returns a fixed-size reduction of its block, and callers fold
    the list in block order: the result does not depend on the worker count,
    nor memory on samples.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    blocks = [(*args, idx, min(_BLOCK, samples - start))
              for idx, start in enumerate(range(0, samples, _BLOCK))]
    workers = min(workers, len(blocks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(kernel, blocks))
    else:
        parts = [kernel(b) for b in blocks]
    return parts


def _moments(x: np.ndarray) -> tuple[int, float, float]:
    """(n, mean, M2) of one block; M2 = sum (x - mean)^2."""
    mean = float(np.mean(x))
    return x.size, mean, float(np.sum((x - mean) ** 2))


def _merge_moments(parts: list) -> tuple[int, float, float]:
    """Fold per-block (n, mean, M2) in order (Chan, Golub and LeVeque 1979): no sum of
    squares cancels against the squared mean, so tiny spreads keep their digits."""
    n, mean, m2 = parts[0]
    for nb, mean_b, m2_b in parts[1:]:
        total = n + nb
        delta = mean_b - mean
        mean += delta * nb / total
        m2 += m2_b + delta * delta * n * nb / total
        n = total
    return n, mean, m2


def _cap_block(args):
    """reduce(variety distances) of `count` uniform cap samples from stream index + 1;
    `reduce` travels to workers by pickle (a module-level function or partial)."""
    variety, cap, reduce, seed, index, count = args
    pts = sample_uniform_cap(cap, RngStream(seed, index + 1), size=count)
    return reduce(variety.distances(pts))


def _count_within(eps_grid: tuple, d: np.ndarray) -> np.ndarray:
    return np.array([(d <= e).sum() for e in eps_grid], dtype=np.int64)


def tube_cap_counts(variety: Variety, cap: Cap, eps_grid, samples: int,
                    seed: int, workers: int = 1) -> np.ndarray:
    """Per-threshold counts of samples with distance <= eps, reproducible for any worker count."""
    reduce = functools.partial(_count_within, tuple(eps_grid))
    return np.sum(run_blocks(_cap_block, (variety, cap, reduce, seed), samples, workers), axis=0)


# ---------------------------------------------------------------------------
# geodesic spheres: curvature integrals, bands, and exact verifications


def geodesic_sphere_mu(p: int, alpha: float, i: int) -> float:
    """Integral of the i-th curvature of the radius-alpha geodesic sphere:

    C(p-1,i) O_{p-1} sin^{p-i-1}(alpha) cos^i(alpha).
    """
    if p < 2 or not 0.0 < alpha <= np.pi / 2 or not 0 <= i <= p - 1:
        raise ValueError("need p >= 2, alpha in (0, pi/2], 0 <= i <= p-1")
    return float(np.exp(_log_binom(p - 1, i)) * sphere_volume(p - 1)
                 * np.sin(alpha) ** (p - i - 1) * np.cos(alpha) ** i)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss  # not loaded by `import numpy`

    return leggauss(32)


def band_volume(p: int, alpha: float, beta: float) -> float:
    """Volume of the radius-beta normal tube around the geodesic sphere: the band
    between angular radii alpha-beta and alpha+beta, O_{p-1} int sin^{p-1} r dr.

    Composite 32-point Gauss-Legendre on panels short enough, (p-1) * width <= 16,
    that sin^{p-1} is resolved to round-off. The nodes alpha + beta*x keep thin
    bands accurate in relative terms, where a difference of two ball volumes
    cancels.
    """
    if p < 2 or not 0.0 < beta < alpha or alpha + beta > np.pi:
        raise ValueError("need p >= 2, 0 < beta < alpha, alpha + beta <= pi")
    x, w = _gauss_legendre()
    panels = 1 + int((p - 1) * beta // 8.0)
    mids = (2.0 * np.arange(panels) + 1.0) / panels - 1.0
    r = alpha + beta * (mids[:, None] + x / panels)
    return float(sphere_volume(p - 1) * beta / panels * np.sum(w * np.sin(r) ** (p - 1)))


def verify_weyl_tube_bound(p: int, alpha: float, beta: float):
    """Exact band volume vs the curvature-sum tube bound; returns (lhs, rhs, pass)."""
    lhs = band_volume(p, alpha, beta)
    rhs = 2.0 * sum(
        j_integral(p, i + 1, beta) * geodesic_sphere_mu(p, alpha, i)
        for i in range(p)
    )
    return lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-12))


def kinematic_rhs_analytic(p: int, i: int, alpha: float) -> float:
    """Closed form of the slice-averaged curvature integral times the constant."""
    if not 0.0 < alpha <= np.pi / 2:
        raise ValueError("alpha must lie in (0, pi/2]")
    return (kinematic_constant(p, i)
            * sphere_volume(i) * sphere_volume(i + 1) * sphere_volume(p - i - 2)
            / sphere_volume(p)
            * np.cos(alpha) ** i * np.sin(alpha) ** (p - i - 1) / (p - i - 1))


def _kinematic_block(args):
    p, i, alpha, seed, index, count = args
    z = sample_uniform_sphere(p, RngStream(seed, index + 1), size=count)
    # distance to S^{i+1} = {x_{i+2} = ... = x_p = 0}
    sin_rho = np.linalg.norm(z[:, i + 2:], axis=1)
    cos_rho = np.sqrt(np.clip(1.0 - sin_rho**2, 0.0, 1.0))
    inside = cos_rho > np.cos(alpha)
    cos_delta = np.zeros(count)
    cos_delta[inside] = np.cos(alpha) / cos_rho[inside]
    return _moments(np.where(inside, cos_delta**i, 0.0))


def verify_kinematic(p: int, i: int, alpha: float, samples: int,
                     seed: int, workers: int = 1):
    """Check the kinematic identity for geodesic spheres by Monte Carlo.

    Returns (lhs, estimate, ci_low, ci_high): lhs is the exact curvature
    integral, and estimate a Monte Carlo estimate of its slice average with
    a 99% empirical-Bernstein interval [ci_low, ci_high]. A bad (p, i, alpha)
    raises ValueError before any sampling.
    """
    lhs = geodesic_sphere_mu(p, alpha, i)  # checks p, alpha and 0 <= i <= p - 1
    scale = kinematic_constant(p, i) * sphere_volume(i)  # checks i < p - 1
    n, mean, m2 = _merge_moments(run_blocks(_kinematic_block, (p, i, alpha, seed),
                                            samples, workers))
    lo, hi = empirical_bernstein(n, mean, m2)  # the integrand lies in [0, 1]
    return lhs, scale * mean, scale * lo, scale * hi


def load_curve(path: str) -> CurveVariety:
    with open(path) as fh:
        return CurveVariety.from_json(json.load(fh))
