"""Variety distance oracles, Monte Carlo tube estimates, and exact checks.

Varieties are symmetric subsets of S^p with an attached projective
distance evaluator: great subspheres (exact), singular matrices via the
smallest singular value (exact), and plane curves on S^2 via a dense
mesh with Newton refinement (upper bound on the true distance).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.special import betaincinv

from .geometry import (
    Cap,
    SpherePoint,
    j_integral,
    kinematic_constant,
    sphere_volume,
    subsphere_tube_volume,
    _log_binom,
)
from .sampling import RngStream, sample_uniform_cap


# ---------------------------------------------------------------------------
# confidence intervals


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with a 99% confidence interval."""

    estimate: float
    ci_low: float
    ci_high: float
    samples: int
    seed: int

    def __post_init__(self):
        if not self.ci_low <= self.estimate <= self.ci_high:
            raise ValueError("confidence interval must contain the estimate")


def clopper_pearson(successes: float, trials: int, level: float = 0.99):
    """Clopper-Pearson interval; fractional successes extend it to bounded means."""
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

    def distance(self, x: SpherePoint) -> float:
        return float(self.distances(x.coords[None, :])[0])


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
    """Singular n x n matrices on S^{n^2-1}; distance is the smallest singular value."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        self.n = n
        self.p = n * n - 1
        self.degree = n
        self.distance_kind = "exact"

    def distances(self, points: np.ndarray) -> np.ndarray:
        mats = points.reshape(-1, self.n, self.n)
        return np.linalg.svd(mats, compute_uv=False)[:, -1]


class CurveVariety(Variety):
    """Zero set on S^2 of one homogeneous polynomial in three variables.

    Distance via a precomputed mesh of on-curve points plus two rounds of
    tangential sliding and Newton reprojection. The reported distance is
    an upper bound of the true distance.
    """

    def __init__(self, monomials, degree: int, mesh_size: int = 4096,
                 newton_steps: int = 2):
        self.p = 2
        self.degree = int(degree)
        self.distance_kind = "mesh-newton"
        self.mesh_size = mesh_size
        self.newton_steps = newton_steps
        self.monomials = []
        for alpha, c in monomials:
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != 3 or sum(alpha) != self.degree:
                raise ValueError(f"bad exponent triple {alpha}")
            self.monomials.append((alpha, float(c)))
        self._mesh = self._build_mesh()
        if self._mesh.size == 0:
            raise ValueError("curve has no real points on S^2 at mesh resolution")

    @classmethod
    def from_json(cls, doc: dict, **kw) -> "CurveVariety":
        if doc.get("p", 2) != 2:
            raise ValueError("curve varieties live on S^2")
        monos = [(m["alpha"], m["coeff"]) for m in doc["monomials"]]
        return cls(monos, degree=doc["degree"], **kw)

    def _eval(self, pts: np.ndarray) -> np.ndarray:
        vals = np.zeros(pts.shape[0])
        for (a0, a1, a2), c in self.monomials:
            vals += c * pts[:, 0] ** a0 * pts[:, 1] ** a1 * pts[:, 2] ** a2
        return vals

    def _grad(self, pts: np.ndarray) -> np.ndarray:
        g = np.zeros_like(pts)
        for (a0, a1, a2), c in self.monomials:
            if a0:
                g[:, 0] += c * a0 * pts[:, 0] ** (a0 - 1) * pts[:, 1] ** a1 * pts[:, 2] ** a2
            if a1:
                g[:, 1] += c * a1 * pts[:, 0] ** a0 * pts[:, 1] ** (a1 - 1) * pts[:, 2] ** a2
            if a2:
                g[:, 2] += c * a2 * pts[:, 0] ** a0 * pts[:, 1] ** a1 * pts[:, 2] ** (a2 - 1)
        return g

    def _tangential_grad(self, pts: np.ndarray) -> np.ndarray:
        g = self._grad(pts)
        return g - pts * np.sum(g * pts, axis=1, keepdims=True)

    def _project(self, pts: np.ndarray, steps: int = 8) -> np.ndarray:
        """Newton steps moving points onto the curve along the surface gradient."""
        for _ in range(steps):
            f = self._eval(pts)
            g = self._tangential_grad(pts)
            gn = np.sum(g * g, axis=1)
            gn = np.where(gn < 1e-30, 1.0, gn)
            pts = pts - (f / gn)[:, None] * g
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        return pts

    def _build_mesh(self) -> np.ndarray:
        # scan meridians for sign changes of f, bisect all brackets at once, Newton-polish
        n_phi = max(8, int(math.sqrt(self.mesh_size) * 4))
        n_theta = max(16, self.mesh_size // n_phi * 4)
        phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
        thetas = np.linspace(0.0, np.pi, n_theta)

        def on_meridian(phi, theta):
            return np.stack([np.sin(theta) * np.cos(phi),
                             np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)

        rings = on_meridian(*np.meshgrid(phis, thetas, indexing="ij"))
        vals = self._eval(rings.reshape(-1, 3)).reshape(n_phi, n_theta)
        ring_of, j = np.nonzero(np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) < 0)
        phi, lo, hi, flo = phis[ring_of], thetas[j], thetas[j + 1], vals[ring_of, j]
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            fm = self._eval(on_meridian(phi, mid))
            left = flo * fm <= 0
            hi = np.where(left, mid, hi)
            lo, flo = np.where(left, lo, mid), np.where(left, flo, fm)
        zero_ring, zero_j = np.nonzero(np.abs(vals) < 1e-14)
        # meridian by meridian, bisected points before exact zeros of the scan:
        # the truncation to mesh_size below keeps a prefix of this order
        order = np.argsort(np.concatenate([ring_of, zero_ring]), kind="stable")
        pts = np.concatenate([on_meridian(phi, lo), rings[zero_ring, zero_j]])[order]
        mesh = self._project(pts)
        keep = np.abs(self._eval(mesh)) < 1e-9
        return mesh[keep][: self.mesh_size]

    def distances(self, points: np.ndarray) -> np.ndarray:
        out = np.empty(points.shape[0])
        for start in range(0, points.shape[0], 4096):
            chunk = points[start:start + 4096]
            dots = np.abs(chunk @ self._mesh.T)
            best = self._mesh[np.argmax(dots, axis=1)].copy()
            # align hemispheres so the refinement target is the nearer antipode
            flip = np.sum(best * chunk, axis=1) < 0
            best[flip] *= -1.0
            for _ in range(self.newton_steps):
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
            out[start:start + 4096] = np.linalg.norm(np.cross(best, chunk), axis=1)
        return out


class UnionVariety(Variety):
    """Union of varieties: distance is the member minimum."""

    def __init__(self, members):
        members = list(members)
        if not members:
            raise ValueError("empty union")
        self.members = members
        self.p = members[0].p
        if any(v.p != self.p for v in members):
            raise ValueError("members live on different spheres")
        # single-polynomial degree bound: product of one defining polynomial
        # per member, each bounded by the largest member degree
        self.degree = max(v.degree for v in members) * len(members)
        self.distance_kind = ("exact" if all(v.distance_kind == "exact" for v in members)
                              else "mesh-newton")

    def distances(self, points: np.ndarray) -> np.ndarray:
        return np.min(np.stack([v.distances(points) for v in self.members]), axis=0)


def distance_to_variety(x: SpherePoint, variety: Variety) -> float:
    if x.p != variety.p:
        raise ValueError("dimension mismatch")
    return variety.distance(x)


# ---------------------------------------------------------------------------
# Monte Carlo tube/cap ratio

_BLOCK = 8192  # fixed block size keeps results independent of worker count


def run_blocks(kernel, args: tuple, samples: int, workers: int = 1) -> list:
    """kernel((*args, index, count)) for each block of at most _BLOCK samples.

    Results come back in block order; blocks, and so results, do not depend
    on the worker count.
    """
    blocks = [(*args, idx, min(_BLOCK, samples - start))
              for idx, start in enumerate(range(0, samples, _BLOCK))]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(kernel, blocks))
    return [kernel(b) for b in blocks]


def _tube_block(args):
    variety, cap, eps_grid, seed, index, count = args
    rng = RngStream(seed, index + 1)
    pts = sample_uniform_cap(cap, rng, size=count)
    d = variety.distances(pts)
    return np.array([(d < e).sum() for e in eps_grid], dtype=np.int64)


def tube_cap_counts(variety: Variety, cap: Cap, eps_grid, samples: int,
                    seed: int, workers: int = 1) -> np.ndarray:
    """Per-threshold membership counts, reproducible for any worker count."""
    parts = run_blocks(_tube_block, (variety, cap, tuple(eps_grid), seed), samples, workers)
    return np.sum(parts, axis=0)


def estimate_tube_cap_ratio(variety: Variety, cap: Cap, eps: float,
                            samples: int, rng: RngStream,
                            workers: int = 1) -> McEstimate:
    """Fraction of uniform cap samples within projective distance eps of the variety."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    hits = int(tube_cap_counts(variety, cap, [eps], samples,
                               rng.master_seed, workers)[0])
    lo, hi = clopper_pearson(hits, samples)
    return McEstimate(estimate=hits / samples, ci_low=lo, ci_high=hi,
                      samples=samples, seed=rng.master_seed)


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
    return (kinematic_constant(p, i)
            * sphere_volume(i) * sphere_volume(i + 1) * sphere_volume(p - i - 2)
            / sphere_volume(p)
            * np.cos(alpha) ** i * np.sin(alpha) ** (p - i - 1) / (p - i - 1))


def _kinematic_block(args):
    p, i, alpha, seed, index, count = args
    rng = RngStream(seed, index + 1)
    z = rng.generator.standard_normal((count, p + 1))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    # distance to S^{i+1} = {x_{i+2} = ... = x_p = 0}
    sin_rho = np.linalg.norm(z[:, i + 2:], axis=1)
    cos_rho = np.sqrt(np.clip(1.0 - sin_rho**2, 0.0, 1.0))
    inside = cos_rho > np.cos(alpha)
    cos_delta = np.zeros(count)
    cos_delta[inside] = np.cos(alpha) / cos_rho[inside]
    vals = np.where(inside, cos_delta**i, 0.0)
    return vals.sum()


def verify_kinematic(p: int, i: int, alpha: float, samples: int,
                     rng: RngStream, workers: int = 1):
    """Check the kinematic identity for geodesic spheres.

    Returns (lhs, analytic_rhs, mc_rhs) where lhs is the exact curvature
    integral, analytic_rhs its closed-form slice average (must agree to
    1e-10 relative), and mc_rhs a Monte Carlo estimate of the average.
    """
    if p < 2 or not 0 <= i < p - 1:
        raise ValueError("need p >= 2 and 0 <= i < p - 1")
    if not 0.0 < alpha <= np.pi / 2:
        raise ValueError("alpha must lie in (0, pi/2]")
    lhs = geodesic_sphere_mu(p, alpha, i)
    analytic = kinematic_rhs_analytic(p, i, alpha)
    parts = run_blocks(_kinematic_block, (p, i, alpha, rng.master_seed), samples, workers)
    total = float(np.sum(parts))
    scale = kinematic_constant(p, i) * sphere_volume(i)
    mean = total / samples
    # integrand scaled to [0, 1]; generalized Clopper-Pearson on the mean
    lo, hi = clopper_pearson(total, samples)
    est = McEstimate(estimate=scale * mean, ci_low=scale * lo, ci_high=scale * hi,
                     samples=samples, seed=rng.master_seed)
    return lhs, analytic, est


def subsphere_tube_cap_ratio_exact(p: int, eps: float) -> float:
    """Closed-form tube/cap ratio for the equator subsphere and the full cap."""
    return subsphere_tube_volume(p, 1, eps) / sphere_volume(p)


def load_curve(path: str, **kw) -> CurveVariety:
    with open(path) as fh:
        return CurveVariety.from_json(json.load(fh), **kw)
