"""Variety distance oracles, Monte Carlo tube estimates, and exact checks.

Varieties are symmetric subsets of S^p with an attached projective
distance evaluator: great subspheres (exact), rank-deficient n x m matrices via the
smallest singular value (exact: Gram-Schmidt for m <= 2; for m >= 3, one bidiagonal
Laguerre kernel where n <= 32 and n m^2 <= 8192, which ends past s_min^2 only by
round-off, and LAPACK's SVD beyond), and
plane curves on S^2 via a mesh of Newton-projected hemisphere lattice points with
Newton refinement (upper bound on the true distance). The curve oracle finds each
query's nearest mesh point among the candidates of its cube-map cell; its Newton
kernel holds points as three contiguous coordinate columns, and takes f and the
gradient from one multiply-only power table per step.

The kinematic check draws one Gaussian sample per block for all its (p, i) cases.
"""

from __future__ import annotations

import atexit
import functools
import json
import math

import numpy as np

from .bounds import _log_binom
from .conditioning import WeylPolynomial, _sum
from .geometry import Cap, _gauss_legendre, j_integral, kinematic_constant, sphere_volume
from .sampling import RngStream, sample_uniform_cap


# ---------------------------------------------------------------------------
# confidence intervals


def clopper_pearson(successes: int, trials: int, level: float = 0.99):
    """Clopper-Pearson interval for a binomial proportion; integer counts only."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    from scipy.special import betaincinv  # slow to import; only `estimate` needs it

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


def empirical_bernstein(n: int, mean: float, m2: float):
    """Two-sided 99% interval for the mean of n i.i.d. samples in [0, 1], given their
    (n, mean, M2): the empirical-Bernstein bound (Maurer and Pontil 2009, Theorem 4)
    at 0.005 on each side, clipped to [0, 1]."""
    if n < 2:
        return 0.0, 1.0
    log_term = math.log(400.0)  # ln(4 / (1 - 0.99))
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


def _dot(x: list, y: list) -> np.ndarray:
    """Row-wise dot product of two lists of component arrays, summed left to right."""
    return functools.reduce(np.add, map(np.multiply, x, y))


def _gram_schmidt_smin(mats: np.ndarray) -> np.ndarray:
    """Smallest singular values of a stack (N, n, m) of n x m matrices, n >= m, m <= 2:
    r_11, or r_11 r_22 / s_1, from the triangular factor R that modified Gram-Schmidt
    gives on columns held as lists of length-N component arrays, in O(n) time and memory
    per matrix (backward stable, Bjorck and Paige 1992; q = 0 where r_11 = 0, as at E_11).
    2 s_1^2 = alpha + beta + |(alpha - beta, 2 gamma)| for R^T R = [[alpha, gamma],
    [gamma, beta]] sums squares only, so s_1 = s_2 costs no accuracy, where
    (T - sqrt(T^2 - 4 D)) / 2 loses sqrt(eps)."""
    a = [list(col) for col in np.ascontiguousarray(mats.transpose(2, 1, 0))]
    r11 = np.sqrt(_dot(a[0], a[0]))
    if len(a) == 1:
        return r11
    inv = np.divide(1.0, r11, out=np.zeros_like(r11), where=r11 > 0.0)
    q = [ai * inv for ai in a[0]]
    r12 = _dot(q, a[1])
    rest = [ai - r12 * qi for ai, qi in zip(a[1], q)]
    r22 = np.sqrt(_dot(rest, rest))
    alpha, beta, gamma = r11 * r11, r12 * r12 + r22 * r22, r11 * r12
    d, g = alpha - beta, 2.0 * gamma  # np.hypot(d, g) took 5x as long, same errors
    return r11 * r22 / np.sqrt((alpha + beta + np.sqrt(d * d + g * g)) / 2.0)


def _components(mats: np.ndarray) -> np.ndarray:
    """The (m, n, N) C-ordered copy of a stack (N, n, m), so that [j][i] is the array of
    A_ij over the stack. It is copied 256 matrices at a time, which stay in cache: for
    8192 8 x 8 matrices, np.array of the transposed view took 4.8 ms and this 0.9 ms."""
    out = np.empty(mats.shape[::-1])
    for s in range(0, len(mats), 256):
        out[..., s:s + 256] = mats[s:s + 256].transpose(2, 1, 0)
    return out


def _reflect(x: list, ys: list) -> np.ndarray:
    """Apply to each vector of `ys`, in place, the Householder reflection that maps x to
    (-+|x|, 0, ..., 0), and return |x|^2. Vectors are lists of length-N component arrays.
    As in LAPACK's dlarfg, H = I - tau v v^T with v = (1, x_1 / v_0, ...), v_0 = x_0 +
    sign(x_0) |x| and tau = |v_0| / |x|: nothing cancels, |v_i| <= 1 <= tau <= 2, a zero
    x reflects nothing, and where x has one nonzero entry H is an exact signed swap."""
    x2 = _dot(x, x)
    alpha = np.sqrt(x2)
    v0 = x[0] + np.copysign(alpha, x[0])
    nonzero = alpha > 0.0
    tau = np.divide(np.abs(v0), alpha, out=np.zeros_like(x2), where=nonzero)
    v = [np.divide(xi, v0, out=np.zeros_like(x2), where=nonzero) for xi in x[1:]]
    tmp = np.empty_like(x2)
    for y in ys:  # y -= tau (v . y) v, in place
        w = y[0].copy()
        for vi, yi in zip(v, y[1:]):
            w += np.multiply(vi, yi, out=tmp)
        w *= tau
        y[0] -= w
        for vi, yi in zip(v, y[1:]):
            yi -= np.multiply(w, vi, out=tmp)
    return x2


# Rows with mu_0 below _MU_FLOOR (s_min below about 1e-45) take LAPACK's SVD: above it
# a positive pivot is at least about eps mu / 4, so 1 / t^2 and every sum of the
# recurrence stay below about 1e216. A row open after _LAGUERRE_STEPS passes raises; test
# rows took up to 8 without a cluster, 23 with one, and 68 with planted 16 x 16 clusters.
_MU_FLOOR = 2.0 ** -300
_LAGUERRE_TOL = 2.0 * np.finfo(float).eps
_LAGUERRE_STEPS = 100


def _laguerre(mu: np.ndarray, d2: list, e2: list, de2: list) -> tuple:
    """At mu: whether every pivot is positive (mu < lambda), Laguerre's step (0 where
    not), its rounding bound, S_1 and S_2 (garbage where a pivot is <= 0). Round-off
    k eps S_1^2 in m S_2 - S_1^2 = R^2 / (m - 1) moves the step by (m - 1) k eps
    (step S_1)^2 / (2 m R); the bound puts 64 eps for (m - 1) k eps / 2, mid-way in the
    range that measured safe (1 to 3e3 eps). As R moves by at most sqrt(d R^2), the step
    moves by at most sqrt(128 eps) step^2 S_1 / m, the bound where R < 8.4e-8 S_1: flat rows
    (R about 0, a cluster) keep a finite bound, which shrinks with the step."""
    m = len(d2)
    s, s1, s2, S1, S2, below = mu, 1.0, 0.0, 0.0, 0.0, True
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(m):
            t = d2[k] - s
            below = below & (t > 0.0)
            q = 1.0 / t
            g = s1 * q
            S1 = S1 + g
            S2 = S2 + (s2 * q + g * g)
            if k + 1 < m:
                r = de2[k] * q * q
                s2 = r * (s2 + 2.0 * g * s1)
                s1 = 1.0 + r * s1
                s = mu + e2[k] * s * q
        root = np.sqrt(np.maximum((m - 1) * (m * S2 - S1 * S1), 0.0))
        step = m / np.where(below, S1 + root, np.inf)
        eps = np.finfo(float).eps
        err = step * step * S1 / m * np.minimum(64.0 * eps * S1 / root, np.sqrt(128.0 * eps))
    return below, step, err, S1, S2


def _bracketed_smin(lo: np.ndarray, hi: np.ndarray, mu: np.ndarray, d2: list, e2: list,
                    de2: list):
    """sqrt(mu) for a mu within _LAGUERRE_TOL mu below lambda, on rows with lo < lambda
    < hi by the pivot signs, from mu if that is above lo, else the midpoint. Each pass
    probes mu and moves lo or hi there. A row ends at hi - lo <= _LAGUERRE_TOL mu, or at
    a probe below lambda with S_1 / S_2 <= that, as lambda - mu <= S_1 / S_2 (each term
    of S_2 is at most S_1 / (lambda - mu)). The next probe is Laguerre's point, capped at
    hi and lowered by its rounding bound (at least _LAGUERRE_TOL mu / 2), if that is above
    lo, else the midpoint."""
    out, idx = np.empty_like(lo), np.arange(len(lo))
    mu = np.where(mu > lo, mu, 0.5 * (lo + hi))
    for _ in range(_LAGUERRE_STEPS):
        below, step, err, S1, S2 = _laguerre(mu, d2, e2, de2)
        lo, hi = np.where(below, mu, lo), np.where(below, hi, mu)
        tol = _LAGUERRE_TOL * mu
        done = ~(hi - lo > tol) | (below & ~(S1 > tol * S2))
        out[idx[done]] = np.sqrt(lo[done])
        probe = np.minimum(mu + step, hi) - np.maximum(err, 0.5 * tol)
        mu = np.where(below & (probe > lo), probe, 0.5 * (lo + hi))
        keep = ~done
        idx, mu, lo, hi = idx[keep], mu[keep], lo[keep], hi[keep]
        if not idx.size:
            return out
        d2, e2, de2 = ([x[keep] for x in xs] for xs in (d2, e2, de2))
    raise np.linalg.LinAlgError(f"Laguerre iteration did not converge in {_LAGUERRE_STEPS} steps")


def _bidiagonal_smin(mats: np.ndarray) -> np.ndarray:
    """Smallest singular values of a stack (N, n, m) of n x m matrices, n >= m >= 2.

    Householder reflections, left on column k and right on row k, on columns held as
    lists of length-N component arrays, give the upper bidiagonal B = U^T A V with
    squared diagonal d^2 and superdiagonal e^2 (backward stable; Golub and Kahan 1965).
    A zero d_k makes the row exactly singular, and it gives 0.0; so does a d_k whose
    square underflows, which is within |d_k| < 1.5e-154 of s_min, as s_min <= |d_k|.

    lambda = s_min^2 is the smallest root of det(B^T B - mu) = prod t_k, the pivots of
    s_1 = mu, t_k = d_k^2 - s_k, s_{k+1} = mu + e_k^2 s_k / t_k. That is the Golub-Kahan
    Sturm recurrence q_1 = -x, q_k = -x - b_{k-1}^2 / q_{k-1} on b = (d_1, e_1, ..., d_m)
    at x = sqrt(mu), taken in pairs (t_k = -q_{2k-1} q_{2k}), and it is relatively
    accurate (Demmel and Kahan 1990). Below lambda every t_k is positive. The same pass
    gives s'_{k+1} = 1 + r_k s'_k and s''_{k+1} = r_k (s''_k + 2 s'_k^2 / t_k), with
    r_k = (d_k e_k / t_k)^2, and sums S_1 = sum s'_k / t_k = sum 1 / (lambda_i - mu) and
    S_2 = sum s''_k / t_k + (s'_k / t_k)^2 = sum 1 / (lambda_i - mu)^2: positive terms.

    The start is mu_0 = 1 / |B^-1|_F^2, so mu_0 <= lambda <= m mu_0: row i of B^-1 has
    the squared norm c_i = (1 + e_i^2 c_{i+1}) / d_i^2, which cancels nothing. From the
    left of the smallest root, Laguerre's step m / (S_1 + sqrt((m - 1)(m S_2 - S_1^2)))
    rises monotonically to it and is exact for a root of multiplicity m. A row stops when
    its step is at most _LAGUERRE_TOL mu, or at a pivot <= 0, past lambda. There it ends
    if round-off could not have moved its last step by more than _LAGUERRE_TOL mu; else
    (m S_2 - S_1^2 cancelled, as on near-full clusters) `_bracketed_smin` finishes it
    between that step's ends, from its end lowered by that bound. A finished row leaves
    the arrays: its bits do not depend on the batch."""
    a = [list(col) for col in _components(mats)]  # a[j][i] = A_ij
    n, m = len(a[0]), len(a)
    d2, e2 = [], []
    for k in range(m):
        d2.append(_reflect(a[k][k:], [a[j][k:] for j in range(k + 1, m)]))
        if k + 1 < m:
            rows = [[a[j][i] for j in range(k + 1, m)] for i in range(k + 1, n)]
            e2.append(_reflect([a[j][k] for j in range(k + 1, m)], rows))
    out = np.zeros(len(mats))
    # a zero d_k gives c = inf and mu_0 = 0; an overflowing c (s_min below about 1e-154)
    # gives 0 or NaN: either way the row is singular or below _MU_FLOOR
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = 1.0 / d2[-1]
        total = c
        for k in range(m - 2, -1, -1):
            c = (1.0 + e2[k] * c) / d2[k]
            total = total + c
    mu = 1.0 / total
    low = ~(mu >= _MU_FLOOR) & (functools.reduce(np.minimum, d2) > 0.0)
    if low.any():
        out[low] = np.linalg.svd(mats[low], compute_uv=False)[:, -1]
    idx = np.flatnonzero(mu >= _MU_FLOOR)
    mu, d2, e2 = mu[idx], [x[idx] for x in d2], [x[idx] for x in e2]
    de2 = [d * e for d, e in zip(d2, e2)]
    lo, slack = mu, np.zeros(len(mu))
    for _ in range(_LAGUERRE_STEPS):
        below, step, err, _, _ = _laguerre(mu, d2, e2, de2)
        prev, mu = mu, mu + step
        done = ~(step > _LAGUERRE_TOL * mu)
        out[idx[done]] = np.sqrt(mu[done])
        past = (slack > _LAGUERRE_TOL * prev) & ~below
        if past.any():
            out[idx[past]] = _bracketed_smin(lo[past], prev[past], (prev - slack)[past],
                                             *([x[past] for x in xs] for xs in (d2, e2, de2)))
        lo, slack = prev, err
        if done.any():
            keep = ~done
            idx, mu, lo, slack = idx[keep], mu[keep], lo[keep], slack[keep]
            d2, e2, de2 = ([x[keep] for x in xs] for xs in (d2, e2, de2))
        if not idx.size:
            return out
    raise np.linalg.LinAlgError(f"Laguerre iteration did not converge in {_LAGUERRE_STEPS} steps")


class DeterminantVariety(Variety):
    """Rank-deficient n x m matrices (n >= m; square if m is None) on S^{nm-1}, cut out
    by the m x m minors; distance is the smallest singular value (Eckart-Young).

    m <= 2: Gram-Schmidt to R, then r_11 or a closed form (`_gram_schmidt_smin`): O(n)
    per matrix, within 4.5e-16 of a 50-digit SVD on unit matrices up to 200 x 2.

    m >= 3, n <= 32 and n m^2 <= 8192: Householder bidiagonalization, then Laguerre's
    iteration on the qd pivots of B^T B (`_bidiagonal_smin`), which ends past s_min^2
    only by round-off. On 10492 unit matrices of the test families (3 x 3 to 16 x 16,
    near-full clusters of singular values included) it was within 3.3e-16 of a 50-digit
    SVD, and at most 2.2e-16 above it; LAPACK erred by up to 7.8e-15. Per 8192-matrix
    block of cap samples on one BLAS thread it took 3.3 ms at 3 x 3 to 150 ms at
    32 x 16, against LAPACK's 13 and 173.

    Other m >= 3: LAPACK's SVD, which works in cache on one matrix at a time while the
    kernel makes about 4 n m^2 passes over length-N arrays: 200 x 3 (53 ms, LAPACK 39),
    200 x 4, 32 x 24 and 32 x 32 lost, 32 x 20 was even."""

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
        if self.m <= 2:
            return _gram_schmidt_smin(mats)
        if self.n <= 32 and self.n * self.m ** 2 <= 8192:
            return _bidiagonal_smin(mats)
        return np.linalg.svd(mats, compute_uv=False)[:, -1]


# hemisphere lattice size; the mesh keeps about sqrt(2 _MESH_SIZE / pi) points per
# unit of curve length (645 for x^2 - y^2, 1281 for the quartic). A coarser mesh
# errs more between branches near crossings: at 4096 distances ran up to 0.0204
# over the exact ones, at 8192 caps around a crossing lost tube hits.
_MESH_SIZE = 16384
_NEWTON_STEPS = 2
# rows per pass of the Newton refinement (the nearest-point search takes _BLOCK), cells
# per side of a cube-map face, and |dot|s per matmul (256 kB): these bound temporaries
_CHUNK_ROWS = 4096
_CELLS = 6  # searched as fast as 8 (5 was slower) and built in about half the time
_DOT_ENTRIES = 1 << 15


def _col_dot(a: list, b: list) -> np.ndarray:
    """Row-wise dot products of points held as three coordinate columns:
    (a0 b0 + a1 b1) + a2 b2, the bits of np.sum(a * b, axis=1) on the (N, 3) rows."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _col_cross(a: list, b: list) -> list:
    """Row-wise cross products of points held as three coordinate columns, with
    np.cross's operations: each component is one product minus another."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


@functools.cache
def _cell_geometry() -> tuple:
    """Centres (unit vectors) and circumradii of the cube-map cells of `CurveVariety`."""
    w = np.linspace(-1.0, 1.0, _CELLS + 1)
    face = np.stack(np.broadcast_arrays(1.0, w[:, None], w[None, :]), axis=-1)
    corners = np.stack([np.roll(face, k, axis=-1) for k in range(3)])  # x_k = 1 on face k
    corners /= np.linalg.norm(corners, axis=-1, keepdims=True)
    quad = [corners[:, i:i + _CELLS, j:j + _CELLS] for i in (0, 1) for j in (0, 1)]
    centres = sum(quad) / np.linalg.norm(sum(quad), axis=-1, keepdims=True)
    cos_r = np.minimum(np.minimum.reduce([np.sum(centres * q, axis=-1) for q in quad]), 1.0)
    return centres.reshape(-1, 3), np.arccos(cos_r.ravel())


class CurveVariety(Variety):
    """Zero set on S^2 of the homogeneous polynomial `poly` in three variables.

    The mesh is a Fibonacci lattice on the upper hemisphere, cut to the
    points within one lattice spacing of the curve and Newton-projected onto
    it. Distance: the mesh point nearest up to sign, then two rounds of
    tangential sliding and Newton reprojection. The reported distance is an
    upper bound of the true distance.

    The nearest point is the first largest |dot| with the mesh, over the candidates
    of the query's cube-map cell (`_nearest`). A cell is the hull of its corners, and
    caps of radius <= pi / 2 are convex, so it lies within its circumradius r of its
    centre c. With d_c the angle from c to its nearest mesh point up to sign, each
    query in the cell is within r + d_c of a mesh point, so its nearest is within
    d_c + 2 r of c. The candidates, ascending, are the m_j with |<c, m_j>| >=
    cos(d_c + 2 r + 1e-6): 1e-6 covers round-off (eps in a |dot| near 1 moves an angle
    by 2e-8), so every maximum and tie is a candidate. Rows never interact, so any
    split of the queries gives the same bits.

    The Newton kernel (`_project`, the refinement in `distances`, the mesh build)
    holds points as three coordinate columns, not (N, 3) rows: one power table per
    step gives f and its gradient (`WeylPolynomial.value_and_gradient`), and dot and
    cross products keep the operations and order of the row layout.
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
        self._mesh_t = np.ascontiguousarray(self._mesh.T)  # also the mesh's columns
        self._build_cells()

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

    def _tangential_grad(self, x: list) -> tuple:
        """f and the surface gradient g - <g, x> x at the points with columns x."""
        f, g = self.poly.value_and_gradient(x)
        dot = _col_dot(g, x)
        return f, [gk - xk * dot for gk, xk in zip(g, x)]

    def _project(self, x: list, steps: int) -> list:
        """Newton steps moving points onto the curve along the surface gradient."""
        for _ in range(steps):
            f, g = self._tangential_grad(x)
            gn = _col_dot(g, g)
            s = f / np.where(gn < 1e-30, 1.0, gn)
            x = [xk - s * gk for xk, gk in zip(x, g)]
            norm = np.sqrt(_col_dot(x, x))
            x = [xk / norm for xk in x]
        return x

    def _build_mesh(self) -> np.ndarray:
        # f(-x) = +-f(x), so a Fibonacci lattice on the upper hemisphere sees every
        # component; lattice points within one spacing of the curve to first order
        # are Newton-projected onto it, and those that converge are kept
        k = np.arange(_MESH_SIZE) + 0.5
        z = k / _MESH_SIZE
        phi = k * (math.pi * (3.0 - math.sqrt(5.0)))
        r = np.sqrt(1.0 - z * z)
        lattice = [r * np.cos(phi), r * np.sin(phi), z]
        f, grad = self._tangential_grad(lattice)
        slope = np.sqrt(_col_dot(grad, grad))
        near = np.abs(f) <= math.sqrt(2.0 * math.pi / _MESH_SIZE) * slope
        mesh = self._project([xk[near] for xk in lattice], steps=16)
        on = np.abs(self.poly.value_and_gradient(mesh)[0]) < 1e-9
        return np.stack([xk[on] for xk in mesh], axis=1)

    def _build_cells(self):
        (centres, radius), size = _cell_geometry(), self._mesh_t.shape[1]
        step, cand, self._cand_at = max(1, _DOT_ENTRIES // size), [], [0]  # cells per pass
        for s in range(0, len(centres), step):
            dots = np.abs(np.matmul(centres[s:s + step], self._mesh_t))
            reach = np.arccos(np.minimum(dots.max(axis=1), 1.0)) + 2.0 * radius[s:s + step] + 1e-6
            flat = np.flatnonzero(dots >= np.cos(np.minimum(reach, np.pi))[:, None])
            ends = np.searchsorted(flat, np.arange(size, dots.size + 1, size))
            cand.append(flat % size)
            self._cand_at += (self._cand_at[-1] + ends).tolist()
        self._cand = np.concatenate(cand).astype(np.int32)

    def _nearest(self, rows: np.ndarray) -> np.ndarray:
        """The first largest |<x, m_j>| for each row x, one matmul per cell. x and -x share
        the cell (k _CELLS + i) _CELLS + j: k is the first index of max |x_i|, and i, j are
        the bins of u = x_{k+1} / x_k and v = x_{k+2} / x_k in _CELLS equal steps of [-1, 1]."""
        x, a = list(rows.T), np.abs(rows.T)
        on0, on1 = a[0] >= np.maximum(a[1], a[2]), a[1] >= a[2]
        xk, u, v = (np.where(on0, x[i], np.where(on1, x[i - 2], x[i - 1])) for i in range(3))
        i, j = (np.minimum((w / xk + 1.0) * _CELLS / 2, _CELLS - 1).astype(np.int16) for w in (u, v))
        cell = ((np.where(on0, 0, 2 - on1) * _CELLS + i) * _CELLS + j).astype(np.int16)
        order = np.argsort(cell, kind="stable")
        at, ends = self._cand_at, np.searchsorted(cell[order], np.arange(len(self._cand_at)))
        grouped, idx = rows[order], np.empty(rows.shape[0], dtype=np.int32)
        for c in np.flatnonzero(np.diff(ends)).tolist():
            ids = self._cand[at[c]:at[c + 1]]
            cols, block = np.take(self._mesh_t, ids, axis=1), max(1, _DOT_ENTRIES // ids.size)
            for s in range(ends[c], ends[c + 1], block):
                dots = np.matmul(grouped[s:min(s + block, ends[c + 1])], cols)
                np.abs(dots, out=dots)
                idx[order[s:s + dots.shape[0]]] = ids[dots.argmax(axis=1)]
        return idx

    def distances(self, points: np.ndarray) -> np.ndarray:
        out = np.empty(points.shape[0])
        for start in range(0, points.shape[0], _CHUNK_ROWS):
            chunk = points[start:start + _CHUNK_ROWS]
            if start % _BLOCK == 0:  # nearest mesh points for _BLOCK rows, a multiple of the chunk
                near = self._nearest(points[start:start + _BLOCK])
            z = list(np.ascontiguousarray(chunk.T))
            best = [col[near[start % _BLOCK:][:chunk.shape[0]]] for col in self._mesh_t]
            # align hemispheres so the refinement target is the nearer antipode
            flip = _col_dot(best, z) < 0
            for bk in best:
                bk[flip] *= -1.0
            for _ in range(_NEWTON_STEPS):
                # slide along the curve tangent toward the query point
                _, g = self._tangential_grad(best)
                gn = np.sqrt(_col_dot(g, g))
                gn = np.where(gn < 1e-30, 1.0, gn)
                t = _col_cross(best, [gk / gn for gk in g])
                step = _col_dot([zk - bk for zk, bk in zip(z, best)], t)
                best = [bk + step * tk for bk, tk in zip(best, t)]
                norm = np.sqrt(_col_dot(best, best))
                best = self._project([bk / norm for bk in best], steps=3)
            # |best x z| = sin of the angle, accurate also next to the curve
            cross = _col_cross(best, z)
            out[start:start + _CHUNK_ROWS] = np.sqrt(_col_dot(cross, cross))
        return out


# ---------------------------------------------------------------------------
# Monte Carlo tube/cap ratio

_BLOCK = 8192  # fixed block size keeps results independent of worker count
_pool = None  # (size, ProcessPoolExecutor) kept for the next run of that size


@atexit.register
def _drop_pool():
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def run_blocks(kernel, args: tuple, samples: int, workers: int = 1) -> list:
    """kernel((*args, index, count)) for the blocks of at most _BLOCK samples, in block order.

    Each kernel returns a fixed-size reduction of its block, and callers fold
    the list in block order: the result does not depend on the worker count,
    nor memory on samples.

    workers > 1 run in one process pool of min(workers, blocks), each sent one contiguous
    run of blocks. It serves every later run of its size; another size replaces it, a dead
    worker replaces it and the run goes again (once), and it is shut down at exit. Forked
    workers run the library as it was when the pool started: patch it only at workers=1.
    """
    global _pool
    if samples < 1:
        raise ValueError("samples must be >= 1")
    blocks = [(*args, idx, min(_BLOCK, samples - start))
              for idx, start in enumerate(range(0, samples, _BLOCK))]
    workers = min(workers, len(blocks))
    if workers <= 1:
        return [kernel(b) for b in blocks]
    from concurrent.futures import ProcessPoolExecutor, process  # a serial run starts no pool

    for retry in (False, True):
        if _pool is None or _pool[0] != workers:
            _drop_pool()
            _pool = (workers, ProcessPoolExecutor(max_workers=workers))
        try:
            return list(_pool[1].map(kernel, blocks, chunksize=-(-len(blocks) // workers)))
        except process.BrokenProcessPool:
            _drop_pool()
            if retry:
                raise


def _moments(x: np.ndarray) -> tuple[int, float, float]:
    """(n, mean, M2) of one block; M2 = sum (x - mean)^2."""
    mean = float(np.mean(x))
    return x.size, mean, float(np.sum((x - mean) ** 2))


def _log_moments(d: np.ndarray) -> tuple[int, float, float]:
    """(n, mean, M2) of lk = ln C = -ln sigma_min over one block: the `reduce` that
    `estimate logmean` sends to workers, so it lives where its names are imported."""
    return _moments(-np.log(np.maximum(d, 1e-300)))


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
    j = j_integral(p, np.arange(1, p + 1), beta).tolist()  # one call; the sum stays in order
    rhs = 2.0 * sum(ji * geodesic_sphere_mu(p, alpha, i) for i, ji in enumerate(j))
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
    """Per case (p, i) of `cases`, (n, mean, M2) of cos^i delta over `count` uniform
    points of S^p: 0 where the point's angle rho to S^{i+1} = {x_{i+2} = ... = x_p = 0}
    is alpha or more, and cos delta = cos alpha / cos rho otherwise. A point is g / |g|
    for a standard Gaussian g, and cos^2 rho = sum_{j < i+2} g_j^2 / |g|^2 does not
    depend on the scale, so g is never normalised.

    One draw of count (max p + 1) normals from stream index + 1, squared once, serves
    every case: the generator fills normals in sequence, so the first count (p + 1) of
    them are the (count, p + 1) draw that case would make alone, and get its bits."""
    cases, alpha, seed, index, count = args
    width = max(p for p, _ in cases) + 1
    flat = RngStream(seed, index + 1).generator.standard_normal(count * width)
    flat *= flat
    cos2_alpha = math.cos(alpha) ** 2
    parts = []
    for p, i in cases:
        sq = flat[:count * (p + 1)].reshape(count, p + 1)
        near = _sum(sq[:, :i + 2])  # np.sum's bits on rows this short, without its strided pass
        cos2_rho = near / (near + _sum(sq[:, i + 2:]))
        inside = cos2_rho > cos2_alpha
        ratio = cos2_alpha / np.maximum(cos2_rho, cos2_alpha)  # 1 outside the cap, then zeroed
        parts.append(_moments(np.where(inside, ratio ** (0.5 * i), 0.0)))
    return parts


def verify_kinematic(cases, alpha: float, samples: int, seed: int, workers: int = 1) -> list:
    """Check the kinematic identity for geodesic spheres by Monte Carlo, for each
    (p, i) of `cases` at the cap radius alpha, on one shared sample.

    Returns one (lhs, estimate, ci_low, ci_high) per case: lhs is the exact curvature
    integral, and estimate a Monte Carlo estimate of its slice average with a 99%
    empirical-Bernstein interval [ci_low, ci_high]. A case's estimate does not depend
    on the other cases. A bad (p, i, alpha) raises ValueError before any sampling.
    """
    cases = tuple(cases)
    if not cases:
        raise ValueError("need at least one (p, i) case")
    lhs = [geodesic_sphere_mu(p, alpha, i) for p, i in cases]  # checks p, alpha, 0 <= i <= p - 1
    scale = [kinematic_constant(p, i) * sphere_volume(i) for p, i in cases]  # checks i < p - 1
    parts = run_blocks(_kinematic_block, (cases, alpha, seed), samples, workers)
    out = []
    for c, (exact, k) in enumerate(zip(lhs, scale)):
        n, mean, m2 = _merge_moments([block[c] for block in parts])
        lo, hi = empirical_bernstein(n, mean, m2)  # the integrand lies in [0, 1]
        out.append((exact, k * mean, k * lo, k * hi))
    return out


def load_curve(path: str) -> CurveVariety:
    """The curve of the JSON document at `path`, one instance per document per process.

    The file is read and parsed on every call; its canonical text (sorted keys, lists in
    their order, so the monomial order that sets the sums' bits is part of it) keys a
    small cache of built curves, so an edited file builds a new one, and a bad document
    raises on every call. Instances are shared between callers and never mutated."""
    with open(path) as fh:
        return _curve(json.dumps(json.load(fh), sort_keys=True))


@functools.lru_cache(maxsize=8)
def _curve(text: str) -> CurveVariety:
    return CurveVariety.from_json(json.loads(text))
