"""Condition number evaluators.

Matrix inversion and Moore-Penrose conditioning via the SVD, eigenvalue
conditioning via left/right eigenvectors, a lower-bound estimator for
the real-eigenvalue condition number, and the Shub-Smale condition
number of polynomial systems under the orthogonally invariant inner
product on homogeneous polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SpherePoint
from .sampling import RngStream


# ---------------------------------------------------------------------------
# matrix condition numbers


def frobenius_condition(a: np.ndarray) -> float:
    """kappa_F(A) = ||A||_F / sigma_min(A); inf for singular A."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    fro = np.linalg.norm(a)
    if fro == 0.0:
        raise ValueError("zero matrix has no condition number")
    smin = np.linalg.svd(a, compute_uv=False)[-1]
    if smin <= 1e-14 * fro:
        return math.inf
    return float(fro / smin)


def moore_penrose_condition(a: np.ndarray) -> float:
    """kappa_F of pseudo-inversion for a tall l x m matrix: ||A||_F / sigma_m."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ValueError("need l >= m; transpose wide matrices first")
    fro = np.linalg.norm(a)
    if fro == 0.0:
        raise ValueError("zero matrix has no condition number")
    smin = np.linalg.svd(a, compute_uv=False)[-1]
    if smin <= 1e-14 * fro:
        return math.inf
    return float(fro / smin)


def eigenvalue_condition(a: np.ndarray, lam: float) -> float:
    """kappa(A, lambda) = ||x|| ||y|| / |<x, y>| for right/left eigenvectors x, y.

    Infinite when the eigenvectors are numerically orthogonal (multiple
    eigenvalue). Raises if lam fails the eigenvalue residual test.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    fro = np.linalg.norm(a)
    u, _, vt = np.linalg.svd(a - lam * np.eye(a.shape[0]))
    x = vt[-1]
    y = u[:, -1]
    if np.linalg.norm(a @ x - lam * x) > 1e-8 * max(fro, 1e-300):
        raise ValueError("lam is not an eigenvalue of A (residual too large)")
    dot = abs(float(np.dot(x, y)))
    if dot <= 1e-12:
        return math.inf
    return 1.0 / dot


# ---------------------------------------------------------------------------
# distance to the set of matrices with a real multiple eigenvalue


def discriminant_distance_2x2(a: np.ndarray, grid: int = 10_000) -> float:
    """Brute-force distance from a 2x2 matrix to {(b11-b22)^2 + 4 b12 b21 = 0}.

    Matrices with a repeated real eigenvalue are exactly lam*I + r*u v^T
    with v orthogonal to u. For each direction u(theta) the best (lam, r)
    is an orthogonal projection, so the distance reduces to a 1-D search
    over theta: dense grid plus local polish.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")

    def nil_overlap_sq(theta):
        c, s = np.cos(theta), np.sin(theta)
        # <A, u v^T> with u = (c, s), v = (-s, c)
        val = a[0, 1] * c * c - a[1, 0] * s * s + (a[1, 1] - a[0, 0]) * s * c
        return val * val

    from scipy.optimize import minimize_scalar  # slow to import; needed only here

    thetas = np.linspace(0.0, np.pi, grid, endpoint=False)
    vals = nil_overlap_sq(thetas)
    j = int(np.argmax(vals))
    h = np.pi / grid
    res = minimize_scalar(lambda t: -nil_overlap_sq(t),
                          bracket=(thetas[j] - h, thetas[j], thetas[j] + h),
                          method="brent", options={"xtol": 1e-14})
    best = max(vals[j], -res.fun)
    dist_sq = np.linalg.norm(a) ** 2 - np.trace(a) ** 2 / 2.0 - best
    return float(np.sqrt(max(dist_sq, 0.0)))


def _charpoly_discriminant(b: np.ndarray) -> float:
    """Discriminant of the characteristic polynomial via the Sylvester resultant."""
    coeffs = np.poly(b)  # leading coefficient 1
    n = len(coeffs) - 1
    dcoeffs = np.polyder(coeffs)
    size = 2 * n - 1
    syl = np.zeros((size, size))
    for i in range(n - 1):
        syl[i, i:i + n + 1] = coeffs
    for i in range(n):
        syl[n - 1 + i, i:i + n] = dcoeffs
    sign = (-1.0) ** (n * (n - 1) // 2)
    return sign * float(np.linalg.det(syl))


def real_eigen_condition_lower(a: np.ndarray, restarts: int = 8, iters: int = 200,
                               rng: RngStream | None = None) -> float:
    """Lower bound on sqrt(2) ||A||_F / dist(A, real-multiple-eigenvalue set).

    The distance is estimated by local searches for a nearby matrix with
    vanishing characteristic-polynomial discriminant; any feasible point
    overestimates the distance, so the returned value never exceeds the
    true condition number. Capped at 1e15.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n or n < 2:
        raise ValueError("need a square matrix with n >= 2")
    fro = np.linalg.norm(a)
    if fro == 0.0:
        raise ValueError("zero matrix")
    ahat = a / fro
    if rng is None:
        rng = RngStream(0)
    gen = rng.generator

    if n == 2:
        constraint = lambda v: (v[0] - v[3]) ** 2 + 4.0 * v[1] * v[2]
    else:
        constraint = lambda v: _charpoly_discriminant(v.reshape(n, n))

    from scipy.optimize import minimize  # slow to import; needed only here

    x0s = [ahat.ravel()]
    x0s += [ahat.ravel() + 0.1 * gen.standard_normal(n * n) for _ in range(restarts - 1)]
    best = math.inf
    for x0 in x0s:
        res = minimize(
            lambda v: np.sum((v - ahat.ravel()) ** 2),
            x0,
            jac=lambda v: 2.0 * (v - ahat.ravel()),
            constraints=[{"type": "eq", "fun": constraint}],
            method="SLSQP",
            options={"maxiter": iters, "ftol": 1e-14},
        )
        v = res.x
        if abs(constraint(v)) <= 1e-8 * max(1.0, np.linalg.norm(v) ** (2 * max(n - 1, 1))):
            # polish feasibility: project along the constraint gradient
            for _ in range(50):
                g = _numeric_grad(constraint, v)
                c = constraint(v)
                gn = np.dot(g, g)
                if gn < 1e-30 or abs(c) < 1e-14:
                    break
                v = v - (c / gn) * g
            best = min(best, float(np.linalg.norm(v - ahat.ravel())))
    if best <= 1e-15 or not np.isfinite(best):
        return 1e15
    return min(math.sqrt(2.0) / best, 1e15)


def _numeric_grad(fun, v: np.ndarray, h: float = 1e-7) -> np.ndarray:
    g = np.empty_like(v)
    for i in range(v.size):
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        g[i] = (fun(vp) - fun(vm)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# homogeneous polynomial systems


@dataclass(frozen=True)
class WeylPolynomial:
    """A homogeneous polynomial in n+1 variables, stored by multi-index."""

    n: int
    degree: int
    coefficients: dict

    def __post_init__(self):
        if self.n < 1 or self.degree < 1:
            raise ValueError("need n >= 1 and degree >= 1")
        clean = {}
        for alpha, c in self.coefficients.items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != self.n + 1 or any(e < 0 for e in alpha):
                raise ValueError(f"bad multi-index {alpha}")
            if sum(alpha) != self.degree:
                raise ValueError(f"multi-index {alpha} does not sum to degree {self.degree}")
            if c != 0.0:
                clean[alpha] = float(c)
        object.__setattr__(self, "coefficients", clean)

    def __call__(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for alpha, c in self.coefficients.items():
            total += c * math.prod(x[i] ** e for i, e in enumerate(alpha) if e)
        return total

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = np.zeros(self.n + 1)
        for alpha, c in self.coefficients.items():
            for i, e in enumerate(alpha):
                if e == 0:
                    continue
                term = c * e
                for j, ej in enumerate(alpha):
                    pw = ej - 1 if j == i else ej
                    if pw:
                        term *= x[j] ** pw
                g[i] += term
        return g


@dataclass(frozen=True)
class PolySystem:
    """A square system: n homogeneous polynomials in n+1 variables."""

    polys: tuple

    def __post_init__(self):
        polys = tuple(self.polys)
        if not polys:
            raise ValueError("empty system")
        n = polys[0].n
        if len(polys) != n or any(f.n != n for f in polys):
            raise ValueError("need exactly n polynomials in n+1 variables")
        object.__setattr__(self, "polys", polys)

    @property
    def n(self) -> int:
        return self.polys[0].n

    @property
    def degrees(self) -> tuple:
        return tuple(f.degree for f in self.polys)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.array([f(x) for f in self.polys])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return np.stack([f.gradient(x) for f in self.polys])


def _multinomial(d: int, alpha) -> float:
    out = math.factorial(d)
    for e in alpha:
        out //= math.factorial(e)
    return float(out)


def weyl_inner(f, g) -> float:
    """Inner product with inverse-multinomial weights; orthogonally invariant."""
    if isinstance(f, PolySystem):
        if not isinstance(g, PolySystem) or f.degrees != g.degrees or f.n != g.n:
            raise ValueError("system mismatch")
        return sum(weyl_inner(fi, gi) for fi, gi in zip(f.polys, g.polys))
    if f.n != g.n or f.degree != g.degree:
        raise ValueError("degree or variable-count mismatch")
    total = 0.0
    for alpha, c in f.coefficients.items():
        if alpha in g.coefficients:
            total += c * g.coefficients[alpha] / _multinomial(f.degree, alpha)
    return total


def weyl_norm(f) -> float:
    return math.sqrt(weyl_inner(f, f))


def system_projective_distance(f: PolySystem, g: PolySystem) -> float:
    """sin of the angle between two unit-norm systems under the Weyl product."""
    cosang = weyl_inner(f, g) / (weyl_norm(f) * weyl_norm(g))
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, abs(cosang)) ** 2)))


def _tangent_basis(zeta: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of zeta, as columns."""
    n1 = zeta.size
    # householder-based completion: columns 2..n1 of any orthogonal matrix
    # with first column zeta
    q, _ = np.linalg.qr(np.column_stack([zeta, np.eye(n1)[:, : n1 - 1]]))
    if np.dot(q[:, 0], zeta) < 0:
        q = -q
    return q[:, 1:]


def restricted_jacobian(f: PolySystem, zeta: SpherePoint) -> np.ndarray:
    """Df at zeta restricted to an orthonormal basis of the tangent space."""
    return f.jacobian(zeta.coords) @ _tangent_basis(zeta.coords)


def mu_norm(f: PolySystem, zeta: SpherePoint) -> float:
    """Shub-Smale condition number of f at the zero zeta; inf at multiple zeros."""
    if zeta.p != f.n:
        raise ValueError("zeta must lie on S^n")
    norm_f = weyl_norm(f)
    if np.linalg.norm(f(zeta.coords)) > 1e-8 * norm_f:
        raise ValueError("zeta is not a zero of f (residual too large)")
    m = restricted_jacobian(f, zeta)
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] <= 1e-12 * max(svals[0], 1e-300):
        return math.inf
    scaled = np.linalg.solve(m, np.diag(np.sqrt(np.array(f.degrees, dtype=float))))
    return float(norm_f * np.linalg.norm(scaled, 2))


def mu_norm_real_lower(f: PolySystem, zeros) -> float:
    """Max of mu_norm over a list of verified real zeros.

    Lower-bounds the global condition number for real solving and zero
    counting, since each zero's ill-posed set sits inside the global one.
    """
    zeros = list(zeros)
    if not zeros:
        raise ValueError("need at least one zero")
    return max(mu_norm(f, z) for z in zeros)


def _linear_form_power_times(direction: np.ndarray, zeta: np.ndarray,
                             degree: int) -> WeylPolynomial:
    """The polynomial <w, X> <zeta, X>^{degree-1} expanded on monomials."""
    n = zeta.size - 1
    poly = {tuple(int(i == j) for j in range(n + 1)): direction[i]
            for i in range(n + 1) if direction[i] != 0.0}
    for _ in range(degree - 1):
        nxt: dict = {}
        for alpha, c in poly.items():
            for i in range(n + 1):
                if zeta[i] == 0.0:
                    continue
                beta = list(alpha)
                beta[i] += 1
                beta = tuple(beta)
                nxt[beta] = nxt.get(beta, 0.0) + c * zeta[i]
        poly = nxt
    return WeylPolynomial(n=n, degree=degree, coefficients=poly)


def multiple_zero_witness(f: PolySystem, zeta: SpherePoint) -> PolySystem:
    """Nearby system with zeta as a multiple zero, by rank-drop surgery.

    Subtracts from f the smallest rank-one correction that makes the
    restricted derivative at zeta singular, using polynomials that vanish
    at zeta. The result is renormalized to unit norm.
    """
    m = restricted_jacobian(f, zeta)
    u, s, vt = np.linalg.svd(m)
    w = _tangent_basis(zeta.coords) @ vt[-1]
    polys = []
    for i, fi in enumerate(f.polys):
        coeff = s[-1] * u[i, -1]
        if coeff == 0.0:
            polys.append(fi)
            continue
        corr = _linear_form_power_times(coeff * w, zeta.coords, fi.degree)
        merged = dict(fi.coefficients)
        for alpha, c in corr.coefficients.items():
            merged[alpha] = merged.get(alpha, 0.0) - c
        polys.append(WeylPolynomial(n=fi.n, degree=fi.degree, coefficients=merged))
    g = PolySystem(tuple(polys))
    norm = weyl_norm(g)
    if norm == 0.0:
        raise ValueError("degenerate witness (zero system)")
    scaled = tuple(
        WeylPolynomial(n=fi.n, degree=fi.degree,
                       coefficients={a: c / norm for a, c in fi.coefficients.items()})
        for fi in g.polys
    )
    return PolySystem(scaled)


def cntr_witness_check(f: PolySystem, zeta: SpherePoint, g: PolySystem) -> bool:
    """Check mu_norm(f, zeta) * d_P(f, g) >= 1 - 1e-6 for a witness g.

    g must have zeta as a multiple zero. A False return signals a bug:
    the product is bounded below by 1 for every valid witness.
    """
    if abs(weyl_norm(f) - 1.0) > 1e-8 or abs(weyl_norm(g) - 1.0) > 1e-8:
        raise ValueError("f and g must have unit norm")
    if np.linalg.norm(g(zeta.coords)) > 1e-8:
        raise ValueError("zeta is not a zero of the witness")
    mg = restricted_jacobian(g, zeta)
    sg = np.linalg.svd(mg, compute_uv=False)
    if sg[-1] > 1e-8 * max(sg[0], 1.0):
        raise ValueError("zeta is not a multiple zero of the witness")
    mu = mu_norm(f, zeta)
    dist = system_projective_distance(f, g)
    if math.isinf(mu):
        return True
    return mu * dist >= 1.0 - 1e-6


def rotate_polynomial(f: WeylPolynomial, g: np.ndarray) -> WeylPolynomial:
    """Exact monomial expansion of x -> f(g^T x). Test-only path; small d, n."""
    n = f.n
    if g.shape != (n + 1, n + 1):
        raise ValueError("rotation size mismatch")
    total: dict = {}
    for alpha, c in f.coefficients.items():
        # expand prod_i (sum_j g[j, i] x_j)^{alpha_i}
        expansion = {tuple([0] * (n + 1)): c}
        for i, e in enumerate(alpha):
            for _ in range(e):
                nxt: dict = {}
                for beta, cb in expansion.items():
                    for j in range(n + 1):
                        if g[j, i] == 0.0:
                            continue
                        gamma = list(beta)
                        gamma[j] += 1
                        gamma = tuple(gamma)
                        nxt[gamma] = nxt.get(gamma, 0.0) + cb * g[j, i]
                expansion = nxt
        for beta, cb in expansion.items():
            total[beta] = total.get(beta, 0.0) + cb
    return WeylPolynomial(n=n, degree=f.degree, coefficients=total)


def rotate_system(f: PolySystem, g: np.ndarray) -> PolySystem:
    return PolySystem(tuple(rotate_polynomial(fi, g) for fi in f.polys))
