"""Condition number evaluators.

Matrix inversion and Moore-Penrose conditioning via the SVD, eigenvalue
conditioning via left/right eigenvectors, the exact distance from a 2x2
matrix to the set with a real multiple eigenvalue, and the Shub-Smale
condition number of polynomial systems under the orthogonally invariant
inner product on homogeneous polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SpherePoint


# ---------------------------------------------------------------------------
# matrix condition numbers


def frobenius_condition(a: np.ndarray):
    """kappa_F(A) = ||A||_F / sigma_min(A) for l x m A with l >= m; inf for singular A.

    Square A: matrix inversion; tall A: Moore-Penrose. A stack (..., l, m) gives an array.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] < a.shape[-1]:
        raise ValueError("need l >= m; transpose wide matrices first")
    fro = np.linalg.norm(a, axis=(-2, -1))
    if not fro.all():
        raise ValueError("zero matrix has no condition number")
    smin = np.linalg.svd(a, compute_uv=False)[..., -1]
    if a.ndim == 2:
        return math.inf if smin <= 1e-14 * fro else float(fro / smin)
    kappa = np.full(fro.shape, math.inf)
    finite = smin > 1e-14 * fro
    kappa[finite] = fro[finite] / smin[finite]
    return kappa


def eigenvalue_condition(a: np.ndarray, lam):
    """kappa(A, lambda) = ||x|| ||y|| / |<x, y>| for right/left eigenvectors x, y.

    Infinite when the eigenvectors are numerically orthogonal (multiple
    eigenvalue). A stack (..., n, n) takes one lam per matrix and gives an
    array; one matrix gives a float. Raises if any lam fails the eigenvalue
    residual test.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError("matrix must be square")
    lam = np.broadcast_to(np.asarray(lam, dtype=float), a.shape[:-2])
    fro = np.linalg.norm(a, axis=(-2, -1))
    u, _, vt = np.linalg.svd(a - lam[..., None, None] * np.eye(a.shape[-1]))
    x = vt[..., -1, :]
    y = u[..., :, -1]
    residual = np.linalg.norm(np.matmul(a, x[..., None])[..., 0] - lam[..., None] * x, axis=-1)
    if np.any(residual > 1e-8 * np.maximum(fro, 1e-300)):
        raise ValueError("lam is not an eigenvalue of A (residual too large)")
    # a row times a column: np.dot's kernel, so one matrix keeps the bits it had alone
    dot = np.abs(np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0])
    kappa = np.divide(1.0, dot, out=np.full(dot.shape, math.inf), where=dot > 1e-12)
    return float(kappa) if a.ndim == 2 else kappa


# ---------------------------------------------------------------------------
# distance to the set of matrices with a real multiple eigenvalue


def discriminant_distance_2x2(a: np.ndarray):
    """Exact Frobenius distance from a 2x2 matrix to {(b11-b22)^2 + 4 b12 b21 = 0}.

    Matrices with a repeated real eigenvalue are exactly lam*I + r*u v^T with
    v orthogonal to u. With u = (cos t, sin t) the overlap <A, u v^T> is
    R cos(2t - phi) + (a12 - a21)/2, and ||A||^2 - tr(A)^2/2 = 2 (R^2 + D^2), so

        dist^2 = 2 (R^2 + D^2) - (R + D)^2,   dist = |R - D| = |disc| / (4 (R + D)),

    where R = hypot((a12 + a21)/2, (a11 - a22)/2), D = |a12 - a21|/2 and
    disc = (a11 - a22)^2 + 4 a12 a21 = 4 (R^2 - D^2). The last form does not
    cancel next to the quadric. A stack (..., 2, 2) gives an array, one matrix
    a float, and a stacked matrix gets the bits it gets alone. R is math.hypot's,
    elementwise: np.hypot differs from it in the last bit about once in a thousand.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-2:] != (2, 2):
        raise ValueError("expected a 2x2 matrix or a stack of them")
    a11, a12, a21, a22 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    sym, diff = np.ravel((a12 + a21) / 2), np.ravel((a11 - a22) / 2)
    r = np.array(list(map(math.hypot, sym.tolist(), diff.tolist()))).reshape(a11.shape)
    r_plus_d = r + np.abs(a12 - a21) / 2
    # float_power is libm's pow, as a float's ** 2 is; an array's ** 2 is x * x
    disc = np.float_power(a11 - a22, 2) + 4.0 * a12 * a21
    # r_plus_d = 0: A = lam*I lies on the quadric
    dist = np.divide(np.abs(disc), 4.0 * r_plus_d, out=np.zeros(r.shape), where=r_plus_d != 0.0)
    return float(dist) if a.ndim == 2 else dist


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

    def _powers(self, x):
        """Power table [1, xi, xi*xi, ...] up to `degree` for each coordinate, and a zero.

        Python floats for one point (n+1,), contiguous columns for rows (N, n+1).
        Powers are built by repeated multiplication only, so one point and a row
        of a batch go through the same correctly rounded operations.
        """
        x = np.asarray(x, dtype=float)
        if x.shape == (self.n + 1,):
            cols, zero = x.tolist(), 0.0
        elif x.ndim == 2 and x.shape[1] == self.n + 1:
            cols, zero = list(np.ascontiguousarray(x.T)), np.zeros(x.shape[0])
        else:
            raise ValueError(f"expected shape ({self.n + 1},) or (N, {self.n + 1}), got {x.shape}")
        table = []
        for xi in cols:
            row = [1.0, xi]
            for _ in range(self.degree - 1):
                row.append(row[-1] * xi)
            table.append(row)
        return table, zero

    def __call__(self, x: np.ndarray):
        """f at one point (a float) or at each row of an (N, n+1) array; terms are summed
        in coefficient order as ((c x0^a0) x1^a1) ...."""
        table, total = self._powers(x)
        for alpha, c in self.coefficients.items():
            term = c
            for row, e in zip(table, alpha):
                if e:
                    term = term * row[e]
            total = total + term
        return total

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient at one point, shape (n+1,), or at each row, shape (N, n+1)."""
        table, zero = self._powers(x)
        g = [zero] * (self.n + 1)
        for alpha, c in self.coefficients.items():
            for i, e in enumerate(alpha):
                if e == 0:
                    continue
                term = c * e
                for j, ej in enumerate(alpha):
                    pw = ej - 1 if j == i else ej
                    if pw:
                        term = term * table[j][pw]
                g[i] = g[i] + term
        return np.array(g) if isinstance(zero, float) else np.stack(g, axis=1)


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


def _projected_svd(f: PolySystem, zeta: SpherePoint):
    """Thin SVD (u, s, vt) of J = Df(zeta) - (Df(zeta) zeta) zeta^T. J zeta = 0, so its n
    singular values are those of Df restricted to zeta^perp, and the rows of vt lie there."""
    jac = f.jacobian(zeta.coords)
    return np.linalg.svd(jac - np.outer(jac @ zeta.coords, zeta.coords), full_matrices=False)


def mu_norm(f: PolySystem, zeta: SpherePoint) -> float:
    """Shub-Smale condition number of f at the zero zeta; inf at multiple zeros."""
    if zeta.p != f.n:
        raise ValueError("zeta must lie on S^n")
    norm_f = weyl_norm(f)
    if np.linalg.norm(f(zeta.coords)) > 1e-8 * norm_f:
        raise ValueError("zeta is not a zero of f (residual too large)")
    u, s, _ = _projected_svd(f, zeta)
    if s[-1] <= 1e-12 * max(s[0], 1e-300):
        return math.inf
    # the restricted inverse is vt^T diag(1/s) u^T, and vt^T has orthonormal columns
    scaled = (u.T / s[:, None]) * np.sqrt(np.array(f.degrees, dtype=float))
    return float(norm_f * np.linalg.norm(scaled, 2))


def _expand(forms, n: int) -> dict:
    """Coefficients of prod_k <v_k, X> in n+1 variables, keyed by multi-index in
    the order of combinations_with_replacement over the variables."""
    poly = {(0,) * (n + 1): 1.0}
    for v in forms:
        nxt: dict = {}
        for alpha, c in poly.items():
            for i in range(n + 1):
                if v[i] != 0.0:
                    beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                    nxt[beta] = nxt.get(beta, 0.0) + c * v[i]
        poly = nxt
    return poly


def _minus(f: WeylPolynomial, g: dict, s: float = 1.0) -> WeylPolynomial:
    """f - s*g, where g is a coefficient dict of the same degree."""
    merged = dict(f.coefficients)
    for alpha, c in g.items():
        merged[alpha] = merged.get(alpha, 0.0) - s * c
    return WeylPolynomial(n=f.n, degree=f.degree, coefficients=merged)


def _unit_norm(polys) -> PolySystem:
    """The system of `polys` divided by its Weyl norm."""
    norm = weyl_norm(PolySystem(tuple(polys)))
    if norm == 0.0:
        raise ValueError("zero system cannot be normalized")
    return PolySystem(tuple(
        WeylPolynomial(n=f.n, degree=f.degree,
                       coefficients={a: c / norm for a, c in f.coefficients.items()})
        for f in polys))


def random_system_with_zero(n: int, d: int, gen) -> tuple[PolySystem, SpherePoint]:
    """Random unit-norm system with a planted zero on S^n: standard normal
    coefficients f, minus f(zeta) <zeta, X>^d, which is f(zeta) at zeta."""
    zeta = SpherePoint.from_vector(gen.standard_normal(n + 1))
    basis = _expand([np.ones(n + 1)] * d, n)
    power = _expand([zeta.coords] * d, n)
    polys = []
    for _ in range(n):
        f = WeylPolynomial(n=n, degree=d,
                           coefficients={alpha: float(gen.standard_normal()) for alpha in basis})
        polys.append(_minus(f, power, f(zeta.coords)))
    return _unit_norm(polys), zeta


def multiple_zero_witness(f: PolySystem, zeta: SpherePoint) -> PolySystem:
    """Nearby system with zeta as a multiple zero, by rank-drop surgery.

    Subtracts from f the smallest rank-one correction that makes the
    restricted derivative at zeta singular, using polynomials that vanish
    at zeta. The result is renormalized to unit norm; ValueError where the
    correction leaves the zero system (one linear form, n = d = 1)."""
    u, s, vt = _projected_svd(f, zeta)
    w = vt[-1]  # unit tangent direction at zeta
    polys = []
    for i, fi in enumerate(f.polys):
        corr = _expand([s[-1] * u[i, -1] * w] + [zeta.coords] * (fi.degree - 1), f.n)
        polys.append(_minus(fi, corr))
    if weyl_norm(PolySystem(tuple(polys))) <= 1e-8 * weyl_norm(f):
        raise ValueError("the rank-one correction leaves the zero system (n = d = 1)")
    return _unit_norm(polys)


def cntr_witness_check(f: PolySystem, zeta: SpherePoint, g: PolySystem) -> bool:
    """Check mu_norm(f, zeta) * d_P(f, g) >= 1 - 1e-6 for a witness g.

    g must have zeta as a multiple zero. A False return signals a bug:
    the product is bounded below by 1 for every valid witness.
    """
    if abs(weyl_norm(f) - 1.0) > 1e-8 or abs(weyl_norm(g) - 1.0) > 1e-8:
        raise ValueError("f and g must have unit norm")
    if np.linalg.norm(g(zeta.coords)) > 1e-8:
        raise ValueError("zeta is not a zero of the witness")
    _, sg, _ = _projected_svd(g, zeta)
    if sg[-1] > 1e-8 * max(sg[0], 1.0):
        raise ValueError("zeta is not a multiple zero of the witness")
    mu = mu_norm(f, zeta)
    dist = system_projective_distance(f, g)
    if math.isinf(mu):
        return True
    return mu * dist >= 1.0 - 1e-6
