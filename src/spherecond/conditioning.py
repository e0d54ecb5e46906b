"""Condition number evaluators.

Matrix inversion and Moore-Penrose conditioning via the SVD, eigenvalue
conditioning via left/right eigenvectors, the exact distance from a 2x2
matrix to the set with a real multiple eigenvalue, and the Shub-Smale
condition number of polynomial systems under the orthogonally invariant
inner product on homogeneous polynomials. Systems are dense coefficient
stacks over one cached monomial table per (n, d), batched over systems.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import SpherePoint


def _out(x):
    """One matrix's or system's value as a Python float or bool, a stack's as an array."""
    return x.item() if np.ndim(x) == 0 else x


def _sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum over an axis, left to right: one row alone and in a batch get the same bits
    (np.sum is pairwise along one contiguous row, sequential across a batch of rows)."""
    return functools.reduce(np.add, np.moveaxis(x, axis, 0))


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
    return _out(np.divide(fro, smin, out=np.full(fro.shape, math.inf), where=smin > 1e-14 * fro))


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
    return _out(np.divide(1.0, dot, out=np.full(dot.shape, math.inf), where=dot > 1e-12))


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
    return _out(dist)


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
        """The power table of `_table` for one point (n+1,), as Python floats, or for rows
        (N, n+1), as contiguous columns; and the zero that sums start from."""
        x = np.asarray(x, dtype=float)
        if x.shape == (self.n + 1,):
            return self._table(x.tolist()), 0.0
        if x.ndim == 2 and x.shape[1] == self.n + 1:
            return self._table(list(np.ascontiguousarray(x.T))), np.zeros(x.shape[0])
        raise ValueError(f"expected shape ({self.n + 1},) or (N, {self.n + 1}), got {x.shape}")

    def _table(self, cols) -> list:
        """Power table [1, xi, xi*xi, ...] up to `degree` for each coordinate xi. Powers
        are built by repeated multiplication only, so one point and a row of a batch go
        through the same correctly rounded operations."""
        table = []
        for xi in cols:
            row = [1.0, xi]
            for _ in range(self.degree - 1):
                row.append(row[-1] * xi)
            table.append(row)
        return table

    def _value(self, table, total):
        # terms are summed in coefficient order as ((c x0^a0) x1^a1) ...
        for alpha, c in self.coefficients.items():
            term = c
            for row, e in zip(table, alpha):
                if e:
                    term = term * row[e]
            total = total + term
        return total

    def _gradient(self, table, zero) -> list:
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
        return g

    def __call__(self, x: np.ndarray):
        """f at one point (a float) or at each row of an (N, n+1) array; terms are summed
        in coefficient order as ((c x0^a0) x1^a1) ...."""
        return self._value(*self._powers(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient at one point, shape (n+1,), or at each row, shape (N, n+1)."""
        table, zero = self._powers(x)
        g = self._gradient(table, zero)
        return np.array(g) if isinstance(zero, float) else np.stack(g, axis=1)

    def value_and_gradient(self, cols) -> tuple:
        """(f, [df/dx_0, ..., df/dx_n]) at N points given by their n+1 coordinate columns,
        each an array of length N, from one power table: the bits of `__call__` and
        `gradient` on the rows those columns stack to."""
        table, zero = self._table(cols), np.zeros(len(cols[0]))
        return self._value(table, zero), self._gradient(table, zero)


@functools.cache
def _monomials(n: int, d: int) -> tuple:
    """The M monomials of degree d in n+1 variables in combinations_with_replacement order:
    exponents alpha (M, n+1), Weyl weights 1/multinomial(d; alpha), multinomials, the
    exponents of alpha - e_j (n+1, M, n+1; a 0 stays 0) and multinomial(d-1; alpha - e_j)."""
    combos = np.array(list(itertools.combinations_with_replacement(range(n + 1), d)))
    exps = np.sum(combos[:, :, None] == np.arange(n + 1), axis=1)
    multi = math.factorial(d) / np.prod(np.vectorize(math.factorial, otypes=[float])(exps), axis=1)
    down = np.maximum(exps - np.eye(n + 1, dtype=int)[:, None, :], 0)
    table = exps, 1.0 / multi, multi, down, multi * exps.T / d  # alpha_j (d; alpha) / d
    for array in table:  # cached: every caller gets these very arrays
        array.setflags(write=False)
    return table


def _monomial_values(x: np.ndarray, d: int):
    """x^alpha (..., M) and x^(alpha - e_j) (..., n+1, M) over the monomials of degree d,
    gathered from one table of powers of x (..., n+1) built by multiplication only."""
    exps, _, _, down, _ = _monomials(x.shape[-1] - 1, d)
    powers = [np.ones_like(x), x]
    for _ in range(d - 1):
        powers.append(powers[-1] * x)
    powers, cols = np.stack(powers, axis=-1), np.arange(x.shape[-1])
    return np.prod(powers[..., cols, exps], axis=-1), np.prod(powers[..., cols, down], axis=-1)


class PolySystem:
    """A batch of square systems: n homogeneous polynomials in n+1 variables. Equation i
    has degree degrees[i] and coefficients[i] (..., M_i) over its monomials; the leading
    axes are the batch `shape`, () for one system. Built from n WeylPolynomials, or arrays."""

    def __init__(self, polys=None, *, degrees=(), coefficients=()):
        if polys is not None:  # each dict once, in table order
            degrees = [f.degree for f in polys]
            coefficients = [[f.coefficients.get(a, 0.0) for a in map(tuple, _monomials(
                f.n, f.degree)[0].tolist())] for f in polys]
        self.n, self.degrees = len(degrees), tuple(int(d) for d in degrees)
        self.coefficients = tuple(np.asarray(c, dtype=float) for c in coefficients)
        self.shape = self.coefficients[0].shape[:-1] if self.coefficients else ()
        if len(self.coefficients) != self.n or min(self.degrees, default=0) < 1 or any(
                c.shape != self.shape + (math.comb(self.n + d, d),)
                for d, c in zip(self.degrees, self.coefficients)):
            raise ValueError("need n equations of degree >= 1 in n+1 variables, one batch shape")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """f(x), shape (..., n), at one point (n+1,) or one point per system (..., n+1)."""
        return np.stack([_sum(c * _monomial_values(x, d)[0])
                         for d, c in zip(self.degrees, self.coefficients)], axis=-1)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Df(x), (..., n, n+1): d f_i / d x_j = sum_alpha c_alpha alpha_j x^(alpha - e_j)."""
        return np.stack([_sum(c[..., None, :] * _monomials(self.n, d)[0].T
                              * _monomial_values(x, d)[1])
                         for d, c in zip(self.degrees, self.coefficients)], axis=-2)


def weyl_inner(f: PolySystem, g: PolySystem):
    """Weyl inner product: orthogonally invariant, with weights 1/multinomial(d; alpha),
    summed over the equations. A float for one system, an array for a batch."""
    if f.degrees != g.degrees:
        raise ValueError("system mismatch")
    return _out(sum(_sum(a * b * _monomials(f.n, d)[1])
                    for d, a, b in zip(f.degrees, f.coefficients, g.coefficients)))


def weyl_norm(f):
    return _out(np.sqrt(weyl_inner(f, f)))


def system_projective_distance(f: PolySystem, g: PolySystem):
    """sin of the angle between two systems under the Weyl product, per system, from
    4 |f|^2 |g|^2 sin^2 = |f - s g|^2 |f + s g|^2 - (|f|^2 - |g|^2)^2, s = sign <f, g>:
    nothing cancels at small angles where |f| = |g|, while sqrt(1 - cos^2) loses eps / sin^2."""
    s = np.where(np.asarray(weyl_inner(f, g)) < 0.0, -1.0, 1.0)[..., None]
    minus, plus = (PolySystem(degrees=f.degrees, coefficients=[
        a + t * s * b for a, b in zip(f.coefficients, g.coefficients)]) for t in (-1.0, 1.0))
    ff, gg = weyl_inner(f, f), weyl_inner(g, g)
    prod = np.asarray(weyl_inner(minus, minus)) * weyl_inner(plus, plus) - (ff - gg) ** 2
    return _out(np.sqrt(np.maximum(0.0, prod)) / (2.0 * np.sqrt(ff * gg)))


def _projected_svd(f: PolySystem, zeta):
    """zeta's coordinates z (a SpherePoint, or one unit vector per system) and the SVDs
    (u, s, vt) of J = Df(z) - (Df(z) z) z^T. J z = 0: s is Df's on z^perp, where vt lies."""
    z = zeta.coords if isinstance(zeta, SpherePoint) else np.asarray(zeta, dtype=float)
    if z.shape != f.shape + (f.n + 1,):
        raise ValueError("zeta must lie on S^n, one point per system")
    jac = f.jacobian(z)
    jz = _sum(jac * z[..., None, :])[..., None]
    return z, *np.linalg.svd(jac - jz * z[..., None, :], full_matrices=False)


def mu_norm(f: PolySystem, zeta):
    """Shub-Smale condition number of f at the zero zeta, per system; inf at multiple zeros.
    Raises if zeta fails the residual test for any system."""
    z, u, s, _ = _projected_svd(f, zeta)
    norm_f = weyl_norm(f)
    if np.any(np.linalg.norm(f(z), axis=-1) > 1e-8 * norm_f):
        raise ValueError("zeta is not a zero of f (residual too large)")
    multiple = s[..., -1] <= 1e-12 * np.maximum(s[..., 0], 1e-300)
    s = np.where(multiple[..., None], 1.0, s)
    # the restricted inverse is vt^T diag(1/s) u^T, and vt^T has orthonormal columns
    if len(set(f.degrees)) == 1:  # u is orthogonal: |diag(1/s) u^T sqrt(d)|_2 = sqrt(d) / s_min
        inverse = math.sqrt(f.degrees[0]) / s[..., -1]
    else:
        scaled = np.swapaxes(u, -1, -2) / s[..., :, None] * np.sqrt(np.array(f.degrees, dtype=float))
        inverse = np.linalg.norm(scaled, 2, axis=(-2, -1))
    return _out(np.where(multiple, math.inf, norm_f * inverse))


def planted_systems(n: int, d: int, normals: np.ndarray) -> tuple[PolySystem, np.ndarray]:
    """Unit-norm systems of degree d with a planted zero on S^n, and the zeros (..., n+1).
    A row of `normals` (..., n+1 + n M) holds zeta unnormalised, then each f_i's M
    coefficients in table order. Equation i is f_i - f_i(zeta) <zeta, X>^d, which
    vanishes at zeta; <zeta, X>^d has the coefficients multinomial(d; alpha) zeta^alpha."""
    normals = np.asarray(normals, dtype=float)
    v = normals[..., :n + 1]
    # a row times a column: np.dot's kernel, so zeta gets SpherePoint.from_vector's bits
    z = v / np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0])
    raw = normals[..., n + 1:].reshape(normals.shape[:-1] + (n, math.comb(n + d, d)))
    mono = _monomial_values(z, d)[0][..., None, :]
    planted = np.moveaxis(raw - _sum(raw * mono)[..., None] * _monomials(n, d)[2] * mono, -2, 0)
    norm = np.asarray(weyl_norm(PolySystem(degrees=(d,) * n, coefficients=planted)))
    return PolySystem(degrees=(d,) * n, coefficients=planted / norm[..., None]), z


def multiple_zero_witness(f: PolySystem, zeta) -> PolySystem:
    """Nearby unit-norm system with the multiple zero zeta, by the smallest rank-one
    correction that makes Df(zeta) on zeta^perp singular: equation i loses <v_i, X>
    <zeta, X>^(d_i - 1) = sum_j v_ij multinomial(d_i - 1; alpha - e_j) zeta^(alpha - e_j),
    v_i = s_min u[i, -1] vt[-1]. ValueError if it leaves the zero system (n = d = 1)."""
    z, u, s, vt = _projected_svd(f, zeta)
    forms = (s[..., -1:] * u[..., :, -1])[..., :, None] * vt[..., -1:, :]
    g = PolySystem(degrees=f.degrees, coefficients=[
        c - _sum(forms[..., i, :, None] * _monomials(f.n, d)[4] * _monomial_values(z, d)[1], -2)
        for i, (d, c) in enumerate(zip(f.degrees, f.coefficients))])
    norm = np.asarray(weyl_norm(g))
    if np.any(norm <= 1e-8 * np.asarray(weyl_norm(f))):
        raise ValueError("the rank-one correction leaves the zero system (n = d = 1)")
    return PolySystem(degrees=f.degrees, coefficients=[c / norm[..., None] for c in g.coefficients])


def cntr_witness_product(f: PolySystem, zeta, g: PolySystem):
    """mu_norm(f, zeta) * d_P(f, g) per system, inf where zeta is a multiple zero of f, for
    unit-norm f and g with the multiple zero zeta (else ValueError). Valid witnesses give
    >= 1 (the condition number theorem); multiple_zero_witness's give 1 up to round-off."""
    if np.any(np.abs(np.stack([weyl_norm(f), weyl_norm(g)]) - 1.0) > 1e-8):
        raise ValueError("f and g must have unit norm")
    z, _, sg, _ = _projected_svd(g, zeta)
    if np.any(np.linalg.norm(g(z), axis=-1) > 1e-8):
        raise ValueError("zeta is not a zero of the witness")
    if np.any(sg[..., -1] > 1e-8 * np.maximum(sg[..., 0], 1.0)):
        raise ValueError("zeta is not a multiple zero of the witness")
    mu = np.asarray(mu_norm(f, z))
    multiple = np.isinf(mu)
    product = np.where(multiple, 1.0, mu) * system_projective_distance(f, g)
    return _out(np.where(multiple, math.inf, product))


def cntr_witness_check(f: PolySystem, zeta, g: PolySystem):
    """cntr_witness_product(f, zeta, g) >= 1 - 1e-6 per system. False is a bug."""
    return _out(np.asarray(cntr_witness_product(f, zeta, g)) >= 1.0 - 1e-6)
