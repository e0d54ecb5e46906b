"""The per-system polynomial arithmetic that the dense batched layout replaced, kept as
the reference: coefficient dicts keyed by multi-index, one system and one trial at a
time, in the order of the former `verify cntr` loop."""

import math

import mpmath
import numpy as np

from spherecond import RngStream, SpherePoint, WeylPolynomial


def expand(forms, n: int) -> dict:
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


def at_rows(f: WeylPolynomial, x) -> tuple:
    """f and its gradient, (N,) and (N, n+1), at the rows of x (N, n+1), or at one point
    (n+1,) as one row: `value_and_gradient` on x's coordinate columns."""
    vals, grads = f.value_and_gradient(list(np.atleast_2d(np.asarray(x, dtype=float)).T.copy()))
    return vals, np.stack(grads, axis=1)


def minus(f: WeylPolynomial, g: dict, s: float = 1.0) -> WeylPolynomial:
    """f - s*g, where g is a coefficient dict of the same degree."""
    merged = dict(f.coefficients)
    for alpha, c in g.items():
        merged[alpha] = merged.get(alpha, 0.0) - s * c
    return WeylPolynomial(n=f.n, degree=f.degree, coefficients=merged)


def multinomial(d: int, alpha) -> float:
    return float(math.factorial(d) // math.prod(math.factorial(e) for e in alpha))


def inner(polys, others, num=float):
    """Weyl inner product of two systems, given as lists of WeylPolynomials, summed in
    the number type `num` (float, or mpmath.mpf at the working precision)."""
    total = num(0)
    for f, g in zip(polys, others):
        for alpha, c in f.coefficients.items():
            if alpha in g.coefficients:
                total += num(c) * num(g.coefficients[alpha]) / multinomial(f.degree, alpha)
    return total


def unit_norm(polys) -> list:
    norm = math.sqrt(inner(polys, polys))
    return [WeylPolynomial(n=f.n, degree=f.degree,
                           coefficients={a: c / norm for a, c in f.coefficients.items()})
            for f in polys]


def random_system(n: int, d: int, gen):
    """The former random_system_with_zero: the unit-norm system, zeta, and the raw
    coefficient dicts as drawn, one scalar normal per monomial."""
    zeta = SpherePoint.from_vector(gen.standard_normal(n + 1))
    basis = expand([np.ones(n + 1)] * d, n)
    power = expand([zeta.coords] * d, n)
    polys, raw = [], []
    for _ in range(n):
        f = WeylPolynomial(n=n, degree=d,
                           coefficients={alpha: float(gen.standard_normal()) for alpha in basis})
        raw.append(f.coefficients)
        polys.append(minus(f, power, at_rows(f, zeta.coords)[0][0]))
    return unit_norm(polys), zeta, raw


def projected_svd(polys, zeta: SpherePoint):
    jac = np.concatenate([at_rows(f, zeta.coords)[1] for f in polys])
    return np.linalg.svd(jac - np.outer(jac @ zeta.coords, zeta.coords), full_matrices=False)


def mu(polys, zeta: SpherePoint) -> float:
    u, s, _ = projected_svd(polys, zeta)
    if s[-1] <= 1e-12 * max(s[0], 1e-300):
        return math.inf
    scaled = (u.T / s[:, None]) * np.sqrt(np.array([f.degree for f in polys], dtype=float))
    return float(math.sqrt(inner(polys, polys)) * np.linalg.norm(scaled, 2))


def witness(polys, zeta: SpherePoint) -> list:
    """The former rank-drop surgery, by expanding <v_i, X> <zeta, X>^(d_i - 1)."""
    u, s, vt = projected_svd(polys, zeta)
    n = len(polys)
    return unit_norm([
        minus(f, expand([s[-1] * u[i, -1] * vt[-1]] + [zeta.coords] * (f.degree - 1), n))
        for i, f in enumerate(polys)])


def distance(polys, others) -> float:
    """sin of the angle between two systems, from 30-digit inner products of their double
    coefficients: sqrt(1 - cos^2) in doubles loses eps / sin^2 at small angles."""
    with mpmath.workdps(30):
        cos2 = inner(polys, others, mpmath.mpf) ** 2 / (
            inner(polys, polys, mpmath.mpf) * inner(others, others, mpmath.mpf))
        return float(mpmath.sqrt(max(0, 1 - min(1, cos2))))


def verify_cntr(seed: int, trials: int) -> list:
    """The former `verify cntr` loop: per trial (d, zeta, raw dicts, mu * d_P)."""
    gen = RngStream(seed).generator
    rows = []
    for k in range(trials):
        d = (2, 3, 4)[k % 3]
        polys, zeta, raw = random_system(1, d, gen)
        rows.append((d, zeta, raw, mu(polys, zeta) * distance(polys, witness(polys, zeta))))
    return rows
