"""Random systems with a planted zero, Haar rotations and the exact rotation of
homogeneous polynomial systems, for the conditioning tests."""

import math

import numpy as np

from spherecond import PolySystem, RngStream, SpherePoint
from spherecond.conditioning import _monomials, planted_systems


def random_system_with_zero(n: int, d: int, gen):
    """One system of planted_systems and its zero as a SpherePoint, from n+1 + n M
    standard normals of `gen`: zeta's first, then each equation's in table order."""
    f, z = planted_systems(n, d, gen.standard_normal(n + 1 + n * math.comb(n + d, d)))
    return f, SpherePoint(z)


def sample_rotation(n: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed orthogonal n x n matrix (Gaussian QR with sign fix)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.generator.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diag(r))
    return q


def expand_forms(forms, n: int) -> np.ndarray:
    """Coefficients of prod_k <v_k, X> in n+1 variables, one row over the monomials of
    degree len(forms): multiply by one linear form at a time."""
    row = np.asarray(forms[0], dtype=float)  # degree 1: the monomials are x_0, ..., x_n
    for e, v in enumerate(forms[1:], start=1):
        index = {a: m for m, a in enumerate(map(tuple, _monomials(n, e + 1)[0].tolist()))}
        nxt = np.zeros(len(index))
        for alpha, c in zip(_monomials(n, e)[0].tolist(), row):
            for i in range(n + 1):
                alpha[i] += 1
                nxt[index[tuple(alpha)]] += c * v[i]
                alpha[i] -= 1
        row = nxt
    return row


def rotate_system(f: PolySystem, g: np.ndarray) -> PolySystem:
    """One system composed with x -> g^T x: each x_i becomes <g[:, i], X>."""
    if f.shape != () or g.shape != (f.n + 1, f.n + 1):
        raise ValueError("need one system and a rotation of its size")
    coefficients = []
    for d, c in zip(f.degrees, f.coefficients):
        coefficients.append(sum(
            ca * expand_forms([g[:, i] for i, e in enumerate(alpha) for _ in range(e)], f.n)
            for alpha, ca in zip(_monomials(f.n, d)[0].tolist(), c)))
    return PolySystem(degrees=f.degrees, coefficients=coefficients)
