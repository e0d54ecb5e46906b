"""Haar rotations and the exact rotation of homogeneous polynomials, for the
orthogonal-invariance tests."""

import numpy as np

from spherecond import PolySystem, RngStream, WeylPolynomial
from spherecond.conditioning import _expand


def sample_rotation(n: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed orthogonal n x n matrix (Gaussian QR with sign fix)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.generator.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diag(r))
    return q


def rotate_polynomial(f: WeylPolynomial, g: np.ndarray) -> WeylPolynomial:
    """Monomial expansion of x -> f(g^T x): each x_i becomes <g[:, i], X>."""
    if g.shape != (f.n + 1, f.n + 1):
        raise ValueError("rotation size mismatch")
    total: dict = {}
    for alpha, c in f.coefficients.items():
        forms = [g[:, i] for i, e in enumerate(alpha) for _ in range(e)]
        for beta, cb in _expand(forms, f.n).items():
            total[beta] = total.get(beta, 0.0) + c * cb
    return WeylPolynomial(n=f.n, degree=f.degree, coefficients=total)


def rotate_system(f: PolySystem, g: np.ndarray) -> PolySystem:
    return PolySystem(tuple(rotate_polynomial(fi, g) for fi in f.polys))
