"""Exact spherical geometry on the unit sphere S^p.

Points and caps, volumes of spheres and of tubes around great subspheres
(a geodesic ball is half the tube around S^0), the trigonometric moment
integrals that generate them (in closed form through the regularized
incomplete beta function), and the constants of the principal kinematic
formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln, gammaln


@dataclass(frozen=True)
class SpherePoint:
    """A unit vector in R^{p+1}, i.e. a point of S^p."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("need a vector of dimension >= 2 (p >= 1)")
        if abs(np.linalg.norm(c) - 1.0) > 1e-12:
            raise ValueError("coordinates must have unit norm (within 1e-12)")
        object.__setattr__(self, "coords", c)

    @classmethod
    def from_vector(cls, v) -> "SpherePoint":
        """Normalize an arbitrary nonzero vector onto the sphere."""
        v = np.asarray(v, dtype=float)
        n = np.linalg.norm(v)
        if n == 0.0 or not np.isfinite(n):
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(v / n)

    @property
    def p(self) -> int:
        return self.coords.size - 1


@dataclass(frozen=True)
class Cap:
    """Spherical cap of projective radius sigma (angular radius arcsin sigma)."""

    center: SpherePoint
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must lie in (0, 1]")

    @property
    def alpha(self) -> float:
        return float(np.arcsin(self.sigma))


def sphere_volume(p: int) -> float:
    """p-dimensional volume of S^p: 2 pi^{(p+1)/2} / Gamma((p+1)/2)."""
    if p < 0:
        raise ValueError("p must be >= 0")
    return float(2.0 * np.exp(0.5 * (p + 1) * np.log(np.pi) - gammaln(0.5 * (p + 1))))


def _check_jpk_args(p: int, k: int):
    if p < 1 or not 1 <= k <= p:
        raise ValueError("need p >= 1 and 1 <= k <= p")


def j_integral(p: int, k: int, alpha) -> float | np.ndarray:
    """J_{p,k}(alpha) = int_0^alpha sin^{k-1} cos^{p-k}, in closed form.

    Substituting x = sin^2 r gives J_{p,k}(alpha) = 1/2 B(a, b) I_{sin^2 alpha}(a, b)
    with a = k/2, b = (p-k+1)/2 and I the regularized incomplete beta
    function. Where I exceeds 1/2 it is taken as 1 - I_{cos^2 alpha}(b, a),
    so it stays accurate in relative terms near alpha = pi/2, where
    sin^2 alpha rounds to 1. Accepts scalar or array alpha in [0, pi/2];
    arrays are evaluated elementwise.
    """
    _check_jpk_args(p, k)
    a = np.asarray(alpha, dtype=float)
    if np.any(a < -1e-15) or np.any(a > np.pi / 2 + 1e-12):
        raise ValueError("alpha must lie in [0, pi/2]")
    a = np.clip(a, 0.0, np.pi / 2)
    s2, c2 = np.sin(a) ** 2, np.cos(a) ** 2
    ka, kb = 0.5 * k, 0.5 * (p - k + 1)
    rest = betainc(kb, ka, c2)
    ratio = np.where(rest < 0.5, 1.0 - rest, betainc(ka, kb, s2))
    out = 0.5 * np.exp(betaln(ka, kb)) * ratio
    return float(out) if np.isscalar(alpha) else out


def j_integral_quad(p: int, k: int, alpha: float) -> float:
    """J_{p,k}(alpha) by adaptive quadrature; cross-check for j_integral."""
    _check_jpk_args(p, k)
    if not 0.0 <= alpha <= np.pi / 2 + 1e-12:
        raise ValueError("alpha must lie in [0, pi/2]")
    from scipy.integrate import quad  # slow to import; only verification needs it

    val, _ = quad(
        lambda r: np.sin(r) ** (k - 1) * np.cos(r) ** (p - k),
        0.0, alpha, epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    return val


def subsphere_tube_volume(p: int, k: int, eps: float) -> float:
    """Volume of the eps-neighborhood of the great subsphere S^{p-k} in S^p."""
    _check_jpk_args(p, k)
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return sphere_volume(p - k) * sphere_volume(k - 1) * j_integral(p, k, float(np.arcsin(eps)))


def kinematic_constant(p: int, i: int) -> float:
    """Constant relating a curvature integral to its average over subsphere slices."""
    if p < 2 or not 0 <= i < p - 1:
        raise ValueError("need p >= 2 and 0 <= i < p - 1")
    num = np.log(p - i - 1) + _log_binom(p - 1, i) + _log_O(p - 1) + _log_O(p)
    den = _log_O(i) + _log_O(i + 1) + _log_O(p - i - 2)
    return float(np.exp(num - den))


def _log_O(p: int) -> float:
    return np.log(2.0) + 0.5 * (p + 1) * np.log(np.pi) - gammaln(0.5 * (p + 1))


def _log_binom(n: int, k):
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
