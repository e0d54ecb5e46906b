"""Reproducible random sampling on spheres.

Counter-based (Philox) streams keyed by (master_seed, stream_index), so
that parallel workers can partition a sample budget deterministically.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc, betaincinv

# j_integral stays bound here: benchmark/tracing.py patches sampling.j_integral.
from .geometry import Cap, j_integral  # noqa: F401


class RngStream:
    """A deterministic random stream identified by (master_seed, stream_index).

    The output sequence is a pure function of the two identifiers and the
    call sequence. Streams are not shareable between concurrent callers;
    derive one stream per worker instead.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        if master_seed < 0 or stream_index < 0:
            raise ValueError("master_seed and stream_index must be nonnegative")
        self.master_seed = int(master_seed)
        self.stream_index = int(stream_index)
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        self.generator = np.random.Generator(np.random.Philox(seq))


def sample_uniform_sphere(p: int, rng: RngStream, size: int) -> np.ndarray:
    """`size` uniform points on S^p, shape (size, p+1): normalized standard Gaussian vectors."""
    if p < 1:
        raise ValueError("p must be >= 1")
    g = rng.generator.standard_normal((size, p + 1))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


def _cap_radii(p: int, alpha: float, gen: np.random.Generator, n: int) -> np.ndarray:
    """n angular radii of uniform points on a cap of angular radius alpha in S^p.

    The radius rho has density proportional to sin^{p-1} on [0, alpha], so
    sin^2(rho/2) ~ Beta(p/2, p/2) truncated at x0 = sin^2(alpha/2); one
    inverse regularized incomplete beta call maps uniforms onto it. When
    the truncated mass I_{x0}(p/2, p/2) is below the smallest normal double
    (tiny caps in high dimension), radii come from `_small_cap_radii`.
    """
    h = 0.5 * p
    x0 = np.sin(0.5 * alpha) ** 2
    mass = betainc(h, h, x0)
    if mass < np.finfo(float).tiny:
        return _small_cap_radii(p, alpha, gen, n)
    x = betaincinv(h, h, gen.random(n) * mass)
    return 2.0 * np.arcsin(np.sqrt(np.minimum(x, x0)))


def _small_cap_radii(p: int, alpha: float, gen: np.random.Generator, n: int) -> np.ndarray:
    """Exact rejection sampler for the radial density sin^{p-1} on [0, alpha].

    log sin is concave, so sin^{p-1} rho <= sin^{p-1} alpha * exp(lam (rho - alpha))
    with lam = (p-1) cot alpha. Proposals come from that exponential
    envelope on [0, alpha] by inversion and are accepted with the ratio of
    the density to the envelope; about 1/((p-1) cos^2 alpha) of them are
    rejected.
    """
    if p == 1:  # constant density, where the envelope degenerates (lam = 0)
        return alpha * gen.random(n)
    lam = (p - 1) / np.tan(alpha)
    span = -np.expm1(-lam * alpha)
    out = np.empty(0)
    while out.size < n:
        m = n - out.size
        rho = alpha + np.log1p(-span * gen.random(m)) / lam
        log_ratio = (p - 1) * np.log(np.sin(rho) / np.sin(alpha)) - lam * (rho - alpha)
        out = np.concatenate([out, rho[np.log(gen.random(m)) < log_ratio]])
    return out


def sample_uniform_cap(cap: Cap, rng: RngStream, size: int) -> np.ndarray:
    """`size` uniform points, shape (size, p+1), on the cap around cap.center of
    projective radius sigma.

    Radius from the density proportional to sin^{p-1} on [0, arcsin sigma]
    (`_cap_radii`), direction uniform on the tangent sphere, combined via
    the spherical exponential map.
    """
    p = cap.center.p
    gen = rng.generator
    rho = _cap_radii(p, cap.alpha, gen, size)
    a = cap.center.coords
    # tangent directions: Gaussian vectors with the component along a removed
    u = np.empty((size, p + 1))
    todo = np.arange(size)
    while todo.size:
        g = gen.standard_normal((todo.size, p + 1))
        g -= np.outer(g @ a, a)
        norms = np.linalg.norm(g, axis=1)
        ok = norms >= 1e-12
        u[todo[ok]] = g[ok] / norms[ok, None]
        todo = todo[~ok]
    z = np.cos(rho)[:, None] * a + np.sin(rho)[:, None] * u
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z
