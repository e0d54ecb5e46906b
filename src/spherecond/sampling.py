"""Reproducible random sampling on spheres.

Counter-based (Philox) streams keyed by (master_seed, stream_index), so
that parallel workers can partition a sample budget deterministically.
Cap radii come from one exact rejection sampler for every (p, alpha), whose
envelope is an exponential tangent to log sin. It draws a variable number
of uniforms, so a block's points depend on its whole stream: the block
runner gives each block its own.
"""

from __future__ import annotations

import numpy as np

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


def _cap_radii(p: int, alpha: float, gen: np.random.Generator, n: int) -> np.ndarray:
    """n angular radii of uniform points on a cap of angular radius alpha in S^p.

    Exact rejection sampling from the density sin^{p-1} on [0, alpha]. log sin
    is concave, so for any tangent point r0 in (0, alpha]
    sin^{p-1} rho <= sin^{p-1} r0 * exp(lam (rho - r0)) with lam = (p-1) cot r0.
    Proposals come from that exponential envelope on [0, alpha] by inversion
    and are accepted with the ratio of the density to the envelope. The
    tangent is cot r0 = max(cot alpha, 1/sqrt(p-1)): alpha itself on small
    caps, one standard deviation below the peak at pi/2 on wide ones. By
    quadrature over p = 2..399 and sigma = 1e-3..1, at least 0.637 of the
    proposals are accepted (fewest near p = 8, sigma = 0.935).
    """
    if p == 1:  # constant density, where the envelope degenerates (lam = 0)
        return alpha * gen.random(n)
    r0 = min(alpha, np.arctan(np.sqrt(p - 1)))
    lam = (p - 1) / np.tan(r0)
    span = -np.expm1(-lam * alpha)
    out = np.empty(0)
    while out.size < n:
        m = n - out.size
        rho = alpha + np.log1p(-span * gen.random(m)) / lam
        # round-off can put rho at or just below 0, where the density is 0:
        # log sin is -inf there (so rho is rejected), without a warning
        ratio = np.sin(rho) / np.sin(r0)
        log_sin = np.log(ratio, out=np.full(m, -np.inf), where=ratio > 0.0)
        log_ratio = (p - 1) * log_sin - lam * (rho - r0)
        # log1p(-u) has the law of log u, and is finite on [0, 1)
        out = np.concatenate([out, rho[np.log1p(-gen.random(m)) < log_ratio]])
    return out


def sample_uniform_cap(cap: Cap, rng: RngStream, size: int) -> np.ndarray:
    """`size` uniform points, shape (size, p+1), on the cap around cap.center of
    projective radius sigma.

    Radius exactly from the density proportional to sin^{p-1} on
    [0, arcsin sigma], by rejection from an exponential envelope (`_cap_radii`),
    direction uniform on the tangent sphere, combined via the spherical
    exponential map.
    """
    p = cap.center.p
    gen = rng.generator
    rho = _cap_radii(p, cap.alpha, gen, size)
    a = cap.center.coords
    # tangent directions: Gaussian vectors with the component along a removed
    u = gen.standard_normal((size, p + 1))
    u -= np.outer(u @ a, a)
    norms = np.linalg.norm(u, axis=1)
    while np.any(bad := norms < 1e-12):  # (almost) along a: no direction, draw again
        g = gen.standard_normal((np.count_nonzero(bad), p + 1))
        g -= np.outer(g @ a, a)
        u[bad], norms[bad] = g, np.linalg.norm(g, axis=1)
    u /= norms[:, None]
    # z = cos(rho) a + sin(rho) u, built in u's memory
    u *= np.sin(rho)[:, None]
    u += np.outer(np.cos(rho), a)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u
