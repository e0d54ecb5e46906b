"""Reproducible random sampling on spheres.

Counter-based (Philox) streams keyed by (master_seed, stream_index), so
that parallel workers can partition a sample budget deterministically.
Cap radii come from exact inversions at p = 1 and p = 2 (one uniform per
radius) and, for p >= 3, from an exact rejection sampler whose envelope is an
exponential tangent to log sin. That one draws a variable number of uniforms,
so a block's points depend on its whole stream: the block runner gives each
block its own. Cap points are built in tangent coordinates at e0, from the
radii and p normals, and one Householder reflection carries them to any other
centre. The draws do not depend on the centre, so one stream gives coupled
samples at every centre.
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

    p = 1 and p = 2 are exact inversions, one uniform per radius: the density is
    constant at p = 1, and at p = 2 sin^2(rho / 2) is uniform on [0, sin^2(alpha / 2)]
    (Archimedes), so rho = 2 arcsin(sqrt(U) sin(alpha / 2)), clamped to alpha against
    rounding. p >= 3: exact rejection sampling from the density sin^{p-1} on
    [0, alpha]. log sin is concave, so for any tangent point r0 in (0, alpha]
    sin^{p-1} rho <= sin^{p-1} r0 * exp(lam (rho - r0)) with lam = (p-1) cot r0.
    Proposals come from that exponential envelope on [0, alpha] by inversion
    and are accepted with the ratio of the density to the envelope. The
    tangent is cot r0 = max(cot alpha, 1/sqrt(p-1)): alpha itself on small
    caps, one standard deviation below the peak at pi/2 on wide ones. By
    quadrature over p = 3..399 and sigma = 1e-3..1, at least 0.637 of the
    proposals are accepted (fewest near p = 8, sigma = 0.935).
    """
    if p == 1:  # constant density, where the envelope degenerates (lam = 0)
        return alpha * gen.random(n)
    if p == 2:
        return np.minimum(2.0 * np.arcsin(np.sqrt(gen.random(n)) * np.sin(0.5 * alpha)), alpha)
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

    The radius rho comes exactly from the density proportional to sin^{p-1} on
    [0, arcsin sigma] (`_cap_radii`), and the direction g/|g| of p standard
    normals is uniform on the unit sphere of the tangent space at e0. So
    z = (s cos rho, sin rho g/|g|), written in one scaling pass, is uniform on
    the cap around s e0 (s = +-1). The Householder reflection
    H = I - v v^T / (1 + |a0|), with v = a - s e0, maps s e0 to a. Choosing
    s = -sign(a0), as LAPACK's dlarfg does, makes |v0| = 1 + |a0|, so nothing
    cancels even as a nears +-e0. At a = e0 exactly, the `north` centre that
    `estimate` uses by default, z already lies on the cap and the two passes of
    the reflection are skipped. All draws precede any use of the centre and do
    not depend on it, so one stream couples samples across centres.
    """
    p = cap.center.p
    gen = rng.generator
    rho = _cap_radii(p, cap.alpha, gen, size)
    g = gen.standard_normal((size, p))
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    # no direction: draw again; g/|g| is independent of |g|, so the law stays exact
    while np.any(bad := norms < 1e-12):
        g[bad] = redraw = gen.standard_normal((np.count_nonzero(bad), p))
        norms[bad] = np.sqrt(np.einsum("ij,ij->i", redraw, redraw))
    a = cap.center.coords
    north = a[0] == 1.0 and not a[1:].any()
    s = 1.0 if north else -np.copysign(1.0, a[0])
    z = np.empty((size, p + 1))
    z[:, 0] = s * np.cos(rho)
    np.multiply(g, (np.sin(rho) / norms)[:, None], out=z[:, 1:])
    if north:
        return z
    v = a.copy()
    v[0] -= s
    z -= np.multiply.outer((z @ v) / (1.0 + abs(a[0])), v)
    return z
