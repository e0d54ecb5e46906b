"""Uniform points on the whole sphere, a point source for the tests."""

import numpy as np

from spherecond import RngStream


def sample_uniform_sphere(p: int, rng: RngStream, size: int) -> np.ndarray:
    """`size` uniform points on S^p, shape (size, p+1): normalized standard Gaussian vectors."""
    if p < 1:
        raise ValueError("p must be >= 1")
    g = rng.generator.standard_normal((size, p + 1))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g
