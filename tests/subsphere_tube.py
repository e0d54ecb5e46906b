"""Volume of a tube around a great subsphere, an exact reference for the tests."""

import numpy as np

from spherecond import j_integral, sphere_volume


def subsphere_tube_volume(p: int, k: int, eps: float) -> float:
    """Volume of the eps-neighborhood of the great subsphere S^{p-k} in S^p
    (a geodesic ball is half the tube around S^0, k = p)."""
    if p < 1 or not 1 <= k <= p:
        raise ValueError("need p >= 1 and 1 <= k <= p")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return sphere_volume(p - k) * sphere_volume(k - 1) * j_integral(p, k, float(np.arcsin(eps)))
