"""The curve oracle's Newton kernel on (N, 3) rows, as it ran before it moved to
coordinate columns, with a plain full scan of the mesh for each row's nearest point:
the reference that `CurveVariety` must match bit for bit.

f and its gradient are evaluated at rows (`cntr_reference.at_rows`), and dot and cross
products are taken over rows.
"""

import math

import numpy as np

from spherecond import varieties

from cntr_reference import at_rows

# rows per pass of the refinement, and per block of the full scan, whose (rows, mesh)
# |dot| buffer stays in cache
CHUNK_ROWS = 4096
NEAREST_ROWS = 128


def row_dot(a, b):
    return (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) + a[:, 2] * b[:, 2]


def tangential_grad(poly, pts):
    g = at_rows(poly, pts)[1]
    return g - pts * row_dot(g, pts)[:, None]


def project(poly, pts, steps):
    for _ in range(steps):
        f = at_rows(poly, pts)[0]
        g = tangential_grad(poly, pts)
        gn = row_dot(g, g)
        gn = np.where(gn < 1e-30, 1.0, gn)
        pts = pts - (f / gn)[:, None] * g
        pts /= np.sqrt(row_dot(pts, pts))[:, None]
    return pts


def build_mesh(poly):
    size = varieties._MESH_SIZE
    k = np.arange(size) + 0.5
    z = k / size
    phi = k * (math.pi * (3.0 - math.sqrt(5.0)))
    r = np.sqrt(1.0 - z * z)
    lattice = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    grad = tangential_grad(poly, lattice)
    slope = np.sqrt(row_dot(grad, grad))
    near = np.abs(at_rows(poly, lattice)[0]) <= math.sqrt(2.0 * math.pi / size) * slope
    mesh = project(poly, lattice[near], steps=16)
    grad = tangential_grad(poly, mesh)
    return mesh[np.abs(at_rows(poly, mesh)[0]) < 1e-9 * np.sqrt(row_dot(grad, grad))]


def nearest(curve, points):
    """Index of each row's nearest mesh point up to sign, the first largest |dot|, by a
    plain scan of the whole mesh."""
    mesh_t = curve._mesh_t
    idx = np.empty(points.shape[0], dtype=np.intp)
    buf = np.empty((NEAREST_ROWS, mesh_t.shape[1]))
    for s in range(0, points.shape[0], NEAREST_ROWS):
        rows = points[s:s + NEAREST_ROWS]
        dots = buf[:rows.shape[0]]
        np.matmul(rows, mesh_t, out=dots)
        np.abs(dots, out=dots)
        np.argmax(dots, axis=1, out=idx[s:s + rows.shape[0]])
    return idx


def distances(curve, points):
    """curve.distances(points) on rows, from the curve's polynomial and mesh."""
    poly, mesh = curve.poly, curve._mesh
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], CHUNK_ROWS):
        chunk = points[start:start + CHUNK_ROWS]
        best = mesh[nearest(curve, chunk)]
        flip = row_dot(best, chunk) < 0
        best[flip] *= -1.0
        for _ in range(varieties._NEWTON_STEPS):
            g = tangential_grad(poly, best)
            gn = np.sqrt(row_dot(g, g))[:, None]
            gn = np.where(gn < 1e-30, 1.0, gn)
            t = np.cross(best, g / gn)
            step = row_dot(chunk - best, t)
            best = best + step[:, None] * t
            best /= np.sqrt(row_dot(best, best))[:, None]
            best = project(poly, best, steps=3)
        cross = np.cross(best, chunk)
        out[start:start + CHUNK_ROWS] = np.sqrt(row_dot(cross, cross))
    return out
