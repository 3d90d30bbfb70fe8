"""Planar point-in-polygon test for the caging rasterizer.

Points are (x, y) with x along the closing axis.  Polygons are (N, 2)
arrays of vertices in order, implicitly closed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["points_in_polygon"]


def points_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Crossing-number containment test, vectorized over points."""
    points = np.asarray(points, dtype=float)
    a = np.asarray(polygon, dtype=float)
    b = np.roll(a, -1, axis=0)
    x = points[:, 0][:, None]
    y = points[:, 1][:, None]
    ya, yb = a[:, 1][None, :], b[:, 1][None, :]
    xa, xb = a[:, 0][None, :], b[:, 0][None, :]
    straddles = (ya <= y) != (yb <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = xa + (y - ya) * (xb - xa) / (yb - ya)
    crossings = np.sum(straddles & (x < x_cross), axis=1)
    return crossings % 2 == 1
