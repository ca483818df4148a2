"""Oriented 3D boxes, rotated IoU, assignment, canonicalization, bucketing.

Boxes are yaw-only (no pitch/roll). IoU is computed as BEV rotated-rectangle
polygon intersection (convex clipping) times vertical interval overlap, the
standard definition for driving datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class Box3D:
    """Oriented box: center (x, y, z), size (length, width, height), yaw."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float

    def __post_init__(self):
        if any(s <= 0 for s in self.size):
            raise ValueError(f"box size components must be positive, got {self.size}")
        yaw = self.yaw
        if not (-math.pi < yaw <= math.pi):
            yaw = math.atan2(math.sin(yaw), math.cos(yaw))
            if yaw <= -math.pi:
                yaw = math.pi
            object.__setattr__(self, "yaw", yaw)

    @property
    def volume(self) -> float:
        l, w, h = self.size
        return l * w * h

    def bev_corners(self) -> list[tuple[float, float]]:
        """The footprint's four (x, y) corners, CCW, rotated as floats by
        :func:`_rotate_yaw`, so each rounds as :func:`uncanonicalize` would."""
        l, w, _ = self.size
        cx, cy, _ = self.center
        rotated = [_rotate_yaw(lx * 0.5, ly * 0.5, self.yaw)
                   for lx, ly in ((l, w), (-l, w), (-l, -w), (l, -w))]
        return [(x + cx, y + cy) for x, y in rotated]


@dataclass
class Assignment:
    """One-to-one row/column pairing with its total cost."""

    pairs: list[tuple[int, int]]
    total_cost: float


def _clip_polygon(subject: list, a: list, b: list) -> list:
    """Clip a polygon, a list of (x, y) vertices, by the half-plane left of
    the directed edge a->b."""
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    d = [ex * (y - ay) - ey * (x - ax) for x, y in subject]
    out = []
    n = len(subject)
    for i, (x, y) in enumerate(subject):
        j = (i + 1) % n
        if d[i] >= 0:
            out.append((x, y))
        if (d[i] >= 0) != (d[j] >= 0):
            t = d[i] / (d[i] - d[j])
            xj, yj = subject[j]
            out.append((x + t * (xj - x), y + t * (yj - y)))
    return out


def _polygon_area(poly: list) -> float:
    if len(poly) < 3:
        return 0.0
    twice = 0.0
    x0, y0 = poly[-1]
    for x1, y1 in poly:
        twice += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return 0.5 * abs(twice)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Oriented 3D IoU in [0, 1]; shared-face contact counts as 0."""
    poly = a.bev_corners()
    clip = b.bev_corners()
    for i in range(4):
        poly = _clip_polygon(poly, clip[i], clip[(i + 1) % 4])
        if not poly:
            return 0.0
    bev_inter = _polygon_area(poly)
    za0, za1 = a.center[2] - a.size[2] / 2, a.center[2] + a.size[2] / 2
    zb0, zb1 = b.center[2] - b.size[2] / 2, b.center[2] + b.size[2] / 2
    dz = min(za1, zb1) - max(za0, zb0)
    if dz <= 0 or bev_inter <= 0:
        return 0.0
    inter = bev_inter * dz
    union = a.volume + b.volume - inter
    return float(inter / union)


def hungarian(cost) -> Assignment:
    """Minimum-cost one-to-one assignment of min(m, n) pairs."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return Assignment([], 0.0)
    if not np.all(np.isfinite(cost)):
        raise ValueError("hungarian requires finite costs")
    rows, cols = linear_sum_assignment(cost)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    return Assignment(pairs, float(cost[rows, cols].sum()))


def _rotate_yaw(x, y, yaw: float):
    """Rotate (x, y) about z by ``yaw``: the one yaw formula, for Python
    floats and for float64 columns alike. Elementwise, so a point rounds
    the same alone, in any batch, and as a float or an array element."""
    c, s = math.cos(yaw), math.sin(yaw)
    return c * x - s * y, s * x + c * y


def canonicalize(points, box: Box3D) -> np.ndarray:
    """Map points into the box frame: p -> R_z(-yaw) (p - center)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3) - np.asarray(box.center)
    pts[:, 0], pts[:, 1] = _rotate_yaw(pts[:, 0], pts[:, 1], -box.yaw)
    return pts


def uncanonicalize(points, box: Box3D) -> np.ndarray:
    """Inverse of :func:`canonicalize`."""
    # np.array copies, so assigning the rotated columns leaves the caller's array be
    pts = np.array(points, dtype=np.float64).reshape(-1, 3)
    pts[:, 0], pts[:, 1] = _rotate_yaw(pts[:, 0], pts[:, 1], box.yaw)
    return pts + np.asarray(box.center)


def crop(points, box: Box3D) -> np.ndarray:
    """The points inside the box (boundary inclusive), in order, in box-frame coordinates."""
    local = canonicalize(points, box)
    half = np.asarray(box.size) / 2.0
    return local[np.all(np.abs(local) <= half, axis=1)]


def bucket_index(n_points: int) -> int:
    """Power-two density bucket: k such that n_points is in [2^k, 2^(k+1))."""
    if n_points < 1:
        raise ValueError("bucket_index requires at least one point")
    return int(n_points).bit_length() - 1
