"""Independent reference for observation extraction on synthetic scenes.

The benchmark checks every dataset that ``preid build-dataset`` writes against
this oracle. It shares no code with ``preid.geometry`` or
``preid.data.extract``: candidate points come from a k-d tree over the frame's
ground plane, the box test uses explicit yaw trigonometry, and identity comes
from the nearest ground-truth center rather than IoU assignment.

The identity rule relies on a property of ``preid.data.generate_synthetic``:
objects sit on a 60 m grid and clutter in rows south of it, so each detection
overlaps at most one ground-truth box, that box is within 1 m of it, and the
duplicate rule of extraction never fires.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.spatial import cKDTree

MATCH_RADIUS = 1.0
POINT_TOLERANCE = 1e-5


def expected_observations(detections, gt, frame_points, tau_c: float = 0.1):
    """List of (observation_id, object_id, canonical float32 points)."""
    dets_by_frame: dict[int, list] = {}
    for i, det in enumerate(detections):
        dets_by_frame.setdefault(det.frame, []).append((i, det))
    gt_by_frame: dict[int, list] = {}
    for g in gt:
        gt_by_frame.setdefault(g.frame, []).append(g)

    out = []
    for frame in sorted(dets_by_frame):
        pts = np.asarray(frame_points[frame], dtype=np.float64).reshape(-1, 3)
        tree = cKDTree(pts[:, :2])
        gts = gt_by_frame.get(frame, [])
        gt_xy = np.array([g.box.center[:2] for g in gts]).reshape(-1, 2)
        for i, det in dets_by_frame[frame]:
            if det.score <= tau_c:
                continue
            center = np.asarray(det.box.center)
            l, w, h = det.box.size
            reach = 0.5 * math.hypot(l, w) * (1 + 1e-9) + 1e-9
            cand = np.sort(np.asarray(tree.query_ball_point(center[:2], reach), dtype=np.int64))
            d = pts[cand] - center
            c, s = math.cos(det.box.yaw), math.sin(det.box.yaw)
            local = np.stack([c * d[:, 0] + s * d[:, 1], -s * d[:, 0] + c * d[:, 1], d[:, 2]],
                             axis=1)
            inside = ((np.abs(local[:, 0]) <= l / 2) & (np.abs(local[:, 1]) <= w / 2)
                      & (np.abs(local[:, 2]) <= h / 2))
            if not inside.any():
                continue
            object_id = None
            if len(gts):
                dist = np.linalg.norm(gt_xy - center[:2], axis=1)
                k = int(np.argmin(dist))
                if dist[k] <= MATCH_RADIUS:
                    object_id = gts[k].object_id
            out.append((f"f{frame:06d}-d{i:05d}", object_id,
                        local[inside].astype(np.float32)))
    return out


def digest(rows) -> str:
    """Hash of observation ids, identities and point counts, in dataset order."""
    h = hashlib.sha256()
    for obs_id, object_id, n_points in rows:
        h.update(f"{obs_id}\t{object_id or '-'}\t{n_points}\n".encode())
    return h.hexdigest()[:16]


def oracle_digest(expected) -> str:
    return digest((o, obj, len(p)) for o, obj, p in expected)


def dataset_digest(ds) -> str:
    return digest((o.observation_id, o.object_id, o.n_points) for o in ds.observations)


def points_match(ds, expected) -> bool:
    """Same observations in the same order, with points within tolerance."""
    if len(ds.observations) != len(expected):
        return False
    for obs, (obs_id, object_id, pts) in zip(ds.observations, expected):
        if obs.observation_id != obs_id or obs.object_id != object_id \
                or obs.points.shape != pts.shape:
            return False
        if not np.allclose(obs.points, pts, rtol=0.0, atol=POINT_TOLERANCE):
            return False
    return True
