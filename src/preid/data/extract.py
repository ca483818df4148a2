"""Observation extraction from detection and ground-truth logs.

Per frame: score-gate detections, IoU-match them one-to-one to GT boxes,
keep matched detections as true positives, discard duplicates overlapping an
already-claimed GT, keep the rest as false positives, then crop scene points
into the frame of the *detected* box, so detector noise is preserved in the
observation; :func:`crop` returns the box-frame points it tested.

Each frame is indexed once: a stable argsort of its points' x coordinate.
A detection's box lies inside the vertical cylinder of its circumscribed
BEV radius, so only points within ``reach`` (that radius plus a small
absolute margin) of the box center in x, found by binary search in the
index, and then in y can lie inside it. Only those candidates, in their
original order, reach the exact :func:`crop` test. Its rotation is
elementwise, so each point rounds the same among any number of candidates,
a lone one included, and the kept points and their order are those of a
crop of the whole frame.
"""

from __future__ import annotations

import math

import numpy as np

# canonicalize is unused here, but perfbench/tracer.py wraps it by this name
from ..geometry import Box3D, canonicalize, crop, hungarian, iou_3d
from .records import DetectionRecord, GtTrackRecord, Observation, ReidDataset

_FORBIDDEN_COST = 1e6
# metres added to a box's circumscribed radius; crop's canonical coordinates
# are off by a few ulps of the box size, far less than this
_REACH_MARGIN = 1e-6


class InputError(ValueError):
    """A referenced frame or record is missing or inconsistent."""


def _bev_radius(box: Box3D) -> float:
    return 0.5 * math.hypot(box.size[0], box.size[1])


def extract_observations(
    detections: list[DetectionRecord],
    gt: list[GtTrackRecord],
    frame_points: dict[int, np.ndarray],
    tau_c: float = 0.1,
    tau_iou: float = 0.01,
) -> ReidDataset:
    by_frame_det: dict[int, list[tuple[int, DetectionRecord]]] = {}
    for i, det in enumerate(detections):
        by_frame_det.setdefault(det.frame, []).append((i, det))
    by_frame_gt: dict[int, list[GtTrackRecord]] = {}
    for g in gt:
        by_frame_gt.setdefault(g.frame, []).append(g)

    ds = ReidDataset()
    for frame in sorted(by_frame_det):
        if frame not in frame_points:
            det_idx = by_frame_det[frame][0][0]
            raise InputError(f"detection d{det_idx:05d} references frame {frame}, "
                             f"absent from frame points")
        dets = [(i, d) for i, d in by_frame_det[frame] if d.score > tau_c]
        if not dets:
            continue
        gts = by_frame_gt.get(frame, [])
        points = np.asarray(frame_points[frame], dtype=np.float64).reshape(-1, 3)
        order = np.argsort(points[:, 0], kind="stable")
        sorted_x = points[order, 0]

        # boxes whose BEV centers are farther apart than the sum of their
        # circumscribed radii cannot overlap; skip the exact IoU for those
        det_xy = np.array([d.box.center[:2] for _, d in dets])
        det_radii = np.array([_bev_radius(d.box) for _, d in dets])
        iou = np.zeros((len(dets), len(gts)))
        if gts:
            gt_xy = np.array([g.box.center[:2] for g in gts])
            gt_radii = np.array([_bev_radius(g.box) for g in gts])
            dist = np.linalg.norm(det_xy[:, None] - gt_xy[None], axis=-1)
            near = dist <= det_radii[:, None] + gt_radii[None]
            for r, c in zip(*np.nonzero(near)):
                iou[r, c] = iou_3d(dets[r][1].box, gts[c].box)

        assigned: dict[int, int] = {}
        if gts:
            cost = np.where(iou >= tau_iou, 1.0 - iou, _FORBIDDEN_COST)
            for r, c in hungarian(cost).pairs:
                if iou[r, c] >= tau_iou:
                    assigned[r] = c
        # unmatched but overlapping a claimed GT: a duplicate true positive,
        # discarded rather than demoted to FP
        duplicate = (iou[:, list(assigned.values())] >= tau_iou).any(axis=1)

        reach = det_radii + _REACH_MARGIN
        lo = np.searchsorted(sorted_x, det_xy[:, 0] - reach, side="left")
        hi = np.searchsorted(sorted_x, det_xy[:, 0] + reach, side="right")
        for r, (det_idx, det) in enumerate(dets):
            if r in assigned:
                object_id = gts[assigned[r]].object_id
            elif duplicate[r]:
                continue
            else:
                object_id = None
            cand = np.sort(order[lo[r]:hi[r]])
            cand = cand[np.abs(points[cand, 1] - det_xy[r, 1]) <= reach[r]]
            canon = crop(points[cand], det.box).astype(np.float32)
            if len(canon) == 0:
                continue
            ds.add(Observation(
                observation_id=f"f{frame:06d}-d{det_idx:05d}",
                object_id=object_id,
                predicted_class=det.predicted_class,
                frame=frame,
                points=canon,
                detector_score=det.score,
            ))
    return ds
