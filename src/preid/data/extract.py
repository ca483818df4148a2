"""Observation extraction from detection and ground-truth logs.

Per frame: score-gate detections, IoU-match them one-to-one to GT boxes,
keep matched detections as true positives, discard duplicates overlapping an
already-claimed GT, keep the rest as false positives, then crop scene points
into the frame of the *detected* box, so detector noise is preserved in the
observation; :func:`crop` returns the box-frame points it tested.

Two boxes whose BEV centers lie farther apart than the sum of their
circumscribed radii cannot overlap. Each frame sorts its GT centers by x
once, and each detection takes by binary search only the GTs within its
radius plus the frame's largest GT radius in x. The exact distance rule
then runs on those candidate pairs alone, and :func:`iou_3d` on the
survivors in row-major order, so the dense cost matrix that the one
:func:`hungarian` call of the frame sees is that of an all-pairs test.
The bands cut on x alone, so they prune well only when a frame's objects
spread along x; objects lined up along y share every band.

Points are indexed the same way, by the frame's x order. A detection's box
lies inside the vertical cylinder of its circumscribed BEV radius, so only
points within ``reach`` (that radius plus a small absolute margin) of the
box center in x, and then in y, can lie inside it. One vectorized pass
over the frame's concatenated x-bands applies the y test and sorts each
detection's candidates back into their original order; each kept
detection's slice then reaches the exact :func:`crop` test. That pass
holds every kept detection's x-band candidates at once, so its memory
grows with the number of objects sharing an x-band. :func:`crop`'s rotation
is elementwise, so each point rounds the same among any number of
candidates, a lone one included, and the kept points and their order are
those of a crop of the whole frame.
"""

from __future__ import annotations

import math

import numpy as np

# canonicalize is unused here, but perfbench/tracer.py wraps it by this name
from ..geometry import Box3D, canonicalize, crop, hungarian, iou_3d
from ..util import check_range
from .records import DetectionRecord, GtTrackRecord, Observation, ReidDataset

_FORBIDDEN_COST = 1e6
# metres added to a circumscribed radius before a band search; crop's
# canonical coordinates and the center distance are off by a few ulps, far
# less than this
_REACH_MARGIN = 1e-6


class InputError(ValueError):
    """A referenced frame or record is missing or inconsistent."""


def _bev_radius(box: Box3D) -> float:
    return 0.5 * math.hypot(box.size[0], box.size[1])


def _in_bands(keys: np.ndarray, centers: np.ndarray,
              reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, item) of every item whose key lies within ``reach[i]`` of
    ``centers[i]``, found by binary search in the sorted keys."""
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    lo = np.searchsorted(sorted_keys, centers - reach, side="left")
    hi = np.searchsorted(sorted_keys, centers + reach, side="right")
    # the ranges lo[i]:hi[i] of the sorted order, laid end to end
    lengths = hi - lo
    owner = np.repeat(np.arange(len(lo)), lengths)
    pos = np.arange(len(owner)) + np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
    return owner, by_key[pos]


def _grouped(owner: np.ndarray, item: np.ndarray, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """The (owner, item) pairs sorted by owner, then by item."""
    key = np.sort(owner * n_items + item)
    return key // n_items, key % n_items


def _near_pairs(det_xy, det_radii, gt_xy, gt_radii) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (detection, GT) index pairs whose BEV centers lie within the
    sum of their circumscribed radii; boxes farther apart cannot overlap."""
    rows, cols = _in_bands(gt_xy[:, 0], det_xy[:, 0], det_radii + gt_radii.max() + _REACH_MARGIN)
    near = np.linalg.norm(det_xy[rows] - gt_xy[cols], axis=-1) <= det_radii[rows] + gt_radii[cols]
    return _grouped(rows[near], cols[near], len(gt_xy))


def extract_observations(
    detections: list[DetectionRecord],
    gt: list[GtTrackRecord],
    frame_points: dict[int, np.ndarray],
    tau_c: float = 0.1,
    tau_iou: float = 0.01,
) -> ReidDataset:
    check_range("extract_observations tau_c", tau_c, "[0, 1)")
    check_range("extract_observations tau_iou", tau_iou, "(0, 1]")
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
        det_xy = np.array([d.box.center[:2] for _, d in dets])
        det_radii = np.array([_bev_radius(d.box) for _, d in dets])

        assigned: dict[int, int] = {}  # detection row -> GT column
        duplicate = np.zeros(len(dets), dtype=bool)
        if gts:
            gt_xy = np.array([g.box.center[:2] for g in gts])
            gt_radii = np.array([_bev_radius(g.box) for g in gts])
            rows, cols = _near_pairs(det_xy, det_radii, gt_xy, gt_radii)
            ious = np.array([iou_3d(dets[r][1].box, gts[c].box)
                             for r, c in zip(rows.tolist(), cols.tolist())])
            overlap = ious >= tau_iou
            cost = np.full((len(dets), len(gts)), _FORBIDDEN_COST)
            cost[rows[overlap], cols[overlap]] = 1.0 - ious[overlap]
            assigned = {r: c for r, c in hungarian(cost).pairs if cost[r, c] < _FORBIDDEN_COST}
            # unmatched but overlapping a claimed GT: a duplicate true
            # positive, discarded rather than demoted to FP
            claimed = np.zeros(len(gts), dtype=bool)
            claimed[list(assigned.values())] = True
            duplicate[rows[overlap & claimed[cols]]] = True
        kept = [r for r in range(len(dets)) if r in assigned or not duplicate[r]]

        points = np.asarray(frame_points[frame], dtype=np.float64).reshape(-1, 3)
        reach = det_radii[kept] + _REACH_MARGIN
        owner, cand = _in_bands(points[:, 0], det_xy[kept, 0], reach)
        inside = np.abs(points[cand, 1] - det_xy[kept, 1][owner]) <= reach[owner]
        owner, cand = _grouped(owner[inside], cand[inside], len(points))
        per_det = np.split(points[cand], np.cumsum(np.bincount(owner, minlength=len(kept)))[:-1])
        for r, cand_points in zip(kept, per_det):
            det_idx, det = dets[r]
            canon = crop(cand_points, det.box).astype(np.float32)
            if len(canon) == 0:
                continue
            ds.add(Observation(
                observation_id=f"f{frame:06d}-d{det_idx:05d}",
                object_id=gts[assigned[r]].object_id if r in assigned else None,
                predicted_class=det.predicted_class,
                frame=frame,
                points=canon,
                detector_score=det.score,
            ))
    return ds
