"""On-disk formats.

Dataset directory layout:
    manifest.jsonl  one JSON object per observation (metadata + blob offsets)
    points.bin      contiguous little-endian float32 xyz triples, manifest order

Input log layout (what a detector / labeling pipeline would emit):
    detections.jsonl   DetectionRecord fields
    gt.jsonl           GtTrackRecord fields
    frames.jsonl       per-frame index {frame, offset, length} into frames.bin
    frames.bin         little-endian float32 xyz triples of raw scene points
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..geometry import Box3D
from ..util import atomic_write
from .records import DetectionRecord, FormatError, GtTrackRecord, Observation, ReidDataset

_POINT_BYTES = 12  # 3 * float32


def _box_to_json(box: Box3D) -> dict:
    return {"center": list(box.center), "size": list(box.size), "yaw": box.yaw}


def _box_from_json(obj: dict) -> Box3D:
    return Box3D(tuple(obj["center"]), tuple(obj["size"]), float(obj["yaw"]))


def write_dataset(ds: ReidDataset, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    offset = 0
    with atomic_write(directory / "points.bin", "wb") as blob, \
         atomic_write(directory / "manifest.jsonl", "w") as manifest:
        for obs in ds.observations:
            raw = np.ascontiguousarray(obs.points, dtype="<f4").tobytes()
            blob.write(raw)
            record = {
                "observation_id": obs.observation_id,
                "object_id": obs.object_id,
                "predicted_class": obs.predicted_class,
                "frame": obs.frame,
                "n_points": obs.n_points,
                "bucket": obs.bucket if obs.n_points >= 1 else None,
                "detector_score": obs.detector_score,
                "offset": offset,
                "length": len(raw),
            }
            manifest.write(json.dumps(record) + "\n")
            offset += len(raw)


def read_dataset(directory) -> ReidDataset:
    directory = Path(directory)
    manifest_path = directory / "manifest.jsonl"
    blob_path = directory / "points.bin"
    if not manifest_path.is_file() or not blob_path.is_file():
        raise FormatError(f"not a dataset directory: {directory}")
    blob = blob_path.read_bytes()
    ds = ReidDataset()
    with open(manifest_path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise FormatError(f"{manifest_path}:{lineno}: bad JSON ({e})") from e
            off, length = rec["offset"], rec["length"]
            if off < 0 or off + length > len(blob):
                raise FormatError(
                    f"observation {rec['observation_id']}: blob range "
                    f"[{off}, {off + length}) exceeds points.bin size {len(blob)}"
                )
            if length != rec["n_points"] * _POINT_BYTES:
                raise FormatError(
                    f"observation {rec['observation_id']}: length {length} does not "
                    f"match n_points {rec['n_points']}"
                )
            points = np.frombuffer(blob[off:off + length], dtype="<f4").reshape(-1, 3)
            if not np.isfinite(points).all():
                raise FormatError(
                    f"{blob_path}: observation {rec['observation_id']} "
                    f"({manifest_path.name} line {lineno}) has non-finite points"
                )
            ds.add(Observation(
                observation_id=rec["observation_id"],
                object_id=rec["object_id"],
                predicted_class=rec["predicted_class"],
                frame=rec["frame"],
                points=points.copy(),
                detector_score=rec["detector_score"],
            ))
    return ds


# -- detection / ground-truth / frame logs -------------------------------


def write_detections(records: list[DetectionRecord], path) -> None:
    with atomic_write(path) as f:
        for r in records:
            f.write(json.dumps({
                "frame": r.frame,
                "box": _box_to_json(r.box),
                "score": r.score,
                "predicted_class": r.predicted_class,
            }) + "\n")


def read_detections(path) -> list[DetectionRecord]:
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                out.append(DetectionRecord(
                    frame=int(rec["frame"]),
                    box=_box_from_json(rec["box"]),
                    score=float(rec["score"]),
                    predicted_class=rec["predicted_class"],
                ))
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
                raise FormatError(f"{path}:{lineno}: malformed detection record ({e})") from e
    return out


def write_gt(records: list[GtTrackRecord], path) -> None:
    with atomic_write(path) as f:
        for r in records:
            f.write(json.dumps({
                "frame": r.frame,
                "box": _box_to_json(r.box),
                "object_id": r.object_id,
                "class": r.cls,
            }) + "\n")


def read_gt(path) -> list[GtTrackRecord]:
    out = []
    seen = set()
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                r = GtTrackRecord(
                    frame=int(rec["frame"]),
                    box=_box_from_json(rec["box"]),
                    object_id=rec["object_id"],
                    cls=rec["class"],
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
                raise FormatError(f"{path}:{lineno}: malformed GT record ({e})") from e
            key = (r.frame, r.object_id)
            if key in seen:
                raise FormatError(f"{path}:{lineno}: duplicate (frame, object_id) {key}")
            seen.add(key)
            out.append(r)
    return out


def write_frames(frame_points: dict[int, np.ndarray], directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    offset = 0
    with atomic_write(directory / "frames.bin", "wb") as blob, \
         atomic_write(directory / "frames.jsonl", "w") as index:
        for frame in sorted(frame_points):
            raw = np.ascontiguousarray(frame_points[frame], dtype="<f4").tobytes()
            blob.write(raw)
            index.write(json.dumps({"frame": frame, "offset": offset, "length": len(raw)}) + "\n")
            offset += len(raw)


def read_frames(directory) -> dict[int, np.ndarray]:
    directory = Path(directory)
    blob = (directory / "frames.bin").read_bytes()
    out = {}
    with open(directory / "frames.jsonl") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            off, length = rec["offset"], rec["length"]
            if off + length > len(blob):
                raise FormatError(f"frame {rec['frame']}: blob range exceeds frames.bin")
            points = np.frombuffer(blob[off:off + length], dtype="<f4").reshape(-1, 3)
            if not np.isfinite(points).all():
                raise FormatError(
                    f"{directory / 'frames.bin'}: frame {rec['frame']} "
                    f"(frames.jsonl line {lineno}) has non-finite points"
                )
            out[int(rec["frame"])] = points.copy()
    return out
