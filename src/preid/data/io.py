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


# key -> accepted JSON types of a manifest / frame-index record
_MANIFEST_KEYS = {
    "observation_id": str, "object_id": (str, type(None)), "predicted_class": str,
    "frame": int, "n_points": int, "detector_score": (int, float),
    "offset": int, "length": int,
}
_FRAME_KEYS = {"frame": int, "offset": int, "length": int}


def _record(line: str, keys: dict, where: str) -> dict:
    """A JSON object holding every key of ``keys`` with a value of its types."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as e:
        raise FormatError(f"{where}: bad JSON ({e})") from e
    if not isinstance(rec, dict):
        raise FormatError(f"{where}: record is not a JSON object")
    for key, types in keys.items():
        if key not in rec:
            raise FormatError(f"{where}: missing key {key!r}")
        if not isinstance(rec[key], types) or isinstance(rec[key], bool):
            raise FormatError(f"{where}: key {key!r} has wrong type "
                              f"{type(rec[key]).__name__}")
    return rec


def _blob_points(blob: bytes, blob_path: Path, rec: dict, where: str, what: str) -> np.ndarray:
    """The finite float32 xyz triples at the record's byte range of the blob."""
    off, length = rec["offset"], rec["length"]
    if off < 0 or length < 0 or off + length > len(blob):
        raise FormatError(f"{where}: {what}: byte range [{off}, {off + length}) "
                          f"is outside {blob_path.name} ({len(blob)} bytes)")
    if length % _POINT_BYTES:
        raise FormatError(f"{where}: {what}: length {length} is not a multiple "
                          f"of {_POINT_BYTES} bytes")
    points = np.frombuffer(blob[off:off + length], dtype="<f4").reshape(-1, 3)
    if not np.isfinite(points).all():
        raise FormatError(f"{blob_path}: {what} ({where}) has non-finite points")
    return points.copy()


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
            where = f"{manifest_path}:{lineno}"
            rec = _record(line, _MANIFEST_KEYS, where)
            what = f"observation {rec['observation_id']}"
            if rec["length"] != rec["n_points"] * _POINT_BYTES:
                raise FormatError(f"{where}: {what}: length {rec['length']} does not "
                                  f"match n_points {rec['n_points']}")
            ds.add(Observation(
                observation_id=rec["observation_id"],
                object_id=rec["object_id"],
                predicted_class=rec["predicted_class"],
                frame=rec["frame"],
                points=_blob_points(blob, blob_path, rec, where, what),
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
    index_path, blob_path = directory / "frames.jsonl", directory / "frames.bin"
    blob = blob_path.read_bytes()
    out = {}
    with open(index_path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{index_path}:{lineno}"
            rec = _record(line, _FRAME_KEYS, where)
            what = f"frame {rec['frame']}"
            if rec["frame"] in out:
                raise FormatError(f"{where}: duplicate {what}")
            out[rec["frame"]] = _blob_points(blob, blob_path, rec, where, what)
    return out
