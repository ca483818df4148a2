"""On-disk formats.

Dataset directory layout:
    manifest.jsonl  one JSON object per observation (metadata + blob offsets)
    points.bin      contiguous little-endian float32 xyz triples, manifest order

Input log layout (what a detector / labeling pipeline would emit):
    detections.jsonl   DetectionRecord fields
    gt.jsonl           GtTrackRecord fields
    frames.jsonl       per-frame index {frame, offset, length} into frames.bin
    frames.bin         little-endian float32 xyz triples of raw scene points

These JSONL files and the eval set's pairs.jsonl are all read by
:func:`read_records` and written by :func:`write_records`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..geometry import Box3D
from ..util import atomic_write
from .records import DetectionRecord, FormatError, GtTrackRecord, Observation, ReidDataset

_POINT_BYTES = 12  # 3 * float32


# key -> the exact types its parsed JSON value may have
_MANIFEST_KEYS = {
    "observation_id": (str,), "object_id": (str, type(None)), "predicted_class": (str,),
    "frame": (int,), "n_points": (int,), "detector_score": (int, float),
    "offset": (int,), "length": (int,),
}
_FRAME_KEYS = {"frame": (int,), "offset": (int,), "length": (int,)}
_DETECTION_KEYS = {"frame": (int,), "box": (dict,), "score": (int, float),
                   "predicted_class": (str,)}
_GT_KEYS = {"frame": (int,), "box": (dict,), "object_id": (str,), "class": (str,)}


def read_records(path, keys: dict):
    """Yield ``("path:line", record)`` for each non-blank line of a JSONL file:
    a JSON object holding every key of ``keys`` with a value of exactly one of
    its types (so a bool is not an int), and finite if it is a float."""
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if line.isspace():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line.decode("utf-8"))
            except ValueError as e:  # also a line that is not UTF-8
                raise FormatError(f"{where}: bad JSON ({e})") from e
            if type(rec) is not dict:
                raise FormatError(f"{where}: record is not a JSON object")
            for key, types in keys.items():
                if key not in rec:
                    raise FormatError(f"{where}: missing key {key!r}")
                value = rec[key]
                if type(value) not in types:
                    raise FormatError(f"{where}: key {key!r} has wrong type "
                                      f"{type(value).__name__}")
                if type(value) is float and not math.isfinite(value):
                    raise FormatError(f"{where}: key {key!r} is not finite ({value})")
            yield where, rec


def write_records(path, records) -> None:
    """Write an iterable of dicts as JSONL, one object per line, atomically."""
    with atomic_write(path) as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def _write_indexed(directory, index_name: str, blob_name: str, rows) -> None:
    """Write ``(record, points)`` rows as a blob of float32 xyz triples and a
    JSONL index of the records, each given its points' ``offset`` and ``length``."""
    directory = Path(directory)
    with atomic_write(directory / blob_name, "wb") as blob:
        def index():
            offset = 0
            for rec, points in rows:
                raw = np.ascontiguousarray(points, dtype="<f4").tobytes()
                blob.write(raw)
                yield {**rec, "offset": offset, "length": len(raw)}
                offset += len(raw)
        write_records(directory / index_name, index())


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


def _box_from_json(box: dict, where: str) -> Box3D:
    """A box of 3 finite centre numbers, 3 finite positive sizes and a finite yaw."""
    center, size, yaw = box.get("center"), box.get("size"), box.get("yaw")
    try:
        if (type(center) is list and type(size) is list and len(center) == len(size) == 3
                and all(type(v) in (int, float) and math.isfinite(v)
                        for v in (*center, *size, yaw))
                and min(size) > 0):
            return Box3D(tuple(center), tuple(size), float(yaw))
    except OverflowError:  # an integer beyond the float64 range
        pass
    raise FormatError(f"{where}: box needs 3 finite centre numbers, 3 finite "
                      f"positive sizes and a finite yaw, got {box!r}")


def write_dataset(ds: ReidDataset, directory) -> None:
    _write_indexed(directory, "manifest.jsonl", "points.bin", (({
        "observation_id": obs.observation_id,
        "object_id": obs.object_id,
        "predicted_class": obs.predicted_class,
        "frame": obs.frame,
        "n_points": obs.n_points,
        "bucket": obs.bucket if obs.n_points >= 1 else None,
        "detector_score": obs.detector_score,
    }, obs.points) for obs in ds.observations))


def read_dataset(directory) -> ReidDataset:
    directory = Path(directory)
    manifest_path, blob_path = directory / "manifest.jsonl", directory / "points.bin"
    if not manifest_path.is_file() or not blob_path.is_file():
        raise FormatError(f"not a dataset directory: {directory}")
    blob = blob_path.read_bytes()
    ds = ReidDataset()
    for where, rec in read_records(manifest_path, _MANIFEST_KEYS):
        what = f"observation {rec['observation_id']}"
        if rec["length"] != rec["n_points"] * _POINT_BYTES:
            raise FormatError(f"{where}: {what}: length {rec['length']} does not "
                              f"match n_points {rec['n_points']}")
        points = _blob_points(blob, blob_path, rec, where, what)
        try:
            ds.add(Observation(rec["observation_id"], rec["object_id"], rec["predicted_class"],
                               rec["frame"], points, rec["detector_score"]))
        except FormatError as e:  # a duplicate id or a class conflict
            raise FormatError(f"{where}: {e}") from e
    return ds


# -- detection / ground-truth / frame logs -------------------------------


def write_detections(records: list[DetectionRecord], path) -> None:
    write_records(path, ({
        "frame": r.frame,
        "box": _box_to_json(r.box),
        "score": r.score,
        "predicted_class": r.predicted_class,
    } for r in records))


def read_detections(path) -> list[DetectionRecord]:
    out = []
    for where, rec in read_records(path, _DETECTION_KEYS):
        box = _box_from_json(rec["box"], where)
        try:
            out.append(DetectionRecord(rec["frame"], box, float(rec["score"]),
                                       rec["predicted_class"]))
        except FormatError as e:  # a score outside [0, 1]
            raise FormatError(f"{where}: {e}") from e
    return out


def write_gt(records: list[GtTrackRecord], path) -> None:
    write_records(path, ({
        "frame": r.frame,
        "box": _box_to_json(r.box),
        "object_id": r.object_id,
        "class": r.cls,
    } for r in records))


def read_gt(path) -> list[GtTrackRecord]:
    out, seen = [], set()
    for where, rec in read_records(path, _GT_KEYS):
        box = _box_from_json(rec["box"], where)
        key = (rec["frame"], rec["object_id"])
        if key in seen:
            raise FormatError(f"{where}: duplicate (frame, object_id) {key}")
        seen.add(key)
        out.append(GtTrackRecord(rec["frame"], box, rec["object_id"], rec["class"]))
    return out


def write_frames(frame_points: dict[int, np.ndarray], directory) -> None:
    _write_indexed(directory, "frames.jsonl", "frames.bin",
                   (({"frame": frame}, frame_points[frame]) for frame in sorted(frame_points)))


def read_frames(directory) -> dict[int, np.ndarray]:
    directory = Path(directory)
    index_path, blob_path = directory / "frames.jsonl", directory / "frames.bin"
    blob = blob_path.read_bytes()
    out = {}
    for where, rec in read_records(index_path, _FRAME_KEYS):
        what = f"frame {rec['frame']}"
        if rec["frame"] in out:
            raise FormatError(f"{where}: duplicate {what}")
        out[rec["frame"]] = _blob_points(blob, blob_path, rec, where, what)
    return out
