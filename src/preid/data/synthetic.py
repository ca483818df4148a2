"""Deterministic synthetic scene generator.

Stands in for real driving data at desk scale. Each object gets a fixed
shape signature (box dimensions plus a pattern of surface dents); rigid
classes keep it across frames while deformable classes re-perturb it every
observation. Detections are the ground-truth boxes with Gaussian center/yaw
noise, plus random clutter blobs at a configured false-positive rate.

Identity is recoverable from shape, harder for deformables, easier with more
points.

Each frame first draws every random number, object by object in a fixed
order, and then places all its objects' points in one pass over those
draws. Each step of that pass is elementwise, or a reduction over the same
short last axis as for one object, and each box's cosine and sine come from
``math.cos``/``math.sin``, so every point rounds as if placed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..geometry import Box3D, _rotate
from ..util import ConfigError, check_numbers, keyed_rng
from .records import DetectionRecord, GtTrackRecord

RIGID_CLASSES = ("car", "bus", "truck")
DEFORMABLE_CLASSES = ("pedestrian", "bicycle")

# (length, width, height) sampling ranges in meters
_CLASS_DIMS = {
    "car": ((3.6, 5.2), (1.6, 2.1), (1.3, 1.8)),
    "bus": ((9.0, 12.5), (2.6, 3.1), (2.9, 3.6)),
    "truck": ((5.5, 8.5), (2.1, 2.7), (2.3, 3.3)),
    "pedestrian": ((0.5, 0.9), (0.5, 0.9), (1.5, 1.95)),
    "bicycle": ((1.4, 2.0), (0.4, 0.8), (1.0, 1.5)),
}

_CELL = 60.0       # grid spacing between objects; crops can never overlap
_N_DENTS = 6
_FREE_AXES = np.array([[1, 2], [0, 2], [0, 1]])  # row k: in-face axes of faces 2k, 2k+1


@dataclass
class SynthConfig:
    n_objects: dict[str, int] = field(default_factory=lambda: {"car": 10, "pedestrian": 5})
    frames: int = 10
    lam: float | list[float] = 32.0          # mean points per observation; a list is sampled per object
    sigma_center: float = 0.1                # detector center noise, meters
    sigma_yaw: float = 0.05                  # detector yaw noise, radians
    fp_rate: float = 0.5                     # expected clutter detections per frame
    articulation: float = 0.06               # per-frame shape jitter for deformable classes
    dim_spread: float = 0.0                  # extra per-object size diversity factor
    sensor_noise: float = 0.015              # per-point Gaussian noise, meters

    def __post_init__(self):
        check_numbers(self, {"n_objects": "[0, inf)", "frames": "[1, inf)"},
                      {"lam": "(0, inf)", "sigma_center": "[0, inf)", "sigma_yaw": "[0, inf)",
                       "fp_rate": "[0, inf)", "articulation": "[0, inf)",
                       "dim_spread": "[0, 1)", "sensor_noise": "[0, inf)"}, listable=("lam",))
        if self.lam == []:
            raise ConfigError("lam must hold at least one value")
        if not self.n_objects:
            raise ConfigError("n_objects must name at least one class")
        for cls in self.n_objects:
            if cls not in _CLASS_DIMS:
                raise ConfigError(f"unknown class {cls!r}; known: {sorted(_CLASS_DIMS)}")

    @classmethod
    def benchmark(cls) -> "SynthConfig":
        """Reference mixed-density dataset used by the acceptance suite."""
        return cls(
            n_objects={"car": 150, "bus": 50, "truck": 100, "pedestrian": 150, "bicycle": 50},
            frames=12,
            lam=[4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            fp_rate=25.0,
            dim_spread=0.2,
            sensor_noise=0.04,
        )

    @classmethod
    def separable(cls, n_objects: int = 32) -> "SynthConfig":
        """Small rigid-only, dense, low-noise set for overfit sanity checks."""
        return cls(
            n_objects={"car": n_objects},
            frames=8,
            lam=96.0,
            sigma_center=0.03,
            sigma_yaw=0.02,
            fp_rate=0.25,
            dim_spread=0.35,
        )


@dataclass
class _ObjectSpec:
    object_id: str
    cls: str
    dims: tuple[float, float, float]
    lam: float
    base_xy: tuple[float, float]


def _draw_surface(rng: np.random.Generator, size: np.ndarray, n: int):
    """Draw n points on the surface of a box of dims ``size``: each point's
    face, by area, and its two uniform in-face coordinates."""
    areas = size[_FREE_AXES].prod(axis=1).repeat(2)
    return rng.choice(6, size=n, p=areas / areas.sum()), rng.uniform(-0.5, 0.5, size=(n, 2))


def _sample_surface(faces: np.ndarray, u: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Points on box surfaces, each in its own box's local frame.

    ``size`` holds each point's box dims, one row per point. Face ``2k``
    lies at ``+size[k]/2`` and face ``2k+1`` at ``-size[k]/2`` along axis
    ``k``; the other two axes, in axis order, take the in-face coordinates
    ``u`` times their sizes.
    """
    rows = np.arange(len(faces))
    axis = faces // 2
    free = _FREE_AXES[axis]
    pts = np.empty((len(faces), 3))
    pts[rows, axis] = np.where(faces % 2 == 0, 0.5, -0.5) * size[rows, axis]
    pts[rows[:, None], free] = u * size[rows[:, None], free]
    return pts


def _apply_dents(points: np.ndarray, size: np.ndarray, owner: np.ndarray,
                 centers: np.ndarray, depths: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Pull surface points inward by their objects' smooth dent fields (the
    identity signature). ``size`` holds each point's box dims and ``owner``
    its object's row in the per-object ``centers`` (m, k, 2), ``depths`` and
    ``widths`` (m, k)."""
    # parameterize each point by its normalized position, compare to dent centers
    u = points[:, 0] / size[:, 0] + 0.5
    v = points[:, 2] / size[:, 2] + 0.5
    dist2 = (u[:, None] - centers[owner, :, 0]) ** 2 + (v[:, None] - centers[owner, :, 1]) ** 2
    depth = (depths[owner] * np.exp(-dist2 / (2 * widths * widths)[owner])).sum(axis=1)
    # move toward the vertical axis and the mid-height plane
    shrink = np.clip(1.0 - depth[:, None], 0.55, 1.0)
    out = points.copy()
    out[:, :2] *= shrink
    out[:, 2] *= shrink[:, 0]
    return out


def generate_synthetic(
    cfg: SynthConfig, seed: int
) -> tuple[list[DetectionRecord], list[GtTrackRecord], dict[int, np.ndarray]]:
    """Build (detections, gt, frame_points) deterministically from (cfg, seed)."""
    rng = keyed_rng(seed, "synth")
    lam_choices = cfg.lam if isinstance(cfg.lam, list) else [cfg.lam]

    m = sum(cfg.n_objects.values())
    size = np.empty((m, 3))
    centers = np.empty((m, _N_DENTS, 2))   # surface parameterization in [0,1)^2
    depths = np.empty((m, _N_DENTS))
    widths = np.empty((m, _N_DENTS))
    objects: list[_ObjectSpec] = []
    for cls in sorted(cfg.n_objects):
        for j in range(cfg.n_objects[cls]):
            idx = len(objects)
            dims = tuple(
                float(rng.uniform(lo, hi) * (1 + rng.uniform(-cfg.dim_spread, cfg.dim_spread)))
                for lo, hi in _CLASS_DIMS[cls]
            )
            objects.append(_ObjectSpec(
                object_id=f"{cls}-{j:04d}",
                cls=cls,
                dims=dims,
                lam=float(lam_choices[int(rng.integers(len(lam_choices)))]),
                base_xy=(float((idx % 100) * _CELL), float((idx // 100) * _CELL)),
            ))
            size[idx] = dims
            centers[idx] = rng.uniform(0, 1, size=(_N_DENTS, 2))
            depths[idx] = rng.uniform(0.05, 0.30, size=_N_DENTS)
            widths[idx] = rng.uniform(0.08, 0.25, size=_N_DENTS)

    detections: list[DetectionRecord] = []
    gt: list[GtTrackRecord] = []
    frame_points: dict[int, np.ndarray] = {}

    for frame in range(cfg.frames):
        # draw phase: every random number, object by object, in a fixed order
        f_size, f_centers, f_depths = size.copy(), centers.copy(), depths.copy()
        f_center, f_cos, f_sin = np.empty((m, 3)), np.empty(m), np.empty(m)
        counts = np.empty(m, dtype=np.int64)
        faces, coords, noise = [], [], []
        for i, spec in enumerate(objects):
            cx = spec.base_xy[0] + float(rng.uniform(-0.5, 0.5))
            cy = spec.base_xy[1] + float(rng.uniform(-0.5, 0.5))
            cz = spec.dims[2] / 2.0
            yaw = float(rng.uniform(-math.pi, math.pi))

            if spec.cls in DEFORMABLE_CLASSES:
                scale = rng.normal(1.0, cfg.articulation, size=3)
                f_size[i] = [max(d * s, 0.2) for d, s in zip(spec.dims, scale)]
                f_centers[i] += rng.normal(0, cfg.articulation * 2, size=(_N_DENTS, 2))
                f_depths[i] = np.clip(f_depths[i] + rng.normal(0, cfg.articulation, size=_N_DENTS),
                                      0.0, 0.5)

            counts[i] = n = int(rng.poisson(spec.lam))
            face, coord = _draw_surface(rng, f_size[i], n)
            faces.append(face)
            coords.append(coord)
            noise.append(rng.normal(0, cfg.sensor_noise, size=(n, 3)))
            gt_box = Box3D((cx, cy, cz), spec.dims, yaw)
            f_center[i] = gt_box.center
            f_cos[i], f_sin[i] = math.cos(gt_box.yaw), math.sin(gt_box.yaw)
            gt.append(GtTrackRecord(frame=frame, box=gt_box, object_id=spec.object_id, cls=spec.cls))
            det_box = Box3D(
                (cx + rng.normal(0, cfg.sigma_center),
                 cy + rng.normal(0, cfg.sigma_center),
                 cz + rng.normal(0, cfg.sigma_center / 2)),
                spec.dims,
                yaw + rng.normal(0, cfg.sigma_yaw),
            )
            detections.append(DetectionRecord(
                frame=frame, box=det_box,
                score=float(rng.uniform(0.5, 1.0)),
                predicted_class=spec.cls,
            ))

        # place phase: all the frame's object points at once, each point
        # computed elementwise from its own object's draws, then to the world
        cloud = []
        if objects:
            owner = np.repeat(np.arange(m), counts)
            p_size = f_size[owner]
            local = _sample_surface(np.concatenate(faces), np.concatenate(coords), p_size)
            local = _apply_dents(local, p_size, owner, f_centers, f_depths, widths)
            local += np.concatenate(noise)
            local[:, 0], local[:, 1] = _rotate(local[:, 0], local[:, 1], f_cos[owner], f_sin[owner])
            cloud.append(local + f_center[owner])

        # clutter blobs, placed in their own grid rows south of all objects
        for k in range(int(rng.poisson(cfg.fp_rate))):
            cls = sorted(cfg.n_objects)[int(rng.integers(len(cfg.n_objects)))]
            dims = tuple(float(rng.uniform(lo, hi)) for lo, hi in _CLASS_DIMS[cls])
            cx = float(rng.uniform(0, 100 * _CELL))
            cy = -_CELL * (2 + k)
            cz = dims[2] / 2.0
            n = max(int(rng.poisson(float(lam_choices[int(rng.integers(len(lam_choices)))]))), 1)
            blob = rng.normal(0, 1, size=(n, 3)) * (np.asarray(dims) / 5.0) + (cx, cy, cz)
            cloud.append(blob)
            detections.append(DetectionRecord(
                frame=frame,
                box=Box3D((cx, cy, cz), dims, float(rng.uniform(-math.pi, math.pi))),
                score=float(rng.uniform(0.5, 1.0)),
                predicted_class=cls,
            ))

        frame_points[frame] = np.concatenate(cloud, axis=0).astype(np.float32) if cloud \
            else np.empty((0, 3), dtype=np.float32)

    return detections, gt, frame_points
