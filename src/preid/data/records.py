"""Record types for detection logs and extracted observation datasets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import Box3D, bucket_index


class FormatError(ValueError):
    """Malformed input log or dataset file."""


@dataclass(frozen=True)
class DetectionRecord:
    frame: int
    box: Box3D
    score: float
    predicted_class: str

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise FormatError(f"detection score out of [0,1]: {self.score}")


@dataclass(frozen=True)
class GtTrackRecord:
    frame: int
    box: Box3D
    object_id: str
    cls: str


@dataclass
class Observation:
    """One cropped, canonicalized point set for one object at one timestep.

    ``object_id`` is None exactly when the detection matched no ground-truth
    box at the IoU gate (a false positive).
    """

    observation_id: str
    object_id: str | None
    predicted_class: str
    frame: int
    points: np.ndarray  # (n, 3) float32, canonical box frame
    detector_score: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float32).reshape(-1, 3)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def bucket(self) -> int:
        return bucket_index(self.n_points)

    @property
    def is_fp(self) -> bool:
        return self.object_id is None


@dataclass
class ReidDataset:
    """Observations plus identity / false-positive indices."""

    observations: list[Observation] = field(default_factory=list)
    index: dict[str, list[str]] = field(default_factory=dict)          # object_id -> obs ids
    fp_index: dict[str, list[str]] = field(default_factory=dict)       # predicted class -> FP obs ids
    class_of: dict[str, str] = field(default_factory=dict)             # object_id -> class
    _by_id: dict[str, Observation] = field(default_factory=dict, repr=False)

    def add(self, obs: Observation):
        if obs.observation_id in self._by_id:
            raise FormatError(f"duplicate observation_id: {obs.observation_id}")
        self.observations.append(obs)
        self._by_id[obs.observation_id] = obs
        if obs.object_id is None:
            self.fp_index.setdefault(obs.predicted_class, []).append(obs.observation_id)
        else:
            self.index.setdefault(obs.object_id, []).append(obs.observation_id)
            prev = self.class_of.setdefault(obs.object_id, obs.predicted_class)
            if prev != obs.predicted_class:
                raise FormatError(
                    f"object {obs.object_id} observed with classes {prev} and {obs.predicted_class}"
                )

    def get(self, observation_id: str) -> Observation:
        return self._by_id[observation_id]

    def __contains__(self, observation_id: str) -> bool:
        return observation_id in self._by_id

    def __len__(self) -> int:
        return len(self.observations)

    def n_objects(self) -> int:
        return len(self.index)

    def structurally_equal(self, other: "ReidDataset") -> bool:
        if len(self) != len(other):
            return False
        for a, b in zip(self.observations, other.observations):
            if (a.observation_id, a.object_id, a.predicted_class, a.frame) != (
                b.observation_id, b.object_id, b.predicted_class, b.frame
            ):
                return False
            if abs(a.detector_score - b.detector_score) > 1e-9:
                return False
            if a.points.shape != b.points.shape or not np.array_equal(a.points, b.points):
                return False
        return True
