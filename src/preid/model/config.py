"""Model configuration types and JSON (de)serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

POINTNET_LITE = "pointnet_lite"
EDGECONV_LITE = "edgeconv_lite"


@dataclass
class EncoderConfig:
    kind: str = POINTNET_LITE
    in_dim: int = 3
    out_dim: int = 64
    n_points: int = 128
    hidden: list[int] = field(default_factory=lambda: [64])
    knn: int = 8  # edgeconv only

    def __post_init__(self):
        if self.kind not in (POINTNET_LITE, EDGECONV_LITE):
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if self.kind == EDGECONV_LITE and self.n_points < self.knn:
            raise ValueError(f"edgeconv needs n_points >= k ({self.n_points} < {self.knn})")


@dataclass
class RtmmConfig:
    layers: int = 2
    dim: int = 64              # channel width, must match encoder out_dim
    pos_hidden: list[int] = field(default_factory=lambda: [64])
    mlp_hidden: list[int] = field(default_factory=lambda: [64])
    res_hidden: int = 0        # 0 means 2*dim

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("need at least one cross-attention layer")


def config_to_json(encoder: EncoderConfig, rtmm: RtmmConfig) -> str:
    return json.dumps({"encoder": asdict(encoder), "rtmm": asdict(rtmm)}, indent=2)


def config_from_json(text: str) -> tuple[EncoderConfig, RtmmConfig]:
    """Parse model_config.json. Bad JSON, a missing section, an unknown key
    or a value of another JSON type than its field's default is a ValueError."""
    obj = json.loads(text)
    configs = []
    for section, cls in (("encoder", EncoderConfig), ("rtmm", RtmmConfig)):
        values = obj.get(section) if isinstance(obj, dict) else None
        defaults = asdict(cls())
        if not isinstance(values, dict):
            raise ValueError(f"section {section!r} is missing or not a JSON object")
        for key, value in values.items():
            if key not in defaults:
                raise ValueError(f"unknown key {section}.{key}")
            if type(value) is not type(defaults[key]) or \
                    isinstance(value, list) and any(type(v) is not int for v in value):
                raise ValueError(f"{section}.{key} must be like {defaults[key]!r}, got {value!r}")
        configs.append(cls(**values))
    return configs[0], configs[1]
