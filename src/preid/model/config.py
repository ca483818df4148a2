"""Model configuration types and JSON (de)serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from ..util import check_numbers

POINTNET_LITE = "pointnet_lite"
EDGECONV_LITE = "edgeconv_lite"
IN_DIM = 3  # the encoders' input width: xyz points


@dataclass
class EncoderConfig:
    kind: str = POINTNET_LITE
    out_dim: int = 64
    n_points: int = 128
    hidden: list[int] = field(default_factory=lambda: [64])
    knn: int = 8  # edgeconv only

    def __post_init__(self):
        check_numbers(self, dict.fromkeys(("out_dim", "n_points", "hidden", "knn"), "[1, inf)"))
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
        check_numbers(self, {**dict.fromkeys(("layers", "dim", "pos_hidden", "mlp_hidden"),
                                             "[1, inf)"), "res_hidden": "[0, inf)"})


def config_to_json(encoder: EncoderConfig, rtmm: RtmmConfig) -> str:
    return json.dumps({"encoder": asdict(encoder), "rtmm": asdict(rtmm)}, indent=2)


def config_from_json(text: str) -> tuple[EncoderConfig, RtmmConfig]:
    """Parse model_config.json. Bad JSON, a missing section, an unknown key
    or a value that the config's own checks reject is a ValueError."""
    obj = json.loads(text)
    configs = []
    for section, cls in (("encoder", EncoderConfig), ("rtmm", RtmmConfig)):
        values = obj.get(section) if isinstance(obj, dict) else None
        if not isinstance(values, dict):
            raise ValueError(f"section {section!r} is missing or not a JSON object")
        # files written while the input width was a field hold "in_dim": 3
        if section == "encoder" and "in_dim" in values:
            in_dim = values.pop("in_dim")
            if type(in_dim) is not int or in_dim != IN_DIM:
                raise ValueError(f"encoder.in_dim must be {IN_DIM}, got {in_dim!r}")
        known = {f.name for f in fields(cls)}
        for key in values:
            if key not in known:
                raise ValueError(f"unknown key {section}.{key}")
        configs.append(cls(**values))
    return configs[0], configs[1]
