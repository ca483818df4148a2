"""Binary checkpoint format.

Layout (all little-endian):
    magic "PRID1"
    u32 parameter count
    per parameter, in lexicographic name order:
        u16 name length, UTF-8 name, u8 rank, rank x u64 dims, float32 data
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..util import atomic_write
from .config import EncoderConfig, RtmmConfig
from .network import ReidModel

MAGIC = b"PRID1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(model: ReidModel, path) -> None:
    with atomic_write(Path(path), "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(model.params)))
        for name, tensor in model.params.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            data = tensor.data
            f.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                f.write(struct.pack("<Q", dim))
            f.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def load_checkpoint(path, encoder_cfg: EncoderConfig, rtmm_cfg: RtmmConfig,
                    dtype=np.float32) -> ReidModel:
    blob = Path(path).read_bytes()
    if blob[:5] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:5]!r}")
    off = 5

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError(f"{path}: truncated while reading {what}")
        chunk = blob[off:off + n]
        off += n
        return chunk

    (count,) = struct.unpack("<I", take(4, "parameter count"))
    model = ReidModel(encoder_cfg, rtmm_cfg, seed=0, dtype=dtype)
    seen = set()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        # a name that is not UTF-8 comes out with U+FFFD and is unknown
        name = take(name_len, "name").decode("utf-8", errors="replace")
        if name not in model.params:
            raise CheckpointError(f"{path}: parameter {name!r} unknown to this model config")
        target = model.params[name]
        (rank,) = struct.unpack("<B", take(1, f"rank of {name}"))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank, f"dims of {name}"))
        if target.data.shape != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {shape}, config expects {target.data.shape}"
            )
        data = np.frombuffer(take(4 * target.data.size, f"data of {name}"),
                             dtype="<f4").reshape(shape)
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: parameter {name!r} holds non-finite values")
        target.data = data.astype(dtype).copy() if dtype != np.float32 else data.copy()
        seen.add(name)
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    missing = set(model.params.names()) - seen
    if missing:
        raise CheckpointError(f"{path}: missing parameters {sorted(missing)[:5]}")
    return model
