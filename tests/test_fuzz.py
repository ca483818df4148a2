"""Fuzzing of every on-disk format: the five JSONL kinds and PRID1.

Each case damages one file of a valid set (truncates it at a random byte,
flips a random byte, or swaps two lines) and reads it again. The read must
either fail with one of the package's own data errors, naming the damaged
file's directory, or succeed with a value that writes back and reads back
equal. A bare KeyError, TypeError, IndexError, struct.error,
UnicodeDecodeError or numpy error fails the test.
"""

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preid.data import (
    FormatError,
    InputError,
    SynthConfig,
    extract_observations,
    generate_synthetic,
    read_dataset,
    read_detections,
    read_frames,
    read_gt,
    write_dataset,
    write_detections,
    write_frames,
    write_gt,
)
from preid.model import (
    CheckpointError,
    EncoderConfig,
    ReidModel,
    RtmmConfig,
    load_checkpoint,
    save_checkpoint,
)
from preid.sampling import build_eval_set, read_eval_set, write_eval_set

DATA_ERRORS = (FormatError, InputError, CheckpointError)
ENCODER = EncoderConfig(out_dim=4, n_points=8, hidden=[4])
HEAD = RtmmConfig(layers=1, dim=4, pos_hidden=[4], mlp_hidden=[4], res_hidden=4)


@dataclass
class Kind:
    files: tuple          # the files of one value, any of which may be damaged
    read: object          # directory -> value
    write: object         # (value, directory) -> None
    same: object          # (value, value) -> bool


def _same_frames(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[f], b[f]) for f in a)


def _same_params(a, b):
    return all(np.array_equal(a.params[n].data, b.params[n].data) for n in a.params.names())


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A valid file set of each kind, and how to read, write and compare it."""
    root = tmp_path_factory.mktemp("fuzz")
    detections, gt, frames = generate_synthetic(
        SynthConfig(n_objects={"car": 3, "pedestrian": 2}, frames=3, lam=6.0, fp_rate=0.5), 5)
    write_detections(detections, root / "detections.jsonl")
    write_gt(gt, root / "gt.jsonl")
    write_frames(frames, root)
    ds = extract_observations(detections, gt, frames)
    write_dataset(ds, root)
    write_eval_set(build_eval_set(ds, seed=0), root / "pairs.jsonl")
    save_checkpoint(ReidModel(ENCODER, HEAD, seed=0), root / "model.ckpt")
    kinds = {
        "detections": Kind(("detections.jsonl",),
                           lambda d: read_detections(d / "detections.jsonl"),
                           lambda v, d: write_detections(v, d / "detections.jsonl"),
                           lambda a, b: a == b),
        "gt": Kind(("gt.jsonl",), lambda d: read_gt(d / "gt.jsonl"),
                   lambda v, d: write_gt(v, d / "gt.jsonl"), lambda a, b: a == b),
        "frames": Kind(("frames.jsonl", "frames.bin"), read_frames, write_frames,
                       _same_frames),
        "dataset": Kind(("manifest.jsonl", "points.bin"), read_dataset, write_dataset,
                        lambda a, b: a.structurally_equal(b)),
        "pairs": Kind(("pairs.jsonl",), lambda d: read_eval_set(d / "pairs.jsonl", ds),
                      lambda v, d: write_eval_set(v, d / "pairs.jsonl"),
                      lambda a, b: (a.pairs, a.densities) == (b.pairs, b.densities)),
        "checkpoint": Kind(("model.ckpt",),
                           lambda d: load_checkpoint(d / "model.ckpt", ENCODER, HEAD),
                           lambda v, d: save_checkpoint(v, d / "model.ckpt"), _same_params),
    }
    return root, kinds


def damage(blob: bytes, data, name: str) -> bytes:
    """Truncate at a random byte, flip a random byte, or swap two lines."""
    how = data.draw(st.sampled_from(["truncate", "flip", "swap"] if name.endswith(".jsonl")
                                    else ["truncate", "flip"]))
    if how == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if how == "flip":
        i = data.draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([blob[i] ^ data.draw(st.integers(1, 255))]) + blob[i + 1:]
    lines = blob.split(b"\n")
    i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


@pytest.mark.parametrize("kind", ["detections", "gt", "frames", "dataset", "pairs",
                                  "checkpoint"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_damaged_file_fails_cleanly_or_round_trips(originals, kind, data):
    root, kinds = originals
    spec = kinds[kind]
    name = data.draw(st.sampled_from(spec.files))
    with tempfile.TemporaryDirectory() as tmp:
        damaged, again = Path(tmp) / "damaged", Path(tmp) / "again"
        damaged.mkdir()
        for f in spec.files:
            (damaged / f).write_bytes((root / f).read_bytes())
        (damaged / name).write_bytes(damage((root / name).read_bytes(), data, name))
        try:
            value = spec.read(damaged)
        except DATA_ERRORS as e:
            assert str(damaged) in str(e)
            return
        spec.write(value, again)
        assert spec.same(value, spec.read(again))
