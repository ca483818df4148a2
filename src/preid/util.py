"""Shared plumbing: atomic file writes and keyed RNG streams."""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Write to a temp file in the target directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def stable_hash(s: str) -> int:
    """Process-independent 64-bit hash of a string."""
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little")


def keyed_rng(*keys) -> np.random.Generator:
    """Deterministic generator derived from a tuple of ints/strings.

    Derivation is order-independent across call sites, so parallel consumers
    of different keys see independent, reproducible streams.
    """
    ints = [stable_hash(k) if isinstance(k, str) else int(k) & 0xFFFFFFFFFFFFFFFF for k in keys]
    return np.random.default_rng(np.random.SeedSequence(ints))

