"""Shared plumbing: atomic file writes, keyed RNG streams, config checks and
the heap thresholds of the training loop."""

from __future__ import annotations

import ctypes
import dataclasses
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


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def fix_heap_thresholds() -> bool:
    """Fix glibc malloc's thresholds, process-wide, so a loop that frees and
    allocates the same large arrays every iteration reuses heap pages.

    By default glibc raises its mmap threshold to the largest mapped block
    freed so far and gives the heap top back to the kernel once it exceeds
    twice that, so whether a training step's tape arrays are faulted in
    anew every step (about 17 k page faults each) depends on what the
    process allocated before. Here blocks below 32 MiB come from the heap,
    and its top is given back only above 256 MiB. Returns whether both were
    set; without ``mallopt`` in the C library nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return (bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20))
            and bool(mallopt(_M_TRIM_THRESHOLD, 256 << 20)))


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


class ConfigError(ValueError):
    """A configuration value is unknown, of the wrong type or out of range."""


def check_range(name: str, value, interval: str) -> None:
    """Raise a ConfigError unless ``value`` lies in ``interval``, written as
    in mathematics: ``"[0, 1)"``, ``"(0, inf)"``. The bounds compare by
    Python's own ``<`` and ``<=``, so ints of any size compare exactly, NaN
    lies in no interval and an infinity only in one closed at that end."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    above = lo <= value if interval[0] == "[" else lo < value
    below = value <= hi if interval[-1] == "]" else value < hi
    if not (above and below):
        raise ConfigError(f"{name} must lie in {interval}, got {value!r}")


def check_numbers(cfg, ints: dict[str, str], reals: dict[str, str] | None = None,
                  listable: tuple[str, ...] = ()) -> None:
    """Check the fields of a config dataclass. A field whose default is a
    list or a dict (built by its default factory) must hold a value of that
    type. Each field named in ``ints`` must hold an int, and each named in
    ``reals`` an int or a float, that lies in the interval it maps to
    (``check_range``); a bool is neither. A field whose default is None may
    hold None. A list or dict field is checked item by item, and so is a
    list in a field named in ``listable``; any other field is checked as
    one value, so a list or dict there is an error. Raises a ConfigError
    naming the field."""
    containers, optional = set(), {f.name for f in dataclasses.fields(cfg) if f.default is None}
    for f in dataclasses.fields(cfg):
        if f.default_factory is not dataclasses.MISSING:
            kind, value = type(f.default_factory()), getattr(cfg, f.name)
            if not isinstance(value, kind):
                raise ConfigError(f"{f.name}: {value!r} is not a {kind.__name__}")
            containers.add(f.name)
    for name, interval in (*ints.items(), *(reals or {}).items()):
        value = getattr(cfg, name)
        if name in containers:
            items = value.values() if isinstance(value, dict) else value
        elif value is None and name in optional:
            items = []
        else:
            items = value if name in listable and isinstance(value, list) else [value]
        kind, want = (int, "an int") if name in ints else ((int, float), "a number")
        for v in items:
            if isinstance(v, bool) or not isinstance(v, kind):
                raise ConfigError(f"{name}: {v!r} is not {want}")
            check_range(name, v, interval)
