"""Shared plumbing: atomic file writes, keyed RNG streams and config checks."""

from __future__ import annotations

import dataclasses
import hashlib
import math
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


class ConfigError(ValueError):
    """A configuration value is unknown, of the wrong type or out of range."""


def check_numbers(cfg, ints: dict[str, int], reals: tuple[str, ...] = (),
                  listable: tuple[str, ...] = ()) -> None:
    """Check the fields of a config dataclass. A field whose default is a
    list or a dict (built by its default factory) must hold a value of that
    type. Each field named in ``ints`` must hold an int of at least the
    given minimum, and each named in ``reals`` a finite int or float; a bool
    is neither. A list or dict field is checked item by item, and so is a
    list in a field named in ``listable``; any other field is checked as
    one value, so a list or dict there is an error. Raises a ConfigError
    naming the field."""
    containers = set()
    for f in dataclasses.fields(cfg):
        if f.default_factory is not dataclasses.MISSING:
            kind, value = type(f.default_factory()), getattr(cfg, f.name)
            if not isinstance(value, kind):
                raise ConfigError(f"{f.name}: {value!r} is not a {kind.__name__}")
            containers.add(f.name)
    for name in (*ints, *reals):
        value = getattr(cfg, name)
        if name in containers:
            items = value.values() if isinstance(value, dict) else value
        else:
            items = value if name in listable and isinstance(value, list) else [value]
        kind, want = (int, "an int") if name in ints else ((int, float), "a number")
        for v in items:
            if isinstance(v, bool) or not isinstance(v, kind):
                raise ConfigError(f"{name}: {v!r} is not {want}")
            if name in ints and v < ints[name]:
                raise ConfigError(f"{name}: {v!r} is below {ints[name]}")
            if not math.isfinite(v):
                raise ConfigError(f"{name}: {v!r} is not finite")
