"""Training-time pair samplers and the density-matched eval-set builder.

One rule says which observations may be a negative for an anchor object:
the TPs of other objects of its class, or the FPs of its class. Even
sampling draws a target density bucket from the anchor object's own bucket
distribution and takes the candidates of the nearest bucket that has any
(ties toward the lower bucket), so positives and negatives share a density
profile and models cannot exploit point count as a shortcut. Uniform
sampling takes the candidates of every bucket. The eval-set builder takes
only the exact bucket of each positive's partner.

Every draw uses a stream keyed by (seed, epoch, object id), so per-object
sampling is order-independent and reproducible. The epoch samplers build
their index of a dataset once and reuse it while they are called on the
same dataset with the same observations, so a training run builds it once.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field

from .data.io import read_records, write_records
from .data.records import FormatError, ReidDataset
from .geometry import bucket_index
from .util import keyed_rng

MATCH = "MATCH"
NON_MATCH = "NON_MATCH"


@dataclass(frozen=True)
class PairSample:
    obs_a: str
    obs_b: str
    label: str                 # MATCH or NON_MATCH
    cls: str                   # predicted class of the pair
    is_fp_pair: bool = False


@dataclass
class SamplerStats:
    """Counters for the fallback paths taken during an epoch (auditability)."""

    self_pair: int = 0         # single-observation object paired with itself
    bucket_shift: int = 0      # negative pool empty at target bucket, moved to nearest
    no_fp_class: int = 0       # FP branch chosen but class has no false positives
    no_tp_class: int = 0       # TP branch found no other object of the class; drew an FP
                               # from the whole class, whatever the target bucket
    no_negative_pool: int = 0  # no negative candidate at all; emitted a positive instead


@dataclass
class EvalSet:
    pairs: list[PairSample] = field(default_factory=list)
    densities: list[tuple[int, int]] = field(default_factory=list)
    skipped_negatives: int = 0


class _Index:
    """Negative candidates over a dataset, as (owner, observation id) entries:
    the owner is the object id of a TP and None for an FP. ``by_class`` keys
    them by (is_fp, class) and ``by_bucket`` by (is_fp, class) and then
    bucket, both in dataset order. ``shares`` holds each object's buckets,
    ascending, and the share of its observations in each."""

    def __init__(self, ds: ReidDataset, min_points: int = 1):
        self.objects = sorted(ds.index)
        self.obs_of: dict[str, list[str]] = {}
        self.bucket_of: dict[str, int] = {}
        self.by_class: dict[tuple[bool, str], list[tuple[str | None, str]]] = {}
        self.by_bucket: dict[tuple[bool, str], dict[int, list[tuple[str | None, str]]]] = {}
        self.shares: dict[str, tuple[list[int], list[float]]] = {}
        owners = [(o, ds.class_of[o], ds.index[o]) for o in self.objects]
        owners += [(None, cls, ids) for cls, ids in sorted(ds.fp_index.items())]
        for owner, cls, ids in owners:
            key = (owner is None, cls)
            kept = []
            for i in ids:
                n = ds.get(i).n_points
                if n < min_points:
                    continue
                b = self.bucket_of[i] = bucket_index(n)
                self.by_class.setdefault(key, []).append((owner, i))
                self.by_bucket.setdefault(key, {}).setdefault(b, []).append((owner, i))
                kept.append(i)
            if owner is not None:
                self.obs_of[owner] = kept
                counts = Counter(self.bucket_of[i] for i in kept)
                self.shares[owner] = sorted(counts), [counts[k] / len(kept) for k in sorted(counts)]

    def pool(self, is_fp: bool, cls: str, anchor: str, bucket: int | None = None,
             stats: SamplerStats | None = None) -> list[str]:
        """The negatives of that kind and class that `anchor` does not own.
        With a bucket, only those of the nearest bucket that has one, ties
        toward the lower bucket; a move off `bucket` counts in `stats`."""
        if bucket is None:
            return [i for o, i in self.by_class.get((is_fp, cls), ()) if o != anchor]
        by_bucket = self.by_bucket.get((is_fp, cls), {})
        for b in sorted(by_bucket, key=lambda b: (abs(b - bucket), b)):
            pool = [i for o, i in by_bucket[b] if o != anchor]
            if pool:
                if b != bucket:
                    stats.bucket_shift += 1
                return pool
        return []


def _pick(rng, pool: list):
    return pool[int(rng.integers(len(pool)))]


def _sample_negative(index: _Index, rng, object_id: str, cls: str,
                     bucket: int | None, stats: SamplerStats) -> tuple[str, bool] | None:
    """Pick a negative partner (obs id, is_fp). `bucket` None means uniform."""
    want_fp = rng.random() <= 0.5
    has_fp = (True, cls) in index.by_class
    if want_fp and not has_fp:
        stats.no_fp_class += 1
        want_fp = False
    pool = index.pool(want_fp, cls, object_id, bucket, stats)
    if pool:
        return _pick(rng, pool), want_fp
    if has_fp:
        stats.no_tp_class += 1
        return _pick(rng, index.pool(True, cls, object_id)), True
    return None


# the last dataset the epoch samplers read: (weak reference, size, index)
_epoch_index: tuple = (None, -1, None)


def _index_for_epochs(ds: ReidDataset) -> _Index:
    """The index of ``ds``, rebuilt only for another dataset or one that has
    grown since (``ReidDataset.add`` is the only way to change one)."""
    global _epoch_index
    ref, size, index = _epoch_index
    if ref is None or ref() is not ds or size != len(ds):
        index = _Index(ds)
        _epoch_index = (weakref.ref(ds), len(ds), index)
    return index


def _epoch(ds: ReidDataset, seed: int, epoch: int, even: bool,
           stats: SamplerStats | None) -> list[PairSample]:
    if not ds.index:
        raise ValueError("dataset has no objects")
    stats = stats if stats is not None else SamplerStats()
    index = _index_for_epochs(ds)
    out: list[PairSample] = []
    for object_id in index.objects:
        rng = keyed_rng(seed, epoch, object_id)
        obs = index.obs_of[object_id]
        if not obs:
            continue
        cls = ds.class_of[object_id]
        o1 = _pick(rng, obs)
        others = [i for i in obs if i != o1]
        if rng.random() <= 0.5:
            if not others:
                stats.self_pair += 1  # degenerate object; training resamples point subsets
            out.append(PairSample(o1, _pick(rng, others) if others else o1, MATCH, cls))
            continue
        bucket = None
        if even:
            keys, shares = index.shares[object_id]
            bucket = keys[int(rng.choice(len(keys), p=shares))]
        neg = _sample_negative(index, rng, object_id, cls, bucket, stats)
        if neg is None:
            stats.no_negative_pool += 1
            out.append(PairSample(o1, _pick(rng, others or [o1]), MATCH, cls))
            continue
        o2, is_fp = neg
        out.append(PairSample(o1, o2, NON_MATCH, cls, is_fp_pair=is_fp))
    return out


def even_epoch(ds: ReidDataset, seed: int, epoch: int = 0,
               stats: SamplerStats | None = None) -> list[PairSample]:
    """One bucket-conditioned pair per unique object."""
    return _epoch(ds, seed, epoch, even=True, stats=stats)


def uniform_epoch(ds: ReidDataset, seed: int, epoch: int = 0,
                  stats: SamplerStats | None = None) -> list[PairSample]:
    """One pair per unique object; negatives drawn uniformly, no bucket match."""
    return _epoch(ds, seed, epoch, even=False, stats=stats)


def build_eval_set(ds: ReidDataset, max_pos_per_object: int = 10,
                   min_points: int = 2, seed: int = 0) -> EvalSet:
    """Balanced eval pairs: <= max_pos positives per object, each matched by a
    negative whose partner falls in the same density bucket."""
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    for name, value in (("max_pos_per_object", max_pos_per_object), ("min_points", min_points)):
        if value < 1:
            raise ValueError(f"build_eval_set {name} must be at least 1, got {value}")
    index = _Index(ds, min_points=min_points)
    ev = EvalSet()
    for object_id in index.objects:
        rng = keyed_rng(seed, "eval", object_id)
        obs = index.obs_of[object_id]
        if len(obs) < 2:
            continue
        cls = ds.class_of[object_id]
        all_pairs = [(obs[i], obs[j]) for i in range(len(obs)) for j in range(i + 1, len(obs))]
        if len(all_pairs) > max_pos_per_object:
            chosen = rng.choice(len(all_pairs), size=max_pos_per_object, replace=False)
            pairs = [all_pairs[int(k)] for k in sorted(chosen)]
        else:
            pairs = all_pairs
        pools = {}  # bucket -> this object's TP and FP pools, built once
        for o1, o2 in pairs:
            n1, n2 = ds.get(o1).n_points, ds.get(o2).n_points
            ev.pairs.append(PairSample(o1, o2, MATCH, cls))
            ev.densities.append((n1, n2))
            b = index.bucket_of[o2]  # the exact bucket, not the nearest
            if b not in pools:
                pools[b] = ([i for o, i in index.by_bucket[False, cls][b] if o != object_id],
                            [i for _, i in index.by_bucket.get((True, cls), {}).get(b, ())])
            tp_pool, fp_pool = pools[b]
            if tp_pool and fp_pool:
                pool, is_fp = (fp_pool, True) if rng.random() <= 0.5 else (tp_pool, False)
            elif tp_pool:
                pool, is_fp = tp_pool, False
            elif fp_pool:
                pool, is_fp = fp_pool, True
            else:
                ev.skipped_negatives += 1
                continue
            o2p = _pick(rng, pool)
            ev.pairs.append(PairSample(o1, o2p, NON_MATCH, cls, is_fp_pair=is_fp))
            ev.densities.append((n1, ds.get(o2p).n_points))
    return ev


_PAIR_KEYS = {"obs_a": (str,), "obs_b": (str,), "label": (str,), "class": (str,),
              "n_a": (int,), "n_b": (int,)}


def write_eval_set(ev: EvalSet, path) -> None:
    write_records(path, ({
        "obs_a": pair.obs_a,
        "obs_b": pair.obs_b,
        "label": pair.label,
        "class": pair.cls,
        "n_a": na,
        "n_b": nb,
    } for pair, (na, nb) in zip(ev.pairs, ev.densities)))


def read_eval_set(path, ds: ReidDataset) -> EvalSet:
    """Read pairs.jsonl, checking each pair against the dataset it was built from."""
    ev = EvalSet()
    for where, rec in read_records(path, _PAIR_KEYS):
        for side in "ab":
            obs_id, n = rec[f"obs_{side}"], rec[f"n_{side}"]
            if obs_id not in ds:
                raise FormatError(f"{where}: obs_{side} {obs_id!r} is not in the dataset")
            if ds.get(obs_id).n_points != n:
                raise FormatError(f"{where}: n_{side} is {n}, but observation {obs_id!r} "
                                  f"has {ds.get(obs_id).n_points} points")
        a, b = ds.get(rec["obs_a"]), ds.get(rec["obs_b"])
        label = MATCH if not a.is_fp and a.object_id == b.object_id else NON_MATCH
        if (rec["label"], rec["class"]) != (label, a.predicted_class):
            raise FormatError(f"{where}: the pair is {label!r} of class {a.predicted_class!r}, "
                              f"not {rec['label']!r} of class {rec['class']!r}")
        ev.pairs.append(PairSample(a.observation_id, b.observation_id, label,
                                   a.predicted_class, is_fp_pair=label == NON_MATCH and b.is_fp))
        ev.densities.append((rec["n_a"], rec["n_b"]))
    return ev
