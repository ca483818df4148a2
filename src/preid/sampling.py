"""Training-time pair samplers and the density-matched eval-set builder.

Even sampling draws the negative partner's density bucket from the anchor
object's own bucket distribution, so positives and negatives share a density
profile and models cannot exploit point count as a shortcut. Uniform
sampling skips the bucket conditioning.

Every draw uses a stream keyed by (seed, epoch, object id), so per-object
sampling is order-independent and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .data.io import read_records, write_records
from .data.records import FormatError, ReidDataset
from .util import keyed_rng, stable_hash

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
    no_negative_pool: int = 0  # no negative candidate at all; emitted a positive instead


@dataclass
class EvalSet:
    pairs: list[PairSample] = field(default_factory=list)
    densities: list[tuple[int, int]] = field(default_factory=list)
    skipped_negatives: int = 0


class _Index:
    """Per-class / per-bucket candidate pools over a dataset."""

    def __init__(self, ds: ReidDataset, min_points: int = 1):
        self.ds = ds
        self.objects = sorted(ds.index)
        self.obs_of = {
            o: [i for i in ds.index[o] if ds.get(i).n_points >= min_points]
            for o in self.objects
        }
        self.tp_by_class_bucket: dict[tuple[str, int], list[tuple[str, str]]] = {}
        self.tp_by_class: dict[str, list[tuple[str, str]]] = {}
        self.fp_by_class_bucket: dict[tuple[str, int], list[str]] = {}
        self.fp_by_class: dict[str, list[str]] = {}
        for o in self.objects:
            cls = ds.class_of[o]
            for i in self.obs_of[o]:
                b = ds.get(i).bucket
                self.tp_by_class_bucket.setdefault((cls, b), []).append((o, i))
                self.tp_by_class.setdefault(cls, []).append((o, i))
        for cls, ids in sorted(ds.fp_index.items()):
            for i in ids:
                if ds.get(i).n_points < min_points:
                    continue
                self.fp_by_class_bucket.setdefault((cls, ds.get(i).bucket), []).append(i)
                self.fp_by_class.setdefault(cls, []).append(i)

    def bucket_histogram(self, object_id: str) -> tuple[list[int], list[float]]:
        buckets = [self.ds.get(i).bucket for i in self.obs_of[object_id]]
        counts: dict[int, int] = {}
        for b in buckets:
            counts[b] = counts.get(b, 0) + 1
        keys = sorted(counts)
        total = len(buckets)
        return keys, [counts[k] / total for k in keys]

    def nearest_bucket(self, target: int, candidates) -> int | None:
        """Closest bucket by |delta|, ties toward the lower index."""
        best = None
        for b in sorted(candidates):
            if best is None or abs(b - target) < abs(best - target):
                best = b
        return best


def _sample_negative(index: _Index, rng, object_id: str, cls: str,
                     bucket: int | None, stats: SamplerStats) -> tuple[str, bool] | None:
    """Pick a negative partner (obs id, is_fp). `bucket` None means uniform."""
    want_fp = rng.random() <= 0.5
    has_fp = cls in index.fp_by_class
    if want_fp and not has_fp:
        stats.no_fp_class += 1
        want_fp = False

    if want_fp:
        if bucket is None:
            pool = index.fp_by_class[cls]
            return pool[int(rng.integers(len(pool)))], True
        buckets = [b for (c, b) in index.fp_by_class_bucket if c == cls]
        b = index.nearest_bucket(bucket, buckets)
        if b != bucket:
            stats.bucket_shift += 1
        pool = index.fp_by_class_bucket[(cls, b)]
        return pool[int(rng.integers(len(pool)))], True

    def tp_pool(b):
        pool = index.tp_by_class_bucket.get((cls, b), []) if b is not None \
            else index.tp_by_class.get(cls, [])
        return [i for (o, i) in pool if o != object_id]

    if bucket is None:
        pool = tp_pool(None)
    else:
        buckets = [
            b for (c, b) in index.tp_by_class_bucket
            if c == cls and any(o != object_id for o, _ in index.tp_by_class_bucket[(c, b)])
        ]
        b = index.nearest_bucket(bucket, buckets)
        if b is None:
            pool = []
        else:
            if b != bucket:
                stats.bucket_shift += 1
            pool = tp_pool(b)
    if pool:
        return pool[int(rng.integers(len(pool)))], False
    if has_fp:
        # no other object of this class anywhere; fall back to an FP
        pool = index.fp_by_class[cls]
        return pool[int(rng.integers(len(pool)))], True
    return None


def _epoch(ds: ReidDataset, seed: int, epoch: int, even: bool,
           stats: SamplerStats | None) -> list[PairSample]:
    if not ds.index:
        raise ValueError("dataset has no objects")
    stats = stats if stats is not None else SamplerStats()
    index = _Index(ds)
    out: list[PairSample] = []
    for object_id in index.objects:
        rng = keyed_rng(seed, epoch, stable_hash(object_id))
        obs = index.obs_of[object_id]
        if not obs:
            continue
        cls = ds.class_of[object_id]
        o1 = obs[int(rng.integers(len(obs)))]
        if rng.random() <= 0.5:
            others = [i for i in obs if i != o1]
            if others:
                o2 = others[int(rng.integers(len(others)))]
            else:
                o2 = o1  # degenerate object; training resamples point subsets
                stats.self_pair += 1
            out.append(PairSample(o1, o2, MATCH, cls))
            continue
        bucket = None
        if even:
            keys, probs = index.bucket_histogram(object_id)
            bucket = keys[int(rng.choice(len(keys), p=probs))]
        neg = _sample_negative(index, rng, object_id, cls, bucket, stats)
        if neg is None:
            stats.no_negative_pool += 1
            others = [i for i in obs if i != o1] or [o1]
            out.append(PairSample(o1, others[int(rng.integers(len(others)))], MATCH, cls))
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
    index = _Index(ds, min_points=min_points)
    ev = EvalSet()
    for object_id in index.objects:
        rng = keyed_rng(seed, "eval", stable_hash(object_id))
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
        for o1, o2 in pairs:
            n1, n2 = ds.get(o1).n_points, ds.get(o2).n_points
            ev.pairs.append(PairSample(o1, o2, MATCH, cls))
            ev.densities.append((n1, n2))
            b = ds.get(o2).bucket
            tp_pool = [i for (o, i) in index.tp_by_class_bucket.get((cls, b), []) if o != object_id]
            fp_pool = index.fp_by_class_bucket.get((cls, b), [])
            if tp_pool and fp_pool:
                pool, is_fp = (fp_pool, True) if rng.random() <= 0.5 else (tp_pool, False)
            elif tp_pool:
                pool, is_fp = tp_pool, False
            elif fp_pool:
                pool, is_fp = fp_pool, True
            else:
                ev.skipped_negatives += 1
                continue
            o2p = pool[int(rng.integers(len(pool)))]
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
        if rec["label"] not in (MATCH, NON_MATCH):
            raise FormatError(f"{where}: label {rec['label']!r} is not {MATCH} or {NON_MATCH}")
        for side in "ab":
            obs_id, n = rec[f"obs_{side}"], rec[f"n_{side}"]
            if obs_id not in ds:
                raise FormatError(f"{where}: obs_{side} {obs_id!r} is not in the dataset")
            if ds.get(obs_id).n_points != n:
                raise FormatError(f"{where}: n_{side} is {n}, but observation {obs_id!r} "
                                  f"has {ds.get(obs_id).n_points} points")
        is_fp = rec["label"] == NON_MATCH and ds.get(rec["obs_b"]).is_fp
        ev.pairs.append(PairSample(rec["obs_a"], rec["obs_b"], rec["label"],
                                   rec["class"], is_fp_pair=is_fp))
        ev.densities.append((rec["n_a"], rec["n_b"]))
    return ev
