"""Pair samplers: bucket conditioning, fallbacks, eval-set construction."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from preid.data import FormatError, Observation, ReidDataset
from preid.sampling import (
    MATCH,
    NON_MATCH,
    EvalSet,
    PairIndex,
    PairSample,
    SamplerStats,
    build_eval_set,
    even_epoch,
    read_eval_set,
    uniform_epoch,
    write_eval_set,
)
from preid.util import keyed_rng, stable_hash


def make_ds(spec, fp_spec=(), cls="car", seed=0):
    """spec: {object_id: [n_points, ...]}; fp_spec: [n_points, ...]."""
    rng = np.random.default_rng(seed)
    ds = ReidDataset()
    k = 0
    for oid, sizes in spec.items():
        for n in sizes:
            ds.add(Observation(f"o{k:04d}", oid, cls, k,
                               rng.normal(size=(n, 3)).astype(np.float32), 0.9))
            k += 1
    for n in fp_spec:
        ds.add(Observation(f"o{k:04d}", None, cls, k,
                           rng.normal(size=(n, 3)).astype(np.float32), 0.9))
        k += 1
    return ds


def bucket_marginals(ds, pairs):
    """Bucket histograms of the second member, split by label."""
    pos, neg = {}, {}
    for p in pairs:
        b = ds.get(p.obs_b).bucket
        side = pos if p.label == MATCH else neg
        side[b] = side.get(b, 0) + 1
    return pos, neg


def tv_distance(h1, h2):
    keys = set(h1) | set(h2)
    n1, n2 = sum(h1.values()) or 1, sum(h2.values()) or 1
    return 0.5 * sum(abs(h1.get(k, 0) / n1 - h2.get(k, 0) / n2) for k in keys)


class TestEpochBasics:
    def test_one_pair_per_object(self):
        index = PairIndex(make_ds({"a": [8, 8], "b": [16, 16], "c": [8]}, fp_spec=[8, 16]))
        pairs = even_epoch(index, seed=0)
        assert len(pairs) == 3

    def test_labels_and_classes(self):
        ds = make_ds({"a": [8, 8], "b": [16, 16]}, fp_spec=[8])
        index = PairIndex(ds)
        for epoch in range(20):
            for p in even_epoch(index, seed=1, epoch=epoch):
                assert p.label in (MATCH, NON_MATCH)
                assert p.cls == "car"
                if p.label == MATCH:
                    assert ds.get(p.obs_a).object_id == ds.get(p.obs_b).object_id
                else:
                    assert ds.get(p.obs_a).object_id != ds.get(p.obs_b).object_id

    def test_determinism_and_epoch_variation(self):
        index = PairIndex(make_ds({"a": [8, 8, 8], "b": [16, 16], "c": [4, 4]}, fp_spec=[8]))
        a = even_epoch(index, seed=3, epoch=2)
        b = even_epoch(index, seed=3, epoch=2)
        assert a == b
        assert even_epoch(index, seed=3, epoch=3) != a or even_epoch(index, seed=4, epoch=2) != a

    def test_positive_fraction_near_half(self):
        index = PairIndex(make_ds({f"obj{i}": [8, 8, 8] for i in range(10)}, fp_spec=[8, 8]))
        pairs = [p for e in range(200) for p in even_epoch(index, seed=5, epoch=e)]
        frac = sum(p.label == MATCH for p in pairs) / len(pairs)
        assert abs(frac - 0.5) < 0.03

    def test_self_pair_fallback_counted(self):
        index = PairIndex(make_ds({"solo": [8]}))
        stats = SamplerStats()
        hit = False
        for e in range(50):
            for p in even_epoch(index, seed=0, epoch=e, stats=stats):
                if p.label == MATCH and p.obs_a == p.obs_b:
                    hit = True
        assert hit and stats.self_pair > 0
        # single object of its class and no FPs: negatives impossible
        assert stats.no_negative_pool > 0

    def test_no_fp_class_fallback(self):
        index = PairIndex(make_ds({"a": [8, 8], "b": [8, 8]}))  # no FPs at all
        stats = SamplerStats()
        pairs = [p for e in range(100) for p in even_epoch(index, 0, epoch=e, stats=stats)]
        assert stats.no_fp_class > 0
        assert all(not p.is_fp_pair for p in pairs)

    def test_no_tp_class_fallback_counted(self):
        # one object and two FPs: a TP-branch draw finds no other object and
        # falls back to an FP of the whole class
        index = PairIndex(make_ds({"a": [8, 64]}, fp_spec=[8, 64]))
        stats = SamplerStats()
        pairs = [p for e in range(400) for p in even_epoch(index, 0, epoch=e, stats=stats)]
        negatives = [p for p in pairs if p.label == NON_MATCH]
        assert negatives and all(p.is_fp_pair for p in negatives)
        assert 0 < stats.no_tp_class < len(negatives)
        assert stats.no_fp_class == stats.no_negative_pool == 0

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            even_epoch(PairIndex(ReidDataset()), seed=0)


class TestBucketConditioning:
    def _biased_ds(self):
        # anchor objects live in bucket 3 (8..15 points); the negative pool is
        # dominated by bucket 6 (64..127) observations of other objects
        spec = {f"lo{i}": [9, 10, 11] for i in range(8)}
        spec.update({f"hi{i}": [70, 80, 90] for i in range(8)})
        return make_ds(spec, fp_spec=[9, 10, 70, 80, 90, 100])

    def test_even_matches_anchor_bucket_distribution(self):
        ds = self._biased_ds()
        index = PairIndex(ds)
        # for even sampling the negative's bucket must be drawn from the
        # anchor object's own bucket frequencies
        counts = {}
        for e in range(300):
            for p in even_epoch(index, seed=7, epoch=e):
                if p.label == NON_MATCH and ds.get(p.obs_a).object_id == "lo0":
                    b = ds.get(p.obs_b).bucket
                    counts[b] = counts.get(b, 0) + 1
        total = sum(counts.values())
        # lo0's observations all fall in bucket 3; within +/- 0.02 every
        # negative should land there (pool is nonempty at bucket 3)
        assert counts.get(3, 0) / total >= 0.98

    def test_even_beats_uniform_on_tv(self):
        ds = self._biased_ds()
        index = PairIndex(ds)
        even_pairs, uni_pairs = [], []
        for e in range(150):
            even_pairs += even_epoch(index, seed=11, epoch=e)
            uni_pairs += uniform_epoch(index, seed=11, epoch=e)
        tv_even = tv_distance(*bucket_marginals(ds, even_pairs))
        tv_uni = tv_distance(*bucket_marginals(ds, uni_pairs))
        assert tv_even < tv_uni
        assert tv_even <= 0.05

    def test_bucket_frequencies_respected(self):
        # object with observations split 2:1 between buckets 3 and 6
        ds = make_ds({"mix": [8, 9, 64], "other": [8, 9, 64, 65]},
                     fp_spec=[8, 9, 10, 64, 65, 66])
        index = PairIndex(ds)
        draws = {3: 0, 6: 0}
        for e in range(4000):
            for p in even_epoch(index, seed=13, epoch=e):
                if p.label == NON_MATCH and ds.get(p.obs_a).object_id == "mix":
                    draws[ds.get(p.obs_b).bucket] += 1
        total = sum(draws.values())
        assert abs(draws[3] / total - 2 / 3) < 0.02

    def test_bucket_shift_fallback(self):
        # anchor in bucket 5, everything else in bucket 2: pool at the target
        # bucket is empty, nearest nonempty must be used and counted
        index = PairIndex(make_ds({"a": [40, 41], "b": [5, 6], "c": [5, 7]}))
        stats = SamplerStats()
        for e in range(60):
            even_epoch(index, seed=17, epoch=e, stats=stats)
        assert stats.bucket_shift > 0


class TestEvalSet:
    def test_positive_cap(self):
        ds = make_ds({"a": [8] * 10, "b": [8] * 3}, fp_spec=[8, 9])
        ev = build_eval_set(ds, max_pos_per_object=10, seed=0)
        pos_a = [p for p in ev.pairs
                 if p.label == MATCH and ds.get(p.obs_a).object_id == "a"]
        assert len(pos_a) == 10  # C(10,2)=45 candidates capped at 10

    def test_two_observations_one_pair(self):
        ds = make_ds({"a": [8, 8], "b": [8, 8]}, fp_spec=[8])
        ev = build_eval_set(ds, seed=0)
        pos = [p for p in ev.pairs if p.label == MATCH]
        assert len(pos) == 2

    def test_negative_bucket_matched(self):
        ds = make_ds({"a": [8, 9, 64, 65], "b": [8, 9, 64, 65]},
                     fp_spec=[8, 9, 64, 65])
        ev = build_eval_set(ds, seed=1)
        pairs = ev.pairs
        for pos, neg in zip(pairs[::2], pairs[1::2]):
            assert pos.label == MATCH and neg.label == NON_MATCH
            assert ds.get(neg.obs_b).bucket == ds.get(pos.obs_b).bucket

    def test_min_points_filter(self):
        ds = make_ds({"a": [1, 8, 9], "b": [8, 9]})
        ev = build_eval_set(ds, min_points=2, seed=0)
        for p in ev.pairs:
            assert ds.get(p.obs_a).n_points >= 2
            assert ds.get(p.obs_b).n_points >= 2

    def test_densities_recorded(self):
        ds = make_ds({"a": [8, 16], "b": [8, 16]}, fp_spec=[8])
        ev = build_eval_set(ds, seed=0)
        assert len(ev.densities) == len(ev.pairs)
        for p, (na, nb) in zip(ev.pairs, ev.densities):
            assert ds.get(p.obs_a).n_points == na
            assert ds.get(p.obs_b).n_points == nb

    def test_skipped_negative_counted(self):
        # one object, no other TPs, no FPs: every positive lacks a negative
        ds = make_ds({"a": [8, 9, 10]})
        ev = build_eval_set(ds, seed=0)
        assert ev.skipped_negatives == len([p for p in ev.pairs if p.label == MATCH])

    def test_round_trip(self, tmp_path):
        ds = make_ds({"a": [8, 9, 10], "b": [8, 9]}, fp_spec=[8, 9])
        ev = build_eval_set(ds, seed=2)
        write_eval_set(ev, tmp_path / "pairs.jsonl")
        back = read_eval_set(tmp_path / "pairs.jsonl", ds)
        assert back.pairs == ev.pairs
        assert back.densities == ev.densities

    @pytest.mark.parametrize("label, edit", [
        (MATCH, {"label": NON_MATCH}),
        (NON_MATCH, {"label": MATCH}),
        (MATCH, {"cls": "bus"}),
        (MATCH, {"label": NON_MATCH, "cls": "bus"}),
    ])
    def test_read_checks_label_and_class(self, tmp_path, label, edit):
        # MATCH exactly when both observations belong to one object, and the
        # class is obs_a's predicted class
        ds = make_ds({"a": [8, 9, 10], "b": [8, 9]}, fp_spec=[8, 9])
        ev = build_eval_set(ds, seed=2)
        i = next(i for i, p in enumerate(ev.pairs) if p.label == label)
        ev.pairs[i] = dataclasses.replace(ev.pairs[i], **edit)
        write_eval_set(ev, tmp_path / "pairs.jsonl")
        with pytest.raises(FormatError, match=re.escape(f"pairs.jsonl:{i + 1}: ")):
            read_eval_set(tmp_path / "pairs.jsonl", ds)

    @pytest.mark.parametrize("side", [0, 1])
    def test_read_rejects_a_pair_with_no_points(self, tmp_path, side):
        # o0001 has 0 points; build_eval_set skips it, a hand-made pair may not
        ds = make_ds({"a": [8, 0, 9], "b": [8, 9]}, fp_spec=[8])
        ev = build_eval_set(ds, seed=2)
        sides = [("o0001", 0), ("o0002", 9)]
        (a, n_a), (b, n_b) = sides if side == 0 else sides[::-1]
        ev.pairs.insert(0, PairSample(a, b, MATCH, "car"))
        ev.densities.insert(0, (n_a, n_b))
        write_eval_set(ev, tmp_path / "pairs.jsonl")
        with pytest.raises(FormatError, match=re.escape("pairs.jsonl:1: observation 'o0001' ")):
            read_eval_set(tmp_path / "pairs.jsonl", ds)

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            build_eval_set(ReidDataset())


# -- the samplers before the one pool rule, kept as the reference ----------


class _RefIndex:
    def __init__(self, ds, min_points=1):
        self.ds = ds
        self.objects = sorted(ds.index)
        self.obs_of = {
            o: [i for i in ds.index[o] if ds.get(i).n_points >= min_points]
            for o in self.objects
        }
        self.tp_by_class_bucket, self.tp_by_class = {}, {}
        self.fp_by_class_bucket, self.fp_by_class = {}, {}
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

    def bucket_histogram(self, object_id):
        buckets = [self.ds.get(i).bucket for i in self.obs_of[object_id]]
        counts = {}
        for b in buckets:
            counts[b] = counts.get(b, 0) + 1
        keys = sorted(counts)
        return keys, [counts[k] / len(buckets) for k in keys]

    def nearest_bucket(self, target, candidates):
        best = None
        for b in sorted(candidates):
            if best is None or abs(b - target) < abs(best - target):
                best = b
        return best


def _ref_sample_negative(index, rng, object_id, cls, bucket, stats):
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
        pool = index.fp_by_class[cls]
        return pool[int(rng.integers(len(pool)))], True
    return None


def _ref_epoch(ds, seed, epoch, even, stats):
    if not ds.index:
        raise ValueError("dataset has no objects")
    index = _RefIndex(ds)
    out = []
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
                o2 = o1
                stats.self_pair += 1
            out.append(PairSample(o1, o2, MATCH, cls))
            continue
        bucket = None
        if even:
            keys, probs = index.bucket_histogram(object_id)
            bucket = keys[int(rng.choice(len(keys), p=probs))]
        neg = _ref_sample_negative(index, rng, object_id, cls, bucket, stats)
        if neg is None:
            stats.no_negative_pool += 1
            others = [i for i in obs if i != o1] or [o1]
            out.append(PairSample(o1, others[int(rng.integers(len(others)))], MATCH, cls))
            continue
        o2, is_fp = neg
        out.append(PairSample(o1, o2, NON_MATCH, cls, is_fp_pair=is_fp))
    return out


def _ref_build_eval_set(ds, max_pos_per_object, min_points, seed):
    index = _RefIndex(ds, min_points=min_points)
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
            n1 = ds.get(o1).n_points
            ev.pairs.append(PairSample(o1, o2, MATCH, cls))
            ev.densities.append((n1, ds.get(o2).n_points))
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


_POINT_COUNTS = st.sampled_from([0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 40, 64, 100, 130])


@st.composite
def _datasets(draw):
    """1-3 classes, each with 0-4 objects of 1-4 observations and 0-4 FPs,
    added in a drawn order; point counts include 0."""
    adds = []
    for cls in ("car", "bus", "truck")[:draw(st.integers(1, 3))]:
        for j in range(draw(st.integers(0, 4))):
            owner = draw(st.sampled_from(["a", "m", "z"])) + f"{cls}{j}"
            adds += [(owner, cls, n) for n in draw(st.lists(_POINT_COUNTS, min_size=1, max_size=4))]
        adds += [(None, cls, n) for n in draw(st.lists(_POINT_COUNTS, max_size=4))]
    ds = ReidDataset()
    for k in draw(st.permutations(range(len(adds)))):
        owner, cls, n = adds[k]
        ds.add(Observation(f"o{k:03d}", owner, cls, k, np.zeros((n, 3), np.float32), 0.9))
    return ds


_STATS_FIELDS = ("self_pair", "bucket_shift", "no_fp_class", "no_negative_pool")


class TestMatchesReference:
    """Every pair and counter is the same as the samplers' before the one pool rule."""

    @settings(max_examples=300, deadline=None)
    @given(_datasets(), st.integers(0, 2**32 - 1), st.integers(0, 50))
    def test_epochs(self, ds, seed, epoch):
        assume(ds.index)
        for even, sampler in ((True, even_epoch), (False, uniform_epoch)):
            got, want = SamplerStats(), SamplerStats()
            for e in (epoch, epoch + 1, epoch + 2):
                assert sampler(PairIndex(ds), seed, e, stats=got) == _ref_epoch(ds, seed, e, even, want)
            assert [getattr(got, f) for f in _STATS_FIELDS] == \
                [getattr(want, f) for f in _STATS_FIELDS]

    @settings(max_examples=300, deadline=None)
    @given(_datasets(), st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 3))
    def test_eval_set(self, ds, seed, max_pos, min_points):
        assume(len(ds))
        got = build_eval_set(ds, max_pos_per_object=max_pos, min_points=min_points, seed=seed)
        want = _ref_build_eval_set(ds, max_pos, min_points, seed)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
