"""Oriented IoU, assignment, canonicalization, density buckets.

IoU is cross-checked against a Monte-Carlo volume oracle and the assignment
solver against exhaustive permutation enumeration.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preid.geometry import (
    Box3D,
    bucket_index,
    canonicalize,
    crop,
    hungarian,
    iou_3d,
    uncanonicalize,
)


def mc_iou(a: Box3D, b: Box3D, n_samples: int, seed: int) -> float:
    """Monte-Carlo IoU: sample the union's bounding volume, count membership."""
    rng = np.random.default_rng(seed)

    def inside(pts, box):
        local = canonicalize(pts, box)
        return np.all(np.abs(local) <= np.asarray(box.size) / 2, axis=1)

    corners = []
    for box in (a, b):
        half = np.asarray(box.size) / 2
        signs = np.array(list(itertools.product([-1, 1], repeat=3)))
        corners.append(uncanonicalize(signs * half, box))
    corners = np.concatenate(corners)
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n_samples, 3))
    in_a, in_b = inside(pts, a), inside(pts, b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def brute_force_assignment(cost: np.ndarray):
    """Minimum-cost assignment by permutation enumeration (small matrices)."""
    m, n = cost.shape
    best_cost, best_pairs = math.inf, []
    if m <= n:
        for perm in itertools.permutations(range(n), m):
            c = sum(cost[i, j] for i, j in enumerate(perm))
            if c < best_cost:
                best_cost, best_pairs = c, sorted(enumerate(perm))
    else:
        for perm in itertools.permutations(range(m), n):
            c = sum(cost[i, j] for j, i in enumerate(perm))
            if c < best_cost:
                best_cost, best_pairs = c, sorted((i, j) for j, i in enumerate(perm))
    return best_pairs, best_cost


class TestBox:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Box3D((0, 0, 0), (1.0, -1.0, 1.0), 0.0)

    def test_yaw_normalized(self):
        box = Box3D((0, 0, 0), (1, 1, 1), 3 * math.pi)
        assert -math.pi < box.yaw <= math.pi
        assert box.yaw == pytest.approx(math.pi)

    def test_bev_corners_axis_aligned(self):
        box = Box3D((1.0, 2.0, 0.0), (4.0, 2.0, 1.0), 0.0)
        expect = {(3.0, 3.0), (-1.0, 3.0), (-1.0, 1.0), (3.0, 1.0)}
        got = {tuple(np.round(c, 9)) for c in box.bev_corners()}
        assert got == expect


class TestIou:
    def test_identical_boxes(self):
        box = Box3D((1, 2, 3), (4, 2, 1.5), 0.7)
        assert iou_3d(box, box) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_boxes(self):
        a = Box3D((0, 0, 0), (1, 1, 1), 0.0)
        b = Box3D((10, 0, 0), (1, 1, 1), 0.3)
        assert iou_3d(a, b) == 0.0

    def test_touching_faces_zero(self):
        a = Box3D((0, 0, 0), (2, 2, 2), 0.0)
        b = Box3D((2, 0, 0), (2, 2, 2), 0.0)
        assert iou_3d(a, b) == 0.0

    def test_half_offset_cubes(self):
        # unit cubes offset by 0.5 in x: intersection 0.5, union 1.5
        a = Box3D((0, 0, 0), (1, 1, 1), 0.0)
        b = Box3D((0.5, 0, 0), (1, 1, 1), 0.0)
        assert iou_3d(a, b) == pytest.approx(1 / 3, abs=1e-9)

    def test_rotated_square_45(self):
        # unit square vs itself rotated 45 degrees: octagon intersection
        # area 2*(sqrt(2)-1), union 2-area -> IoU = area/(2-area) ~ 0.7071
        a = Box3D((0, 0, 0), (1, 1, 1), 0.0)
        b = Box3D((0, 0, 0), (1, 1, 1), math.pi / 4)
        inter = 2 * (math.sqrt(2) - 1)
        assert iou_3d(a, b) == pytest.approx(inter / (2 - inter), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = _random_box(rng)
            b = _random_box(rng, near=a)
            assert iou_3d(a, b) == pytest.approx(iou_3d(b, a), abs=1e-9)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = _random_box(rng)
            b = _random_box(rng, near=a)
            dx, dy, dz = rng.normal(0, 5, size=3)
            dyaw = rng.uniform(-math.pi, math.pi)

            def move(box):
                c, s = math.cos(dyaw), math.sin(dyaw)
                x, y, z = box.center
                return Box3D((c * x - s * y + dx, s * x + c * y + dy, z + dz),
                             box.size, box.yaw + dyaw)

            assert iou_3d(move(a), move(b)) == pytest.approx(iou_3d(a, b), abs=1e-6)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(11)
        for i in range(10):
            a = _random_box(rng)
            b = _random_box(rng, near=a)
            assert iou_3d(a, b) == pytest.approx(mc_iou(a, b, 200_000, i), abs=2e-2)


def _np_clip(subject, a, b):
    """Reference Sutherland-Hodgman step on numpy arrays: keep the part of
    the polygon left of the directed edge a->b."""
    if len(subject) == 0:
        return subject
    edge = b - a
    rel = subject - a
    d = edge[0] * rel[:, 1] - edge[1] * rel[:, 0]
    out = []
    for i in range(len(subject)):
        j = (i + 1) % len(subject)
        if d[i] >= 0:
            out.append(subject[i])
        if (d[i] >= 0) != (d[j] >= 0):
            out.append(subject[i] + d[i] / (d[i] - d[j]) * (subject[j] - subject[i]))
    return np.asarray(out).reshape(-1, 2)


def np_iou(a: Box3D, b: Box3D) -> float:
    """Reference IoU: numpy polygon clipping and a shoelace area."""
    poly, clip = np.asarray(a.bev_corners()), np.asarray(b.bev_corners())
    for i in range(4):
        poly = _np_clip(poly, clip[i], clip[(i + 1) % 4])
    area = 0.0
    if len(poly) >= 3:
        x, y = poly[:, 0], poly[:, 1]
        area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    lo = max(a.center[2] - a.size[2] / 2, b.center[2] - b.size[2] / 2)
    hi = min(a.center[2] + a.size[2] / 2, b.center[2] + b.size[2] / 2)
    if hi <= lo or area <= 0:
        return 0.0
    inter = area * (hi - lo)
    return inter / (a.volume + b.volume - inter)


def _pair(rng, kind):
    a = _random_box(rng)
    l, w, h = a.size
    c, s = math.cos(a.yaw), math.sin(a.yaw)
    x, y, z = a.center
    if kind == "disjoint":
        d = rng.uniform(8, 20)
        theta = rng.uniform(-math.pi, math.pi)
        b = Box3D((x + d * math.cos(theta), y + d * math.sin(theta), z),
                  tuple(rng.uniform(0.5, 3.0, size=3)), float(rng.uniform(-math.pi, math.pi)))
    elif kind == "touching":
        # same yaw and cross-section, placed end to end along the heading
        lb = rng.uniform(0.5, 3.0)
        d = (l + lb) / 2
        b = Box3D((x + d * c, y + d * s, z), (lb, w, h), a.yaw)
    elif kind == "nested":
        # the inner box's circumscribed circle fits in the outer footprint
        r = min(l, w) / 2 * rng.uniform(0.1, 0.9)
        phi = rng.uniform(0, math.pi / 2)
        b = Box3D(a.center, (2 * r * math.cos(phi), 2 * r * math.sin(phi) + 1e-3, h / 2),
                  float(rng.uniform(-math.pi, math.pi)))
    else:
        b = _random_box(rng, near=a)
    return a, b


class TestIouReference:
    @pytest.mark.parametrize("kind", ["disjoint", "touching", "nested", "rotated"])
    def test_matches_numpy_reference(self, kind):
        rng = np.random.default_rng(["disjoint", "touching", "nested", "rotated"].index(kind))
        for _ in range(500):
            a, b = _pair(rng, kind)
            for x, y in ((a, b), (b, a)):
                assert abs(iou_3d(x, y) - np_iou(x, y)) <= 1e-12

    def test_kinds_cover_their_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert iou_3d(*_pair(rng, "disjoint")) == 0.0
            assert iou_3d(*_pair(rng, "touching")) <= 1e-12
            a, b = _pair(rng, "nested")
            assert iou_3d(a, b) == pytest.approx(b.volume / a.volume, rel=1e-9)
        overlapping = [0.0 < iou_3d(*_pair(rng, "rotated")) < 1.0 for _ in range(100)]
        assert sum(overlapping) >= 30


def _random_box(rng, near=None):
    if near is None:
        center = rng.uniform(-2, 2, size=3)
    else:
        center = np.asarray(near.center) + rng.normal(0, 1.0, size=3)
    size = rng.uniform(0.5, 3.0, size=3)
    return Box3D(tuple(center), tuple(size), float(rng.uniform(-math.pi, math.pi)))


class TestHungarian:
    def test_known_2x2(self):
        a = hungarian([[1.0, 2.0], [2.0, 4.0]])
        assert a.pairs == [(0, 1), (1, 0)]
        assert a.total_cost == pytest.approx(4.0)

    def test_empty(self):
        a = hungarian(np.empty((0, 3)))
        assert a.pairs == [] and a.total_cost == 0.0

    def test_infinite_cost_rejected(self):
        with pytest.raises(ValueError):
            hungarian([[1.0, math.inf]])

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2), (5, 5)])
    def test_vs_enumeration(self, shape):
        rng = np.random.default_rng(hash(shape) & 0xFFFF)
        for _ in range(50):
            cost = rng.uniform(0, 10, size=shape)
            got = hungarian(cost)
            _, best_cost = brute_force_assignment(cost)
            assert got.total_cost == pytest.approx(best_cost, abs=1e-9)
            assert len(got.pairs) == min(shape)
            assert len({r for r, _ in got.pairs}) == len(got.pairs)
            assert len({c for _, c in got.pairs}) == len(got.pairs)


class TestCanonicalize:
    def test_corner_maps_to_half_extent(self):
        box = Box3D((1.0, -2.0, 0.5), (4.0, 2.0, 1.0), math.pi / 6)
        corner_local = np.array([[2.0, 1.0, 0.5]])
        world = uncanonicalize(corner_local, box)
        np.testing.assert_allclose(canonicalize(world, box), corner_local, atol=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        box = _random_box(rng)
        pts = rng.normal(0, 3, size=(100, 3))
        back = uncanonicalize(canonicalize(pts, box), box)
        np.testing.assert_allclose(back, pts, atol=1e-6)

    def test_crop_boundary_inclusive(self):
        box = Box3D((0, 0, 0), (2, 2, 2), 0.0)
        pts = np.array([[1.0, 0, 0], [1.0 + 1e-6, 0, 0], [0, 0, 0]])
        kept = crop(pts, box)
        assert len(kept) == 2

    def test_crop_rotated(self):
        box = Box3D((0, 0, 0), (4, 2, 2), math.pi / 2)
        # after 90-degree yaw, the long axis lies along y
        assert len(crop(np.array([[0.0, 1.9, 0.0]]), box)) == 1
        assert len(crop(np.array([[1.9, 0.0, 0.0]]), box)) == 0


_yaws = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 4, -3.0]),
                  st.floats(-math.pi, math.pi))
_boxes = st.builds(Box3D,
                   st.tuples(st.floats(-100, 100), st.floats(-100, 100), st.floats(-2, 2)),
                   st.tuples(*[st.floats(0.05, 12.0)] * 3), _yaws)
# a point's canonical coordinates in half-sizes: on a face, edge or corner
# when a component is +-1, inside when none is
_face_signs = st.tuples(*[st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])] * 3)


class TestBatchIndependence:
    """A point rotates, and so is cropped, the same alone as in any batch,
    and a box corner the same as a Python float as in an array."""

    @settings(max_examples=200, deadline=None)
    @given(_boxes, st.lists(_face_signs, min_size=2, max_size=40))
    def test_rows_round_the_same_alone(self, box, signs):
        local = np.array(signs) * np.array(box.size) / 2
        world = uncanonicalize(local, box)
        world_before, local_before = world.tobytes(), local.tobytes()
        canon = canonicalize(world, box)
        back = uncanonicalize(local, box)
        kept = crop(world, box)
        # a float64 input is used as it is, so it must come back untouched
        assert world.tobytes() == world_before and local.tobytes() == local_before
        alone_kept = []
        for i in range(len(world)):
            assert canonicalize(world[i:i + 1], box).tobytes() == canon[i:i + 1].tobytes()
            assert uncanonicalize(local[i:i + 1], box).tobytes() == back[i:i + 1].tobytes()
            alone_kept += crop(world[i:i + 1], box).tolist()
        assert np.array(alone_kept).reshape(-1, 3).tobytes() == kept.tobytes()
        # crop returns the box-frame rows that its inside test kept
        inside = np.all(np.abs(canon) <= np.asarray(box.size) / 2, axis=1)
        assert kept.tobytes() == canon[inside].tobytes()
        # the corners rotated as floats round as the same corners rotated as columns
        l, w, _ = box.size
        corners = np.array([[l, w, 0.0], [-l, w, 0.0], [-l, -w, 0.0], [l, -w, 0.0]]) * 0.5
        assert (np.array(box.bev_corners()).tobytes()
                == uncanonicalize(corners, box)[:, :2].tobytes())


class TestBuckets:
    def test_small_values(self):
        assert bucket_index(1) == 0
        assert bucket_index(2) == 1
        assert bucket_index(3) == 1
        assert bucket_index(4) == 2

    @pytest.mark.parametrize("k", range(1, 21))
    def test_power_boundaries(self, k):
        assert bucket_index(2 ** k) == k
        assert bucket_index(2 ** k - 1) == k - 1
        assert bucket_index(2 ** (k + 1) - 1) == k

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bucket_index(0)
