"""Observation extraction, on-disk round trips, and the synthetic generator."""

import itertools
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import preid.data.extract
import preid.data.synthetic
from preid.data import (
    ConfigError,
    DetectionRecord,
    FormatError,
    GtTrackRecord,
    InputError,
    Observation,
    ReidDataset,
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
from preid.data.extract import _REACH_MARGIN
from preid.data.synthetic import (
    _CELL,
    _CLASS_DIMS,
    _N_DENTS,
    DEFORMABLE_CLASSES,
    _apply_dents,
    _draw_surface,
    _sample_surface,
)
from preid.geometry import Box3D, crop, hungarian, iou_3d, uncanonicalize
from preid.util import keyed_rng


def _det(frame, center, cls="car", score=0.9, size=(4.0, 2.0, 1.5), yaw=0.0):
    return DetectionRecord(frame, Box3D(center, size, yaw), score, cls)


def _gt(frame, center, oid, cls="car", size=(4.0, 2.0, 1.5), yaw=0.0):
    return GtTrackRecord(frame, Box3D(center, size, yaw), oid, cls)


def _points_at(*centers, per=20, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.uniform(-0.5, 0.5, size=(per, 3)) + c for c in centers
    ]).astype(np.float32)


class TestExtraction:
    def test_score_gate(self):
        dets = [_det(0, (0, 0, 0), score=0.05), _det(0, (20, 0, 0), score=0.2)]
        gts = [_gt(0, (0, 0, 0), "a"), _gt(0, (20, 0, 0), "b")]
        pts = {0: _points_at((0, 0, 0), (20, 0, 0))}
        ds = extract_observations(dets, gts, pts, tau_c=0.1)
        assert len(ds) == 1
        assert ds.observations[0].object_id == "b"

    def test_low_iou_becomes_fp(self):
        # detection far from the only GT: overlap below the gate -> FP
        dets = [_det(0, (30, 0, 0))]
        gts = [_gt(0, (0, 0, 0), "a")]
        ds = extract_observations(dets, gts, {0: _points_at((30, 0, 0), (0, 0, 0))})
        assert len(ds) == 1
        obs = ds.observations[0]
        assert obs.is_fp and obs.object_id is None
        assert "car" in ds.fp_index

    def test_duplicate_discarded_not_fp(self):
        # two detections on one GT: best IoU wins, the other is dropped entirely
        dets = [_det(0, (0, 0, 0), score=0.9), _det(0, (0.3, 0, 0), score=0.8)]
        gts = [_gt(0, (0, 0, 0), "a")]
        ds = extract_observations(dets, gts, {0: _points_at((0, 0, 0))})
        assert len(ds) == 1
        assert ds.observations[0].object_id == "a"
        assert ds.observations[0].detector_score == pytest.approx(0.9)
        assert not ds.fp_index

    def test_missing_frame_points(self):
        with pytest.raises(InputError, match="d00000 references frame 0"):
            extract_observations([_det(0, (0, 0, 0))], [], {})

    def test_canonical_frame_uses_detected_box(self):
        # points centered at the GT box; detection offset by dx -> canonical
        # coordinates are shifted by -dx relative to the object frame
        dx = 0.4
        dets = [_det(0, (dx, 0, 0))]
        gts = [_gt(0, (0, 0, 0), "a")]
        pts = {0: np.array([[0.0, 0.0, 0.0]], dtype=np.float32)}
        ds = extract_observations(dets, gts, pts)
        np.testing.assert_allclose(ds.observations[0].points, [[-dx, 0.0, 0.0]], atol=1e-6)

    def test_zero_point_observations_dropped(self):
        dets = [_det(0, (0, 0, 0)), _det(0, (40, 0, 0), score=0.95)]
        gts = [_gt(0, (0, 0, 0), "a"), _gt(0, (40, 0, 0), "b")]
        pts = {0: _points_at((0, 0, 0))}  # nothing near the second box
        ds = extract_observations(dets, gts, pts)
        assert [o.object_id for o in ds.observations] == ["a"]

    def test_micro_scenes_match_brute_force(self):
        # randomized small scenes: one-to-one matching must equal exhaustive
        # enumeration of assignments maximizing total IoU over the gate
        rng = np.random.default_rng(42)
        for scene in range(20):
            n_det, n_gt = int(rng.integers(1, 6)), int(rng.integers(0, 5))
            dets, gts = [], []
            for i in range(n_det):
                c = (float(rng.uniform(0, 12)), float(rng.uniform(0, 6)), 0.75)
                dets.append(_det(0, c, yaw=float(rng.uniform(-1, 1))))
            for j in range(n_gt):
                c = (float(rng.uniform(0, 12)), float(rng.uniform(0, 6)), 0.75)
                gts.append(_gt(0, c, f"o{j}", yaw=float(rng.uniform(-1, 1))))
            pts = {0: _points_at(*[d.box.center for d in dets], per=30,
                                 seed=scene)}
            ds = extract_observations(dets, gts, pts, tau_iou=0.01)

            got = {}
            for obs in ds.observations:
                det_idx = int(obs.observation_id.split("-d")[1])
                got[det_idx] = obs.object_id

            expected = _brute_force_partition(dets, gts, 0.01)
            for det_idx, oid in expected.items():
                if det_idx in got:
                    assert got[det_idx] == oid, f"scene {scene} det {det_idx}"
                else:
                    # only droppable for emptiness, never for identity
                    assert _crop_empty(dets[det_idx], pts[0]), f"scene {scene}"
            assert set(got) <= set(expected)


def _full_frame_reference(dets, frame_points, tau_c=0.1):
    """(observation_id, points) of every gated detection without GT, each
    cropped from its whole frame into the box frame, in extraction order."""
    out = []
    for i, det in sorted(enumerate(dets), key=lambda t: (t[1].frame, t[0])):
        if det.score <= tau_c:
            continue
        pts = np.asarray(frame_points[det.frame], dtype=np.float64).reshape(-1, 3)
        kept = crop(pts, det.box)
        if len(kept):
            out.append((f"f{det.frame:06d}-d{i:05d}", kept.astype(np.float32)))
    return out


def _assert_matches_full_frame(dets, frame_points):
    ds = extract_observations(dets, [], frame_points)
    ref = _full_frame_reference(dets, frame_points)
    assert [o.observation_id for o in ds.observations] == [obs_id for obs_id, _ in ref]
    for obs, (_, points) in zip(ds.observations, ref):
        assert obs.points.dtype == points.dtype and obs.points.shape == points.shape
        assert obs.points.tobytes() == points.tobytes()


_yaws = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 4]),
                  st.floats(-math.pi, math.pi))
_boxes = st.builds(Box3D,
                   st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-1, 1)),
                   st.tuples(*[st.floats(0.05, 4.0)] * 3), _yaws)
_face_signs = st.tuples(*[st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])] * 3)


@st.composite
def _scenes(draw):
    """Frames of scattered points plus, per detection, points on its faces,
    edges and corners and on its reach circle; some frames are empty, some
    detections are far from every point or below the score gate."""
    dets, frame_points = [], {}
    for frame in range(draw(st.integers(1, 3))):
        boxes = draw(st.lists(_boxes, max_size=4))
        if draw(st.booleans()):
            boxes.append(Box3D((100.0, -100.0, 0.0), (4.0, 2.0, 1.5), 0.3))
        pts = draw(st.lists(st.tuples(st.floats(-12, 12), st.floats(-12, 12),
                                      st.floats(-3, 3)), max_size=30))
        for box in boxes:
            signs = draw(st.lists(_face_signs, max_size=6))
            if signs:
                pts += uncanonicalize(np.array(signs) * np.array(box.size) / 2, box).tolist()
            reach = 0.5 * math.hypot(box.size[0], box.size[1]) + _REACH_MARGIN
            cx, cy, cz = box.center
            for angle in draw(st.lists(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2])
                                       | st.floats(-math.pi, math.pi), max_size=4)):
                pts.append((cx + reach * math.cos(angle), cy + reach * math.sin(angle), cz))
        if frame == 0 and draw(st.booleans()):
            pts = []  # an empty frame
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        arr = np.array(pts, dtype=dtype).reshape(-1, 3)
        frame_points[frame] = arr[draw(st.permutations(range(len(arr))))]
        dets += [DetectionRecord(frame, box, draw(st.sampled_from([0.9, 0.05])), "car")
                 for box in boxes]
    return dets, frame_points


class TestIndexedExtraction:
    """The frame index must keep exactly the points a whole-frame crop keeps."""

    @settings(max_examples=300, deadline=None)
    @given(_scenes())
    def test_matches_full_frame_crop(self, scene):
        _assert_matches_full_frame(*scene)

    @settings(max_examples=300, deadline=None)
    @given(_boxes, st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3))
    def test_lone_corner_candidate(self, box, signs):
        # the only candidate lies on the box's faces; the frame's other
        # point is far away
        corner = uncanonicalize(np.array(signs) * np.array(box.size) / 2, box)
        _assert_matches_full_frame([DetectionRecord(0, box, 0.9, "car")],
                                   {0: np.vstack([corner, [[100.0, 100.0, 0.0]]])})

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-1, 1)),
           st.tuples(*[st.floats(0.05, 4.0)] * 3), st.integers(0, 3), st.booleans())
    @example((0.0, 0.0, 0.0), (0.05, 0.42294907616183086, 1.0), 2, True)  # needs the margin
    def test_corners_on_the_band_edges(self, center, size, quarter, flip):
        # a diagonal along the x or y axis puts two corners at the box's
        # circumscribed radius from its center, on the edge of a band
        diagonal = math.atan2(size[1], size[0])
        box = Box3D(center, size, quarter * math.pi / 2 + (diagonal if flip else -diagonal))
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
        corners = uncanonicalize(signs * np.array(size) / 2, box)
        _assert_matches_full_frame([DetectionRecord(0, box, 0.9, "car")], {0: corners})

    def test_benchmark_scene_matches_full_frame_crop(self):
        cfg = SynthConfig(n_objects={"car": 4, "pedestrian": 4}, frames=3, fp_rate=2.0)
        dets, _, frame_points = generate_synthetic(cfg, seed=2)
        _assert_matches_full_frame(dets, frame_points)


def _dense_reference(dets, gts, frame_points, tau_c=0.1, tau_iou=0.01):
    """Extraction with the all-pairs near rule: ``np.linalg.norm`` over every
    detection/GT pair of a frame, then :func:`iou_3d` on the near ones in
    row-major order, and a crop of the whole frame. Returns the
    (observation_id, object_id, points) triples and the box pairs that
    :func:`iou_3d` was called with."""
    out, calls = [], []
    for frame in sorted({d.frame for d in dets}):
        frame_dets = [(i, d) for i, d in enumerate(dets) if d.frame == frame and d.score > tau_c]
        if not frame_dets:
            continue
        frame_gts = [g for g in gts if g.frame == frame]
        iou = np.zeros((len(frame_dets), len(frame_gts)))
        if frame_gts:
            def radius(box):
                return 0.5 * math.hypot(box.size[0], box.size[1])

            det_xy = np.array([d.box.center[:2] for _, d in frame_dets])
            gt_xy = np.array([g.box.center[:2] for g in frame_gts])
            dist = np.linalg.norm(det_xy[:, None] - gt_xy[None], axis=-1)
            near = dist <= (np.array([radius(d.box) for _, d in frame_dets])[:, None]
                            + np.array([radius(g.box) for g in frame_gts])[None])
            for r, c in zip(*np.nonzero(near)):
                calls.append((frame_dets[r][1].box, frame_gts[c].box))
                iou[r, c] = iou_3d(*calls[-1])
        assigned = {}
        if frame_gts:
            cost = np.where(iou >= tau_iou, 1.0 - iou, 1e6)
            assigned = {r: c for r, c in hungarian(cost).pairs if iou[r, c] >= tau_iou}
        duplicate = (iou[:, list(assigned.values())] >= tau_iou).any(axis=1)
        points = np.asarray(frame_points[frame], dtype=np.float64).reshape(-1, 3)
        for r, (i, det) in enumerate(frame_dets):
            if r not in assigned and duplicate[r]:
                continue
            kept = crop(points, det.box).astype(np.float32)
            if len(kept):
                object_id = frame_gts[assigned[r]].object_id if r in assigned else None
                out.append((f"f{frame:06d}-d{i:05d}", object_id, kept))
    return out, calls


def _near_gt(box: Box3D, draw) -> Box3D:
    """A GT box for a detection: its own box, a jittered copy, one whose center
    lies exactly the sum of the two circumscribed radii away along x or y,
    or one far away."""
    kind = draw(st.sampled_from(["same", "jitter", "edge_x", "edge_y", "far"]))
    if kind == "same":
        return box
    size = draw(st.tuples(*[st.floats(0.05, 6.0)] * 3))
    if kind == "jitter":
        offset = draw(st.tuples(*[st.floats(-0.5, 0.5)] * 3))
        return Box3D(tuple(c + o for c, o in zip(box.center, offset)),
                     tuple(s * draw(st.floats(0.8, 1.25)) for s in box.size),
                     box.yaw + draw(st.floats(-0.3, 0.3)))
    if kind == "far":
        return Box3D((box.center[0] + 60.0, box.center[1] - 60.0, 0.0), size, 0.0)
    reach = 0.5 * math.hypot(*box.size[:2]) + 0.5 * math.hypot(*size[:2])
    sign = draw(st.sampled_from([-1.0, 1.0]))
    cx, cy, cz = box.center
    center = (cx + sign * reach, cy, cz) if kind == "edge_x" else (cx, cy + sign * reach, cz)
    return Box3D(center, size, draw(_yaws))


@st.composite
def _gt_scenes(draw):
    """Frames of detections with GT boxes on, near, at the near-rule's edge
    of and far from them; some frames have no GT, and in some every
    detection falls below the score gate."""
    dets, gts, frame_points = [], [], {}
    for frame in range(draw(st.integers(1, 3))):
        boxes = draw(st.lists(_boxes, min_size=1, max_size=5))
        below_gate = draw(st.booleans())
        dets += [DetectionRecord(frame, box, 0.05 if below_gate else
                                 draw(st.sampled_from([0.9, 0.05])), "car") for box in boxes]
        if draw(st.booleans()):
            gt_boxes = [_near_gt(draw(st.sampled_from(boxes)), draw)
                        for _ in range(draw(st.integers(1, 6)))]
            gts += [GtTrackRecord(frame, box, f"o{k % 3}", "car")
                    for k, box in enumerate(gt_boxes)]
        pts = draw(st.lists(st.tuples(st.floats(-12, 12), st.floats(-12, 12),
                                      st.floats(-3, 3)), max_size=20))
        for box in boxes:
            signs = draw(st.lists(_face_signs, max_size=4))
            if signs:
                pts += uncanonicalize(np.array(signs) * np.array(box.size) / 2, box).tolist()
        frame_points[frame] = np.array(pts, dtype=np.float32).reshape(-1, 3)
    return dets, gts, frame_points


class TestNearPairIndex:
    """The sorted GT index must test exactly the pairs the all-pairs rule tests."""

    @settings(max_examples=300, deadline=None)
    @given(_gt_scenes())
    def test_matches_dense_near_rule(self, scene):
        dets, gts, frame_points = scene
        calls = []

        def recorded_iou(a, b):
            calls.append((a, b))
            return iou_3d(a, b)

        with mock.patch.object(preid.data.extract, "iou_3d", recorded_iou):
            ds = extract_observations(dets, gts, frame_points)
        ref, ref_calls = _dense_reference(dets, gts, frame_points)
        assert calls == ref_calls
        assert [o.observation_id for o in ds.observations] == [obs_id for obs_id, _, _ in ref]
        assert [o.object_id for o in ds.observations] == [oid for _, oid, _ in ref]
        for obs, (_, _, points) in zip(ds.observations, ref):
            assert obs.points.dtype == points.dtype and obs.points.shape == points.shape
            assert obs.points.tobytes() == points.tobytes()

    @settings(max_examples=500, deadline=None)
    @given(_boxes, st.tuples(*[st.floats(0.05, 6.0)] * 3), _yaws, st.floats(-math.pi, math.pi),
           st.one_of(st.just(1.0), st.floats(1.0, 1.5)), st.floats(-1, 1))
    def test_boxes_outside_the_near_rule_do_not_overlap(self, a, size, yaw, angle, factor, dz):
        reach = 0.5 * math.hypot(*a.size[:2]) + 0.5 * math.hypot(*size[:2])
        b = Box3D((a.center[0] + factor * reach * math.cos(angle),
                   a.center[1] + factor * reach * math.sin(angle), a.center[2] + dz), size, yaw)
        dist = np.linalg.norm(np.array(a.center[:2]) - np.array(b.center[:2]))
        assume(not dist <= 0.5 * math.hypot(*a.size[:2]) + 0.5 * math.hypot(*b.size[:2]))
        assert iou_3d(a, b) == 0.0
        assert iou_3d(b, a) == 0.0


def _crop_empty(det, points):
    from preid.geometry import crop
    return len(crop(points, det.box)) == 0


def _brute_force_partition(dets, gts, tau_iou):
    """Expected det -> object_id (or None for FP) mapping; duplicates absent."""
    iou = np.array([[iou_3d(d.box, g.box) for g in gts] for d in dets])
    # objective mirrors one-to-one matching: maximize the number of valid
    # pairs first, then the total IoU among them
    best_pairs, best_total = [], -1.0
    indices = range(len(gts))
    for k in range(min(len(dets), len(gts)), -1, -1):
        for det_subset in itertools.combinations(range(len(dets)), k):
            for gt_perm in itertools.permutations(indices, k):
                if any(iou[d, g] < tau_iou for d, g in zip(det_subset, gt_perm)):
                    continue
                total = sum(iou[d, g] for d, g in zip(det_subset, gt_perm))
                if total > best_total:
                    best_total = total
                    best_pairs = list(zip(det_subset, gt_perm))
        if best_pairs:
            break
    assigned = dict(best_pairs)
    claimed = set(assigned.values())
    out = {}
    for d in range(len(dets)):
        if d in assigned:
            out[d] = gts[assigned[d]].object_id
        elif any(iou[d, g] >= tau_iou for g in claimed):
            continue  # duplicate: discarded
        else:
            out[d] = None
    return out


class TestDatasetInvariants:
    def test_duplicate_observation_id(self):
        ds = ReidDataset()
        obs = Observation("x", "a", "car", 0, np.zeros((1, 3)), 0.9)
        ds.add(obs)
        with pytest.raises(FormatError):
            ds.add(Observation("x", "b", "car", 1, np.zeros((1, 3)), 0.9))

    def test_conflicting_class(self):
        ds = ReidDataset()
        ds.add(Observation("x", "a", "car", 0, np.zeros((1, 3)), 0.9))
        with pytest.raises(FormatError):
            ds.add(Observation("y", "a", "bus", 1, np.zeros((1, 3)), 0.9))

    def test_bucket_property(self):
        obs = Observation("x", "a", "car", 0, np.zeros((5, 3)), 0.9)
        assert obs.bucket == 2


class TestRoundTrips:
    def _make_ds(self):
        rng = np.random.default_rng(5)
        ds = ReidDataset()
        for i in range(7):
            ds.add(Observation(
                f"obs{i}", f"obj{i % 3}" if i < 5 else None, "car", i,
                rng.normal(0, 1, size=(int(rng.integers(1, 40)), 3)).astype(np.float32),
                float(rng.uniform(0.5, 1)),
            ))
        return ds

    def test_dataset_round_trip(self, tmp_path):
        ds = self._make_ds()
        write_dataset(ds, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert ds.structurally_equal(back)

    def test_dataset_bitwise_stable(self, tmp_path):
        ds = self._make_ds()
        write_dataset(ds, tmp_path / "a")
        write_dataset(ds, tmp_path / "b")
        for name in ("manifest.jsonl", "points.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_truncated_blob_names_observation(self, tmp_path):
        ds = self._make_ds()
        write_dataset(ds, tmp_path / "ds")
        blob = tmp_path / "ds" / "points.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(FormatError, match="obs6"):
            read_dataset(tmp_path / "ds")

    def test_nan_point_names_observation(self, tmp_path):
        write_dataset(self._make_ds(), tmp_path / "ds")
        blob = tmp_path / "ds" / "points.bin"
        data = bytearray(blob.read_bytes())
        data[:4] = struct.pack("<f", math.nan)  # first coordinate of obs0
        blob.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="obs0.*non-finite"):
            read_dataset(tmp_path / "ds")

    def test_inf_frame_point_names_frame(self, tmp_path):
        write_frames({0: _points_at((0, 0, 0)), 1: _points_at((5, 5, 0))}, tmp_path)
        blob = tmp_path / "frames.bin"
        data = bytearray(blob.read_bytes())
        data[-4:] = struct.pack("<f", math.inf)  # last coordinate of frame 1
        blob.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="frame 1 .*non-finite"):
            read_frames(tmp_path)

    def test_duplicate_frame_rejected(self, tmp_path):
        write_frames({0: _points_at((0, 0, 0)), 1: _points_at((5, 5, 0))}, tmp_path)
        index = tmp_path / "frames.jsonl"
        index.write_text(index.read_text().replace('"frame": 1', '"frame": 0'))
        with pytest.raises(FormatError, match="frames.jsonl:2: duplicate frame 0"):
            read_frames(tmp_path)

    def test_bad_manifest_json_reports_line(self, tmp_path):
        ds = self._make_ds()
        write_dataset(ds, tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[2] = "{not json"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=":3"):
            read_dataset(tmp_path / "ds")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FormatError):
            read_dataset(tmp_path / "nope")

    def test_empty_dataset_round_trip(self, tmp_path):
        write_dataset(ReidDataset(), tmp_path / "ds")
        assert len(read_dataset(tmp_path / "ds")) == 0

    def test_log_round_trips(self, tmp_path):
        dets = [_det(0, (1, 2, 0.75), yaw=0.3), _det(1, (4, 5, 0.75), score=0.6)]
        gts = [_gt(0, (1, 2, 0.75), "a"), _gt(1, (4, 5, 0.75), "b", cls="bus")]
        write_detections(dets, tmp_path / "d.jsonl")
        write_gt(gts, tmp_path / "g.jsonl")
        assert read_detections(tmp_path / "d.jsonl") == dets
        assert read_gt(tmp_path / "g.jsonl") == gts

    def test_duplicate_gt_rejected(self, tmp_path):
        gts = [_gt(0, (1, 2, 0.75), "a"), _gt(0, (4, 5, 0.75), "a")]
        write_gt(gts, tmp_path / "g.jsonl")
        with pytest.raises(FormatError, match="duplicate"):
            read_gt(tmp_path / "g.jsonl")


def _sample_surface_loop(rng, dims, n):
    """The per-point, per-face generator that _sample_surface replaced."""
    l, w, h = dims
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.empty((n, 3))
    for i, f in enumerate(faces):
        a, b = u[i]
        if f == 0:
            pts[i] = (l / 2, a * w, b * h)
        elif f == 1:
            pts[i] = (-l / 2, a * w, b * h)
        elif f == 2:
            pts[i] = (a * l, w / 2, b * h)
        elif f == 3:
            pts[i] = (a * l, -w / 2, b * h)
        elif f == 4:
            pts[i] = (a * l, b * w, h / 2)
        else:
            pts[i] = (a * l, b * w, -h / 2)
    return pts


def _apply_dents_loop(points, dims, centers, depths, widths):
    """The dent field accumulated one dent at a time, as _apply_dents once did."""
    if len(points) == 0:
        return points
    l, w, h = dims
    uv = np.stack([points[:, 0] / l + 0.5, points[:, 2] / h + 0.5], axis=1)
    depth = np.zeros(len(points))
    for c, d, s in zip(centers, depths, widths):
        dist2 = ((uv - c) ** 2).sum(axis=1)
        depth += d * np.exp(-dist2 / (2 * s * s))
    shrink = np.clip(1.0 - depth[:, None], 0.55, 1.0)
    out = points.copy()
    out[:, :2] *= shrink
    out[:, 2] *= shrink[:, 0]
    return out


def _generate_per_object(cfg, seed):
    """generate_synthetic as it was before the frame-level place pass: each
    object's points drawn, placed and moved to the world in turn, with the
    loop references above for the surface and the dents. Also returns the
    generator, for its final state."""
    rng = keyed_rng(seed, "synth")
    lam_choices = cfg.lam if isinstance(cfg.lam, list) else [cfg.lam]
    objects = []
    for cls in sorted(cfg.n_objects):
        for j in range(cfg.n_objects[cls]):
            dims = tuple(
                float(rng.uniform(lo, hi) * (1 + rng.uniform(-cfg.dim_spread, cfg.dim_spread)))
                for lo, hi in _CLASS_DIMS[cls]
            )
            lam = float(lam_choices[int(rng.integers(len(lam_choices)))])
            base_xy = (float((len(objects) % 100) * _CELL), float((len(objects) // 100) * _CELL))
            objects.append((f"{cls}-{j:04d}", cls, dims, lam, base_xy,
                            rng.uniform(0, 1, size=(_N_DENTS, 2)),
                            rng.uniform(0.05, 0.30, size=_N_DENTS),
                            rng.uniform(0.08, 0.25, size=_N_DENTS)))
    detections, gt, frame_points = [], [], {}
    for frame in range(cfg.frames):
        cloud = []
        for object_id, cls, spec_dims, lam, base_xy, centers, depths, widths in objects:
            cx = base_xy[0] + float(rng.uniform(-0.5, 0.5))
            cy = base_xy[1] + float(rng.uniform(-0.5, 0.5))
            cz = spec_dims[2] / 2.0
            yaw = float(rng.uniform(-math.pi, math.pi))
            dims = spec_dims
            if cls in DEFORMABLE_CLASSES:
                scale = rng.normal(1.0, cfg.articulation, size=3)
                dims = tuple(float(max(d * s, 0.2)) for d, s in zip(dims, scale))
                centers = centers + rng.normal(0, cfg.articulation * 2, size=centers.shape)
                depths = np.clip(depths + rng.normal(0, cfg.articulation, size=depths.shape),
                                 0.0, 0.5)
            n = int(rng.poisson(lam))
            local = _sample_surface_loop(rng, dims, n)
            local = _apply_dents_loop(local, dims, centers, depths, widths)
            local += rng.normal(0, cfg.sensor_noise, size=local.shape)
            gt_box = Box3D((cx, cy, cz), spec_dims, yaw)
            cloud.append(uncanonicalize(local, gt_box))
            gt.append(GtTrackRecord(frame=frame, box=gt_box, object_id=object_id, cls=cls))
            det_box = Box3D((cx + rng.normal(0, cfg.sigma_center),
                             cy + rng.normal(0, cfg.sigma_center),
                             cz + rng.normal(0, cfg.sigma_center / 2)),
                            spec_dims, yaw + rng.normal(0, cfg.sigma_yaw))
            detections.append(DetectionRecord(frame=frame, box=det_box,
                                              score=float(rng.uniform(0.5, 1.0)),
                                              predicted_class=cls))
        for k in range(int(rng.poisson(cfg.fp_rate))):
            cls = sorted(cfg.n_objects)[int(rng.integers(len(cfg.n_objects)))]
            dims = tuple(float(rng.uniform(lo, hi)) for lo, hi in _CLASS_DIMS[cls])
            cx = float(rng.uniform(0, 100 * _CELL))
            cy = -_CELL * (2 + k)
            cz = dims[2] / 2.0
            n = max(int(rng.poisson(float(lam_choices[int(rng.integers(len(lam_choices)))]))), 1)
            cloud.append(rng.normal(0, 1, size=(n, 3)) * (np.asarray(dims) / 5.0) + (cx, cy, cz))
            detections.append(DetectionRecord(
                frame=frame, box=Box3D((cx, cy, cz), dims, float(rng.uniform(-math.pi, math.pi))),
                score=float(rng.uniform(0.5, 1.0)), predicted_class=cls))
        frame_points[frame] = np.concatenate(cloud, axis=0).astype(np.float32) if cloud \
            else np.empty((0, 3), dtype=np.float32)
    return detections, gt, frame_points, rng


_dims = st.tuples(*[st.floats(1e-3, 50.0)] * 3)
# the (dims, point count) of each object in one frame
_frame_objects = st.lists(st.tuples(_dims, st.integers(0, 300)), min_size=1, max_size=4)
_seeds = st.integers(0, 2**32 - 1)
_lams = st.floats(0.05, 40.0)


@st.composite
def _synth_configs(draw):
    """Small worlds with rigid and deformable classes, zero-count classes,
    lam lists, lams low enough for zero-point draws, and fp_rate 0 or not."""
    classes = draw(st.lists(st.sampled_from(sorted(_CLASS_DIMS)), min_size=1, max_size=5,
                            unique=True))
    return SynthConfig(
        n_objects={cls: draw(st.integers(0, 3)) for cls in classes},
        frames=draw(st.integers(1, 3)),
        lam=draw(_lams | st.lists(_lams, min_size=1, max_size=3)),
        sigma_center=draw(st.floats(0.0, 0.5)),
        sigma_yaw=draw(st.floats(0.0, 0.5)),
        fp_rate=draw(st.just(0.0) | st.floats(0.1, 3.0)),
        articulation=draw(st.floats(0.0, 0.3)),
        dim_spread=draw(st.floats(0.0, 0.9)),
        sensor_noise=draw(st.floats(0.0, 0.1)),
    )


class TestSynthetic:
    @settings(max_examples=200, deadline=None)
    @given(_frame_objects, _seeds)
    def test_surface_matches_per_point_loop(self, objects, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        faces, coords = zip(*(_draw_surface(rng, np.asarray(dims), n) for dims, n in objects))
        size = np.repeat([dims for dims, _ in objects], [n for _, n in objects], axis=0)
        pts = _sample_surface(np.concatenate(faces), np.concatenate(coords), size)
        ref = np.concatenate([_sample_surface_loop(ref_rng, dims, n) for dims, n in objects])
        assert pts.shape == ref.shape == (len(size), 3)
        assert pts.tobytes() == ref.tobytes()
        # same draws, so everything generated after the surface is unchanged
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(_frame_objects, _seeds)
    def test_dents_match_per_dent_loop(self, objects, seed):
        rng = np.random.default_rng(seed)
        points = [_sample_surface_loop(rng, dims, n) for dims, n in objects]
        # centres as a deformable object's jitter leaves them, depths up to the clip
        centers = rng.uniform(0, 1, size=(len(objects), 6, 2)) \
            + rng.normal(0, 0.2, size=(len(objects), 6, 2))
        depths = rng.uniform(0.0, 0.5, size=(len(objects), 6))
        widths = rng.uniform(0.08, 0.25, size=(len(objects), 6))
        counts = [n for _, n in objects]
        owner = np.repeat(np.arange(len(objects)), counts)
        size = np.repeat([dims for dims, _ in objects], counts, axis=0)
        out = _apply_dents(np.concatenate(points), size, owner, centers, depths, widths)
        ref = np.concatenate([_apply_dents_loop(p, dims, centers[i], depths[i], widths[i])
                              for i, (p, (dims, _)) in enumerate(zip(points, objects))])
        assert out.tobytes() == ref.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(_synth_configs(), _seeds)
    def test_matches_per_object_loop(self, cfg, seed):
        made = []

        def recording_rng(*keys):
            made.append(keyed_rng(*keys))
            return made[-1]

        with mock.patch.object(preid.data.synthetic, "keyed_rng", recording_rng):
            dets, gts, frames = generate_synthetic(cfg, seed)
        ref_dets, ref_gts, ref_frames, ref_rng = _generate_per_object(cfg, seed)
        assert dets == ref_dets
        assert gts == ref_gts
        assert sorted(frames) == sorted(ref_frames) == list(range(cfg.frames))
        for f in frames:
            assert frames[f].shape == ref_frames[f].shape
            assert frames[f].tobytes() == ref_frames[f].tobytes()
        assert made[0].bit_generator.state == ref_rng.bit_generator.state

    def test_determinism(self):
        cfg = SynthConfig(n_objects={"car": 4, "bicycle": 2}, frames=3)
        a = generate_synthetic(cfg, seed=12)
        b = generate_synthetic(cfg, seed=12)
        assert a[0] == b[0]
        assert a[1] == b[1]
        for f in a[2]:
            np.testing.assert_array_equal(a[2][f], b[2][f])

    def test_seed_changes_output(self):
        cfg = SynthConfig(n_objects={"car": 4}, frames=2)
        a = generate_synthetic(cfg, seed=1)
        b = generate_synthetic(cfg, seed=2)
        assert a[0] != b[0]

    def test_class_counts(self):
        cfg = SynthConfig(n_objects={"car": 3, "pedestrian": 2}, frames=4, fp_rate=0.0)
        dets, gts, _ = generate_synthetic(cfg, seed=0)
        assert len(gts) == 5 * 4
        assert len(dets) == 5 * 4
        assert sum(1 for g in gts if g.cls == "car") == 3 * 4

    def test_lambda_list_spreads_density(self):
        cfg = SynthConfig(n_objects={"car": 40}, frames=4, fp_rate=0.0,
                          lam=[4.0, 128.0])
        dets, gts, pts = generate_synthetic(cfg, seed=3)
        ds = extract_observations(dets, gts, pts)
        means = {o: np.mean([ds.get(i).n_points for i in ids])
                 for o, ids in ds.index.items()}
        low = sum(1 for m in means.values() if m < 32)
        high = sum(1 for m in means.values() if m >= 32)
        assert low >= 10 and high >= 10

    def test_extraction_recovers_identities(self):
        cfg = SynthConfig(n_objects={"car": 6}, frames=5, fp_rate=0.0, lam=64.0)
        dets, gts, pts = generate_synthetic(cfg, seed=8)
        ds = extract_observations(dets, gts, pts)
        # low detector noise: every object should be seen most frames
        assert ds.n_objects() == 6
        assert all(len(ids) >= 3 for ids in ds.index.values())

    def test_fp_rate_produces_fps(self):
        cfg = SynthConfig(n_objects={"car": 3}, frames=20, fp_rate=2.0)
        dets, gts, pts = generate_synthetic(cfg, seed=5)
        ds = extract_observations(dets, gts, pts)
        assert sum(len(v) for v in ds.fp_index.values()) > 5

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SynthConfig(lam=0.0)
        with pytest.raises(ConfigError):
            SynthConfig(n_objects={"dragon": 1})
        with pytest.raises(ConfigError):
            SynthConfig(frames=0)
        with pytest.raises(ConfigError, match="lam"):
            SynthConfig(lam={"a": 1.0})
        with pytest.raises(ConfigError, match="n_objects"):
            SynthConfig(n_objects={})

    @pytest.mark.parametrize("name", ["sigma_center", "sigma_yaw", "fp_rate", "articulation",
                                      "sensor_noise"])
    def test_negative_scale_names_its_field(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be non-negative, got -0.1$"):
            SynthConfig(**{name: -0.1})
        assert getattr(SynthConfig(**{name: 0.0}), name) == 0.0
