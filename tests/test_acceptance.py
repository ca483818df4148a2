"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line on the terminal (bypassing capture)
and asserts the same condition, so the one-line verdicts survive any pytest
invocation.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from preid import nn
from preid.cli import main as cli_main
from preid.data import (
    DetectionRecord,
    GtTrackRecord,
    SynthConfig,
    extract_observations,
    generate_synthetic,
    read_dataset,
    write_dataset,
)
from preid.evaluation import (
    BOTH_ATLEAST,
    bench,
    density_curve,
    fit_power_law,
    predict_pairs,
)
from preid.geometry import Box3D, bucket_index, canonicalize, hungarian, iou_3d, uncanonicalize
from preid.model import (
    EncoderConfig,
    ReidModel,
    RtmmConfig,
    load_checkpoint,
    save_checkpoint,
)
from preid.sampling import MATCH, PairIndex, build_eval_set, even_epoch, uniform_epoch
from preid.training import TrainConfig, train

pytestmark = pytest.mark.acceptance

RIGID = {"car", "bus", "truck"}
DEFORMABLE = {"pedestrian", "bicycle"}

# trained-model configuration used by the density-trend criteria; sized to
# train on a desk CPU in minutes rather than hours
BENCH_ENCODER = EncoderConfig(out_dim=32, n_points=64, hidden=[32])
BENCH_HEAD = RtmmConfig(layers=2, dim=32, pos_hidden=[32], mlp_hidden=[32], res_hidden=64)
BENCH_TRAIN = dict(batch_size=63, epochs=300, lr_base=1e-3, seed=0)

# overfit-sanity configuration (32-object separable set)
OVERFIT_ENCODER = EncoderConfig(out_dim=32, n_points=32, hidden=[32])
OVERFIT_HEAD = RtmmConfig(layers=1, dim=32, pos_hidden=[32], mlp_hidden=[32], res_hidden=64)
OVERFIT_TRAIN = dict(batch_size=32, epochs=2000, lr_base=3e-4, seed=0,
                     early_stop_accuracy=0.99)


def emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def benchmark_ds(tmp_path_factory):
    dets, gts, pts = generate_synthetic(SynthConfig.benchmark(), seed=7)
    return extract_observations(dets, gts, pts)


@pytest.fixture(scope="session")
def benchmark_run(benchmark_ds, tmp_path_factory):
    """Model trained on the mixed-density benchmark, plus eval predictions."""
    run_dir = tmp_path_factory.mktemp("benchrun")
    model = ReidModel(BENCH_ENCODER, BENCH_HEAD, seed=0)
    train(model, benchmark_ds, TrainConfig(**BENCH_TRAIN), run_dir)
    eval_set = build_eval_set(benchmark_ds, seed=0)
    pred = predict_pairs(model, eval_set, benchmark_ds, seed=0)
    return model, eval_set, pred


@pytest.fixture(scope="session")
def overfit_run(tmp_path_factory):
    """Training report for the 32-object separable overfit check."""
    run_dir = tmp_path_factory.mktemp("overfit")
    ds = extract_observations(*generate_synthetic(SynthConfig.separable(), seed=0))
    model = ReidModel(OVERFIT_ENCODER, OVERFIT_HEAD, seed=0)
    t0 = time.perf_counter()
    report = train(model, ds, TrainConfig(**OVERFIT_TRAIN), run_dir)
    elapsed = time.perf_counter() - t0
    return report, elapsed, run_dir


def test_criterion_01_power_law_reproduction(capsys):
    points = [(14400, 13.01), (28800, 11.95), (57600, 11.42), (115200, 10.70)]
    t0 = time.perf_counter()
    fit = fit_power_law(points, [0.0])
    elapsed = time.perf_counter() - t0
    ok = (abs(fit.beta - 34.5) <= 0.1 * 34.5
          and abs(fit.c - (-0.1)) <= 0.02
          and elapsed < 1.0)
    emit(capsys, 1, ok,
         f"scaling fit beta={fit.beta:.2f} (34.5 +/- 10%), c={fit.c:.4f} "
         f"(-0.1 +/- 0.02), {elapsed * 1e3:.0f} ms")


def test_criterion_02_symmetry(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    draws = 0
    for model_seed in range(50):
        model = ReidModel(EncoderConfig(), RtmmConfig(), seed=model_seed)
        # perturb away from the zero-initialized scoring layer so the check
        # exercises nonzero logits
        rng = np.random.default_rng(1000 + model_seed)
        model.head.w.data[:] = rng.normal(0, 0.1, size=model.head.w.shape).astype(np.float32)
        pairs = [(rng.normal(0, 1, size=(128, 3)).astype(np.float32),
                  rng.normal(0, 1, size=(128, 3)).astype(np.float32))
                 for _ in range(20)]
        fwd = model.score_batch(pairs)
        rev = model.score_batch([(b, a) for a, b in pairs])
        worst = max(worst, max(abs(f - r) for f, r in zip(fwd, rev)))
        draws += len(pairs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60 and draws == 1000
    emit(capsys, 2, ok,
         f"symmetry over {draws} draws, max |s(A,B)-s(B,A)| = {worst:.2e} "
         f"(<= 1e-4), {elapsed:.1f} s")


def test_criterion_03_permutation_invariance(capsys):
    worst = 0.0
    draws = 0
    for model_seed in range(10):
        model = ReidModel(EncoderConfig(), RtmmConfig(), seed=model_seed)
        rng = np.random.default_rng(2000 + model_seed)
        model.head.w.data[:] = rng.normal(0, 0.1, size=model.head.w.shape).astype(np.float32)
        pairs = [(rng.normal(0, 1, size=(128, 3)).astype(np.float32),
                  rng.normal(0, 1, size=(128, 3)).astype(np.float32))
                 for _ in range(20)]
        permuted = [(a[rng.permutation(128)], b[rng.permutation(128)])
                    for a, b in pairs]
        base = model.score_batch(pairs)
        perm = model.score_batch(permuted)
        worst = max(worst, max(abs(x - y) for x, y in zip(base, perm)))
        draws += len(pairs)
    ok = worst <= 1e-4 and draws == 200
    emit(capsys, 3, ok,
         f"permutation invariance over {draws} draws, max delta = {worst:.2e} (<= 1e-4)")


def test_criterion_04_gradient_correctness(capsys):
    enc = EncoderConfig(out_dim=8, n_points=16, hidden=[8])
    head = RtmmConfig(layers=1, dim=8, pos_hidden=[8], mlp_hidden=[8], res_hidden=8)
    model = ReidModel(enc, head, seed=0, dtype=np.float64)
    n_params = model.params.n_values()
    rng = np.random.default_rng(3)
    # nonzero scoring weights so gradients reach every layer
    model.head.w.data[:] = rng.normal(0, 0.2, size=model.head.w.shape)
    a = rng.normal(size=(2, 16, 3))
    b = rng.normal(size=(2, 16, 3))
    y = np.array([1.0, 0.0])
    model.params.set_requires_grad(True)

    def loss():
        return nn.bce_with_logits(model.forward_logits(a, b), y)

    model.params.zero_grad()
    loss().backward()
    eps = 1e-6
    worst = 0.0
    for name, t in model.params.items():
        analytic = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss().item()
            flat[i] = orig - eps
            down = loss().item()
            flat[i] = orig
            numeric = (up - down) / (2 * eps)
            rel = abs(analytic[i] - numeric) / max(abs(numeric), 1e-3)
            worst = max(worst, rel)
    ok = worst < 1e-4 and n_params <= 2000
    emit(capsys, 4, ok,
         f"finite-difference gradcheck over all {n_params} parameters, "
         f"worst rel err = {worst:.2e} (< 1e-4)")


def test_criterion_05_even_sampling_density_matching(capsys, benchmark_ds):
    index = PairIndex(benchmark_ds)

    def tv_over_20k(sampler):
        pos, neg = {}, {}
        total, epoch = 0, 0
        while total < 20000:
            for p in sampler(index, seed=7, epoch=epoch):
                b = bucket_index(min(benchmark_ds.get(p.obs_a).n_points,
                                     benchmark_ds.get(p.obs_b).n_points))
                side = pos if p.label == MATCH else neg
                side[b] = side.get(b, 0) + 1
                total += 1
            epoch += 1
        n_pos, n_neg = sum(pos.values()), sum(neg.values())
        return 0.5 * sum(abs(pos.get(k, 0) / n_pos - neg.get(k, 0) / n_neg)
                         for k in set(pos) | set(neg))

    tv_even = tv_over_20k(even_epoch)
    tv_uniform = tv_over_20k(uniform_epoch)
    ok = tv_even <= 0.05 and tv_uniform >= 0.10
    emit(capsys, 5, ok,
         f"bucket-marginal TV: even = {tv_even:.4f} (<= 0.05), "
         f"uniform = {tv_uniform:.4f} (>= 0.10)")


def test_criterion_06_overfit_sanity(capsys, overfit_run):
    report, elapsed, run_dir = overfit_run
    rows = [json.loads(line)
            for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
    window = float(np.mean([r["batch_accuracy"] for r in rows[-5:]]))
    ok = window >= 0.99 and report.steps <= 2000 and elapsed < 300
    emit(capsys, 6, ok,
         f"separable 32-object set: train accuracy {window:.3f} "
         f"(>= 0.99) after {report.steps} steps (<= 2000) in {elapsed:.0f} s (< 300)")


def test_criterion_07_density_trend(capsys, benchmark_ds, benchmark_run):
    _, _, pred = benchmark_run
    rows = density_curve(pred, BOTH_ATLEAST, [2, 4, 8, 16, 32, 64])
    accs = {x: acc for x, acc, _ in rows}
    series = [acc for _, acc, _ in rows]
    inversions = sum(1 for a, b in zip(series, series[1:]) if b < a)
    gap = accs.get(64, 0.0) - accs.get(4, 1.0)
    ok = (benchmark_ds.n_objects() >= 500 and len(rows) == 6
          and inversions <= 1 and gap >= 0.05)
    detail = ", ".join(f"x>={x}:{acc:.3f}(n={n})" for x, acc, n in rows)
    emit(capsys, 7, ok,
         f"density curve {detail}; inversions {inversions} (<= 1), "
         f"acc@64 - acc@4 = {gap:+.3f} (>= +0.05)")


def test_criterion_08_deformable_gap(capsys, benchmark_run):
    _, _, pred = benchmark_run
    classes = np.asarray(pred.classes)
    min_density = pred.densities.min(axis=1)
    rigid_mask = np.isin(classes, sorted(RIGID))
    deform_mask = np.isin(classes, sorted(DEFORMABLE))
    checked, ok = [], True
    for x in (2, 4, 8, 16, 32, 64):
        r = rigid_mask & (min_density >= x)
        d = deform_mask & (min_density >= x)
        if r.sum() < 200 or d.sum() < 200:
            continue
        acc_r = float(pred.correct[r].mean())
        acc_d = float(pred.correct[d].mean())
        checked.append(f"x>={x}: rigid {acc_r:.3f} vs deformable {acc_d:.3f}")
        ok = ok and acc_r > acc_d
    ok = ok and len(checked) > 0
    emit(capsys, 8, ok, "; ".join(checked) or "no threshold with 200+ pairs per side")


def _brute_force_scene(dets, gts, tau_iou):
    iou = np.array([[iou_3d(d.box, g.box) for g in gts] for d in dets]).reshape(len(dets), -1)
    best_pairs, best_total = [], -1.0
    for k in range(min(len(dets), len(gts)), -1, -1):
        for det_subset in itertools.combinations(range(len(dets)), k):
            for gt_perm in itertools.permutations(range(len(gts)), k):
                if any(iou[d, g] < tau_iou for d, g in zip(det_subset, gt_perm)):
                    continue
                total = sum(iou[d, g] for d, g in zip(det_subset, gt_perm))
                if total > best_total:
                    best_total, best_pairs = total, list(zip(det_subset, gt_perm))
        if best_pairs:
            break
    assigned = dict(best_pairs)
    claimed = set(assigned.values())
    out = {}
    for d in range(len(dets)):
        if d in assigned:
            out[d] = gts[assigned[d]].object_id
        elif not any(iou[d, g] >= tau_iou for g in claimed):
            out[d] = None  # false positive; overlapping-claimed duplicates dropped
    return out


def test_criterion_09_extraction_oracle(capsys):
    rng = np.random.default_rng(99)
    mismatches = 0
    for scene in range(20):
        n_det, n_gt = int(rng.integers(1, 6)), int(rng.integers(0, 5))
        dets = [DetectionRecord(0, Box3D(
            (float(rng.uniform(0, 12)), float(rng.uniform(0, 6)), 0.75),
            (4.0, 2.0, 1.5), float(rng.uniform(-1, 1))), 0.9, "car")
            for _ in range(n_det)]
        gts = [GtTrackRecord(0, Box3D(
            (float(rng.uniform(0, 12)), float(rng.uniform(0, 6)), 0.75),
            (4.0, 2.0, 1.5), float(rng.uniform(-1, 1))), f"o{j}", "car")
            for j in range(n_gt)]
        # one point pinned at each detection center so no crop comes up empty
        pts = {0: np.array([d.box.center for d in dets], dtype=np.float32)}
        ds = extract_observations(dets, gts, pts, tau_iou=0.01)
        got = {int(o.observation_id.split("-d")[1]): o.object_id
               for o in ds.observations}
        if got != _brute_force_scene(dets, gts, 0.01):
            mismatches += 1
    ok = mismatches == 0
    emit(capsys, 9, ok,
         f"extraction vs brute-force enumeration on 20 micro-scenes: "
         f"{mismatches} mismatches (== 0)")


def test_criterion_10_geometry_oracles(capsys):
    rng = np.random.default_rng(10)
    perms = np.array(list(itertools.permutations(range(6))))
    hung_bad = 0
    for _ in range(1000):
        cost = rng.uniform(0, 10, size=(6, 6))
        best = cost[np.arange(6), perms].sum(axis=1).min()
        if abs(hungarian(cost).total_cost - best) > 1e-9:
            hung_bad += 1

    worst_iou = 0.0
    for trial in range(50):
        center = rng.uniform(-2, 2, size=3)
        a = Box3D(tuple(center), tuple(rng.uniform(0.5, 3, size=3)),
                  float(rng.uniform(-math.pi, math.pi)))
        b = Box3D(tuple(center + rng.normal(0, 1.0, size=3)),
                  tuple(rng.uniform(0.5, 3, size=3)),
                  float(rng.uniform(-math.pi, math.pi)))
        worst_iou = max(worst_iou, abs(iou_3d(a, b) - _mc_iou(a, b, trial)))
    ok = hung_bad == 0 and worst_iou <= 1e-2
    emit(capsys, 10, ok,
         f"hungarian vs enumeration: {hung_bad}/1000 mismatches (== 0); "
         f"IoU vs 1e6-sample Monte Carlo: worst |delta| = {worst_iou:.4f} (<= 0.01)")


def _mc_iou(a, b, seed, n_samples=1_000_000):
    rng = np.random.default_rng(seed)
    corners = []
    signs = np.array(list(itertools.product([-1, 1], repeat=3)))
    for box in (a, b):
        corners.append(uncanonicalize(signs * (np.asarray(box.size) / 2), box))
    corners = np.concatenate(corners)
    pts = rng.uniform(corners.min(axis=0), corners.max(axis=0), size=(n_samples, 3))

    def inside(box):
        return np.all(np.abs(canonicalize(pts, box)) <= np.asarray(box.size) / 2, axis=1)

    in_a, in_b = inside(a), inside(b)
    union = np.count_nonzero(in_a | in_b)
    return np.count_nonzero(in_a & in_b) / union if union else 0.0


def test_criterion_11_serialization(capsys, tmp_path):
    ds = extract_observations(*generate_synthetic(
        SynthConfig(n_objects={"car": 5}, frames=4, lam=24.0), seed=1))
    write_dataset(ds, tmp_path / "a")
    write_dataset(read_dataset(tmp_path / "a"), tmp_path / "b")
    ds_stable = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("manifest.jsonl", "points.bin"))

    model = ReidModel(EncoderConfig(out_dim=16, n_points=16, hidden=[16]),
                      RtmmConfig(layers=1, dim=16, pos_hidden=[16],
                                 mlp_hidden=[16], res_hidden=16), seed=2)
    save_checkpoint(model, tmp_path / "m.ckpt")
    back = load_checkpoint(tmp_path / "m.ckpt", model.encoder_cfg, model.rtmm_cfg)
    save_checkpoint(back, tmp_path / "m2.ckpt")
    ckpt_stable = (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    ev = build_eval_set(ds, seed=0)
    from preid.evaluation import evaluate
    r1 = evaluate(model, ev, ds, seed=5)
    r2 = evaluate(model, ev, ds, seed=5)
    eval_stable = (r1.accuracy, r1.f1_pos, r1.f1_neg, r1.per_class) == \
        (r2.accuracy, r2.f1_pos, r2.f1_neg, r2.per_class)
    ok = ds_stable and ckpt_stable and eval_stable
    emit(capsys, 11, ok,
         f"bitwise round trips: dataset {ds_stable}, checkpoint {ckpt_stable}, "
         f"seeded eval reproducible {eval_stable}")


def test_criterion_12_benchmark_harness(capsys, overfit_run, tmp_path):
    _, _, run_dir = overfit_run
    out = tmp_path / "bench.json"
    code = cli_main(["bench", "--model", str(run_dir), "--batch", "512",
                     "--trials", "20", "--out", str(out)])
    report = json.loads(out.read_text()) if out.is_file() else {}
    harness_ok = (code == 0 and report.get("n_trials") == 20
                  and len(report.get("samples_ms", [])) == 20
                  and report.get("mean_ms", 0) > 0
                  and report.get("stderr_ms", -1) >= 0
                  and report.get("pairs_per_sec", 0) > 0)

    model = ReidModel(OVERFIT_ENCODER, OVERFIT_HEAD, seed=4)
    rng = np.random.default_rng(12)
    model.head.w.data[:] = rng.normal(0, 0.1, size=model.head.w.shape).astype(np.float32)
    n = model.encoder_cfg.n_points
    pairs = [(rng.normal(size=(n, 3)).astype(np.float32),
              rng.normal(size=(n, 3)).astype(np.float32)) for _ in range(16)]
    batched = model.score_batch(pairs)
    looped = [model.rtmm_score(a, b) for a, b in pairs]
    batch_eq = max(abs(x - y) for x, y in zip(batched, looped)) <= 1e-5
    ok = harness_ok and batch_eq
    emit(capsys, 12, ok,
         f"bench 512x20 completed: mean {report.get('mean_ms', float('nan')):.1f} ms "
         f"+/- {report.get('stderr_ms', float('nan')):.1f}, "
         f"{report.get('pairs_per_sec', float('nan')):.0f} pairs/s; "
         f"batched == looped within 1e-5: {batch_eq}")
