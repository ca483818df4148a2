"""The three workloads: inputs, the measured operation and its output checks.

Every workload drives preid through its public entry points, looked up as
module attributes at call time so that the tracer's wrappers see the calls.

``ingest``  writes the logs of ``SynthConfig.benchmark()``; the operation is
            ``preid build-dataset`` through ``preid.cli.main`` followed by
            ``read_dataset`` of the result. Only data and geometry work.
``train``   the operation is ``preid.training.train()`` at the acceptance
            shape for 13 epochs (104 steps of batch 63), on the dataset
            that set-up builds. Forward and backward through preid.nn.
``score``   set-up saves a default-shape model with every parameter drawn
            from a seeded RNG (the fresh model's zero scoring layer would
            make every logit 0) and loads it back as ``preid eval`` does;
            the operation is ``preid.evaluation.evaluate()`` over a fixed
            prefix of ``build_eval_set(seed=0)``. Forward only.

The synthetic scene seed is the workload seed; the eval-set, training and
point-resampling seeds are 0, as in the acceptance suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import preid.cli
import preid.data
import preid.evaluation
import preid.model
import preid.sampling
import preid.training
from preid.model import EncoderConfig, ReidModel, RtmmConfig, config_from_json, config_to_json
from preid.util import keyed_rng, stable_hash

import oracle

TRAIN_ENCODER = EncoderConfig(out_dim=32, n_points=64, hidden=[32])
TRAIN_HEAD = RtmmConfig(layers=2, dim=32, pos_hidden=[32], mlp_hidden=[32], res_hidden=64)
TRAIN_EPOCHS = 13
SCORE_PREFIX = 1536
SCORE_SAMPLE = 8
LOGIT_TOLERANCE = 1e-5
DIGESTS = Path(__file__).with_name("digests.json")


@dataclass
class OpResult:
    seconds: float
    steps_s: list[float]
    items: int
    outputs: dict = field(default_factory=dict)


@contextlib.contextmanager
def _patched(owner, attr, replacement):
    own = attr in vars(owner)
    old = vars(owner).get(attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, old)
        else:
            delattr(owner, attr)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _write_logs(seed: int, logs: Path):
    detections, gt, frames = preid.data.generate_synthetic(preid.data.SynthConfig.benchmark(), seed)
    preid.data.write_detections(detections, logs / "detections.jsonl")
    preid.data.write_gt(gt, logs / "gt.jsonl")
    preid.data.write_frames(frames, logs)
    return detections, gt, frames


def _build_dataset(logs: Path, out: Path, tracer=None) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = preid.cli.main(["build-dataset", "--logs", str(logs), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"preid build-dataset exited with {code}")
    if tracer is not None:
        tracer.counts["data.dataset_bytes"] += sum(
            (out / name).stat().st_size for name in ("points.bin", "manifest.jsonl"))


class Ingest:
    name = "ingest"
    setup_repeats = 3
    min_ops = 3  # one build-dataset is a single ~8 s sample; its median needs more

    def __init__(self, workdir: Path, seed: int):
        self.workdir, self.seed = workdir, seed
        self.logs, self.out = workdir / "logs", workdir / "dataset"

    def setup(self, tracer=None) -> None:
        self.inputs = _write_logs(self.seed, _fresh(self.logs))

    def prepare_checks(self) -> list[tuple[str, bool]]:
        self.expected = oracle.expected_observations(*self.inputs)
        self.expected_digest = oracle.oracle_digest(self.expected)
        recorded = json.loads(DIGESTS.read_text()).get(str(self.seed))
        if recorded is None:
            return []
        return [("oracle digest equals the digest recorded for the seed",
                 recorded == {"observations": len(self.expected),
                              "digest": self.expected_digest})]

    def warm_up(self) -> None:
        pass

    def run(self, tracer=None) -> OpResult:
        t0 = time.perf_counter()
        _build_dataset(self.logs, self.out, tracer)
        t1 = time.perf_counter()
        ds = preid.data.read_dataset(self.out)
        t2 = time.perf_counter()
        return OpResult(t2 - t0, [t2 - t0], len(ds), {"ds": ds, "build_s": t1 - t0})

    def check(self, result: OpResult) -> list[tuple[str, bool]]:
        ds = result.outputs["ds"]
        again = _fresh(self.workdir / "roundtrip")
        preid.data.write_dataset(ds, again)
        same_bytes = all((self.out / f).read_bytes() == (again / f).read_bytes()
                         for f in ("points.bin", "manifest.jsonl"))
        return [
            ("ids and point counts match the oracle digest",
             oracle.dataset_digest(ds) == self.expected_digest),
            ("canonical points match the oracle", oracle.points_match(ds, self.expected)),
            ("dataset round-trips bit-identically through read_dataset", same_bytes),
        ]


class Train:
    name = "train"
    setup_repeats = 2  # each set-up builds a dataset (~10 s)
    min_ops = 1

    def __init__(self, workdir: Path, seed: int):
        self.workdir, self.seed = workdir, seed
        self.cfg = preid.training.TrainConfig(batch_size=63, epochs=TRAIN_EPOCHS, lr_base=1e-3,
                                              seed=0, sampler=preid.training.EVEN)

    def setup(self, tracer=None) -> None:
        logs, dataset = _fresh(self.workdir / "logs"), self.workdir / "dataset"
        _write_logs(self.seed, logs)
        _build_dataset(logs, dataset, tracer)
        self.ds = preid.data.read_dataset(dataset)

    def prepare_checks(self) -> list[tuple[str, bool]]:
        return []

    def warm_up(self) -> None:
        pass

    def run(self, tracer=None) -> OpResult:
        model = ReidModel(TRAIN_ENCODER, TRAIN_HEAD, seed=0)
        if tracer is not None:
            tracer.instrument_model(model)
        run_dir = _fresh(self.workdir / "run")
        stamps = []
        optimizer_step = preid.training.AdamW.step

        def timed_step(optimizer, lr):
            optimizer_step(optimizer, lr)
            stamps.append(time.perf_counter())

        with _patched(preid.training.AdamW, "step", timed_step):
            t0 = time.perf_counter()
            report = preid.training.train(model, self.ds, self.cfg, run_dir)
            t1 = time.perf_counter()
        steps = np.diff([t0] + stamps).tolist()
        return OpResult(t1 - t0, steps, self.ds.n_objects() * report.epochs,
                        {"model": model, "report": report})

    def check(self, result: OpResult) -> list[tuple[str, bool]]:
        report, model = result.outputs["report"], result.outputs["model"]
        lines = [json.loads(line) for line in Path(report.metrics_path).read_text().splitlines()]
        losses = [line["loss"] for line in lines]
        checks = [(f"step {i} loss is finite", math.isfinite(loss))
                  for i, loss in enumerate(losses)]
        checks.append(("metrics.jsonl has one line per step",
                       [line["step"] for line in lines] == list(range(report.steps))
                       and report.steps == len(result.steps_s)
                       and report.steps == TRAIN_EPOCHS * math.ceil(
                           self.ds.n_objects() / self.cfg.batch_size)))
        checks.append(("mean loss of the last 10 steps is below the first 10",
                       len(losses) >= 20 and np.mean(losses[-10:]) < np.mean(losses[:10])))
        reloaded = preid.model.load_checkpoint(report.checkpoint_path, TRAIN_ENCODER, TRAIN_HEAD)
        checks.append(("checkpoint reloads to identical parameters",
                       reloaded.params.names() == model.params.names()
                       and all(np.array_equal(t.data, reloaded.params[name].data)
                               for name, t in model.params.items())))
        return checks


class Score:
    name = "score"
    setup_repeats = 2  # each set-up builds a dataset (~10 s)
    min_ops = 1

    def __init__(self, workdir: Path, seed: int):
        self.workdir, self.seed = workdir, seed

    def setup(self, tracer=None) -> None:
        logs, dataset = _fresh(self.workdir / "logs"), self.workdir / "dataset"
        _write_logs(self.seed, logs)
        _build_dataset(logs, dataset, tracer)
        self.ds = preid.data.read_dataset(dataset)
        ev = preid.sampling.build_eval_set(self.ds, seed=0)
        self.prefix = preid.sampling.EvalSet(pairs=ev.pairs[:SCORE_PREFIX],
                                             densities=ev.densities[:SCORE_PREFIX])

        encoder_cfg, rtmm_cfg = EncoderConfig(), RtmmConfig()
        model = ReidModel(encoder_cfg, rtmm_cfg, seed=0)
        rng = np.random.default_rng(self.seed)
        for _, tensor in model.params.items():
            tensor.data = (tensor.data + rng.normal(0.0, 0.1, tensor.data.shape)).astype(np.float32)
        model_dir = _fresh(self.workdir / "model")
        preid.model.save_checkpoint(model, model_dir / "model.ckpt")
        (model_dir / "model_config.json").write_text(config_to_json(encoder_cfg, rtmm_cfg))
        # as `preid eval` loads it: requires_grad stays set, so scoring records a tape
        encoder_cfg, rtmm_cfg = config_from_json((model_dir / "model_config.json").read_text())
        self.model = preid.model.load_checkpoint(model_dir / "model.ckpt", encoder_cfg, rtmm_cfg)

    def _pair_points(self, pair):
        n = self.model.encoder_cfg.n_points
        return tuple(
            preid.model.resample_points(self.ds.get(obs).points, n,
                                        keyed_rng(0, "evalpts", stable_hash(obs), side))
            for side, obs in ((0, pair.obs_a), (1, pair.obs_b)))

    def prepare_checks(self) -> list[tuple[str, bool]]:
        """Symmetry and point-order invariance on a fixed sample of pairs."""
        sample = np.linspace(0, len(self.prefix.pairs) - 1, SCORE_SAMPLE).astype(int)
        self.reference = {}
        rng = np.random.default_rng(self.seed)
        checks = []
        for i in sample:
            a, b = self._pair_points(self.prefix.pairs[i])
            ab = self.model.rtmm_score(a, b)
            ba = self.model.rtmm_score(b, a)
            permuted = self.model.rtmm_score(a[rng.permutation(len(a))], b[rng.permutation(len(b))])
            self.reference[int(i)] = ab
            checks.append((f"pair {i}: swapping a and b keeps the logit",
                           abs(ab - ba) <= LOGIT_TOLERANCE))
            checks.append((f"pair {i}: permuting point order keeps the logit",
                           abs(ab - permuted) <= LOGIT_TOLERANCE))
        return checks

    def warm_up(self) -> None:
        first = preid.sampling.EvalSet(pairs=self.prefix.pairs[:512],
                                       densities=self.prefix.densities[:512])
        preid.evaluation.evaluate(self.model, first, self.ds, seed=0)

    def run(self, tracer=None) -> OpResult:
        model = self.model
        if tracer is not None:
            tracer.instrument_model(model)
        stamps, logits = [], []
        score_batch = model.score_batch

        def timed_batch(pairs):
            out = score_batch(pairs)
            stamps.append(time.perf_counter())
            logits.extend(out)
            return out

        with _patched(model, "score_batch", timed_batch):
            t0 = time.perf_counter()
            preid.evaluation.evaluate(model, self.prefix, self.ds, seed=0)
            t1 = time.perf_counter()
        steps = np.diff([t0] + stamps).tolist()
        return OpResult(t1 - t0, steps, len(self.prefix.pairs), {"logits": np.asarray(logits)})

    def check(self, result: OpResult) -> list[tuple[str, bool]]:
        logits = result.outputs["logits"]
        checks = [
            ("one logit per pair, all finite",
             len(logits) == len(self.prefix.pairs) and bool(np.all(np.isfinite(logits)))),
            ("logits are not all equal", len(logits) > 0 and bool(np.ptp(logits) > 0)),
        ]
        for i, ref in self.reference.items():
            checks.append((f"pair {i}: batched logit equals rtmm_score",
                           i < len(logits) and abs(logits[i] - ref) <= LOGIT_TOLERANCE))
        return checks


WORKLOADS = {w.name: w for w in (Ingest, Train, Score)}
