"""Training loop: BCE objective, AdamW, one-cycle LR schedule, clipping.

One epoch is one pass over every unique object in the dataset (one sampled
pair each). The schedule is set by three ``TrainConfig`` fields: it rises
from ``lr_base`` to ``target_ratio_up`` times it (default 10x) over the
first ``step_ratio_up`` share of steps (default 40%), then decays to
``target_ratio_down`` times it (default 1e-4x) over the remainder, cosine
in both phases.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .data.io import write_records
from .data.records import ReidDataset
from .model.checkpoint import save_checkpoint
from .model.config import config_to_json
from .model.network import ReidModel, resample_points
from .sampling import MATCH, even_epoch, uniform_epoch
from .util import atomic_write, check_numbers, keyed_rng

EVEN = "even"
UNIFORM = "uniform"


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lr_base: float = 3e-4
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    batch_size: int = 256
    epochs: int = 100
    target_ratio_up: float = 10.0    # peak learning rate / lr_base
    target_ratio_down: float = 1e-4  # final learning rate / lr_base
    step_ratio_up: float = 0.4       # share of the steps spent rising
    seed: int = 0
    sampler: str = EVEN
    early_stop_accuracy: float | None = None   # stop once the running batch
                                               # accuracy reaches this level

    def __post_init__(self):
        early_stop = () if self.early_stop_accuracy is None else ("early_stop_accuracy",)
        check_numbers(self, {"batch_size": 1, "epochs": 1, "seed": 0},
                      ("lr_base", "weight_decay", "clip_norm", "target_ratio_up",
                       "target_ratio_down", "step_ratio_up", *early_stop))
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if not (0.0 < self.step_ratio_up < 1.0):
            raise ValueError("step_ratio_up must lie in (0, 1)")
        if self.sampler not in (EVEN, UNIFORM):
            raise ValueError(f"unknown sampler {self.sampler!r}")


@dataclass
class TrainReport:
    steps: int
    epochs: int
    final_loss: float
    final_accuracy: float
    stopped_early: bool
    checkpoint_path: str
    metrics_path: str


class AdamW:
    """Decoupled-weight-decay Adam over a parameter store."""

    def __init__(self, params: nn.ParameterStore, weight_decay: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self, lr: float):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, tensor in self.params.items():
            g = tensor.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in parameter {name!r}")
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            new = tensor.data - lr * self.wd * tensor.data \
                - lr * m_hat / (np.sqrt(v_hat) + self.eps)
            tensor.data = new.astype(tensor.data.dtype, copy=False)


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """One-cycle cosine schedule value at a given step."""
    if not (0 <= step <= total_steps):
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    base = cfg.lr_base
    peak = base * cfg.target_ratio_up
    floor = base * cfg.target_ratio_down
    up = cfg.step_ratio_up * total_steps
    if step <= up:
        t = step / up if up > 0 else 1.0
        return base + (peak - base) * (1 - math.cos(math.pi * t)) / 2
    t = (step - up) / (total_steps - up)
    return floor + (peak - floor) * (1 + math.cos(math.pi * t)) / 2


def clip_gradients(params: nn.ParameterStore, max_norm: float = 1.0) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm.

    Returns the pre-clip global norm.
    """
    total = 0.0
    for _, tensor in params.items():
        if tensor.grad is not None:
            total += float((tensor.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for _, tensor in params.items():
            if tensor.grad is not None:
                tensor.grad = tensor.grad * scale
    return norm


def _pack_batch(ds: ReidDataset, pairs, n_points: int, seed: int, epoch: int):
    a, b, labels = [], [], []
    for pair in pairs:
        rng_a = keyed_rng(seed, "pts", epoch, pair.obs_a, 0)
        rng_b = keyed_rng(seed, "pts", epoch, pair.obs_b, 1)
        a.append(resample_points(ds.get(pair.obs_a).points, n_points, rng_a))
        b.append(resample_points(ds.get(pair.obs_b).points, n_points, rng_b))
        labels.append(1.0 if pair.label == MATCH else 0.0)
    return np.stack(a), np.stack(b), np.asarray(labels, dtype=np.float32)


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


@np.errstate(over="ignore", invalid="ignore")  # a diverging step raises TrainingError
def train(model: ReidModel, ds: ReidDataset, cfg: TrainConfig, out_dir) -> TrainReport:
    if len(ds) == 0 or not ds.index:
        raise ValueError("cannot train on an empty dataset")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # written first, so a checkpoint that a diverged run keeps still loads
    with atomic_write(out_dir / "model_config.json") as f:
        f.write(config_to_json(model.encoder_cfg, model.rtmm_cfg))
    sampler = even_epoch if cfg.sampler == EVEN else uniform_epoch
    n_objects = ds.n_objects()
    steps_per_epoch = math.ceil(n_objects / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    ckpt_every = max(1, cfg.epochs // 5)
    n_points = model.encoder_cfg.n_points

    optimizer = AdamW(model.params, weight_decay=cfg.weight_decay)
    model.params.set_requires_grad(True)
    ckpt_path = out_dir / "model.ckpt"
    metrics_path = out_dir / "metrics.jsonl"
    # wall times differ run to run, so they stay out of metrics.jsonl, which
    # is bit-identical across seeded runs
    metrics, timings = [], []

    step = 0
    loss_val = float("nan")
    acc_window: list[float] = []
    stopped = saved = False
    try:
        for epoch in range(cfg.epochs):
            pairs = sampler(ds, cfg.seed, epoch=epoch)
            order = keyed_rng(cfg.seed, "order", epoch).permutation(len(pairs))
            pairs = [pairs[i] for i in order]
            for lo in range(0, len(pairs), cfg.batch_size):
                batch = pairs[lo:lo + cfg.batch_size]
                t_pack = time.perf_counter()
                a, b, labels = _pack_batch(ds, batch, n_points, cfg.seed, epoch)
                t_forward = time.perf_counter()
                model.params.zero_grad()
                logits = model.forward_logits(a, b)
                loss = nn.bce_with_logits(logits, labels)
                loss_val = loss.item()
                if not math.isfinite(loss_val):
                    raise TrainingError(f"non-finite loss at step {step}")
                t_backward = time.perf_counter()
                loss.backward()
                t_optimizer = time.perf_counter()
                grad_norm = clip_gradients(model.params, cfg.clip_norm)
                lr = lr_at(step, total_steps, cfg)
                optimizer.step(lr)
                t_end = time.perf_counter()
                preds = (logits.data >= 0).astype(np.float32)
                acc = float((preds == labels).mean())
                metrics.append({
                    "step": step, "epoch": epoch,
                    "loss": round(loss_val, 8), "lr": lr,
                    "grad_norm": round(grad_norm, 8),
                    "batch_accuracy": acc,
                })
                timings.append({
                    "step": step,
                    "pack_ms": _ms(t_forward - t_pack),
                    "forward_ms": _ms(t_backward - t_forward),
                    "backward_ms": _ms(t_optimizer - t_backward),
                    "optimizer_ms": _ms(t_end - t_optimizer),
                    "pairs_per_s": round(len(batch) / (t_end - t_pack), 3),
                })
                step += 1
                acc_window = (acc_window + [acc])[-5:]
                if (cfg.early_stop_accuracy is not None
                        and len(acc_window) == 5
                        and sum(acc_window) / 5 >= cfg.early_stop_accuracy):
                    stopped = True
                    break
            if stopped or (epoch + 1) % ckpt_every == 0 or epoch + 1 == cfg.epochs:
                save_checkpoint(model, ckpt_path)
                saved = True
            if stopped:
                break
    except TrainingError as e:
        kept = f"last checkpoint kept at {ckpt_path}" if saved else "this run wrote no checkpoint"
        raise TrainingError(f"{e}; {kept}") from None
    finally:
        model.params.set_requires_grad(False)
        # a failed run's steps, too, replace any earlier run's records
        write_records(metrics_path, metrics)
        write_records(out_dir / "timings.jsonl", timings)
    return TrainReport(
        steps=step,
        epochs=epoch + 1,
        final_loss=loss_val,
        final_accuracy=acc_window[-1] if acc_window else float("nan"),
        stopped_early=stopped,
        checkpoint_path=str(ckpt_path),
        metrics_path=str(metrics_path),
    )
