"""Matching metrics, density-threshold curves, power-law fitting, benchmark."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .data.records import ReidDataset
from .model.network import ReidModel, resample_points
from .sampling import MATCH, EvalSet
from .util import keyed_rng

BOTH_ATLEAST = "both"
ONE_ATLEAST = "one"
_SCORE_BATCH = 512  # pairs per score_batch call


@dataclass
class EvalReport:
    accuracy: float
    f1_pos: float
    f1_neg: float
    per_class: dict[str, float]
    fp_accuracy: float
    n_pairs: int


@dataclass
class PowerLawFit:
    """Error model err(x) = eps_inf + beta * x**c."""

    eps_inf: float
    beta: float
    c: float
    residual: float

    def predict(self, x) -> np.ndarray:
        return self.eps_inf + self.beta * np.asarray(x, dtype=np.float64) ** self.c


@dataclass
class PairPredictions:
    """Per-pair correctness plus metadata, shared by report and curve paths."""

    correct: np.ndarray              # bool, per pair
    is_match: np.ndarray             # bool, per pair
    classes: list[str]
    is_fp_pair: np.ndarray
    densities: np.ndarray            # (n_pairs, 2)


def _score_pairs(model: ReidModel, eval_set: EvalSet, ds: ReidDataset,
                 seed: int) -> np.ndarray:
    n = model.encoder_cfg.n_points
    logits = np.empty(len(eval_set.pairs))
    for lo in range(0, len(eval_set.pairs), _SCORE_BATCH):
        chunk = eval_set.pairs[lo:lo + _SCORE_BATCH]
        # the resampling stream is keyed by exactly (observation, side), so
        # each key is packed once per chunk and its array reused
        clouds = {}
        for pair in chunk:
            for key in ((pair.obs_a, 0), (pair.obs_b, 1)):
                if key not in clouds:
                    clouds[key] = resample_points(
                        ds.get(key[0]).points, n, keyed_rng(seed, "evalpts", *key))
        logits[lo:lo + len(chunk)] = model.score_batch(
            [(clouds[p.obs_a, 0], clouds[p.obs_b, 1]) for p in chunk])
    return logits


def predict_pairs(model: ReidModel, eval_set: EvalSet, ds: ReidDataset,
                  threshold: float = 0.5, seed: int = 0) -> PairPredictions:
    if not 0.0 <= threshold <= 1.0:  # a NaN fails too
        raise ValueError(f"predict_pairs threshold must lie in [0, 1], got {threshold}")
    if not eval_set.pairs:
        raise ValueError("eval set is empty")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, once
        logits = _score_pairs(model, eval_set, ds, seed)
    bad = ~np.isfinite(logits)
    if bad.any():
        first = eval_set.pairs[int(np.argmax(bad))]
        raise ValueError(f"{int(bad.sum())} of {len(logits)} pairs scored a non-finite "
                         f"logit; the first is ({first.obs_a}, {first.obs_b})")
    probs = 1.0 / (1.0 + np.exp(-logits))
    pred_match = probs >= threshold
    is_match = np.array([p.label == MATCH for p in eval_set.pairs])
    return PairPredictions(
        correct=pred_match == is_match,
        is_match=is_match,
        classes=[p.cls for p in eval_set.pairs],
        is_fp_pair=np.array([p.is_fp_pair for p in eval_set.pairs]),
        densities=np.asarray(eval_set.densities, dtype=np.int64),
    )


def report_from_predictions(pred: PairPredictions) -> EvalReport:
    tp = int(np.sum(pred.correct & pred.is_match))
    tn = int(np.sum(pred.correct & ~pred.is_match))
    fn = int(np.sum(~pred.correct & pred.is_match))
    fp = int(np.sum(~pred.correct & ~pred.is_match))
    total = tp + tn + fn + fp
    accuracy = (tp + tn) / total
    f1_pos = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    f1_neg = 2 * tn / (2 * tn + fn + fp) if (2 * tn + fn + fp) else 0.0
    per_class: dict[str, float] = {}
    for cls in sorted(set(pred.classes)):
        mask = np.array([c == cls for c in pred.classes])
        per_class[cls] = float(pred.correct[mask].mean())
    fp_mask = pred.is_fp_pair
    fp_accuracy = float(pred.correct[fp_mask].mean()) if fp_mask.any() else float("nan")
    return EvalReport(
        accuracy=float(accuracy),
        f1_pos=float(f1_pos),
        f1_neg=float(f1_neg),
        per_class=per_class,
        fp_accuracy=fp_accuracy,
        n_pairs=total,
    )


def evaluate(model: ReidModel, eval_set: EvalSet, ds: ReidDataset,
             threshold: float = 0.5, seed: int = 0) -> EvalReport:
    return report_from_predictions(predict_pairs(model, eval_set, ds, threshold, seed))


def density_curve(pred: PairPredictions, mode: str,
                  thresholds: list[int]) -> list[tuple[int, float, int]]:
    """Subset accuracy at each density threshold; empty subsets are omitted.

    BOTH_ATLEAST keeps pairs with min(n1, n2) >= x, ONE_ATLEAST keeps pairs
    with max(n1, n2) >= x.
    """
    if mode not in (BOTH_ATLEAST, ONE_ATLEAST):
        raise ValueError(f"unknown density mode {mode!r}")
    if any(x < 1 for x in thresholds):
        raise ValueError(f"density_curve thresholds must each be at least 1, got {thresholds}")
    reducer = pred.densities.min(axis=1) if mode == BOTH_ATLEAST \
        else pred.densities.max(axis=1)
    out = []
    for x in thresholds:
        mask = reducer >= x
        n = int(mask.sum())
        if n == 0:
            continue
        out.append((x, float(pred.correct[mask].mean()), n))
    return out


def fit_power_law(points: list[tuple[float, float]],
                  eps_inf_grid: list[float] | None = None) -> PowerLawFit:
    """Grid over the error floor; for each candidate, fit beta and c by least
    squares on the error values, seeded from the closed-form log-log solution.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 (compute, error) points to fit")
    if eps_inf_grid is None:
        eps_inf_grid = [float(v) for v in range(9)]
    x = np.asarray([p[0] for p in points], dtype=np.float64)
    err = np.asarray([p[1] for p in points], dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("compute values must be positive")
    best: PowerLawFit | None = None
    for eps_inf in eps_inf_grid:
        if np.any(err <= eps_inf):
            continue
        ly = np.log(err - eps_inf)
        lx = np.log(x)
        design = np.stack([np.ones_like(lx), lx], axis=1)
        (log_beta, c), *_ = np.linalg.lstsq(design, ly, rcond=None)
        beta = math.exp(log_beta)
        try:
            (beta, c), _ = scipy.optimize.curve_fit(
                lambda xv, b, cv: eps_inf + b * xv ** cv, x, err, p0=(beta, c),
                maxfev=5000,
            )
        except RuntimeError:
            pass  # no convergence; keep the closed-form log-log solution
        residual = float(((eps_inf + beta * x ** c - err) ** 2).sum())
        if best is None or residual < best.residual:
            best = PowerLawFit(float(eps_inf), float(beta), float(c), residual)
    if best is None:
        raise ValueError("every grid value of the error floor exceeds some data point")
    return best


@dataclass
class BenchReport:
    batch_size: int
    n_trials: int
    mean_ms: float
    stderr_ms: float
    pairs_per_sec: float
    samples_ms: list[float] = field(default_factory=list)


def bench(model: ReidModel, batch_size: int = 512, n_trials: int = 20,
          warmup: int = 5, seed: int = 0) -> BenchReport:
    """Time ``score_batch`` on one batch of Gaussian clouds. They repeat
    neither a point nor a cloud: this is the worst case, not the speed on an
    eval set, whose pairs share clouds that repeat most of their points."""
    if batch_size < 1:
        raise ValueError(f"bench batch_size must be at least 1, got {batch_size}")
    if n_trials < 1:
        raise ValueError(f"bench n_trials must be at least 1, got {n_trials}")
    if warmup < 0:
        raise ValueError(f"bench warmup must not be negative, got {warmup}")
    rng = np.random.default_rng(seed)
    n = model.encoder_cfg.n_points
    pairs = [
        (rng.normal(0, 1, size=(n, 3)).astype(np.float32),
         rng.normal(0, 1, size=(n, 3)).astype(np.float32))
        for _ in range(batch_size)
    ]
    samples = []
    for trial in range(warmup + n_trials):
        t0 = time.perf_counter()
        model.score_batch(pairs)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        if trial >= warmup:
            samples.append(elapsed_ms)
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
    return BenchReport(
        batch_size=batch_size,
        n_trials=n_trials,
        mean_ms=mean,
        stderr_ms=stderr,
        pairs_per_sec=batch_size / (mean / 1e3),
        samples_ms=samples,
    )
