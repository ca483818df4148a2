"""Command-line entry point.

Subcommands map one-to-one onto the library pipeline: generate a synthetic
scene log, build an observation dataset from logs, build an eval set, train,
evaluate, slice accuracy by density, fit a compute-scaling power law,
benchmark inference, and inspect dataset statistics.

Every run writes a resolved_config.json capturing all effective values.
Flags are long-form only; a JSON config file may supply defaults and
explicit flags win. Exit codes: 0 success, 1 usage error, 2 data/format
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .data import (
    ConfigError,
    FormatError,
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
from .evaluation import (
    BOTH_ATLEAST,
    ONE_ATLEAST,
    bench,
    density_curve,
    evaluate,
    fit_power_law,
    predict_pairs,
    report_from_predictions,
)
from .model import (
    EDGECONV_LITE,
    POINTNET_LITE,
    EncoderConfig,
    ReidModel,
    RtmmConfig,
    config_from_json,
    config_to_json,
    load_checkpoint,
)
from .sampling import build_eval_set, read_eval_set, write_eval_set
from .training import EVEN, UNIFORM, TrainConfig, train
from .util import atomic_write

USAGE_ERROR = 1
DATA_ERROR = 2

# FormatError, InputError, ConfigError and CheckpointError are ValueErrors
_DATA_ERRORS = (ValueError, FileNotFoundError, NotADirectoryError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _write_json(path, obj) -> None:
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _resolved_config(out_dir, command: str, values: dict) -> None:
    _write_json(Path(out_dir) / "resolved_config.json", {"command": command, **values})


def _configure(path, args, *targets) -> list:
    """Build config objects from a JSON config file and explicit flags.

    Each target is ``(base, keys)``: a library dataclass instance (a preset
    or the defaults) and a map from config-file key to the field of ``base``
    that the key sets. A key is also the argparse dest of its flag, if it
    has one. File values replace the base's and explicit flags replace
    both, via ``dataclasses.replace``. A file key that no target knows is a
    ConfigError naming the file and the key.
    """
    config = {}
    if path is not None:
        try:
            config = json.loads(Path(path).read_text())
        except ValueError as e:  # also text that is not UTF-8
            raise FormatError(f"{path}: bad JSON config ({e})") from e
        if not isinstance(config, dict):
            raise FormatError(f"{path}: config must be a JSON object")
        known = {key for _, keys in targets for key in keys}
        for key in config:
            if key not in known:
                raise ConfigError(f"{path}: unknown config key {key!r}; "
                                  f"known keys: {', '.join(sorted(known))}")
    out = []
    for base, keys in targets:
        values = {}
        for key, field in keys.items():
            flag = getattr(args, key, None)
            if flag is not None:
                values[field] = flag
            elif key in config:
                values[field] = config[key]
        try:
            out.append(dataclasses.replace(base, **values))
        except TypeError as e:
            raise ConfigError(f"{path}: {e}") from e
    return out


def _defaults(fn) -> dict:
    """Keyword defaults of a library function, so that the parser shows and
    passes the library's own values. Called at import, while the module's
    names are still the library functions and not wrappers around them."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


_EXTRACT_DEFAULTS = _defaults(extract_observations)
_EVAL_SET_DEFAULTS = _defaults(build_eval_set)
_EVALUATE_DEFAULTS = _defaults(evaluate)
_PREDICT_DEFAULTS = _defaults(predict_pairs)
_BENCH_DEFAULTS = _defaults(bench)


def _parse_objects(text: str) -> dict[str, int]:
    out = {}
    for part in text.split(","):
        if not part:
            continue
        cls, _, count = part.partition("=")
        out[cls.strip()] = int(count)
    return out


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


# -- subcommand handlers -------------------------------------------------


_SYNTH_PRESETS = {
    "default": SynthConfig,
    "benchmark": SynthConfig.benchmark,
    "separable": SynthConfig.separable,
}
_SYNTH_KEYS = {f.name: f.name for f in dataclasses.fields(SynthConfig)}

# train config-file keys (also the dests of their flags) per config object;
# "dim" sets both the encoder's output width and the head's width
_ENCODER_KEYS = {"encoder": "kind", "dim": "out_dim", "n_points": "n_points"}
_RTMM_KEYS = {"dim": "dim", "layers": "layers"}
_TRAIN_KEYS = {key: key for key in ("lr_base", "weight_decay", "clip_norm",
                                    "batch_size", "epochs", "sampler")}


def _cmd_gen_synthetic(args) -> int:
    (cfg,) = _configure(args.config, args,
                        (_SYNTH_PRESETS[args.preset](), _SYNTH_KEYS))
    detections, gt, frame_points = generate_synthetic(cfg, args.seed)
    out = Path(args.out)
    write_detections(detections, out / "detections.jsonl")
    write_gt(gt, out / "gt.jsonl")
    write_frames(frame_points, out)
    _resolved_config(out, "gen-synthetic", {
        "seed": args.seed, "preset": args.preset, **dataclasses.asdict(cfg),
    })
    print(f"wrote {len(detections)} detections over {cfg.frames} frames to {out}")
    return 0


def _cmd_build_dataset(args) -> int:
    src = Path(args.logs)
    detections = read_detections(src / "detections.jsonl")
    gt = read_gt(src / "gt.jsonl")
    frame_points = read_frames(src)
    ds = extract_observations(detections, gt, frame_points,
                              tau_c=args.tau_c, tau_iou=args.tau_iou)
    write_dataset(ds, args.out)
    _resolved_config(args.out, "build-dataset", {
        "logs": str(src), "tau_c": args.tau_c, "tau_iou": args.tau_iou,
    })
    print(f"extracted {len(ds)} observations of {ds.n_objects()} objects to {args.out}")
    return 0


def _cmd_make_eval_set(args) -> int:
    ds = read_dataset(args.dataset)
    ev = build_eval_set(ds, max_pos_per_object=args.max_pos,
                        min_points=args.min_points, seed=args.seed)
    write_eval_set(ev, args.out)
    _resolved_config(Path(args.out).parent, "make-eval-set", {
        "dataset": str(args.dataset), "max_pos": args.max_pos,
        "min_points": args.min_points, "seed": args.seed,
        "n_pairs": len(ev.pairs), "skipped_negatives": ev.skipped_negatives,
    })
    print(f"wrote {len(ev.pairs)} eval pairs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    encoder_cfg, rtmm_cfg, train_cfg = _configure(
        args.config, args,
        (EncoderConfig(), _ENCODER_KEYS),
        (RtmmConfig(), _RTMM_KEYS),
        (TrainConfig(seed=args.seed, early_stop_accuracy=args.early_stop_accuracy),
         _TRAIN_KEYS),
    )
    ds = read_dataset(args.dataset)
    model = ReidModel(encoder_cfg, rtmm_cfg, seed=args.seed)
    report = train(model, ds, train_cfg, args.out)
    with atomic_write(Path(args.out) / "model_config.json") as f:
        f.write(config_to_json(encoder_cfg, rtmm_cfg))
    _resolved_config(args.out, "train", {
        "dataset": str(args.dataset), "seed": args.seed,
        "encoder": dataclasses.asdict(encoder_cfg),
        "rtmm": dataclasses.asdict(rtmm_cfg),
        "train": dataclasses.asdict(train_cfg),
    })
    print(f"trained {report.steps} steps over {report.epochs} epochs; "
          f"final loss {report.final_loss:.4f}, checkpoint {report.checkpoint_path}")
    return 0


def _load_model(model_dir) -> ReidModel:
    cfg_path = Path(model_dir) / "model_config.json"
    try:
        encoder_cfg, rtmm_cfg = config_from_json(cfg_path.read_text())
    except ValueError as e:  # also bad JSON or text that is not UTF-8
        raise FormatError(f"{cfg_path}: {e}") from e
    return load_checkpoint(Path(model_dir) / "model.ckpt", encoder_cfg, rtmm_cfg)


def _cmd_eval(args) -> int:
    ds = read_dataset(args.dataset)
    model = _load_model(args.model)
    ev = read_eval_set(args.pairs, ds)
    report = evaluate(model, ev, ds, threshold=args.threshold, seed=args.seed)
    out = Path(args.out)
    _write_json(out, {
        "accuracy": report.accuracy,
        "f1_pos": report.f1_pos,
        "f1_neg": report.f1_neg,
        "per_class": report.per_class,
        "fp_accuracy": report.fp_accuracy,
        "n_pairs": report.n_pairs,
        "threshold": args.threshold,
        "seed": args.seed,
    })
    _resolved_config(out.parent, "eval", {
        "dataset": str(args.dataset), "model": str(args.model),
        "pairs": str(args.pairs), "threshold": args.threshold, "seed": args.seed,
    })
    print(f"accuracy {report.accuracy:.4f}  f1_pos {report.f1_pos:.4f}  "
          f"f1_neg {report.f1_neg:.4f}  ({report.n_pairs} pairs)")
    return 0


def _cmd_curve(args) -> int:
    ds = read_dataset(args.dataset)
    model = _load_model(args.model)
    ev = read_eval_set(args.pairs, ds)
    mode = {"both": BOTH_ATLEAST, "one": ONE_ATLEAST}[args.mode]
    pred = predict_pairs(model, ev, ds, threshold=args.threshold, seed=args.seed)
    rows = density_curve(pred, mode, _parse_ints(args.thresholds))
    out = Path(args.out)
    with atomic_write(out) as f:
        f.write("x,mode,accuracy,n_pairs\n")
        for x, acc, n in rows:
            f.write(f"{x},{args.mode},{acc:.6f},{n}\n")
    _resolved_config(out.parent, "curve", {
        "dataset": str(args.dataset), "model": str(args.model),
        "pairs": str(args.pairs), "mode": args.mode,
        "thresholds": args.thresholds, "threshold": args.threshold,
        "seed": args.seed,
    })
    for x, acc, n in rows:
        print(f"x>={x:<5d} accuracy {acc:.4f}  ({n} pairs)")
    return 0


def _parse_points(text: str) -> list[tuple[float, float]]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        x, _, err = chunk.partition(",")
        points.append((float(x), float(err)))
    return points


def _cmd_fit_powerlaw(args) -> int:
    points = _parse_points(args.points)
    grid = _parse_floats(args.grid) if args.grid else None
    fit = fit_power_law(points, grid)
    result = {
        "eps_inf": fit.eps_inf, "beta": fit.beta, "c": fit.c,
        "residual": fit.residual,
        "points": [[x, e] for x, e in points],
    }
    if args.out:
        _write_json(args.out, result)
        _resolved_config(Path(args.out).parent, "fit-powerlaw", {
            "points": args.points, "grid": args.grid,
        })
    print(f"err(x) = {fit.eps_inf:g} + {fit.beta:.4g} * x^{fit.c:.4g}  "
          f"(residual {fit.residual:.3g})")
    return 0


def _cmd_bench(args) -> int:
    if args.model:
        model = _load_model(args.model)
    else:
        model = ReidModel(EncoderConfig(), RtmmConfig(), seed=args.seed)
    report = bench(model, batch_size=args.batch, n_trials=args.trials,
                   warmup=args.warmup, seed=args.seed)
    result = {
        "batch_size": report.batch_size,
        "n_trials": report.n_trials,
        "mean_ms": report.mean_ms,
        "stderr_ms": report.stderr_ms,
        "pairs_per_sec": report.pairs_per_sec,
        "samples_ms": report.samples_ms,
    }
    if args.out:
        _write_json(args.out, result)
        _resolved_config(Path(args.out).parent, "bench", {
            "model": str(args.model), "batch": args.batch,
            "trials": args.trials, "warmup": args.warmup, "seed": args.seed,
        })
    print(f"batch {report.batch_size}: {report.mean_ms:.2f} ms "
          f"+/- {report.stderr_ms:.2f} ms  ({report.pairs_per_sec:.0f} pairs/sec)")
    return 0


def _cmd_inspect(args) -> int:
    ds = read_dataset(args.dataset)
    classes = sorted(set(ds.class_of.values()) | set(ds.fp_index))
    rows = []
    for cls in sorted(ds.fp_index):
        n_obs = len(ds.fp_index[cls])
        rows.append((f"FP {cls}", "--", str(n_obs), "--", "--"))
    total_obj = total_obs = total_pos = 0
    total_neg = 0
    for cls in classes:
        objs = [o for o, c in ds.class_of.items() if c == cls]
        if not objs:
            continue
        sizes = [len(ds.index[o]) for o in objs]
        n_obs = sum(sizes)
        pos = sum(m * (m - 1) // 2 for m in sizes)
        tp_cross = (n_obs * n_obs - sum(m * m for m in sizes)) // 2
        neg = tp_cross + n_obs * len(ds.fp_index.get(cls, []))
        rows.append((cls, str(len(objs)), str(n_obs), f"{pos:.3g}" if pos >= 1e5 else str(pos),
                     f"{neg:.3g}" if neg >= 1e5 else str(neg)))
        total_obj += len(objs)
        total_obs += n_obs
        total_pos += pos
        total_neg += neg
    total_obs += sum(len(v) for v in ds.fp_index.values())
    rows.append(("Total", str(total_obj), str(total_obs),
                 f"{total_pos:.3g}" if total_pos >= 1e5 else str(total_pos),
                 f"{total_neg:.3g}" if total_neg >= 1e5 else str(total_neg)))
    widths = [max(len(r[i]) for r in rows + [("Class", "Objects", "Observations", "Pos. Pairs", "Neg. Pairs")])
              for i in range(5)]
    header = ("Class", "Objects", "Observations", "Pos. Pairs", "Neg. Pairs")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0


# -- parser --------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="preid", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic detection/GT/frame log")
    p.add_argument("--out", required=True, help="output directory for the logs")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--config", help="JSON file with SynthConfig fields; explicit flags win")
    p.add_argument("--preset", choices=list(_SYNTH_PRESETS),
                   default="default", help="named configuration preset")
    p.add_argument("--objects", dest="n_objects", metavar="OBJECTS", type=_parse_objects,
                   help="per-class object counts, e.g. car=10,pedestrian=5")
    p.add_argument("--frames", type=int, help="frames per run")
    p.add_argument("--lam", type=_parse_floats,
                   help="mean points per observation; comma list is sampled per object")
    p.add_argument("--sigma-center", type=float, help="detector center noise (m)")
    p.add_argument("--sigma-yaw", type=float, help="detector yaw noise (rad)")
    p.add_argument("--fp-rate", type=float, help="expected clutter detections per frame")
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("build-dataset", help="extract observations from logs")
    p.add_argument("--logs", required=True, help="directory with detections.jsonl, gt.jsonl, frames.*")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--tau-c", type=float, default=_EXTRACT_DEFAULTS["tau_c"],
                   help="detection score gate")
    p.add_argument("--tau-iou", type=float, default=_EXTRACT_DEFAULTS["tau_iou"],
                   help="IoU gate for TP matching")
    p.set_defaults(func=_cmd_build_dataset)

    p = sub.add_parser("make-eval-set", help="build a balanced density-matched eval set")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output pairs.jsonl path")
    p.add_argument("--max-pos", type=int, default=_EVAL_SET_DEFAULTS["max_pos_per_object"],
                   help="max positive pairs per object")
    p.add_argument("--min-points", type=int, default=_EVAL_SET_DEFAULTS["min_points"],
                   help="drop observations below this point count")
    p.add_argument("--seed", type=int, default=_EVAL_SET_DEFAULTS["seed"],
                   help="sampling seed")
    p.set_defaults(func=_cmd_make_eval_set)

    p = sub.add_parser("train", help="train a matching model")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="run output directory")
    train_keys = ", ".join({**_ENCODER_KEYS, **_RTMM_KEYS, **_TRAIN_KEYS})
    p.add_argument("--config", help=f"JSON file with the keys {train_keys}; explicit flags win")
    p.add_argument("--seed", type=int, default=0, help="training seed")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--batch-size", type=int, help="pairs per optimizer step")
    p.add_argument("--lr", dest="lr_base", metavar="LR", type=float, help="base learning rate")
    p.add_argument("--weight-decay", type=float, help="decoupled weight decay")
    p.add_argument("--clip-norm", type=float, help="global gradient norm cap")
    p.add_argument("--sampler", choices=[EVEN, UNIFORM], help="pair sampling algorithm")
    p.add_argument("--encoder", choices=[POINTNET_LITE, EDGECONV_LITE], help="point encoder")
    p.add_argument("--dim", type=int, help="feature width")
    p.add_argument("--n-points", type=int, help="points per observation after resampling")
    p.add_argument("--layers", type=int, help="cross-attention layers")
    p.add_argument("--early-stop-accuracy", type=float,
                   help="stop once running batch accuracy reaches this level")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on an eval set")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--model", required=True, help="training run directory")
    p.add_argument("--pairs", required=True, help="pairs.jsonl path")
    p.add_argument("--out", default="report.json", help="output report path")
    p.add_argument("--threshold", type=float, default=_EVALUATE_DEFAULTS["threshold"],
                   help="match probability threshold")
    p.add_argument("--seed", type=int, default=_EVALUATE_DEFAULTS["seed"],
                   help="point-resampling seed")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("curve", help="accuracy as a function of point density")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--model", required=True, help="training run directory")
    p.add_argument("--pairs", required=True, help="pairs.jsonl path")
    p.add_argument("--mode", choices=["both", "one"], default="both",
                   help="require both or at least one observation above the threshold")
    p.add_argument("--thresholds", default="2,4,8,16,32,64", help="comma list of point counts")
    p.add_argument("--threshold", type=float, default=_PREDICT_DEFAULTS["threshold"],
                   help="match probability threshold")
    p.add_argument("--out", default="curve.csv", help="output CSV path")
    p.add_argument("--seed", type=int, default=_PREDICT_DEFAULTS["seed"],
                   help="point-resampling seed")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("fit-powerlaw", help="fit err(x) = eps_inf + beta * x^c")
    p.add_argument("--points", required=True,
                   help="semicolon-separated compute,error pairs, e.g. '14400,13.01;28800,11.95'")
    p.add_argument("--grid", help="comma list of error-floor candidates (default 0..8)")
    p.add_argument("--out", help="optional powerlaw.json output path")
    p.set_defaults(func=_cmd_fit_powerlaw)

    p = sub.add_parser("bench", help="inference throughput benchmark")
    p.add_argument("--model", help="training run directory (default: fresh random model)")
    p.add_argument("--batch", type=int, default=_BENCH_DEFAULTS["batch_size"],
                   help="pairs per batch")
    p.add_argument("--trials", type=int, default=_BENCH_DEFAULTS["n_trials"],
                   help="timed trials")
    p.add_argument("--warmup", type=int, default=_BENCH_DEFAULTS["warmup"],
                   help="discarded warmup trials")
    p.add_argument("--out", help="optional bench.json output path")
    p.add_argument("--seed", type=int, default=_BENCH_DEFAULTS["seed"],
                   help="input generation seed")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("inspect", help="print dataset statistics")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
