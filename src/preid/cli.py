"""Command-line entry point.

Subcommands map one-to-one onto the library pipeline: generate a synthetic
scene log, build an observation dataset from logs, build an eval set, train,
evaluate, slice accuracy by density, fit a compute-scaling power law,
benchmark inference, and inspect dataset statistics.

Every command that writes output also records its parsed flags, except
--out, with each value that the command resolves in place of the flag of
the same name: a config object's values under their config-file keys, and
counts such as make-eval-set's n_pairs. A directory output holds
resolved_config.json, and a file output such as pairs.jsonl gets
pairs.resolved_config.json beside it.
Flags are long-form only; a JSON config file may supply defaults and
explicit flags win. Exit codes: 0 success, 1 usage error (a malformed
flag value included), 2 data/format error or a diverged training run.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from .data import (
    ConfigError,
    FormatError,
    InputError,
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
    check_density_thresholds,
    density_curve,
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
    load_checkpoint,
)
from .sampling import build_eval_set, read_eval_set, write_eval_set
from .training import EVEN, UNIFORM, TrainConfig, TrainingError, train
from .util import atomic_write

USAGE_ERROR = 1
DATA_ERROR = 2

# FormatError, InputError, ConfigError and CheckpointError are ValueErrors
_DATA_ERRORS = (ValueError, OSError, TrainingError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _write_json(path, obj) -> None:
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _resolved_config(args, **resolved) -> None:
    """Record a command's parsed flags, each resolved value in place of the
    flag of its name, in its output directory, or beside its output file
    under a name derived from it, so commands that write into one directory
    keep each other's records."""
    out = Path(args.out)
    path = out / "resolved_config.json" if out.is_dir() else \
        out.with_name(f"{out.stem}.resolved_config.json")
    flags = {key: value for key, value in vars(args).items() if key not in ("func", "out")}
    _write_json(path, {**flags, **resolved})


# config-file keys that are not their field's name: the flags carry these
# names, and "dim" sets both the encoder's output width and the head's width
_RENAMED_KEYS = {"kind": "encoder", "out_dim": "dim"}


def _keys(cls) -> dict[str, str]:
    """Map each config-file key of a config dataclass to the field it sets."""
    return {_RENAMED_KEYS.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}


def _config_keys(*configs) -> dict:
    """The values of config objects under their config-file keys."""
    return {key: getattr(cfg, field)
            for cfg in configs for key, field in _keys(type(cfg)).items()}


def _configure(path, args, *bases) -> list:
    """Build config objects from a JSON config file and explicit flags.

    Each base is a library dataclass instance (a preset or the defaults).
    Every field is set by the config-file key of its own name (``_keys``),
    which is also the argparse dest of its flag, if it has one. File values
    replace the base's and explicit flags replace both, via
    ``dataclasses.replace``. A file key that no base knows, or a value that
    the dataclass rejects, is a ConfigError naming the file.
    """
    config = {}
    if path is not None:
        try:
            config = json.loads(Path(path).read_text())
        except ValueError as e:  # also text that is not UTF-8
            raise FormatError(f"{path}: bad JSON config ({e})") from e
        if not isinstance(config, dict):
            raise FormatError(f"{path}: config must be a JSON object")
        known = {key for base in bases for key in _keys(type(base))}
        for key in config:
            if key not in known:
                raise ConfigError(f"{path}: unknown config key {key!r}; "
                                  f"known keys: {', '.join(sorted(known))}")
    out = []
    for base in bases:
        values = {}
        for key, field in _keys(type(base)).items():
            flag = getattr(args, key, None)
            if flag is not None:
                values[field] = flag
            elif key in config:
                values[field] = config[key]
        try:
            out.append(dataclasses.replace(base, **values))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{path}: {e}" if path is not None else str(e)) from e
    return out


def _defaults(fn) -> dict:
    """Keyword defaults of a library function, so that the parser shows and
    passes the library's own values. Called at import, while the module's
    names are still the library functions and not wrappers around them."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


_EXTRACT_DEFAULTS = _defaults(extract_observations)
_EVAL_SET_DEFAULTS = _defaults(build_eval_set)
_PREDICT_DEFAULTS = _defaults(predict_pairs)
_BENCH_DEFAULTS = _defaults(bench)


def _parse_list(text: str, sep: str, item, what: str) -> list:
    """The items of a list flag; argparse reports an empty list or a bad item
    as a usage error naming the flag."""
    try:
        out = [item(v) for v in text.split(sep) if v.strip()]
    except ValueError:
        out = []
    if not out:
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return out


def _parse_floats(text: str) -> list[float]:
    return _parse_list(text, ",", float, "a comma list of numbers")


def _parse_ints(text: str) -> list[int]:
    return _parse_list(text, ",", int, "a comma list of integers")


def _parse_point(text: str) -> tuple[float, float]:
    x, err = text.split(",")
    return float(x), float(err)


def _parse_points(text: str) -> list[tuple[float, float]]:
    return _parse_list(text, ";", _parse_point, "semicolon-separated x,error pairs")


def _parse_count(text: str) -> tuple[str, int]:
    cls, count = text.split("=")
    return cls.strip(), int(count)


def _parse_objects(text: str) -> dict[str, int]:
    counts = _parse_list(text, ",", _parse_count, "a comma list of class=count")
    if len(dict(counts)) < len(counts):
        raise argparse.ArgumentTypeError(f"a class is named twice in {text!r}")
    return dict(counts)


# -- subcommand handlers -------------------------------------------------


_SYNTH_PRESETS = {
    "default": SynthConfig,
    "benchmark": SynthConfig.benchmark,
    "separable": SynthConfig.separable,
}


def _cmd_gen_synthetic(args) -> int:
    (cfg,) = _configure(args.config, args, _SYNTH_PRESETS[args.preset]())
    detections, gt, frame_points = generate_synthetic(cfg, args.seed)
    out = Path(args.out)
    write_detections(detections, out / "detections.jsonl")
    write_gt(gt, out / "gt.jsonl")
    write_frames(frame_points, out)
    _resolved_config(args, **_config_keys(cfg))
    print(f"wrote {len(detections)} detections over {cfg.frames} frames to {out}")
    return 0


def _cmd_build_dataset(args) -> int:
    src = Path(args.logs)
    detections = read_detections(src / "detections.jsonl")
    gt = read_gt(src / "gt.jsonl")
    frame_points = read_frames(src)
    try:
        ds = extract_observations(detections, gt, frame_points,
                                  tau_c=args.tau_c, tau_iou=args.tau_iou)
    except InputError as e:
        raise InputError(f"{src / 'detections.jsonl'}: {e}") from e
    write_dataset(ds, args.out)
    _resolved_config(args)
    print(f"extracted {len(ds)} observations of {ds.n_objects()} objects to {args.out}")
    return 0


def _cmd_make_eval_set(args) -> int:
    ds = read_dataset(args.dataset)
    ev = build_eval_set(ds, max_pos_per_object=args.max_pos,
                        min_points=args.min_points, seed=args.seed)
    write_eval_set(ev, args.out)
    _resolved_config(args, n_pairs=len(ev.pairs), skipped_negatives=ev.skipped_negatives)
    print(f"wrote {len(ev.pairs)} eval pairs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    encoder_cfg, rtmm_cfg, train_cfg = _configure(
        args.config, args, EncoderConfig(), RtmmConfig(), TrainConfig())
    ds = read_dataset(args.dataset)
    model = ReidModel(encoder_cfg, rtmm_cfg, seed=train_cfg.seed)
    Path(args.out).mkdir(parents=True, exist_ok=True)  # so the record goes inside
    _resolved_config(args, **_config_keys(encoder_cfg, rtmm_cfg, train_cfg))
    report = train(model, ds, train_cfg, args.out)
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


def _predict(args):
    ds = read_dataset(args.dataset)
    model = _load_model(args.model)
    ev = read_eval_set(args.pairs, ds)
    return predict_pairs(model, ev, ds, threshold=args.threshold, seed=args.seed)


def _cmd_eval(args) -> int:
    report = report_from_predictions(_predict(args))
    _write_json(args.out, {**dataclasses.asdict(report),
                           "threshold": args.threshold, "seed": args.seed})
    _resolved_config(args)
    print(f"accuracy {report.accuracy:.4f}  f1_pos {report.f1_pos:.4f}  "
          f"f1_neg {report.f1_neg:.4f}  ({report.n_pairs} pairs)")
    return 0


def _cmd_curve(args) -> int:
    check_density_thresholds(args.thresholds)  # before the eval set is scored
    rows = density_curve(_predict(args), args.mode, args.thresholds)
    with atomic_write(args.out) as f:
        f.write("x,mode,accuracy,n_pairs\n")
        for x, acc, n in rows:
            f.write(f"{x},{args.mode},{acc:.6f},{n}\n")
    _resolved_config(args)
    for x, acc, n in rows:
        print(f"x>={x:<5d} accuracy {acc:.4f}  ({n} pairs)")
    return 0


def _cmd_fit_powerlaw(args) -> int:
    fit = fit_power_law(args.points, args.grid)
    result = {
        "eps_inf": fit.eps_inf, "beta": fit.beta, "c": fit.c,
        "residual": fit.residual,
        "points": [[x, e] for x, e in args.points],
    }
    if args.out:
        _write_json(args.out, result)
        _resolved_config(args)
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
    if args.out:
        _write_json(args.out, dataclasses.asdict(report))
        _resolved_config(args)
    print(f"batch {report.batch_size}: {report.mean_ms:.2f} ms "
          f"+/- {report.stderr_ms:.2f} ms  ({report.pairs_per_sec:.0f} pairs/sec)")
    return 0


def _cmd_inspect(args) -> int:
    ds = read_dataset(args.dataset)
    stats = []  # (class, objects, observations, positive pairs, negative pairs)
    for cls in sorted(set(ds.class_of.values())):
        sizes = [len(ds.index[o]) for o, c in ds.class_of.items() if c == cls]
        n_obs = sum(sizes)
        tp_cross = (n_obs * n_obs - sum(m * m for m in sizes)) // 2
        stats.append((cls, len(sizes), n_obs, sum(m * (m - 1) // 2 for m in sizes),
                      tp_cross + n_obs * len(ds.fp_index.get(cls, []))))
    objs, obs, pos, neg = (sum(row[k] for row in stats) for k in range(1, 5))
    stats.append(("Total", objs, obs + sum(map(len, ds.fp_index.values())), pos, neg))

    def pairs(n):
        return f"{n:.3g}" if n >= 1e5 else str(n)

    header = ("Class", "Objects", "Observations", "Pos. Pairs", "Neg. Pairs")
    rows = [(f"FP {cls}", "--", str(len(ids)), "--", "--") for cls, ids in sorted(ds.fp_index.items())]
    rows += [(cls, str(n_objs), str(n_obs), pairs(p), pairs(n)) for cls, n_objs, n_obs, p, n in stats]
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    for row in (header, *rows):
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
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
    p.add_argument("--config", help="JSON file whose keys are the field names of EncoderConfig, "
                   "RtmmConfig and TrainConfig, except that encoder sets kind and dim sets "
                   "out_dim and dim; explicit flags win")
    p.add_argument("--seed", type=int, help=f"model and training seed (default {TrainConfig.seed})")
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

    scoring = _Parser(add_help=False)  # the flags of eval and curve
    scoring.add_argument("--dataset", required=True, help="dataset directory")
    scoring.add_argument("--model", required=True, help="training run directory")
    scoring.add_argument("--pairs", required=True, help="pairs.jsonl path")
    scoring.add_argument("--threshold", type=float, default=_PREDICT_DEFAULTS["threshold"],
                         help="match probability threshold")
    scoring.add_argument("--seed", type=int, default=_PREDICT_DEFAULTS["seed"],
                         help="point-resampling seed")

    p = sub.add_parser("eval", parents=[scoring], help="evaluate a model on an eval set")
    p.add_argument("--out", default="report.json", help="output report path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("curve", parents=[scoring], help="accuracy as a function of point density")
    p.add_argument("--mode", choices=[BOTH_ATLEAST, ONE_ATLEAST], default=BOTH_ATLEAST,
                   help="require both or at least one observation above the threshold")
    p.add_argument("--thresholds", type=_parse_ints, default="2,4,8,16,32,64",
                   help="comma list of point counts")
    p.add_argument("--out", default="curve.csv", help="output CSV path")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("fit-powerlaw", help="fit err(x) = eps_inf + beta * x^c")
    p.add_argument("--points", required=True, type=_parse_points,
                   help="semicolon-separated compute,error pairs, e.g. '14400,13.01;28800,11.95'")
    p.add_argument("--grid", type=_parse_floats,
                   help="comma list of error-floor candidates (default 0..8)")
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
