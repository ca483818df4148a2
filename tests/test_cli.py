"""Command-line interface: subcommand round trips and the exit-code contract."""

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import re
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

import preid.cli
from preid.cli import main
from preid.data import (
    SynthConfig,
    extract_observations,
    generate_synthetic,
    read_dataset,
    write_dataset,
    write_detections,
    write_frames,
    write_gt,
)
from preid.evaluation import bench, evaluate, predict_pairs
from preid.model import EncoderConfig, ReidModel, RtmmConfig, config_from_json, load_checkpoint
from preid.sampling import build_eval_set
from preid.training import TrainConfig, TrainReport, train
from test_acceptance import BENCH_ENCODER, BENCH_HEAD, BENCH_TRAIN


LOG_FILES = ("detections.jsonl", "gt.jsonl", "frames.bin", "frames.jsonl")


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_nan(path, offset):
    """Overwrite the 4 bytes at `offset` (negative counts from the end) with a NaN."""
    blob = bytearray(path.read_bytes())
    offset %= len(blob)
    blob[offset:offset + 4] = struct.pack("<f", math.nan)
    path.write_bytes(bytes(blob))


def edit_record(path, lineno, edit):
    """Replace line `lineno` of a JSONL file by edit(record): a dict or raw text."""
    lines = path.read_text().splitlines()
    new = edit(json.loads(lines[lineno - 1]))
    lines[lineno - 1] = new if isinstance(new, str) else json.dumps(new)
    path.write_text("\n".join(lines) + "\n")


# ways to break one manifest / frame-index record
MALFORMED_RECORDS = {
    "missing key": lambda rec: {k: v for k, v in rec.items() if k != "offset"},
    "wrong type": lambda rec: {**rec, "length": str(rec["length"])},
    "bad JSON": lambda rec: '{"offset": 0,',
    "negative offset": lambda rec: {**rec, "offset": -12},
    "partial point": lambda rec: {**rec, "length": rec["length"] - 4},
    "not an object": lambda rec: "[1, 2]",
}


def with_box(**fields):
    """An edit that replaces fields of a log record's box."""
    return lambda rec: {**rec, "box": {**rec["box"], **fields}}


# ways to break one detection / GT record
MALFORMED_LOG_RECORDS = {
    "NaN box centre": with_box(center=[math.nan, 0.0, 0.5]),
    "1e999 box size": lambda rec: json.dumps(with_box(size=[1e300, 1.0, 1.0])(rec)).replace(
        "1e+300", "1e999"),
    "2-element size": lambda rec: with_box(size=rec["box"]["size"][:2])(rec),
    "non-positive size": with_box(size=[1.0, 0.0, 1.0]),
    "float frame": lambda rec: {**rec, "frame": rec["frame"] + 0.7},
    "string frame": lambda rec: {**rec, "frame": str(rec["frame"])},
}

# ways to break one eval pair
MALFORMED_PAIRS = {
    "missing key": lambda rec: {k: v for k, v in rec.items() if k != "n_b"},
    "wrong type": lambda rec: {**rec, "n_a": str(rec["n_a"])},
    "bad JSON": lambda rec: '{"obs_a": ',
    "unknown label": lambda rec: {**rec, "label": "maybe"},
    "unknown observation": lambda rec: {**rec, "obs_b": "no-such-observation"},
    "n_a mismatch": lambda rec: {**rec, "n_a": rec["n_a"] + 1},
    "flipped label": lambda rec: {**rec, "label": "NON_MATCH" if rec["label"] == "MATCH"
                                  else "MATCH"},
    "other class": lambda rec: {**rec, "class": "bus"},
}

# ways to break a run's model_config.json
MALFORMED_MODEL_CONFIGS = {
    "bad JSON": lambda cfg: "{oops",
    "unknown key": lambda cfg: {**cfg, "encoder": {**cfg["encoder"], "bogus": 1}},
    "missing section": lambda cfg: {"encoder": cfg["encoder"]},
    "wrong type": lambda cfg: {**cfg, "rtmm": {**cfg["rtmm"], "layers": "1"}},
    "zero n_points": lambda cfg: {**cfg, "encoder": {**cfg["encoder"], "n_points": 0}},
    "non-list hidden": lambda cfg: {**cfg, "encoder": {**cfg["encoder"], "hidden": 8}},
    "list layers": lambda cfg: {**cfg, "rtmm": {**cfg["rtmm"], "layers": [2]}},
    "in_dim 4": lambda cfg: {**cfg, "encoder": {**cfg["encoder"], "in_dim": 4}},
    "unknown kind": lambda cfg: {**cfg, "encoder": {**cfg["encoder"], "kind": "bogus"}},
    "knn above n_points": lambda cfg: {**cfg, "encoder": {**cfg["encoder"],
                                                          "kind": "edgeconv_lite", "knn": 64}},
}

# config-file values that the config dataclasses reject, per command
BAD_CONFIG_VALUES = [
    ("train", {"epochs": "2"}),
    ("train", {"epochs": 2.5}),
    ("train", {"epochs": True}),
    ("train", {"dim": "8"}),
    ("train", {"lr_base": "x"}),
    ("train", {"hidden": 32}),
    ("train", {"pos_hidden": {"a": 1}}),
    ("train", {"in_dim": 4}),
    ("train", {"target_ratio_up": math.nan}),
    ("train", {"step_ratio_up": 1.5}),
    ("train", {"target_ratio_up": [5.0]}),
    ("train", {"knn": [8]}),
    ("train", {"seed": 2.5}),
    ("train", {"early_stop_accuracy": "x"}),
    ("train", {"lr_base": 0}),
    ("train", {"lr_base": -1.0}),
    ("train", {"weight_decay": -0.5}),
    ("train", {"target_ratio_up": 0.0}),
    ("train", {"target_ratio_down": -1.0}),
    ("train", {"early_stop_accuracy": 1.5}),
    ("gen-synthetic", {"frames": 2.5}),
    ("gen-synthetic", {"n_objects": {"car": "2"}}),
    ("gen-synthetic", {"n_objects": {"car": -1}}),
    ("gen-synthetic", {"n_objects": 5}),
    ("gen-synthetic", {"n_objects": {}, "fp_rate": 2.0}),
    ("gen-synthetic", {"lam": {"a": 1.0}}),
    ("gen-synthetic", {"dim_spread": 1.0}),
]

# a train config file that builds criterion 7's model and training run
# (tests/test_acceptance.py: BENCH_ENCODER, BENCH_HEAD, BENCH_TRAIN)
CRITERION_7_CONFIG = {
    "dim": 32, "n_points": 64, "hidden": [32],
    "layers": 2, "pos_hidden": [32], "mlp_hidden": [32], "res_hidden": 64,
    "batch_size": 63, "epochs": 300, "lr_base": 1e-3, "seed": 0,
}


# each command that writes a record: its flags other than --out, its --out
# (relative to the test's directory) and where its record goes
WRITING_COMMANDS = [
    ("gen-synthetic", ["--objects", "car=2", "--frames", "2"],
     "logs", "logs/resolved_config.json"),
    ("build-dataset", ["--logs", "{logs}"], "ds", "ds/resolved_config.json"),
    ("make-eval-set", ["--dataset", "{ds}"], "pairs.jsonl", "pairs.resolved_config.json"),
    ("train", ["--dataset", "{ds}", "--epochs", "1", "--dim", "8", "--n-points", "16"],
     "run", "run/resolved_config.json"),
    ("eval", ["--dataset", "{ds}", "--model", "{run}", "--pairs", "{pairs}"],
     "report.json", "report.resolved_config.json"),
    ("curve", ["--dataset", "{ds}", "--model", "{run}", "--pairs", "{pairs}"],
     "curve.csv", "curve.resolved_config.json"),
    ("fit-powerlaw", ["--points", "10,5.0;100,3.0;1000,2.1"],
     "powerlaw.json", "powerlaw.resolved_config.json"),
    ("bench", ["--batch", "2", "--trials", "1", "--warmup", "0"],
     "bench.json", "bench.resolved_config.json"),
]


def flag_dests(command):
    """The argparse dests of a subcommand's flags."""
    parser = preid.cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def config_keys(encoder, rtmm, train_cfg):
    """Config objects' values under their config-file keys: encoder sets kind,
    and dim sets both out_dim and the head's dim."""
    keys = {**dataclasses.asdict(encoder), **dataclasses.asdict(rtmm),
            **dataclasses.asdict(train_cfg)}
    keys["encoder"] = keys.pop("kind")
    assert keys.pop("out_dim") == keys["dim"]
    return keys


def assert_same_params(model, other):
    assert model.params.names() == other.params.names()
    for (_, t), (_, want) in zip(model.params.items(), other.params.items()):
        np.testing.assert_array_equal(t.data, want.data)


def signature_defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny generated scene, extracted dataset, eval set, and trained run."""
    root = tmp_path_factory.mktemp("cli")
    logs, ds, run = root / "logs", root / "ds", root / "run"
    assert main(["gen-synthetic", "--out", str(logs), "--seed", "3",
                 "--objects", "car=6", "--frames", "4", "--lam", "24"]) == 0
    assert main(["build-dataset", "--logs", str(logs), "--out", str(ds)]) == 0
    assert main(["make-eval-set", "--dataset", str(ds),
                 "--out", str(root / "pairs.jsonl"), "--seed", "1"]) == 0
    assert main(["train", "--dataset", str(ds), "--out", str(run),
                 "--epochs", "2", "--batch-size", "4",
                 "--dim", "8", "--n-points", "16", "--layers", "1"]) == 0
    return root


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        assert (pipeline / "logs" / "detections.jsonl").is_file()
        assert (pipeline / "ds" / "manifest.jsonl").is_file()
        assert (pipeline / "ds" / "points.bin").is_file()
        assert (pipeline / "pairs.jsonl").is_file()
        assert (pipeline / "run" / "model.ckpt").is_file()
        assert (pipeline / "run" / "model_config.json").is_file()
        assert (pipeline / "run" / "metrics.jsonl").is_file()

    def test_resolved_config_written(self, pipeline):
        for sub in ("logs", "ds", "run"):
            cfg = json.loads((pipeline / sub / "resolved_config.json").read_text())
            assert "command" in cfg

    def test_file_output_keeps_directory_config(self, pipeline, tmp_path):
        ds = tmp_path / "ds"
        assert main(["build-dataset", "--logs", str(pipeline / "logs"), "--out", str(ds)]) == 0
        assert main(["make-eval-set", "--dataset", str(ds), "--out", str(ds / "pairs.jsonl")]) == 0
        built = json.loads((ds / "resolved_config.json").read_text())
        assert built["command"] == "build-dataset" and {"tau_c", "tau_iou"} <= set(built)
        pairs = json.loads((ds / "pairs.resolved_config.json").read_text())
        assert pairs["command"] == "make-eval-set" and pairs["dataset"] == str(ds)

    def test_file_outputs_in_one_directory_keep_both_configs(self, pipeline, tmp_path):
        common = ["--dataset", str(pipeline / "ds"), "--model", str(pipeline / "run"),
                  "--pairs", str(pipeline / "pairs.jsonl")]
        assert main(["eval", *common, "--out", str(tmp_path / "report.json")]) == 0
        assert main(["curve", *common, "--thresholds", "2,8",
                     "--out", str(tmp_path / "curve.csv")]) == 0
        for stem, command in (("report", "eval"), ("curve", "curve")):
            resolved = json.loads((tmp_path / f"{stem}.resolved_config.json").read_text())
            assert resolved["command"] == command
        assert not (tmp_path / "resolved_config.json").exists()

    @pytest.mark.parametrize("command, flags, out, record", WRITING_COMMANDS,
                             ids=[case[0] for case in WRITING_COMMANDS])
    def test_record_holds_every_flag(self, pipeline, tmp_path, capsys,
                                     command, flags, out, record):
        paths = {name: str(pipeline / name) for name in ("logs", "ds", "run")}
        paths["pairs"] = str(pipeline / "pairs.jsonl")
        argv = [command, *(flag.format(**paths) for flag in flags), "--out", str(tmp_path / out)]
        assert main(argv) == 0
        capsys.readouterr()
        resolved = json.loads((tmp_path / record).read_text())
        assert resolved["command"] == command
        assert flag_dests(command) - {"out"} <= set(resolved)
        assert "out" not in resolved

    def test_library_run_loads_with_eval(self, pipeline, tmp_path, capsys):
        # the configs of the pipeline's run, trained through the library alone
        model = ReidModel(EncoderConfig(out_dim=8, n_points=16), RtmmConfig(layers=1, dim=8))
        train(model, read_dataset(pipeline / "ds"), TrainConfig(epochs=1, batch_size=4),
              tmp_path / "run")
        assert (tmp_path / "run" / "model_config.json").read_bytes() == \
            (pipeline / "run" / "model_config.json").read_bytes()
        assert main(["eval", "--dataset", str(pipeline / "ds"), "--model", str(tmp_path / "run"),
                     "--pairs", str(pipeline / "pairs.jsonl"),
                     "--out", str(tmp_path / "report.json")]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_eval_and_report(self, pipeline, capsys):
        out = pipeline / "report.json"
        assert main(["eval", "--dataset", str(pipeline / "ds"),
                     "--model", str(pipeline / "run"),
                     "--pairs", str(pipeline / "pairs.jsonl"),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert {"accuracy", "f1_pos", "f1_neg", "per_class", "n_pairs"} <= set(report)
        assert "accuracy" in capsys.readouterr().out

    def test_curve_csv(self, pipeline):
        out = pipeline / "curve.csv"
        assert main(["curve", "--dataset", str(pipeline / "ds"),
                     "--model", str(pipeline / "run"),
                     "--pairs", str(pipeline / "pairs.jsonl"),
                     "--mode", "both", "--thresholds", "2,8",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,mode,accuracy,n_pairs"
        assert lines[1].startswith("2,both,")

    def test_inspect_prints_table(self, pipeline, capsys):
        assert main(["inspect", "--dataset", str(pipeline / "ds")]) == 0
        out = capsys.readouterr().out
        assert "Class" in out and "Pos. Pairs" in out and "car" in out

    def test_inspect_counts_match_brute_force(self, tmp_path, capsys):
        cfg = SynthConfig(n_objects={"car": 4, "pedestrian": 3}, frames=4, lam=24.0, fp_rate=1.5)
        ds = extract_observations(*generate_synthetic(cfg, 5))
        write_dataset(ds, tmp_path / "ds")
        obs = ds.observations
        assert ds.fp_index and len(ds.class_of) == 7
        expected = {}
        for cls in sorted(set(o.predicted_class for o in obs if not o.is_fp)) + ["Total"]:
            mine = [o for o in obs if cls in ("Total", o.predicted_class)]
            pairs = [(a, b) for i, a in enumerate(mine) for b in mine[i + 1:]
                     if a.predicted_class == b.predicted_class and not (a.is_fp and b.is_fp)]
            expected[cls] = [
                len({o.object_id for o in mine if not o.is_fp}),
                sum(1 for o in mine if cls == "Total" or not o.is_fp),
                sum(1 for a, b in pairs if a.object_id == b.object_id),
                sum(1 for a, b in pairs if a.object_id != b.object_id),
            ]
        assert main(["inspect", "--dataset", str(tmp_path / "ds")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("  ")[0] == "Class"
        printed = {row[0]: [int(v) for v in row[1:]] for row in map(str.split, lines[1:])
                   if row[0] != "FP"}
        assert printed == expected

    def test_bench_random_model(self, pipeline, capsys, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--batch", "4", "--trials", "3", "--warmup", "1",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n_trials"] == 3 and len(report["samples_ms"]) == 3
        assert "pairs/sec" in capsys.readouterr().out
        assert json.loads((tmp_path / "bench.resolved_config.json").read_text())["model"] is None

    def test_bench_trained_model(self, pipeline, capsys, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--model", str(pipeline / "run"), "--batch", "2", "--trials", "2",
                     "--warmup", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["batch_size"] == 2 and len(report["samples_ms"]) == 2
        assert "pairs/sec" in capsys.readouterr().out
        resolved = json.loads((tmp_path / "bench.resolved_config.json").read_text())
        assert resolved["model"] == str(pipeline / "run")

    @pytest.mark.parametrize("flag,value", [("--batch", "0"), ("--trials", "0"),
                                            ("--warmup", "-1")])
    def test_bench_degenerate_arguments_exit_2(self, capsys, tmp_path, flag, value):
        out = tmp_path / "bench.json"
        assert main(["bench", "--batch", "2", "--trials", "1", "--warmup", "0",
                     flag, value, "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err


def blas_build():
    """The numpy version and BLAS build that seeded outputs depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__} with {blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy without the dict form, or without the key
        return f"numpy {np.__version__} with an unreported BLAS"


BLAS_BUILD = blas_build()


# sha256 prefixes of the seed-7 pipeline's outputs on numpy 2.4.6 with
# scipy-openblas 0.3.31: the logs, the dataset, the eval set, and per encoder
# the training metrics, checkpoint and eval report
SEED_7_LOGS = {"detections.jsonl": "2eef9412a6f4", "gt.jsonl": "2ac903227eb9",
               "frames.jsonl": "2cb74583b334", "frames.bin": "9e8f012b8de8"}
SEED_7_DATASET = {"manifest.jsonl": "71564080eed3", "points.bin": "b325cdf09b7b"}
SEED_7_PAIRS = "4c119c94c73e"
SEED_7_RUNS = {
    "pointnet_lite": {"metrics.jsonl": "1a3d4b3a1210", "model.ckpt": "8ca8de42e637",
                      "report.json": "a6497cd880d7"},
    "edgeconv_lite": {"metrics.jsonl": "77ccba30c151", "model.ckpt": "ba876dfba93d",
                      "report.json": "6b7d31b0e335"},
}


class TestSeededBytes:
    @pytest.mark.skipif(not re.fullmatch(r"numpy 2\.4\.6 with scipy-openblas 0\.3\.31(\..*)?",
                                         BLAS_BUILD),
                        reason=f"the pinned bytes are those of numpy 2.4.6 with scipy-openblas "
                               f"0.3.31; this is {BLAS_BUILD}")
    def test_seed_7_pipeline(self, tmp_path, capsys):
        logs, ds, pairs = tmp_path / "logs", tmp_path / "ds", tmp_path / "pairs.jsonl"
        assert main(["gen-synthetic", "--out", str(logs), "--seed", "7",
                     "--preset", "benchmark"]) == 0
        assert main(["build-dataset", "--logs", str(logs), "--out", str(ds)]) == 0
        assert main(["make-eval-set", "--dataset", str(ds), "--out", str(pairs)]) == 0
        got = {"logs": {name: digest(logs / name)[:12] for name in SEED_7_LOGS},
               "dataset": {name: digest(ds / name)[:12] for name in SEED_7_DATASET},
               "pairs": digest(pairs)[:12]}
        for encoder in SEED_7_RUNS:
            run = tmp_path / encoder
            assert main(["train", "--dataset", str(ds), "--out", str(run), "--encoder", encoder,
                         "--dim", "16", "--n-points", "32", "--batch-size", "25",
                         "--epochs", "3", "--seed", "3"]) == 0
            assert main(["eval", "--dataset", str(ds), "--model", str(run),
                         "--pairs", str(pairs), "--out", str(run / "report.json")]) == 0
            got[encoder] = {name: digest(run / name)[:12] for name in SEED_7_RUNS[encoder]}
        capsys.readouterr()
        assert got == {"logs": SEED_7_LOGS, "dataset": SEED_7_DATASET, "pairs": SEED_7_PAIRS,
                       **SEED_7_RUNS}


class TestDeterminism:
    def test_gen_synthetic_same_seed_identical(self, tmp_path):
        args = ["gen-synthetic", "--seed", "9", "--objects", "car=3",
                "--frames", "3", "--lam", "16"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in LOG_FILES:
            assert digest(tmp_path / "a" / name) == digest(tmp_path / "b" / name)

    def test_eval_bit_reproducible(self, pipeline, tmp_path):
        common = ["eval", "--dataset", str(pipeline / "ds"),
                  "--model", str(pipeline / "run"),
                  "--pairs", str(pipeline / "pairs.jsonl"), "--seed", "4"]
        assert main(common + ["--out", str(tmp_path / "r1.json")]) == 0
        assert main(common + ["--out", str(tmp_path / "r2.json")]) == 0
        assert digest(tmp_path / "r1.json") == digest(tmp_path / "r2.json")


class TestExitCodes:
    def test_no_subcommand_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_flag_usage_error(self, capsys):
        assert main(["inspect", "--dataset", "x", "--frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["build-dataset", "--out", "x"]) == 1
        capsys.readouterr()

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        assert main(["train", "--dataset", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "run")]) == 2
        capsys.readouterr()

    def test_corrupt_dataset_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "manifest.jsonl").write_text("{broken\n")
        (ds / "points.bin").write_bytes(b"")
        assert main(["inspect", "--dataset", str(ds)]) == 2
        capsys.readouterr()

    def test_bad_config_file_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{oops")
        assert main(["gen-synthetic", "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command, config, key", [
        ("gen-synthetic", {"fram": 9, "frames": 2}, "fram"),
        ("train", {"lr": 0.1, "epochs": 2}, "lr"),  # the key is lr_base; --lr is the flag
    ])
    def test_unknown_config_key_is_data_error(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = [command, "--out", str(tmp_path / "o"), "--config", str(cfg)]
        if command == "train":
            args += ["--dataset", str(tmp_path / "missing")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and str(cfg) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--batch-size", "--epochs", "--clip-norm"])
    def test_zero_train_flag_is_data_error(self, pipeline, tmp_path, capsys, flag):
        assert main(["train", "--dataset", str(pipeline / "ds"), "--out", str(tmp_path / "o"),
                     flag, "0"]) == 2
        capsys.readouterr()
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("batch_size, checkpointed", [("8", True), ("2", False)])
    def test_diverged_train_is_data_error(self, pipeline, tmp_path, capsys,
                                          batch_size, checkpointed):
        # lr 1e6 diverges at step 2: after two epoch checkpoints at batch 8,
        # in epoch 0 at batch 2
        run = tmp_path / "run"
        with warnings.catch_warnings():  # the error line is all that is printed
            warnings.simplefilter("error")
            assert main(["train", "--dataset", str(pipeline / "ds"), "--out", str(run),
                         "--epochs", "3", "--lr", "1e6", "--dim", "8", "--n-points", "16",
                         "--batch-size", batch_size]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: non-finite") and len(err.splitlines()) == 1
            assert (run / "model.ckpt").exists() == checkpointed
            if checkpointed:  # the kept checkpoint loads, but its logits are not finite
                load_checkpoint(run / "model.ckpt",
                                *config_from_json((run / "model_config.json").read_text()))
                assert main(["eval", "--dataset", str(pipeline / "ds"), "--model", str(run),
                             "--pairs", str(pipeline / "pairs.jsonl"),
                             "--out", str(tmp_path / "report.json")]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "non-finite logit" in err
                assert len(err.splitlines()) == 1
                assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command, flag, value, name", [
        ("make-eval-set", "--max-pos", "-1", "max_pos_per_object"),
        ("make-eval-set", "--max-pos", "0", "max_pos_per_object"),
        ("make-eval-set", "--min-points", "0", "min_points"),
        ("build-dataset", "--tau-iou", "0", "tau_iou"),
        ("build-dataset", "--tau-iou", "-1", "tau_iou"),
        ("build-dataset", "--tau-iou", "1.5", "tau_iou"),
        ("build-dataset", "--tau-iou", "nan", "tau_iou"),
        ("build-dataset", "--tau-c", "-0.1", "tau_c"),
        ("build-dataset", "--tau-c", "1.0", "tau_c"),
        ("build-dataset", "--tau-c", "nan", "tau_c"),
        ("eval", "--threshold", "nan", "threshold"),
        ("eval", "--threshold", "2", "threshold"),
        ("eval", "--threshold", "inf", "threshold"),
        ("eval", "--threshold", "-1", "threshold"),
        ("curve", "--threshold", "nan", "threshold"),
        ("curve", "--threshold", "1.5", "threshold"),
        ("curve", "--thresholds", "0,-5", "thresholds"),
        ("curve", "--thresholds", "2,0", "thresholds"),
        ("train", "--lr", "-1", "lr_base"),
        ("train", "--weight-decay", "-3", "weight_decay"),
    ])
    def test_out_of_range_gate_is_data_error(self, pipeline, tmp_path, capsys,
                                             command, flag, value, name):
        scoring = ["--dataset", str(pipeline / "ds"), "--model", str(pipeline / "run"),
                   "--pairs", str(pipeline / "pairs.jsonl")]
        source = {"build-dataset": ["--logs", str(pipeline / "logs")], "eval": scoring,
                  "curve": scoring}.get(command, ["--dataset", str(pipeline / "ds")])
        assert main([command, *source, "--out", str(tmp_path / "out"), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f" {name} " in err
        assert not any(tmp_path.iterdir())  # neither the output nor its record

    def test_curve_checks_thresholds_before_scoring(self, pipeline, tmp_path, capsys,
                                                    monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the eval set was scored")

        monkeypatch.setattr(preid.cli, "predict_pairs", never)
        assert main(["curve", "--dataset", str(pipeline / "ds"), "--model", str(pipeline / "run"),
                     "--pairs", str(pipeline / "pairs.jsonl"), "--out", str(tmp_path / "out"),
                     "--thresholds", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert " thresholds " in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, config, name", [
        (["--fp-rate", "-1"], None, "fp_rate"),
        (["--sigma-yaw", "-0.1"], None, "sigma_yaw"),
        ([], {"articulation": -0.1}, "articulation"),
    ], ids=["fp_rate", "sigma_yaw", "articulation"])
    def test_negative_scale_names_its_field(self, tmp_path, capsys, flags, config, name):
        value = float(flags[-1]) if config is None else config[name]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            flags = ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "logs"
        assert main(["gen-synthetic", "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"{name} must lie in [0, inf), got {value!r}" in err
        if config is not None:
            assert str(tmp_path / "cfg.json") in err
        assert not out.exists()

    def test_config_file_not_an_object_is_data_error(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        assert main(["train", "--dataset", str(pipeline / "ds"), "--out", str(tmp_path / "run"),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "must be a JSON object" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [  # the last flag's value is malformed
        ["fit-powerlaw", "--points", "a,b;1,2;3,4"],
        ["fit-powerlaw", "--points", "1;2,3;4,5"],
        ["fit-powerlaw", "--points", ""],
        ["fit-powerlaw", "--points", "10,5;100,3;1000,2", "--grid", "x"],
        ["fit-powerlaw", "--points", "10,5;100,3;1000,2", "--grid", ","],
        ["curve", "--dataset", "d", "--model", "m", "--pairs", "p", "--thresholds", ""],
        ["curve", "--dataset", "d", "--model", "m", "--pairs", "p", "--thresholds", "2,x"],
        ["gen-synthetic", "--out", "o", "--lam", ""],
        ["gen-synthetic", "--out", "o", "--objects", ""],
        ["gen-synthetic", "--out", "o", "--objects", "car"],
        ["gen-synthetic", "--out", "o", "--objects", "car=x"],
        ["gen-synthetic", "--out", "o", "--objects", "car=1,car=2"],
    ], ids=lambda argv: " ".join(argv[-2:]))
    def test_malformed_list_flag_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert f"argument {argv[-2]}:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, config", BAD_CONFIG_VALUES,
                             ids=[f"{cmd} {json.dumps(cfg)}" for cmd, cfg in BAD_CONFIG_VALUES])
    def test_bad_config_value_is_data_error(self, pipeline, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = [command, "--out", str(tmp_path / "o"), "--config", str(cfg)]
        if command == "train":
            args += ["--dataset", str(pipeline / "ds")]
        assert main(args) == 2
        assert str(cfg) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_int_beyond_float_range_is_data_error(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"seed": {10 ** 400}, "lr_base": -1.0}}')
        assert main(["train", "--dataset", str(pipeline / "ds"), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(cfg) in err and "lr_base must lie in (0, inf), got -1.0" in err
        assert not (tmp_path / "o").exists()

    def test_detection_in_missing_frame_is_data_error(self, pipeline, tmp_path, capsys):
        logs = tmp_path / "logs"
        shutil.copytree(pipeline / "logs", logs)
        edit_record(logs / "detections.jsonl", 2, lambda rec: {**rec, "frame": 99})
        assert main(["build-dataset", "--logs", str(logs), "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert str(logs / "detections.jsonl") in err and "d00001" in err
        assert not (tmp_path / "ds").exists()

    def test_nan_point_is_data_error(self, pipeline, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline / "ds", ds)
        write_nan(ds / "points.bin", 0)
        assert main(["inspect", "--dataset", str(ds)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_nan_frame_point_is_data_error(self, pipeline, tmp_path, capsys):
        logs = tmp_path / "logs"
        shutil.copytree(pipeline / "logs", logs)
        write_nan(logs / "frames.bin", -4)
        assert main(["build-dataset", "--logs", str(logs), "--out", str(tmp_path / "ds")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_nan_weight_is_data_error(self, pipeline, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(pipeline / "run", run)
        write_nan(run / "model.ckpt", -4)
        assert main(["eval", "--dataset", str(pipeline / "ds"), "--model", str(run),
                     "--pairs", str(pipeline / "pairs.jsonl"),
                     "--out", str(tmp_path / "report.json")]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["trailing byte", "missing parameter"])
    def test_malformed_checkpoint_is_data_error(self, pipeline, tmp_path, capsys, case):
        run, out = tmp_path / "run", tmp_path / "report.json"
        shutil.copytree(pipeline / "run", run)
        ckpt = run / "model.ckpt"
        blob = ckpt.read_bytes()
        if case == "trailing byte":
            ckpt.write_bytes(blob + b"\0")
            message = "1 trailing bytes"
        else:  # cut the last parameter's record and lower the count to match
            params = list(load_checkpoint(ckpt, *config_from_json(
                (run / "model_config.json").read_text())).params.items())
            name, last = params[-1]
            size = 2 + len(name.encode()) + 1 + 8 * last.data.ndim + 4 * last.data.size
            ckpt.write_bytes(blob[:5] + struct.pack("<I", len(params) - 1) + blob[9:-size])
            message = f"missing parameters ['{name}']"
        assert main(["eval", "--dataset", str(pipeline / "ds"), "--model", str(run),
                     "--pairs", str(pipeline / "pairs.jsonl"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and message in err
        assert not out.exists()

    def test_nan_detector_score_is_data_error(self, pipeline, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline / "ds", ds)
        edit_record(ds / "manifest.jsonl", 2, lambda rec: {**rec, "detector_score": math.nan})
        assert main(["inspect", "--dataset", str(ds)]) == 2
        err = capsys.readouterr().err
        assert f"{ds / 'manifest.jsonl'}:2" in err and "is not finite" in err

    def test_detection_score_above_one_is_data_error(self, pipeline, tmp_path, capsys):
        logs = tmp_path / "logs"
        shutil.copytree(pipeline / "logs", logs)
        edit_record(logs / "detections.jsonl", 2, lambda rec: {**rec, "score": 1.5})
        assert main(["build-dataset", "--logs", str(logs), "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert f"{logs / 'detections.jsonl'}:2" in err and "1.5" in err
        assert not (tmp_path / "ds").exists()


    @pytest.mark.parametrize("case", list(MALFORMED_RECORDS))
    def test_malformed_manifest_record_is_data_error(self, pipeline, tmp_path, capsys, case):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline / "ds", ds)
        edit_record(ds / "manifest.jsonl", 2, MALFORMED_RECORDS[case])
        assert main(["inspect", "--dataset", str(ds)]) == 2
        assert f"{ds / 'manifest.jsonl'}:2" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(MALFORMED_RECORDS))
    def test_malformed_frame_record_is_data_error(self, pipeline, tmp_path, capsys, case):
        logs = tmp_path / "logs"
        shutil.copytree(pipeline / "logs", logs)
        edit_record(logs / "frames.jsonl", 2, MALFORMED_RECORDS[case])
        assert main(["build-dataset", "--logs", str(logs), "--out", str(tmp_path / "ds")]) == 2
        assert f"{logs / 'frames.jsonl'}:2" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("log", ["detections.jsonl", "gt.jsonl"])
    @pytest.mark.parametrize("case", list(MALFORMED_LOG_RECORDS))
    def test_malformed_log_record_is_data_error(self, pipeline, tmp_path, capsys, log, case):
        logs = tmp_path / "logs"
        shutil.copytree(pipeline / "logs", logs)
        edit_record(logs / log, 2, MALFORMED_LOG_RECORDS[case])
        assert main(["build-dataset", "--logs", str(logs), "--out", str(tmp_path / "ds")]) == 2
        assert f"{logs / log}:2" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("command", ["eval", "curve"])
    @pytest.mark.parametrize("case", list(MALFORMED_PAIRS))
    def test_malformed_pair_is_data_error(self, pipeline, tmp_path, capsys, command, case):
        pairs, out = tmp_path / "pairs.jsonl", tmp_path / "out"
        shutil.copy(pipeline / "pairs.jsonl", pairs)
        edit_record(pairs, 2, MALFORMED_PAIRS[case])
        assert main([command, "--dataset", str(pipeline / "ds"), "--model", str(pipeline / "run"),
                     "--pairs", str(pairs), "--out", str(out)]) == 2
        assert f"{pairs}:2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", list(MALFORMED_MODEL_CONFIGS))
    def test_malformed_model_config_is_data_error(self, pipeline, tmp_path, capsys, case):
        run, out = tmp_path / "run", tmp_path / "report.json"
        shutil.copytree(pipeline / "run", run)
        cfg = run / "model_config.json"
        new = MALFORMED_MODEL_CONFIGS[case](json.loads(cfg.read_text()))
        cfg.write_text(new if isinstance(new, str) else json.dumps(new))
        assert main(["eval", "--dataset", str(pipeline / "ds"), "--model", str(run),
                     "--pairs", str(pipeline / "pairs.jsonl"), "--out", str(out)]) == 2
        assert str(cfg) in capsys.readouterr().err
        assert not out.exists()

    def test_model_config_with_in_dim_3_loads(self, pipeline, tmp_path):
        # model_config.json files written while the input width was a field hold it
        run = tmp_path / "run"
        shutil.copytree(pipeline / "run", run)
        cfg = run / "model_config.json"
        old = json.loads(cfg.read_text())
        assert "in_dim" not in old["encoder"]
        cfg.write_text(json.dumps({**old, "encoder": {**old["encoder"], "in_dim": 3}}))
        for name, model in (("new", pipeline / "run"), ("old", run)):
            assert main(["eval", "--dataset", str(pipeline / "ds"), "--model", str(model),
                         "--pairs", str(pipeline / "pairs.jsonl"),
                         "--out", str(tmp_path / f"{name}.json")]) == 0
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


class TestLibraryDefaults:
    def test_flag_free_build_dataset_uses_extraction_defaults(self, pipeline, tmp_path,
                                                               monkeypatch):
        seen = {}

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return extract_observations(*args, **kwargs)

        monkeypatch.setattr(preid.cli, "extract_observations", spy)
        out = tmp_path / "ds"
        assert main(["build-dataset", "--logs", str(pipeline / "logs"), "--out", str(out)]) == 0
        defaults = signature_defaults(extract_observations)
        assert seen == defaults
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert {key: resolved[key] for key in defaults} == defaults

    @pytest.mark.parametrize("argv, fn, dests", [
        (["build-dataset", "--logs", "l", "--out", "o"], extract_observations,
         {"tau_c": "tau_c", "tau_iou": "tau_iou"}),
        (["make-eval-set", "--dataset", "d", "--out", "o"], build_eval_set,
         {"max_pos": "max_pos_per_object", "min_points": "min_points", "seed": "seed"}),
        (["eval", "--dataset", "d", "--model", "m", "--pairs", "p"], evaluate,
         {"threshold": "threshold", "seed": "seed"}),
        (["curve", "--dataset", "d", "--model", "m", "--pairs", "p"], predict_pairs,
         {"threshold": "threshold", "seed": "seed"}),
        (["bench"], bench,
         {"batch": "batch_size", "trials": "n_trials", "warmup": "warmup", "seed": "seed"}),
    ])
    def test_flag_defaults_are_the_library_defaults(self, argv, fn, dests):
        args = preid.cli._build_parser().parse_args(argv)
        defaults = signature_defaults(fn)
        assert {dest: getattr(args, dest) for dest in dests} == \
            {dest: defaults[param] for dest, param in dests.items()}


class TestFitPowerlaw:
    def test_table_fit_stdout(self, capsys):
        assert main(["fit-powerlaw", "--points",
                     "14400,13.01;28800,11.95;57600,11.42;115200,10.70",
                     "--grid", "0"]) == 0
        out = capsys.readouterr().out
        # c ~ -0.1 and beta ~ 34.5 reported on stdout
        assert "x^-0.09" in out

    def test_writes_json(self, tmp_path):
        out = tmp_path / "powerlaw.json"
        assert main(["fit-powerlaw", "--points", "10,5.0;100,3.0;1000,2.1",
                     "--out", str(out)]) == 0
        fit = json.loads(out.read_text())
        assert {"eps_inf", "beta", "c", "residual", "points"} <= set(fit)

    def test_too_few_points_is_data_error(self, capsys):
        assert main(["fit-powerlaw", "--points", "10,5.0;100,3.0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags, message", [
        (["--points", "10,5;100,3;1000,2", "--grid", "nan"],
         "error floor must lie in (-inf, inf), got nan"),
        (["--points", "inf,5;100,3;1000,2"], "compute value must lie in (0, inf), got inf"),
        (["--points", "1,nan;2,3;3,4"], "error value must lie in (-inf, inf), got nan"),
    ], ids=["nan grid", "inf compute", "nan error"])
    def test_non_finite_input_is_data_error(self, tmp_path, capfd, flags, message):
        # capfd also sees what LAPACK prints straight to the file descriptors
        assert main(["fit-powerlaw", *flags, "--out", str(tmp_path / "powerlaw.json")]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert not any(tmp_path.iterdir())


class TestConfigOverrides:
    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frames": 7, "lam": 12.0}))
        assert main(["gen-synthetic", "--out", str(tmp_path / "o"),
                     "--config", str(cfg), "--frames", "2",
                     "--objects", "car=2", "--seed", "0"]) == 0
        resolved = json.loads((tmp_path / "o" / "resolved_config.json").read_text())
        assert resolved["frames"] == 2      # flag wins
        assert resolved["lam"] == 12.0      # config supplies the rest

    @pytest.mark.parametrize("preset, build", [
        ("default", SynthConfig),
        ("benchmark", SynthConfig.benchmark),
        ("separable", SynthConfig.separable),
    ])
    def test_preset_resolves_to_library_preset(self, tmp_path, preset, build):
        assert main(["gen-synthetic", "--out", str(tmp_path), "--preset", preset,
                     "--seed", "7"]) == 0
        resolved = json.loads((tmp_path / "resolved_config.json").read_text())
        for key in ("command", "seed", "preset"):
            del resolved[key]
        assert resolved.pop("config") is None   # no --config file was read
        assert resolved == dataclasses.asdict(build())

    def test_benchmark_logs_match_library(self, tmp_path):
        assert main(["gen-synthetic", "--out", str(tmp_path / "cli"),
                     "--preset", "benchmark", "--seed", "7"]) == 0
        detections, gt, frames = generate_synthetic(SynthConfig.benchmark(), 7)
        lib = tmp_path / "lib"
        write_detections(detections, lib / "detections.jsonl")
        write_gt(gt, lib / "gt.jsonl")
        write_frames(frames, lib)
        for name in LOG_FILES:
            assert (tmp_path / "cli" / name).read_bytes() == (lib / name).read_bytes()

    def test_config_file_sets_fields_without_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensor_noise": 0.5, "dim_spread": 0.3}))
        assert main(["gen-synthetic", "--out", str(tmp_path / "o"), "--config", str(cfg),
                     "--objects", "car=2", "--frames", "2"]) == 0
        resolved = json.loads((tmp_path / "o" / "resolved_config.json").read_text())
        assert resolved["sensor_noise"] == 0.5 and resolved["dim_spread"] == 0.3


class TestTrainConfig:
    @pytest.fixture
    def fake_train(self, monkeypatch):
        """Replace the training loop, recording the model and config it gets."""
        seen = {}

        def fake(model, ds, cfg, out_dir):
            seen.update(model=model, cfg=cfg)
            return TrainReport(0, 0, math.nan, math.nan, False, "", "")

        monkeypatch.setattr(preid.cli, "train", fake)
        return seen

    def _resolved(self, run):
        return json.loads((run / "resolved_config.json").read_text())

    def test_flag_free_train_uses_library_defaults(self, pipeline, tmp_path, fake_train):
        run = tmp_path / "run"
        assert main(["train", "--dataset", str(pipeline / "ds"), "--out", str(run)]) == 0
        model, cfg = fake_train["model"], fake_train["cfg"]
        assert model.encoder_cfg == EncoderConfig() and model.rtmm_cfg == RtmmConfig()
        assert cfg == TrainConfig()
        assert self._resolved(run) == {
            "command": "train", "dataset": str(pipeline / "ds"), "config": None,
            **config_keys(EncoderConfig(), RtmmConfig(), TrainConfig())}

    def test_config_keys_and_flags(self, pipeline, tmp_path, fake_train):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "encoder": "edgeconv_lite", "dim": 8, "n_points": 16, "layers": 1,
            "lr_base": 0.002, "weight_decay": 0.0, "clip_norm": 2.0,
            "batch_size": 4, "epochs": 3, "sampler": "uniform",
        }))
        assert main(["train", "--dataset", str(pipeline / "ds"), "--out", str(tmp_path / "run"),
                     "--config", str(cfg), "--lr", "0.01", "--dim", "12", "--seed", "5"]) == 0
        model, got = fake_train["model"], fake_train["cfg"]
        assert model.encoder_cfg == EncoderConfig(kind="edgeconv_lite", out_dim=12, n_points=16)
        assert model.rtmm_cfg == RtmmConfig(layers=1, dim=12)
        assert got == TrainConfig(lr_base=0.01, weight_decay=0.0, clip_norm=2.0, batch_size=4,
                                  epochs=3, sampler="uniform", seed=5)

    def _train(self, pipeline, run, config, *flags):
        cfg = run.parent / "cfg.json"
        cfg.write_text(json.dumps(config))
        return main(["train", "--dataset", str(pipeline / "ds"), "--out", str(run),
                     "--config", str(cfg), *flags])

    def test_every_field_is_a_config_key(self, pipeline, tmp_path, fake_train):
        encoder = EncoderConfig(kind="edgeconv_lite", out_dim=12, n_points=16,
                                hidden=[8, 4], knn=5)
        rtmm = RtmmConfig(layers=1, dim=12, pos_hidden=[6], mlp_hidden=[7, 3], res_hidden=9)
        train_cfg = TrainConfig(lr_base=0.002, weight_decay=0.0, clip_norm=2.0, batch_size=4,
                                epochs=3, target_ratio_up=5.0, target_ratio_down=0.01,
                                step_ratio_up=0.3, seed=4, sampler="uniform",
                                early_stop_accuracy=0.9)
        # every field is set away from its default
        for obj in (encoder, rtmm, train_cfg):
            for f in dataclasses.fields(obj):
                assert getattr(obj, f.name) != getattr(type(obj)(), f.name)
        config = config_keys(encoder, rtmm, train_cfg)
        assert self._train(pipeline, tmp_path / "run", config) == 0
        model, got = fake_train["model"], fake_train["cfg"]
        assert (model.encoder_cfg, model.rtmm_cfg, got) == (encoder, rtmm, train_cfg)
        assert self._resolved(tmp_path / "run") == {
            "command": "train", "dataset": str(pipeline / "ds"),
            "config": str(tmp_path / "cfg.json"), **config}

    def test_record_is_a_config_file(self, pipeline, tmp_path, fake_train):
        # a record, less command, dataset and config, rebuilds the run's configs
        assert self._train(pipeline, tmp_path / "a", {"encoder": "edgeconv_lite", "knn": 5,
                                                      "hidden": [8, 4], "target_ratio_up": 5.0},
                           "--dim", "12", "--n-points", "16", "--lr", "0.002",
                           "--early-stop-accuracy", "0.9") == 0
        first = (fake_train["model"].encoder_cfg, fake_train["model"].rtmm_cfg, fake_train["cfg"])
        record = self._resolved(tmp_path / "a")
        config = {k: v for k, v in record.items() if k not in ("command", "dataset", "config")}
        assert self._train(pipeline, tmp_path / "b", config) == 0
        assert (fake_train["model"].encoder_cfg, fake_train["model"].rtmm_cfg,
                fake_train["cfg"]) == first
        assert self._resolved(tmp_path / "b") == record

    def test_criterion_7_model_from_config(self, pipeline, tmp_path, fake_train):
        assert self._train(pipeline, tmp_path / "run", CRITERION_7_CONFIG) == 0
        model, got = fake_train["model"], fake_train["cfg"]
        assert (model.encoder_cfg, model.rtmm_cfg) == (BENCH_ENCODER, BENCH_HEAD)
        assert got == TrainConfig(**BENCH_TRAIN)
        assert_same_params(model, ReidModel(BENCH_ENCODER, BENCH_HEAD, seed=BENCH_TRAIN["seed"]))

    def test_readme_builds_criterion_7_from_this_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"^cat > bench_model\.json <<'JSON'\n(.*?)^JSON$", readme, re.M | re.S)
        assert json.loads(block.group(1)) == CRITERION_7_CONFIG

    @pytest.mark.parametrize("flags, seed", [([], 4), (["--seed", "5"], 5)])
    def test_file_seed_and_flag_override(self, pipeline, tmp_path, fake_train, flags, seed):
        assert self._train(pipeline, tmp_path / "run", {"seed": 4}, *flags) == 0
        model, got = fake_train["model"], fake_train["cfg"]
        assert got == TrainConfig(seed=seed)
        assert_same_params(model, ReidModel(EncoderConfig(), RtmmConfig(), seed=seed))
        assert self._resolved(tmp_path / "run")["seed"] == seed
