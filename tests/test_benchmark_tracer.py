"""The benchmark's span tracer still finds every name it wraps in the package.

perfbench/tracer.py looks up functions, methods and per-block attributes of
preid by name; a rename or deletion there breaks the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import preid.cli
import preid.nn
import preid.nn.tensor
import preid.training
from preid.data import SynthConfig, extract_observations, generate_synthetic, read_dataset
from preid.model import EncoderConfig, ReidModel, RtmmConfig
from preid.sampling import PairIndex, SamplerStats, even_epoch, uniform_epoch
from preid.training import TrainConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_and_restore():
    originals = (preid.cli.main, preid.cli.read_dataset, preid.nn.matmul,
                 preid.nn.tensor.layer_norm, ReidModel.encode)
    tracer = load_tracer().Tracer()
    tracer.instrument()
    try:
        assert preid.cli.main is not originals[0]
        model = ReidModel(EncoderConfig(out_dim=8, n_points=8, hidden=[8]),
                          RtmmConfig(layers=1, dim=8, pos_hidden=[8], mlp_hidden=[8]))
        tracer.instrument_model(model)
        rng = np.random.default_rng(0)
        model.forward_logits(rng.normal(size=(2, 8, 3)), rng.normal(size=(2, 8, 3)))
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"model.forward", "model.encode", "model.cfa0", "model.cfa0.pos",
            "model.cfa0.lca", "model.cfa0.mlp", "nn.layer_norm", "nn.matmul"} <= names
    assert tracer.counts["nn.taped_ops"] == 0  # inference keeps no tape
    assert (preid.cli.main, preid.cli.read_dataset, preid.nn.matmul,
            preid.nn.tensor.layer_norm, ReidModel.encode) == originals


def test_row_gathers_are_traced():
    model = ReidModel(EncoderConfig(out_dim=8, n_points=16, hidden=[8]),
                      RtmmConfig(layers=1, dim=8, pos_hidden=[8], mlp_hidden=[8]))
    # 4 distinct points in 16 rows, so score_batch picks and expands rows
    clouds = np.random.default_rng(0).normal(size=(4, 4, 3)).repeat(4, axis=1)
    tracer = load_tracer().Tracer()
    tracer.instrument()
    try:
        model.score_batch(list(zip(clouds, clouds[::-1])))
    finally:
        tracer.restore()
    assert "nn.gather" in {span[0] for span in tracer.spans}


def test_scoring_spans_with_shared_clouds():
    model = ReidModel(EncoderConfig(out_dim=8, n_points=16, hidden=[8]),
                      RtmmConfig(layers=2, dim=8, pos_hidden=[8], mlp_hidden=[8]))
    rng = np.random.default_rng(1)
    for _, t in model.params.items():  # a fresh model's zero scoring layer outputs 0
        t.data = (t.data + rng.normal(0.0, 0.1, t.data.shape)).astype(np.float32)
    a, b, c = rng.normal(size=(3, 16, 3)).astype(np.float32)
    pairs = [(a, b), (b, a), (a, a), (c, b.copy()), (a, c)]
    expected = model.score_batch(pairs)
    tracer = load_tracer().Tracer()
    tracer.instrument()
    try:
        tracer.instrument_model(model)
        logits = model.score_batch(pairs)
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"model.encode", "model.cfa0.pos", "model.cfa0.lca", "model.cfa0.mlp",
            "model.cfa1.pos", "model.cfa1.lca", "model.cfa1.mlp"} <= names
    assert logits == expected


def test_extraction_counts_each_point_once(tmp_path):
    logs, ds = tmp_path / "logs", tmp_path / "ds"
    assert preid.cli.main(["gen-synthetic", "--out", str(logs), "--seed", "3",
                           "--objects", "car=4", "--frames", "3", "--lam", "24"]) == 0
    tracer = load_tracer().Tracer()
    tracer.instrument()
    try:
        assert preid.cli.main(["build-dataset", "--logs", str(logs), "--out", str(ds)]) == 0
    finally:
        tracer.restore()
    counts = tracer.counts
    assert "geometry.crop" in {span[0] for span in tracer.spans}
    written = sum(len(obs.points) for obs in read_dataset(ds).observations)
    assert counts["geometry.crop_points_kept"] == written > 0
    # crop's inside test and the written points share one rotation
    assert counts["geometry.canonicalize_points"] == counts["geometry.crop_points_in"]


@pytest.mark.parametrize("sampler_name", ["even", "uniform"])
def test_sampler_calls_rerun_as_train_made_them(tmp_path, sampler_name):
    # run.py recovers the sampler counters of a traced train() by re-running
    # each recorded epoch-sampler call as sampler(*args, **kwargs, stats=...)
    cfg = SynthConfig(n_objects={"car": 6}, frames=4, lam=24.0, fp_rate=0.5)
    ds = extract_observations(*generate_synthetic(cfg, 0))
    model = ReidModel(EncoderConfig(out_dim=8, n_points=8, hidden=[8]),
                      RtmmConfig(layers=1, dim=8, pos_hidden=[8], mlp_hidden=[8]))
    tracer = load_tracer().Tracer()
    tracer.instrument()
    try:
        preid.training.train(model, ds, TrainConfig(batch_size=4, epochs=2, seed=3,
                                                     sampler=sampler_name), tmp_path / "run")
    finally:
        tracer.restore()
    want = even_epoch if sampler_name == "even" else uniform_epoch
    assert [sampler for sampler, _, _ in tracer.epoch_calls] == [want, want]
    rerun, direct = SamplerStats(), SamplerStats()
    for epoch, (sampler, args, kwargs) in enumerate(tracer.epoch_calls):
        assert isinstance(args[0], PairIndex)
        assert sampler(*args, **kwargs, stats=rerun) == \
            want(PairIndex(ds), 3, epoch=epoch, stats=direct)
    assert rerun == direct
