"""The benchmark's span tracer still finds every name it wraps in the package.

perfbench/tracer.py looks up functions, methods and per-block attributes of
preid by name; a rename or deletion there breaks the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import preid.cli
import preid.nn
import preid.nn.tensor
from preid.model import EncoderConfig, ReidModel, RtmmConfig

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
