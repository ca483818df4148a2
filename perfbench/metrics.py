"""Metric names, units and how each is computed.

``END_TO_END`` is measured with tracing off; ``PER_LAYER`` comes from the
traced run. Names ending in ``_s`` are inclusive wall seconds of the named
spans unless they say ``self``; ``nn.<op>.fwd_s`` is the op's own time (ops
are leaves), ``nn.layer_norm.fwd_s`` is inclusive of the ops it is built
from. Units ``s/s`` mark shares of time; ``ratio`` marks shares of counts.
``self.<layer>_s`` and ``trace.*`` cover the traced measured operation
only; every other per-layer metric covers the traced set-up plus the traced
measured operation.
"""

from __future__ import annotations

from tracer import LAYERS, NN_OPS

END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("step_p50_ms", "ms", "lower", 0.25),
    ("step_p90_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]


def _per_layer_spec():
    lower, higher = "lower", "higher"
    spec = [
        ("cli.build_dataset_s", "s", lower),
        ("cli.self_s", "s", lower),
        ("data.read_logs_s", "s", lower),
        ("data.extract_s", "s", lower),
        ("data.extract_self_s", "s", lower),
        ("data.write_dataset_s", "s", lower),
        ("data.read_dataset_s", "s", lower),
        ("data.observations", "count", higher),
        ("data.dataset_bytes", "bytes", lower),
        ("geometry.crop_s", "s", lower),
        ("geometry.crop_calls", "count", lower),
        ("geometry.crop_points_in", "count", lower),
        ("geometry.crop_points_kept", "count", higher),
        ("geometry.crop_keep_ratio", "ratio", higher),
        ("geometry.canonicalize_s", "s", lower),
        ("geometry.canonicalize_points", "count", lower),
        ("geometry.iou_s", "s", lower),
        ("geometry.iou_calls", "count", lower),
        ("geometry.hungarian_s", "s", lower),
        ("geometry.hungarian_calls", "count", lower),
        ("sampling.epoch_s", "s", lower),
        ("sampling.self_pair", "count", lower),
        ("sampling.bucket_shift", "count", lower),
        ("sampling.no_fp_class", "count", lower),
        ("sampling.no_negative_pool", "count", lower),
        ("sampling.eval_set_s", "s", lower),
        ("sampling.eval_pairs", "count", higher),
        ("sampling.eval_skipped_negatives", "count", lower),
        ("model.resample_s", "s", lower),
        ("model.resample_calls", "count", lower),
        ("model.forward_s", "s", lower),
        ("model.encode_s", "s", lower),
    ]
    for i in range(2):
        spec += [(f"model.cfa{i}.{part}_s", "s", lower) for part in ("pos", "lca", "mlp")]
    spec += [
        ("model.head_s", "s", lower),
        ("model.encode_share", "s/s", lower),
        ("model.checkpoint_save_s", "s", lower),
        ("model.checkpoint_load_s", "s", lower),
    ]
    for op in NN_OPS:
        spec += [(f"nn.{op}.fwd_s", "s", lower), (f"nn.{op}.bwd_s", "s", lower),
                 (f"nn.{op}.calls", "count", lower)]
    spec += [
        ("nn.layer_norm.fwd_s", "s", lower),
        ("nn.layer_norm.calls", "count", lower),
        ("nn.backward_s", "s", lower),
        ("nn.tape_self_s", "s", lower),
        ("nn.taped_ops", "count", lower),
        ("nn.taped_ops_per_step", "count", lower),
        ("nn.bytes_out", "bytes", lower),
        ("training.steps", "count", higher),
        ("training.pack_s", "s", lower),
        ("training.forward_s", "s", lower),
        ("training.backward_s", "s", lower),
        ("training.clip_s", "s", lower),
        ("training.optimizer_s", "s", lower),
        ("training.checkpoint_s", "s", lower),
        ("training.step_other_s", "s", lower),
        ("evaluation.predict_s", "s", lower),
        ("evaluation.pack_s", "s", lower),
        ("evaluation.score_batch_s", "s", lower),
        ("evaluation.encode_slots", "count", lower),
        ("evaluation.unique_encode_keys", "count", lower),
        ("evaluation.unique_encode_ratio", "ratio", higher),
    ]
    spec += [(f"self.{layer}_s", "s", lower) for layer in LAYERS]
    spec += [
        ("trace.untraced_s", "s", lower),
        ("trace.traced_s", "s", lower),
        ("trace.overhead_s", "s", lower),
        ("trace.self_sum_s", "s", lower),
        ("trace.self_sum_ratio", "s/s", lower),
    ]
    return spec


PER_LAYER = _per_layer_spec()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, op_lo: int, op_hi: int, untraced_s: float, sampler_stats) -> dict:
    """Per-layer values from a traced run; ``spans[op_lo:op_hi]`` is the
    traced measured operation, whose root span is ``spans[op_lo]``."""
    run = tracer.summary()
    op = tracer.summary(op_lo, op_hi)
    t, self_t, calls, n = run.total, run.self_time, run.calls, tracer.counts

    def under_train(name):
        return run.total_under(name, "training.train")

    train_parts = (t["sampling.epoch"] + t["training.pack"] + under_train("model.forward")
                   + under_train("nn.bce_with_logits") + under_train("nn.backward")
                   + t["training.clip"] + t["training.optimizer"]
                   + under_train("model.checkpoint_save"))
    steps = calls["training.optimizer"] + calls["evaluation.score_batch"]
    _, root_start, root_end, _ = tracer.spans[op_lo]
    traced_s = root_end - root_start
    op_layers = op.layer_self()

    v = {
        "cli.build_dataset_s": t["cli.main"],
        "cli.self_s": self_t["cli.main"],
        "data.read_logs_s": t["data.read_logs"],
        "data.extract_s": t["data.extract"],
        "data.extract_self_s": self_t["data.extract"],
        "data.write_dataset_s": t["data.write_dataset"],
        "data.read_dataset_s": t["data.read_dataset"],
        "data.observations": n["data.observations"],
        "data.dataset_bytes": n["data.dataset_bytes"],
        "geometry.crop_s": t["geometry.crop"],
        "geometry.crop_calls": calls["geometry.crop"],
        "geometry.crop_points_in": n["geometry.crop_points_in"],
        "geometry.crop_points_kept": n["geometry.crop_points_kept"],
        "geometry.crop_keep_ratio": _ratio(n["geometry.crop_points_kept"],
                                           n["geometry.crop_points_in"]),
        "geometry.canonicalize_s": t["geometry.canonicalize"],
        "geometry.canonicalize_points": n["geometry.canonicalize_points"],
        "geometry.iou_s": t["geometry.iou"],
        "geometry.iou_calls": calls["geometry.iou"],
        "geometry.hungarian_s": t["geometry.hungarian"],
        "geometry.hungarian_calls": calls["geometry.hungarian"],
        "sampling.epoch_s": t["sampling.epoch"],
        "sampling.self_pair": sampler_stats.self_pair,
        "sampling.bucket_shift": sampler_stats.bucket_shift,
        "sampling.no_fp_class": sampler_stats.no_fp_class,
        "sampling.no_negative_pool": sampler_stats.no_negative_pool,
        "sampling.eval_set_s": t["sampling.eval_set"],
        "sampling.eval_pairs": n["sampling.eval_pairs"],
        "sampling.eval_skipped_negatives": n["sampling.eval_skipped_negatives"],
        "model.resample_s": t["model.resample"],
        "model.resample_calls": calls["model.resample"],
        "model.forward_s": t["model.forward"],
        "model.encode_s": t["model.encode"],
        "model.head_s": t["model.forward"] - run.direct_children_total(
            "model.forward", ("model.encode", "model.cfa")),
        "model.encode_share": _ratio(t["model.encode"], t["model.forward"]),
        "model.checkpoint_save_s": t["model.checkpoint_save"],
        "model.checkpoint_load_s": t["model.checkpoint_load"],
        "nn.layer_norm.fwd_s": t["nn.layer_norm"],
        "nn.layer_norm.calls": calls["nn.layer_norm"],
        "nn.backward_s": t["nn.backward"],
        "nn.tape_self_s": self_t["nn.backward"],
        "nn.taped_ops": n["nn.taped_ops"],
        "nn.taped_ops_per_step": _ratio(n["nn.taped_ops"], steps),
        "nn.bytes_out": n["nn.bytes_out"],
        "training.steps": calls["training.optimizer"],
        "training.pack_s": t["training.pack"],
        "training.forward_s": under_train("model.forward") + under_train("nn.bce_with_logits"),
        "training.backward_s": under_train("nn.backward"),
        "training.clip_s": t["training.clip"],
        "training.optimizer_s": t["training.optimizer"],
        "training.checkpoint_s": under_train("model.checkpoint_save"),
        "training.step_other_s": t["training.train"] - train_parts,
        "evaluation.predict_s": t["evaluation.predict"],
        "evaluation.pack_s": t["evaluation.score_pairs"] - t["evaluation.score_batch"],
        "evaluation.score_batch_s": t["evaluation.score_batch"],
        "evaluation.encode_slots": n["evaluation.encode_slots"],
        "evaluation.unique_encode_keys": n["evaluation.unique_encode_keys"],
        "evaluation.unique_encode_ratio": _ratio(n["evaluation.unique_encode_keys"],
                                                 n["evaluation.encode_slots"]),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.self_sum_s": sum(op_layers.values()),
        "trace.self_sum_ratio": _ratio(sum(op_layers.values()), untraced_s),
    }
    for i in range(2):
        for part in ("pos", "lca", "mlp"):
            v[f"model.cfa{i}.{part}_s"] = t[f"model.cfa{i}.{part}"]
    for name in NN_OPS:
        v[f"nn.{name}.fwd_s"] = t[f"nn.{name}"]
        v[f"nn.{name}.bwd_s"] = t[f"nn.{name}.bwd"]
        v[f"nn.{name}.calls"] = calls[f"nn.{name}"]
    for layer, seconds in op_layers.items():
        v[f"self.{layer}_s"] = seconds
    return v
