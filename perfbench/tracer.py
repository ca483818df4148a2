"""Span tracer that wraps preid's public functions from outside the package.

Each wrapped name records a span ``[name, start, end, parent]`` in memory.
Wrapping replaces the attribute that callers look up (a module global, a
class attribute or an instance attribute), so the package itself is not
modified; :meth:`Tracer.restore` puts every original back.

A span's self time is its duration minus the durations of its direct
children. Spans are strictly nested because the benchmark is single-threaded.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# nn ops whose forward (and, where taped, backward) time is reported per op
NN_OPS = ("matmul", "add", "sub", "mul", "div", "relu", "elu_plus_one", "sqrt",
          "maximum_scalar", "tsum", "tmax", "concat", "reshape", "swapaxes",
          "bce_with_logits")
# other primitives, wrapped so their time is attributed to nn but not reported
NN_OTHER_PRIMITIVES = ("exp", "log", "sigmoid", "gather")
# composites built from the primitives above; only their inclusive time counts
NN_COMPOSITES = ("layer_norm", "tmean", "pool_concat")

LAYERS = ("cli", "data", "geometry", "sampling", "model", "nn", "training",
          "evaluation")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.epoch_calls: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        """Callable that runs ``fn`` inside a span; ``after(result, args,
        kwargs)`` runs once the span is closed and may record counts."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        own = vars(owner) if hasattr(owner, "__dict__") else {}
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def wrap_attr(self, owners, attr: str, name: str, after=None) -> None:
        """Wrap ``attr`` on every owner with one shared traced callable."""
        traced = self.wrap(getattr(owners[0], attr), name, after)
        for owner in owners:
            self.patch(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, had_own, old = self._patches.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- instrumentation of the preid package ----------------------------------

    def instrument(self) -> None:
        """Wrap the module-level and class-level names of every layer."""
        import preid.cli
        import preid.data
        import preid.data.extract
        import preid.evaluation
        import preid.geometry
        import preid.model
        import preid.model.network
        import preid.nn
        import preid.nn.tensor
        import preid.sampling
        import preid.training

        count = self.counts

        def add_count(key, value):
            count[key] += value

        # cli and data: the names cli.py looks up in its own namespace
        self.wrap_attr([preid.cli], "main", "cli.main")
        for attr in ("read_detections", "read_gt", "read_frames"):
            self.wrap_attr([preid.cli], attr, "data.read_logs")
        self.wrap_attr([preid.cli], "extract_observations", "data.extract",
                       lambda ds, a, kw: add_count("data.observations", len(ds)))
        self.wrap_attr([preid.cli], "write_dataset", "data.write_dataset")
        self.wrap_attr([preid.data, preid.cli], "read_dataset", "data.read_dataset")

        # geometry, as extraction looks it up; crop's own canonicalize call
        # goes through preid.geometry and nests inside the crop span
        def crop_counts(kept, args, kwargs):
            add_count("geometry.crop_points_in", len(np.asarray(args[0]).reshape(-1, 3)))
            add_count("geometry.crop_points_kept", len(kept))

        self.wrap_attr([preid.data.extract], "crop", "geometry.crop", crop_counts)
        self.wrap_attr([preid.data.extract, preid.geometry], "canonicalize",
                       "geometry.canonicalize",
                       lambda out, a, kw: add_count("geometry.canonicalize_points", len(out)))
        self.wrap_attr([preid.data.extract], "iou_3d", "geometry.iou")
        self.wrap_attr([preid.data.extract], "hungarian", "geometry.hungarian")

        # sampling: the epoch samplers as train() looks them up; their fallback
        # counters are recovered afterwards by re-running the same epoch
        def remember_epoch(sampler):
            return lambda pairs, args, kwargs: self.epoch_calls.append((sampler, args, kwargs))

        self.wrap_attr([preid.training], "even_epoch", "sampling.epoch",
                       remember_epoch(preid.sampling.even_epoch))
        self.wrap_attr([preid.training], "uniform_epoch", "sampling.epoch",
                       remember_epoch(preid.sampling.uniform_epoch))

        def eval_set_counts(ev, args, kwargs):
            add_count("sampling.eval_pairs", len(ev.pairs))
            add_count("sampling.eval_skipped_negatives", ev.skipped_negatives)

        self.wrap_attr([preid.sampling], "build_eval_set", "sampling.eval_set",
                       eval_set_counts)

        # model
        self.wrap_attr([preid.training, preid.evaluation], "resample_points",
                       "model.resample")
        reid = preid.model.network.ReidModel
        self.wrap_attr([reid], "forward_logits", "model.forward")
        self.wrap_attr([reid], "encode", "model.encode")
        self.wrap_attr([preid.model], "save_checkpoint", "model.checkpoint_save")
        self.wrap_attr([preid.training], "save_checkpoint", "model.checkpoint_save")
        self.wrap_attr([preid.model], "load_checkpoint", "model.checkpoint_load")

        # training
        self.wrap_attr([preid.training], "train", "training.train")
        self.wrap_attr([preid.training], "_pack_batch", "training.pack")
        self.wrap_attr([preid.training], "clip_gradients", "training.clip")
        self.wrap_attr([preid.training.AdamW], "step", "training.optimizer")

        # evaluation
        def encode_keys(out, args, kwargs):
            pairs = args[1].pairs
            keys = {(p.obs_a, 0) for p in pairs} | {(p.obs_b, 1) for p in pairs}
            add_count("evaluation.encode_slots", 2 * len(pairs))
            add_count("evaluation.unique_encode_keys", len(keys))

        self.wrap_attr([preid.evaluation], "predict_pairs", "evaluation.predict", encode_keys)
        self.wrap_attr([preid.evaluation], "_score_pairs", "evaluation.score_pairs")
        self.wrap_attr([reid], "score_batch", "evaluation.score_batch")

        # nn: ops are looked up both as preid.nn.<op> (model code) and as
        # module globals of preid.nn.tensor (operator sugar, composites)
        owners = [preid.nn.tensor, preid.nn]
        for op in NN_OPS + NN_OTHER_PRIMITIVES:
            traced = self._nn_primitive(getattr(preid.nn.tensor, op), op)
            for owner in owners:
                self.patch(owner, op, traced)
        for op in NN_COMPOSITES:
            self.wrap_attr(owners, op, f"nn.{op}")
        self.wrap_attr([preid.nn.tensor.Tensor], "backward", "nn.backward")

    def _nn_primitive(self, fn, op: str):
        tracer = self
        name, bwd_name = f"nn.{op}", f"nn.{op}.bwd"

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counts["nn.bytes_out"] += out.data.nbytes
            if out._backward is not None:
                tracer.counts["nn.taped_ops"] += 1
                out._backward = tracer.wrap(out._backward, bwd_name)
            return out

        return traced

    def instrument_model(self, model) -> None:
        """Wrap one model's matching-head blocks, which are per-instance."""
        blocks = []
        for i, block in enumerate(model.cfa):
            for part in ("pos", "lca", "mlp"):
                self.patch(block, part, self.wrap(getattr(block, part), f"model.cfa{i}.{part}"))
            blocks.append(self.wrap(block, f"model.cfa{i}"))
        self.patch(model, "cfa", blocks)

    # -- aggregation -------------------------------------------------------------

    def summary(self, lo: int = 0, hi: int | None = None) -> "SpanSummary":
        return SpanSummary(self.spans, lo, len(self.spans) if hi is None else hi)


class SpanSummary:
    """Inclusive and self totals per span name over spans[lo:hi]."""

    def __init__(self, spans, lo: int, hi: int):
        self.spans = spans
        self.lo, self.hi = lo, hi
        child = defaultdict(float)
        for i in range(lo, hi):
            name, start, end, parent = spans[i]
            if parent >= 0:
                child[parent] += end - start
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        for i in range(lo, hi):
            name, start, end, _ = spans[i]
            self.total[name] += end - start
            self.self_time[name] += end - start - child[i]
            self.calls[name] += 1

    def total_under(self, name: str, ancestor: str) -> float:
        """Inclusive time of spans called ``name`` nested in an ``ancestor`` span."""
        out = 0.0
        for i in range(self.lo, self.hi):
            span = self.spans[i]
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            if p >= 0:
                out += span[2] - span[1]
        return out

    def direct_children_total(self, parent_name: str, child_prefixes) -> float:
        out = 0.0
        for i in range(self.lo, self.hi):
            name, start, end, parent = self.spans[i]
            if parent >= 0 and self.spans[parent][0] == parent_name \
                    and name.startswith(child_prefixes):
                out += end - start
        return out

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_time.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += value
        return out
