"""Encoders, cross-attention block, matching head, checkpoints."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preid import nn
from preid.model import (
    EDGECONV_LITE,
    POINTNET_LITE,
    CheckpointError,
    EncoderConfig,
    ReidModel,
    RtmmConfig,
    config_from_json,
    config_to_json,
    load_checkpoint,
    resample_points,
    save_checkpoint,
)
from preid.model import network
from preid.nn import Tensor


def micro_model(seed=0, dtype=np.float64, kind=POINTNET_LITE):
    enc = EncoderConfig(kind=kind, out_dim=8, n_points=16, hidden=[8], knn=4)
    head = RtmmConfig(layers=1, dim=8, pos_hidden=[8], mlp_hidden=[8], res_hidden=8)
    return ReidModel(enc, head, seed=seed, dtype=dtype)


def default_model(seed=0):
    return ReidModel(EncoderConfig(), RtmmConfig(), seed=seed)


class TestResample:
    def test_downsample_no_replacement(self):
        rng = np.random.default_rng(0)
        pts = np.arange(600, dtype=np.float32).reshape(200, 3)
        out = resample_points(pts, 128, rng)
        assert out.shape == (128, 3)
        assert len({tuple(r) for r in out}) == 128  # all distinct

    def test_upsample_keeps_all_originals(self):
        rng = np.random.default_rng(0)
        pts = np.arange(150, dtype=np.float32).reshape(50, 3)
        out = resample_points(pts, 128, rng)
        assert out.shape == (128, 3)
        assert {tuple(r) for r in pts} <= {tuple(r) for r in out}

    def test_exact_size_identity(self):
        pts = np.random.default_rng(1).normal(size=(128, 3)).astype(np.float32)
        np.testing.assert_array_equal(resample_points(pts, 128, np.random.default_rng(0)), pts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            resample_points(np.empty((0, 3)), 128, np.random.default_rng(0))

    def test_seeded_reproducible(self):
        pts = np.random.default_rng(2).normal(size=(300, 3)).astype(np.float32)
        a = resample_points(pts, 128, np.random.default_rng(7))
        b = resample_points(pts, 128, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestEncoders:
    @pytest.mark.parametrize("kind", [POINTNET_LITE, EDGECONV_LITE])
    def test_output_shape(self, kind):
        model = ReidModel(EncoderConfig(kind=kind), RtmmConfig(), seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 128, 3)).astype(np.float32))
        assert model.encode(x).shape == (2, 128, 64)

    def test_pointnet_permutation_equivariant(self):
        model = default_model()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 32, 3)).astype(np.float32)
        perm = rng.permutation(32)
        f = model.encode(Tensor(x)).data
        fp = model.encode(Tensor(x[:, perm])).data
        np.testing.assert_allclose(fp, f[:, perm], atol=1e-6)

    def test_edgeconv_permutation_equivariant(self):
        model = ReidModel(EncoderConfig(kind=EDGECONV_LITE), RtmmConfig(), seed=0)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 32, 3)).astype(np.float64)
        perm = rng.permutation(32)
        f = model.encode(Tensor(x)).data
        fp = model.encode(Tensor(x[:, perm])).data
        np.testing.assert_allclose(fp, f[:, perm], atol=1e-8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edgeconv_gather_matches_repeat_reference(self, dtype):
        enc = EncoderConfig(kind=EDGECONV_LITE, out_dim=16, n_points=32, hidden=[16], knn=6)
        model = ReidModel(enc, RtmmConfig(dim=16), seed=4, dtype=dtype)
        encoder = model.encoder
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 32, 3)).astype(dtype))
        out_grad = rng.normal(size=(3, 32, 16)).astype(dtype)

        def reference(x):
            # the edge builder that materialised every neighbour and centre copy
            pts = x.data
            n = pts.shape[-2]
            d2 = ((pts[..., :, None, :] - pts[..., None, :, :]) ** 2).sum(-1)
            idx = np.argsort(d2, axis=-1)[..., :encoder.k]
            neigh = np.take_along_axis(pts[..., None, :, :].repeat(n, -3),
                                       idx[..., None].repeat(3, -1), axis=-2)
            center = pts[..., :, None, :].repeat(encoder.k, -2)
            edge = Tensor(np.concatenate([center, neigh - center], axis=-1).astype(pts.dtype))
            return nn.tmax(encoder.mlp(edge), axis=-2)

        def run(encode):
            model.params.set_requires_grad(True)
            model.params.zero_grad()
            out = encode(x)
            out.backward(out_grad)
            return out.data, {name: t.grad for name, t in model.params.items()}

        out, grads = run(model.encode)
        ref_out, ref_grads = run(reference)
        assert out.dtype == ref_out.dtype == dtype
        assert out.tobytes() == ref_out.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name in ref_grads:
            if ref_grads[name] is None:
                assert grads[name] is None, name
            else:
                assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    def test_edgeconv_too_few_points(self):
        model = ReidModel(EncoderConfig(kind=EDGECONV_LITE, knn=8), RtmmConfig(), seed=0)
        with pytest.raises(ValueError):
            model.encode(Tensor(np.zeros((1, 4, 3), dtype=np.float32)))


class TestAttention:
    def test_single_key_returns_projected_value(self):
        # with one key the kernel weights cancel: output = out(V)
        model = micro_model()
        block = model.cfa[0]
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(1, 5, 8)))
        kv = Tensor(rng.normal(size=(1, 1, 8)))
        got = block.lca(q, kv, kv).data
        v = kv.data @ block.wv.data
        expect = (np.broadcast_to(v, (1, 5, 8)) @ block.out.w.data) + block.out.b.data
        np.testing.assert_allclose(got, expect, atol=1e-10)

    def test_key_permutation_invariance(self):
        model = micro_model()
        block = model.cfa[0]
        rng = np.random.default_rng(4)
        q = Tensor(rng.normal(size=(1, 6, 8)))
        kv = rng.normal(size=(1, 10, 8))
        perm = rng.permutation(10)
        a = block.lca(q, Tensor(kv), Tensor(kv)).data
        b = block.lca(q, Tensor(kv[:, perm]), Tensor(kv[:, perm])).data
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_query_equivariance(self):
        model = micro_model()
        block = model.cfa[0]
        rng = np.random.default_rng(5)
        q = rng.normal(size=(1, 6, 8))
        kv = Tensor(rng.normal(size=(1, 10, 8)))
        perm = rng.permutation(6)
        a = block.lca(Tensor(q), kv, kv).data
        b = block.lca(Tensor(q[:, perm]), kv, kv).data
        np.testing.assert_allclose(b, a[:, perm], atol=1e-10)

    def test_cfa_residual_passthrough_when_zeroed(self):
        # zeroing the fusion MLP's last layer and the output LN gain makes the
        # block an exact identity via its residual connection
        model = micro_model()
        block = model.cfa[0]
        last_lin = block.mlp.layers[-1][0]
        last_lin.w.data[:] = 0
        last_lin.b.data[:] = 0
        block.ln_out.gain.data[:] = 0
        block.ln_out.bias.data[:] = 0
        rng = np.random.default_rng(6)
        f_q = rng.normal(size=(1, 6, 8))
        out = block(Tensor(f_q), Tensor(rng.normal(size=(1, 10, 8))),
                    Tensor(rng.normal(size=(1, 10, 3)))).data
        np.testing.assert_allclose(out, f_q, atol=1e-12)


class TestSymmetryAndInvariance:
    def test_symmetry_micro(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            model = micro_model(seed=seed)
            a = rng.normal(size=(16, 3))
            b = rng.normal(size=(16, 3))
            assert model.rtmm_score(a, b) == pytest.approx(model.rtmm_score(b, a), abs=1e-9)

    def test_point_permutation_invariance(self):
        model = default_model()
        rng = np.random.default_rng(8)
        a = rng.normal(size=(128, 3)).astype(np.float32)
        b = rng.normal(size=(128, 3)).astype(np.float32)
        base = model.rtmm_score(a, b)
        for _ in range(5):
            score = model.rtmm_score(a[rng.permutation(128)], b[rng.permutation(128)])
            assert score == pytest.approx(base, abs=1e-4)

    def test_zero_weight_head_outputs_bias(self):
        model = micro_model()
        for name, t in model.params.items():
            t.data[:] = 0
        model.params["rtmm.head.out.bias"].data[:] = 1.5
        # encoder LN gains zeroed too: features are constant, logit = bias
        rng = np.random.default_rng(9)
        assert model.rtmm_score(rng.normal(size=(16, 3)),
                                rng.normal(size=(16, 3))) == pytest.approx(1.5)

    def test_batch_equals_loop(self):
        model = default_model()
        rng = np.random.default_rng(10)
        pairs = [(rng.normal(size=(128, 3)).astype(np.float32),
                  rng.normal(size=(128, 3)).astype(np.float32)) for _ in range(8)]
        batched = model.score_batch(pairs)
        looped = [model.rtmm_score(a, b) for a, b in pairs]
        np.testing.assert_allclose(batched, looped, atol=1e-5)

    def test_batch_of_one(self):
        model = default_model()
        rng = np.random.default_rng(11)
        a = rng.normal(size=(128, 3)).astype(np.float32)
        b = rng.normal(size=(128, 3)).astype(np.float32)
        assert model.score_batch([(a, b)])[0] == pytest.approx(model.rtmm_score(a, b))

    def test_empty_batch(self):
        assert default_model().score_batch([]) == []

    def test_sub_batches_equal_loop(self):
        # larger than one slice and not a multiple of it, so the last slice is short
        model = default_model(seed=1)
        step = model._score_slice()
        assert 1 < step < 512
        rng = np.random.default_rng(14)
        pairs = [(rng.normal(size=(128, 3)).astype(np.float32),
                  rng.normal(size=(128, 3)).astype(np.float32)) for _ in range(2 * step + 3)]
        batched = model.score_batch(pairs)
        looped = [model.rtmm_score(a, b) for a, b in pairs]
        np.testing.assert_allclose(batched, looped, atol=1e-5)
        assert model.score_batch(pairs) == batched  # bit-identical call to call

    def test_small_slice_budget(self, monkeypatch):
        model = micro_model()
        pair_bytes = 16 * 16 * 8  # n_points x widest activation (2 x dim) x float64
        monkeypatch.setattr(network, "SCORE_SLICE_BYTES", 3 * pair_bytes)
        assert model._score_slice() == 3
        rng = np.random.default_rng(15)
        pairs = [(rng.normal(size=(16, 3)), rng.normal(size=(16, 3))) for _ in range(10)]
        batched = model.score_batch(pairs)
        looped = [model.rtmm_score(a, b) for a, b in pairs]
        np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-12)
        monkeypatch.setattr(network, "SCORE_SLICE_BYTES", 1)
        assert model._score_slice() == 1
        np.testing.assert_allclose(model.score_batch(pairs), looped, rtol=0, atol=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReidModel(EncoderConfig(out_dim=32), RtmmConfig(dim=64))


def _full_cloud_score_batch(model, pairs):
    """score_batch before distinct points: stacked pairs scored with full
    clouds, slice by slice in order."""
    a = np.stack([np.asarray(p[0], dtype=model.dtype) for p in pairs])
    b = np.stack([np.asarray(p[1], dtype=model.dtype) for p in pairs])
    step = model._score_slice()
    logits = [model.forward_logits(a[lo:lo + step], b[lo:lo + step]).data
              for lo in range(0, len(a), step)]
    return [float(v) for v in np.concatenate(logits)]


@st.composite
def _scored_batches(draw):
    """A small model of either encoder and dtype, a slice size, and a batch of
    pairs resampled as evaluation resamples them: from sources with or
    without repeated points and signed zeros, shuffled or not."""
    kind = draw(st.sampled_from([POINTNET_LITE, EDGECONV_LITE]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.sampled_from([4, 5, 7, 12, 16, 20, 33, 64]))
    dim = draw(st.sampled_from([8, 16, 32]))
    enc = EncoderConfig(kind=kind, out_dim=dim, n_points=n, hidden=[dim], knn=4)
    head = RtmmConfig(layers=2, dim=dim, pos_hidden=[dim], mlp_hidden=[dim])
    model = ReidModel(enc, head, dtype=dtype)
    step = draw(st.sampled_from([1, 2, 3, 5, 8, 16]))
    model._score_slice = lambda: step
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _, t in model.params.items():  # a fresh model's zero scoring layer outputs 0
        t.data = (t.data + rng.normal(0.0, 0.1, t.data.shape)).astype(dtype)
    repeats, signed_zeros, shuffled = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    clouds = []
    for _ in range(2 * draw(st.integers(1, 4 * step + 3))):
        # mostly fewer source points than n, as most eval observations have
        m = int(rng.integers(1, n + 1) if rng.random() < 0.8 else rng.integers(n + 1, 2 * n + 1))
        src = rng.normal(size=(m, 3))
        if repeats:
            src = src[rng.integers(0, m, size=m)]
        if signed_zeros:
            src[rng.random(src.shape) < 0.3] = 0.0
            src[rng.random(src.shape) < 0.3] = -0.0
        cloud = resample_points(src, n, rng)
        clouds.append(cloud[rng.permutation(n)] if shuffled else cloud)
    return model, list(zip(clouds[::2], clouds[1::2]))


class TestDistinctPoints:
    """score_batch runs the per-point layers once per distinct point."""

    @settings(max_examples=200, deadline=None)
    @given(_scored_batches())
    def test_matches_full_clouds_bit_for_bit(self, case):
        model, pairs = case
        assert model.score_batch(pairs) == _full_cloud_score_batch(model, pairs)

    def test_distinct_rows_by_bit_pattern(self):
        x = np.array([[[0, 1, 2], [-0.0, 1, 2], [0, 1, 2], [3, 3, 3]]], dtype=np.float32)
        order, count, inverse = network._distinct_rows(x)
        assert count.tolist() == [3]
        assert order[0, :3].tolist() == [0, 1, 3]
        assert inverse.tolist() == [[0, 1, 0, 2]]

    def test_row_map_padding(self):
        order = np.arange(24)[None].repeat(3, 0)
        inverse = np.zeros((3, 24), dtype=int)
        at = np.array([0, 2])
        picked, _ = network._slice_rows(order, np.array([3, 24, 9]), inverse, at)
        assert picked.shape == (2, 16)
        # picking every row saves nothing, and partial row blocks get no map
        assert network._slice_rows(order, np.array([3, 24, 17]), inverse, at) is None
        assert network._slice_rows(order[:, :20], np.array([3, 20, 3]), inverse, at) is None


class TestModelGradients:
    @pytest.mark.parametrize("kind", [POINTNET_LITE, EDGECONV_LITE])
    def test_full_finite_difference_check(self, kind):
        model = micro_model(dtype=np.float64, kind=kind)
        assert model.params.n_values() <= 2500
        rng = np.random.default_rng(12)
        a = rng.normal(size=(2, 16, 3))
        b = rng.normal(size=(2, 16, 3))
        y = np.array([1.0, 0.0])
        model.params.set_requires_grad(True)

        def loss():
            return nn.bce_with_logits(model.forward_logits(a, b), y)

        model.params.zero_grad()
        loss().backward()
        eps = 1e-6
        worst = 0.0
        for name, t in model.params.items():
            analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            rng_idx = np.random.default_rng(hash(name) & 0xFFFF)
            # probe every value for small tensors, a random subset for larger
            idxs = range(flat.size) if flat.size <= 32 else \
                rng_idx.choice(flat.size, size=32, replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                up = loss().item()
                flat[i] = orig - eps
                down = loss().item()
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                rel = abs(analytic.reshape(-1)[i] - numeric) / max(abs(numeric), 1e-3)
                worst = max(worst, rel)
        assert worst < 1e-4


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        model = default_model(seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path, model.encoder_cfg, model.rtmm_cfg)
        for name, t in model.params.items():
            np.testing.assert_array_equal(back.params[name].data, t.data)
        save_checkpoint(back, tmp_path / "m2.ckpt")
        assert path.read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.ckpt").write_bytes(b"NOPE!" + b"\0" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(tmp_path / "m.ckpt", EncoderConfig(), RtmmConfig())

    def test_truncated(self, tmp_path):
        model = default_model()
        save_checkpoint(model, tmp_path / "m.ckpt")
        blob = (tmp_path / "m.ckpt").read_bytes()
        (tmp_path / "t.ckpt").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "t.ckpt", EncoderConfig(), RtmmConfig())

    def test_shape_mismatch_names_parameter(self, tmp_path):
        model = default_model()
        save_checkpoint(model, tmp_path / "m.ckpt")
        other = EncoderConfig(hidden=[32])
        with pytest.raises(CheckpointError, match="encoder.l0"):
            load_checkpoint(tmp_path / "m.ckpt", other, RtmmConfig())

    def test_nonfinite_weight_names_parameter(self, tmp_path):
        model = micro_model()
        save_checkpoint(model, tmp_path / "m.ckpt")
        blob = bytearray((tmp_path / "m.ckpt").read_bytes())
        blob[-4:] = struct.pack("<f", float("nan"))  # last value of the last parameter
        (tmp_path / "m.ckpt").write_bytes(bytes(blob))
        last = model.params.names()[-1]
        with pytest.raises(CheckpointError, match=f"{last}.*non-finite"):
            load_checkpoint(tmp_path / "m.ckpt", model.encoder_cfg, model.rtmm_cfg)

    @pytest.mark.parametrize("field, value", [("name", 0xFF), ("rank", 200)])
    def test_corrupt_header_byte_names_file(self, tmp_path, field, value):
        model = micro_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        # magic (5), parameter count (4) and name length (2) come before the
        # first name, and the first name before its rank byte
        first = model.params.names()[0]
        blob[{"name": 11, "rank": 11 + len(first.encode())}[field]] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path, model.encoder_cfg, model.rtmm_cfg)

    def test_inference_records_no_tape(self, tmp_path):
        model = micro_model()
        save_checkpoint(model, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt", model.encoder_cfg, model.rtmm_cfg)
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(2, 16, 3)), rng.normal(size=(2, 16, 3))
        for m in (model, loaded):
            logits = m.forward_logits(a, b)
            assert logits._backward is None and logits._parents == ()

    def test_config_json_round_trip(self):
        enc = EncoderConfig(kind=EDGECONV_LITE, out_dim=32, n_points=64, knn=6)
        head = RtmmConfig(layers=3, dim=32)
        enc2, head2 = config_from_json(config_to_json(enc, head))
        assert enc == enc2 and head == head2
