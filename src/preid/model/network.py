"""Point encoders, the symmetric cross-attention matching head, resampling.

The matching head stacks cross-feature-augmentation (CFA) blocks applied in
both directions with shared per-layer weights, reading only the previous
layer's values (simultaneous update), then set-concatenates both streams,
pools with max+mean, and maps through a residual MLP to one logit. This
construction makes the score symmetric in its two inputs up to float
rounding.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from .config import EDGECONV_LITE, POINTNET_LITE, EncoderConfig, RtmmConfig

LN_EPS = 1e-5
ATTN_EPS = 1e-6
# score_batch runs the matching head over slices of the batch whose widest
# activation fits in this many bytes, so each op's temporaries stay near
# cache size; chosen by the sub-batch sweep recorded in BENCH_4.json
SCORE_SLICE_BYTES = 2 << 20


def resample_points(points, n: int = 128, rng: np.random.Generator | None = None) -> np.ndarray:
    """Fix a point set's cardinality: subsample without replacement when too
    large, resample with replacement when too small, identity at exactly n."""
    pts = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    m = len(pts)
    if m == 0:
        raise ValueError("cannot resample an empty point set")
    if m == n:
        return pts.copy()
    if rng is None:
        rng = np.random.default_rng()
    if m > n:
        idx = rng.choice(m, size=n, replace=False)
    else:
        idx = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    return pts[idx]


class _Linear:
    def __init__(self, params: nn.ParameterStore, name: str, d_in: int, d_out: int,
                 rng: np.random.Generator, dtype, zero_bias: bool = False):
        self.w = params.add(f"{name}.weight", nn.kaiming_uniform(rng, d_in, (d_in, d_out), dtype))
        if zero_bias:
            b = np.zeros(d_out, dtype=dtype)
        else:
            b = nn.kaiming_uniform(rng, d_in, (d_out,), dtype)
        self.b = params.add(f"{name}.bias", b)

    def __call__(self, x: Tensor) -> Tensor:
        return nn.linear(x, self.w, self.b)


class _LayerNorm:
    def __init__(self, params: nn.ParameterStore, name: str, d: int, dtype):
        self.gain = params.add(f"{name}.gain", np.ones(d, dtype=dtype))
        self.bias = params.add(f"{name}.bias", np.zeros(d, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return nn.layer_norm(x, self.gain, self.bias, eps=LN_EPS)


class _Mlp:
    """Linear stack with layer norm + ReLU between layers, plain final linear."""

    def __init__(self, params, name, widths: list[int], rng, dtype):
        self.layers = []
        for i, (d_in, d_out) in enumerate(zip(widths[:-1], widths[1:])):
            lin = _Linear(params, f"{name}.l{i}", d_in, d_out, rng, dtype)
            ln = _LayerNorm(params, f"{name}.l{i}.ln", d_out, dtype) if i < len(widths) - 2 else None
            self.layers.append((lin, ln))

    def __call__(self, x: Tensor) -> Tensor:
        for lin, ln in self.layers:
            x = lin(x)
            if ln is not None:
                x = nn.relu(ln(x))
        return x


class _EdgeconvEncoder:
    def __init__(self, params, cfg: EncoderConfig, rng, dtype):
        self.k = cfg.knn
        widths = [2 * cfg.in_dim] + list(cfg.hidden) + [cfg.out_dim]
        self.mlp = _Mlp(params, "encoder.edge", widths, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        pts = x.data  # (B, n, 3); raw coordinates carry no gradient
        n = pts.shape[-2]
        if n < self.k:
            raise ValueError(f"edgeconv needs at least k={self.k} points, got {n}")
        d2 = ((pts[..., :, None, :] - pts[..., None, :, :]) ** 2).sum(-1)
        idx = np.argsort(d2, axis=-1)[..., :self.k]                      # self included
        neigh = np.take_along_axis(pts[..., None, :, :], idx[..., None], axis=-2)
        center = np.broadcast_to(pts[..., :, None, :], neigh.shape)
        edge = Tensor(np.concatenate([center, neigh - center], axis=-1))
        feat = self.mlp(edge)                                            # (B, n, k, d)
        return nn.tmax(feat, axis=-2)


class _CfaBlock:
    """Linear cross-attention + positional keys + concat-MLP fusion + residual."""

    def __init__(self, params, name: str, cfg: RtmmConfig, rng, dtype):
        d = cfg.dim
        self.wq = params.add(f"{name}.wq", nn.kaiming_uniform(rng, d, (d, d), dtype))
        self.wk = params.add(f"{name}.wk", nn.kaiming_uniform(rng, d, (d, d), dtype))
        self.wv = params.add(f"{name}.wv", nn.kaiming_uniform(rng, d, (d, d), dtype))
        self.out = _Linear(params, f"{name}.out", d, d, rng, dtype, zero_bias=True)
        self.pos = _Mlp(params, f"{name}.pos", [3] + list(cfg.pos_hidden) + [d], rng, dtype)
        self.mlp = _Mlp(params, f"{name}.mlp", [2 * d] + list(cfg.mlp_hidden) + [d], rng, dtype)
        self.ln_attn = _LayerNorm(params, f"{name}.ln_attn", d, dtype)
        self.ln_out = _LayerNorm(params, f"{name}.ln_out", d, dtype)

    def lca(self, q_feat: Tensor, k_feat: Tensor, v_feat: Tensor) -> Tensor:
        if k_feat.shape[-2] == 0:
            raise nn.ShapeError("linear attention requires at least one key")
        q = nn.elu_plus_one(nn.linear(q_feat, self.wq))
        k = nn.elu_plus_one(nn.linear(k_feat, self.wk))
        v = nn.linear(v_feat, self.wv)
        kv = nn.swapaxes(k, -1, -2) @ v                       # (.., d, d)
        num = q @ kv                                          # (.., n1, d)
        ksum = nn.tsum(k, axis=-2, keepdims=True)             # (.., 1, d)
        den = q @ nn.swapaxes(ksum, -1, -2)                   # (.., n1, 1)
        return self.out(num / nn.maximum_scalar(den, ATTN_EPS))

    def __call__(self, f_q: Tensor, f_kv: Tensor, x_kv: Tensor) -> Tensor:
        p = self.pos(x_kv)
        keys = f_kv + p
        attended = self.lca(f_q, keys, keys)
        fused = self.mlp(nn.concat([self.ln_attn(attended), f_q], axis=-1))
        return self.ln_out(fused) + f_q


class ReidModel:
    """Encoder + matching head over a single parameter store."""

    def __init__(self, encoder_cfg: EncoderConfig, rtmm_cfg: RtmmConfig,
                 seed: int = 0, dtype=np.float32):
        if encoder_cfg.out_dim != rtmm_cfg.dim:
            raise ValueError(
                f"encoder out_dim {encoder_cfg.out_dim} != head dim {rtmm_cfg.dim}")
        self.encoder_cfg = encoder_cfg
        self.rtmm_cfg = rtmm_cfg
        self.dtype = np.dtype(dtype).type
        self.params = nn.ParameterStore()
        rng = np.random.default_rng(seed)
        if encoder_cfg.kind == POINTNET_LITE:
            widths = [encoder_cfg.in_dim] + list(encoder_cfg.hidden) + [encoder_cfg.out_dim]
            self.encoder = _Mlp(self.params, "encoder", widths, rng, self.dtype)
        elif encoder_cfg.kind == EDGECONV_LITE:
            self.encoder = _EdgeconvEncoder(self.params, encoder_cfg, rng, self.dtype)
        else:
            raise ValueError(encoder_cfg.kind)
        self.cfa = [
            _CfaBlock(self.params, f"rtmm.cfa{i}", rtmm_cfg, rng, self.dtype)
            for i in range(rtmm_cfg.layers)
        ]
        d2 = 2 * rtmm_cfg.dim
        hid = rtmm_cfg.res_hidden or d2
        self.res_a = _Linear(self.params, "rtmm.head.res_a", d2, hid, rng, self.dtype)
        self.res_b = _Linear(self.params, "rtmm.head.res_b", hid, d2, rng, self.dtype)
        self.head = _Linear(self.params, "rtmm.head.out", d2, 1, rng, self.dtype, zero_bias=True)
        # zero-init the scoring layer so a fresh model is uninformative
        # (logit 0, BCE ln 2) regardless of the encoder / head weights
        self.head.w.data[:] = 0

    def encode(self, x: Tensor) -> Tensor:
        return self.encoder(x)

    def forward_logits(self, a, b) -> Tensor:
        """Batched match logits for stacked point clouds a, b of shape (B, n, 3)."""
        xa = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=self.dtype))
        xb = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=self.dtype))
        f1, f2 = self.encode(xa), self.encode(xb)
        for block in self.cfa:
            # simultaneous update from the previous layer's values; required
            # for exact symmetry of the construction
            f1, f2 = block(f1, f2, xb), block(f2, f1, xa)
        joint = nn.concat([f1, f2], axis=-2)
        pooled = nn.pool_concat(joint)
        h = pooled + self.res_b(nn.relu(self.res_a(pooled)))
        return nn.reshape(self.head(h), pooled.shape[:-1])

    def rtmm_score(self, x1, x2) -> float:
        """Match logit for one pair of resampled n x 3 point sets."""
        logits = self.forward_logits(np.asarray(x1)[None], np.asarray(x2)[None])
        return float(logits.data[0])

    def _score_slice(self) -> int:
        """Pairs per score_batch slice: the byte budget over the bytes one
        pair's widest activation takes (n_points x max width x itemsize)."""
        enc, head = self.encoder_cfg, self.rtmm_cfg
        rows = enc.n_points * (enc.knn if enc.kind == EDGECONV_LITE else 1)
        width = max([*enc.hidden, enc.out_dim, *head.pos_hidden, *head.mlp_hidden, 2 * head.dim])
        return max(1, SCORE_SLICE_BYTES // (rows * width * np.dtype(self.dtype).itemsize))

    def score_batch(self, pairs) -> list[float]:
        if not pairs:
            return []
        a = np.stack([np.asarray(p[0], dtype=self.dtype) for p in pairs])
        b = np.stack([np.asarray(p[1], dtype=self.dtype) for p in pairs])
        step = self._score_slice()
        logits = [self.forward_logits(a[lo:lo + step], b[lo:lo + step]).data
                  for lo in range(0, len(a), step)]
        return [float(v) for v in np.concatenate(logits)]
