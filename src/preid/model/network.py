"""Point encoders, the symmetric cross-attention matching head, resampling.

The matching head stacks cross-feature-augmentation (CFA) blocks applied in
both directions with shared per-layer weights, reading only the previous
layer's values (simultaneous update), then set-concatenates both streams,
pools with max+mean, and maps through a residual MLP to one logit. This
construction makes the score symmetric in its two inputs up to float
rounding.

Every layer after the encoder acts on each point alone, except three set
reductions: the linear-attention summaries K^T V and sum(K), and the final
pooling. So ``score_batch`` runs those per-point layers once per distinct
point of each resampled cloud, and expands the rows back to the full cloud,
in its original order, wherever a set reduction reads them; its logits equal
those of the full clouds bit for bit.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from .config import EDGECONV_LITE, IN_DIM, POINTNET_LITE, EncoderConfig, RtmmConfig

LN_EPS = 1e-5
ATTN_EPS = 1e-6
# score_batch runs the matching head over slices of the batch whose widest
# activation fits in this many bytes, so each op's temporaries stay near
# cache size; chosen by the sub-batch sweep recorded in BENCH_4.json
SCORE_SLICE_BYTES = 2 << 20
# GEMM kernels take the rows of a product in blocks, and the rows past the
# last full block in other code that may round differently. With OpenBLAS
# 0.3.31, float32 and float64, a row rounded the same wherever it sat in a
# product whose row count is a multiple of this.
ROW_BLOCK = 8


def resample_points(points, n: int, rng: np.random.Generator) -> np.ndarray:
    """Fix a point set's cardinality: subsample without replacement when too
    large, resample with replacement when too small, identity at exactly n."""
    pts = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    m = len(pts)
    if m == 0:
        raise ValueError("cannot resample an empty point set")
    if m == n:
        return pts.copy()
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
        widths = [2 * IN_DIM] + list(cfg.hidden) + [cfg.out_dim]
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

    def lca(self, q_feat: Tensor, k_feat: Tensor, v_feat: Tensor, kv_rows=None) -> Tensor:
        if k_feat.shape[-2] == 0:
            raise nn.ShapeError("linear attention requires at least one key")
        q = nn.elu_plus_one(nn.linear(q_feat, self.wq))
        k = _take(nn.elu_plus_one(nn.linear(k_feat, self.wk)), kv_rows)
        v = _take(nn.linear(v_feat, self.wv), kv_rows)
        kv = nn.swapaxes(k, -1, -2) @ v                       # (.., d, d)
        num = q @ kv                                          # (.., n1, d)
        ksum = nn.tsum(k, axis=-2, keepdims=True)             # (.., 1, d)
        den = q @ nn.swapaxes(ksum, -1, -2)                   # (.., n1, 1)
        return self.out(num / nn.maximum_scalar(den, ATTN_EPS))

    def __call__(self, f_q: Tensor, f_kv: Tensor, x_kv: Tensor, kv_rows=None) -> Tensor:
        p = self.pos(x_kv)
        keys = f_kv + p
        attended = self.lca(f_q, keys, keys, kv_rows)
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
            widths = [IN_DIM] + list(encoder_cfg.hidden) + [encoder_cfg.out_dim]
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

    def forward_logits(self, a, b, rows_a=None, rows_b=None) -> Tensor:
        """Batched match logits for stacked point clouds a, b of shape (B, n, 3).

        A side's row map ``(picked, inverse)`` runs every layer after the
        encoder on that side's rows ``picked`` (B, m) only; ``inverse`` (B, n)
        names the picked row that holds each point, and expands the rows back
        wherever a set reduction reads them.
        """
        xa = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=self.dtype))
        xb = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=self.dtype))
        pick_a, inv_a = rows_a or (None, None)
        pick_b, inv_b = rows_b or (None, None)
        # the encoder sees every point: EdgeConv's neighbours include repeats
        f1, f2 = _take(self.encode(xa), pick_a), _take(self.encode(xb), pick_b)
        xa, xb = _take(xa, pick_a), _take(xb, pick_b)
        for block in self.cfa:
            # simultaneous update from the previous layer's values; required
            # for exact symmetry of the construction
            f1, f2 = block(f1, f2, xb, inv_b), block(f2, f1, xa, inv_a)
        joint = nn.concat([_take(f1, inv_a), _take(f2, inv_b)], axis=-2)
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
        """Match logits of many pairs, equal bit for bit to scoring them in
        consecutive slices of ``_score_slice()`` pairs with full clouds."""
        if not pairs:
            return []
        a = np.stack([np.asarray(p[0], dtype=self.dtype) for p in pairs])
        b = np.stack([np.asarray(p[1], dtype=self.dtype) for p in pairs])
        rows = [_distinct_rows(a), _distinct_rows(b)]
        step = self._score_slice()
        # the head takes one row per pair, so pairs may trade places only
        # among full slices of whole row blocks; the tail keeps its order
        full = len(a) - len(a) % step if step % ROW_BLOCK == 0 else 0
        distinct = np.maximum(rows[0][1], rows[1][1])[:full]
        order = np.concatenate([np.argsort(distinct, kind="stable"), np.arange(full, len(a))])
        logits = np.empty(len(a))
        for lo in range(0, len(a), step):
            at = order[lo:lo + step]
            maps = [_slice_rows(*r, at) for r in rows]
            logits[at] = self.forward_logits(a[at], b[at], *maps).data
        return [float(v) for v in logits]


def _distinct_rows(x: np.ndarray):
    """Each cloud's distinct points by bit pattern, in order of first sight.

    For clouds x (B, n, 3) returns ``(order, count, inverse)``: ``order[c]``
    lists cloud c's rows with its distinct points first, ``count[c]`` how
    many are distinct, and ``inverse[c, i]`` which of them row i holds.
    Rows are sorted by their x bits and compared bit for bit with the next,
    so -0.0 and 0.0 stay apart. A point whose repeats sort on both sides of
    another point with the same x counts twice: that costs a row, never a bit.
    """
    n_clouds, n = x.shape[:2]
    bits = x.view(f"u{x.itemsize}").reshape(-1, 3)
    offset = n * np.arange(n_clouds)[:, None]
    at = (np.argsort(bits[:, 0].reshape(n_clouds, n), axis=1) + offset).reshape(-1)
    s = np.take(bits, at, axis=0).reshape(n_clouds, n, 3)
    new = np.ones((n_clouds, n), dtype=bool)  # a run of equal rows starts
    new[:, 1:] = (s[:, 1:] != s[:, :-1]).any(axis=2)
    starts = np.flatnonzero(new)
    first = np.empty_like(at)
    first[at] = np.repeat(np.minimum.reduceat(at, starts), np.diff(starts, append=len(at)))
    first = first.reshape(n_clouds, n) - offset
    is_first = first == np.arange(n)
    rank = np.cumsum(is_first, axis=1) - 1
    return (np.argsort(~is_first, axis=1, kind="stable"), is_first.sum(axis=1),
            np.take_along_axis(rank, first, axis=1))


def _slice_rows(order, count, inverse, at):
    """The row map of the clouds ``at``, or None when it would save no row.

    The picked count is padded with repeated rows up to whole row blocks, and
    only clouds of whole row blocks get a map: the rows then meet no tail
    kernel, on full clouds or picked, and each rounds the same.
    """
    n = order.shape[1]
    m = -(-int(count[at].max()) // ROW_BLOCK) * ROW_BLOCK
    return None if n % ROW_BLOCK or m >= n else (order[at, :m], inverse[at])


def _take(t: Tensor, index) -> Tensor:
    return t if index is None else nn.gather(t, index)
