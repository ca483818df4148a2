"""Point encoders, the symmetric cross-attention matching head, resampling.

The matching head stacks cross-feature-augmentation (CFA) blocks applied in
both directions with shared per-layer weights, reading only the previous
layer's values (simultaneous update), then set-concatenates both streams,
pools with max+mean, and maps through a residual MLP to one logit. This
construction makes the score symmetric in its two inputs up to float
rounding.

Two stages make the model. The per-observation stage reads one cloud alone:
the encoder and the first block's key summary φ(K)ᵀV and column Σφ(K), which
by associativity does not depend on the partner. The per-pair stage is the
rest. Training runs both on whole clouds as one graph. ``score_batch`` runs
the first once per distinct cloud of its pairs and every layer after the
encoder once per distinct point, expanding rows back wherever a set reduction
reads them, so its logits equal those of full clouds bit for bit. A side past
its cloud's own rows repeats the cloud's last row; only row-wise layers see
such rows, because the set reductions read rows through the cloud's row map.
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

    def summarize(self, keys: Tensor, rows=None):
        """Linear attention's key side over keys[rows], φ(K)ᵀV and the column
        Σφ(K), neither of which reads the queries (Katharopoulos et al. 2020)."""
        if keys.shape[-2] == 0:
            raise nn.ShapeError("linear attention requires at least one key")
        kt = nn.swapaxes(_take(nn.elu_plus_one(nn.linear(keys, self.wk)), rows), -1, -2)
        v = _take(nn.linear(keys, self.wv), rows)
        return kt @ v, nn.tsum(kt, axis=-1, keepdims=True)

    def lca(self, q_feat: Tensor, summary) -> Tensor:
        """φ(Q)(φ(K)ᵀV) / φ(Q)Σφ(K) of q_feat's rows over a key summary."""
        kv, ksum = summary
        q = nn.elu_plus_one(nn.linear(q_feat, self.wq))
        return self.out((q @ kv) / nn.maximum_scalar(q @ ksum, ATTN_EPS))

    def __call__(self, f_q, f_kv, x_kv, kv_rows=None):
        """f_q's rows attend to keys f_kv + pos(x_kv), with kv_rows naming
        the key row of each point. With f_q None, returns the keys' summary,
        which a later call may take in place of x_kv."""
        summary = x_kv if isinstance(x_kv, tuple) else self.summarize(f_kv + self.pos(x_kv), kv_rows)
        if f_q is None:
            return summary
        fused = self.mlp(nn.concat([self.ln_attn(self.lca(f_q, summary)), f_q], axis=-1))
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

    def forward_logits(self, a, b) -> Tensor:
        """Batched match logits for stacked point clouds a, b of shape (B, n, 3).
        A side may instead be its per-observation state ``(f, x, rows,
        summary)``: features and xyz (B, m, .) at picked rows, the row (B, n)
        of each point, and the first block's key summary."""
        sides = [s if isinstance(s, tuple) else self._observe(s) for s in (a, b)]
        (f1, xa, inv_a, sa), (f2, xb, inv_b, sb) = sides
        for block in self.cfa:
            # simultaneous update from the previous layer's values; required
            # for exact symmetry of the construction
            f1, f2 = block(f1, f2, sb, inv_b), block(f2, f1, sa, inv_a)
            sa, sb = xa, xb  # only the first block's summaries are cached
        joint = nn.concat([_take(f1, inv_a), _take(f2, inv_b)], axis=-2)
        pooled = nn.pool_concat(joint)
        h = pooled + self.res_b(nn.relu(self.res_a(pooled)))
        return nn.reshape(self.head(h), pooled.shape[:-1])

    def _observe(self, x) -> tuple:
        """The per-observation stage of whole clouds, an array x (B, n, 3)."""
        x = Tensor(np.asarray(x, dtype=self.dtype))
        f = self.encode(x)
        return f, x, None, self.cfa[0](None, f, x)

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
        """Match logits of many pairs, bit for bit those of consecutive slices
        of ``_score_slice()`` pairs of full clouds. The per-observation stage
        runs once per distinct cloud, unless n_points is a partial row block.
        A pair side reads as many rows of its cloud's stack as the slice's
        widest cloud has; a cloud with fewer repeats its last row."""
        if not pairs:
            return []
        slots = np.stack([np.asarray(x, dtype=self.dtype) for pair in pairs for x in pair])
        step = self._score_slice()
        if slots.shape[1] % ROW_BLOCK:
            return [float(v) for lo in range(0, len(slots), 2 * step) for v in self.forward_logits(
                slots[lo:lo + 2 * step:2], slots[lo + 1:lo + 2 * step:2]).data]
        clouds = slots.reshape(len(slots), -1).view(f"V{slots[0].nbytes}").ravel()  # by bit pattern
        _, first, cloud = np.unique(clouds, return_index=True, return_inverse=True)
        x, n = slots[first], slots.shape[1]
        order, count, inverse = _distinct_rows(x)
        # the per-observation stage, step clouds at a time, on one stack of
        # each cloud's distinct points padded to whole row blocks
        size = -(-count // ROW_BLOCK) * ROW_BLOCK
        start = np.cumsum(size) - size
        pick = (order + n * np.arange(len(x))[:, None])[np.arange(n) < size[:, None]]

        def observe(lo):
            at = slice(lo, lo + step)
            picked = pick[start[lo]:start[lo] + size[at].sum()]
            xr = Tensor(x.reshape(-1, 3)[picked])
            whole = self.encoder_cfg.kind == EDGECONV_LITE  # its neighbours include repeats
            f = self.encode(Tensor(x[at]) if whole else xr)
            f = Tensor(f.data.reshape(-1, f.shape[-1])[picked - n * lo]) if whole else f
            return f, xr, *self.cfa[0](None, f, xr, start[at, None] - start[lo] + inverse[at])

        f, xr, kv, ksum = [np.concatenate([p.data for p in column])
                           for column in zip(*map(observe, range(0, len(x), step)))]
        # the per-pair stage; the head takes one row per pair, so pairs may
        # trade places only among full slices of whole row blocks
        full = len(pairs) - len(pairs) % step if step % ROW_BLOCK == 0 else 0
        distinct = count[cloud].reshape(-1, 2).max(axis=1)[:full]
        ranked = np.concatenate([np.argsort(distinct, kind="stable"), np.arange(full, len(pairs))])
        logits = np.empty(len(pairs))
        for lo in range(0, len(pairs), step):
            at = ranked[lo:lo + step]
            sides = []
            for c in cloud.reshape(-1, 2)[at].T:  # each side's rows of the stack
                r = start[c, None] + np.minimum(np.arange(size[c].max()), size[c, None] - 1)
                sides.append((Tensor(f[r]), Tensor(xr[r]), inverse[c], (Tensor(kv[c]), Tensor(ksum[c]))))
            logits[at] = self.forward_logits(*sides).data
        return [float(v) for v in logits]


def _distinct_rows(x: np.ndarray):
    """Each cloud's distinct points by bit pattern, in order of their x bits.

    For clouds x (B, n, 3) returns ``(order, count, inverse)``: ``order[c]``
    lists cloud c's rows with one row of each distinct point first, ``count[c]``
    how many are distinct, and ``inverse[c, i]`` which of them row i holds.
    Rows are sorted by their x bits and compared bit for bit with the next,
    so -0.0 and 0.0 stay apart. A point whose repeats sort on both sides of
    another point with the same x counts twice: that costs a row, never a bit.
    """
    bits = x.view(f"u{x.itemsize}")
    at = np.argsort(bits[..., 0], axis=1)
    s = np.take_along_axis(bits, at[..., None], axis=1)
    new = np.ones(at.shape, dtype=bool)  # a run of equal rows starts
    new[:, 1:] = (s[:, 1:] != s[:, :-1]).any(axis=2)
    inverse = np.empty_like(at)
    np.put_along_axis(inverse, at, np.cumsum(new, axis=1) - 1, axis=1)
    return np.take_along_axis(at, np.argsort(~new, axis=1, kind="stable"), axis=1), new.sum(axis=1), inverse


def _take(t: Tensor, index) -> Tensor:
    return t if index is None else nn.gather(t, index)
