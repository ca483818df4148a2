"""Minimal dense tensor with reverse-mode automatic differentiation.

Data lives in numpy arrays (float32 by default, float64 available for
gradient checking). A graph is only recorded when at least one input of an
operation has ``requires_grad`` set, so pure inference carries no tape
overhead.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float32


class GradError(RuntimeError):
    """Raised on invalid use of the autodiff tape."""


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_spent")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, (np.ndarray, np.generic)) and data.dtype == np.float64:
            arr = np.asarray(data)  # f64 keeps its precision (gradient checks)
        else:
            arr = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._spent = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad=None):
        """Reverse-mode sweep from this node; accumulates into leaf ``.grad``.

        A graph is swept once. When the sweep ends, every node it ran drops
        its backward closure and its parents, so the graph's arrays are freed
        when ``backward()`` returns, however long the caller keeps the output.
        A second ``backward()`` through a spent node raises ``GradError``."""
        if grad is None:
            if self.data.size != 1:
                raise GradError("backward() without an explicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
            elif id(node) not in seen:
                if node._spent:
                    raise GradError("backward called twice on the same graph; re-run the forward pass")
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node._parents)

        # keyed by id(): topo holds every node until the sweep ends, so no id is reused
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                node._spent = True
                for parent, pg in node._backward(g):
                    key = id(parent)
                    grads[key] = grads[key] + pg if key in grads else pg
            elif node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
        # a spent node keeps only its own data, so the graph's arrays go now
        for node in topo:
            if node._spent:
                node._backward, node._parents = None, ()

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, lift(other, self.dtype))

    def __sub__(self, other):
        return sub(self, lift(other, self.dtype))

    def __mul__(self, other):
        return mul(self, lift(other, self.dtype))

    def __truediv__(self, other):
        return div(self, lift(other, self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)


def lift(x, dtype=DEFAULT_DTYPE) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _taped(*parents: Tensor) -> bool:
    """Whether an op on these inputs records a tape entry."""
    return any(p.requires_grad or p._backward is not None for p in parents)


def _from_op(data: np.ndarray, parents, backward) -> Tensor:
    out = Tensor(data)
    if _taped(*parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- primitive operations ------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _from_op(data, (a, b), lambda g: (
        (a, _unbroadcast(g, a.shape)),
        (b, _unbroadcast(g, b.shape)),
    ))


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    return _from_op(data, (a, b), lambda g: (
        (a, _unbroadcast(g, a.shape)),
        (b, _unbroadcast(-g, b.shape)),
    ))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _from_op(data, (a, b), lambda g: (
        (a, _unbroadcast(g * b.data, a.shape)),
        (b, _unbroadcast(g * a.data, b.shape)),
    ))


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data
    return _from_op(data, (a, b), lambda g: (
        (a, _unbroadcast(g / b.data, a.shape)),
        (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
    ))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; supports stacked (batched) leading dimensions."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul requires operands of rank >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ((a, ga), (b, gb))

    return _from_op(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` for x of shape (..., d_in) and a 2-D weight (d_in, d_out).

    The forward flattens the leading axes into one GEMM and adds the bias in
    place. The backward keeps the batched products of matmul (the weight
    gradient summed over the leading axes), so training rounds exactly as
    matmul plus add did.
    """
    if w.data.ndim != 2 or x.data.shape[-1:] != w.data.shape[:1]:
        raise ShapeError(f"linear needs (..., d_in) x (d_in, d_out), got {x.shape} x {w.shape}")
    lead, (d_in, d_out) = x.data.shape[:-1], w.data.shape
    data = x.data.reshape(-1, d_in) @ w.data
    if b is not None:
        data += b.data
    data = data.reshape(lead + (d_out,))

    def backward(g):
        # only inputs on the tape get a gradient: raw point coordinates need none
        out = []
        if _taped(x):
            out.append((x, g @ w.data.T))
        if _taped(w):
            out.append((w, _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.data.shape)))
        if b is not None and _taped(b):
            out.append((b, _unbroadcast(g, b.data.shape)))
        return out

    return _from_op(data, (x, w) if b is None else (x, w, b), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to mean 0 / variance 1, then affine.

    One taped op whose forward and backward equal, bit for bit, those of the
    mean / centre / variance / divide / affine chain built from the
    primitives, so scores and seeded training do not change; only the
    intermediate tensors and tape nodes are gone.
    """
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    scale = 1.0 / x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True)
    mu *= scale
    xc = x.data - mu
    xhat = np.square(xc)
    sigma = xhat.sum(axis=-1, keepdims=True)
    sigma *= scale
    sigma += eps
    np.sqrt(sigma, out=sigma)
    np.divide(xc, sigma, out=xhat)
    # without a tape xhat is not kept for backward, so the affine step reuses it
    data = np.multiply(xhat, gain.data, out=None if _taped(x, gain, bias) else xhat)
    data += bias.data

    def backward(g):
        # the composed chain's operations in its order, with negations moved
        # onto the row sums (exact in IEEE arithmetic) and buffers reused
        gy = g * gain.data
        tmp = gy * xc
        tmp /= sigma * sigma
        gsigma = -tmp.sum(axis=-1, keepdims=True)
        # the variance path reaches xc once through each factor of xc * xc;
        # adding the two terms one at a time rounds as the tape did
        np.multiply(gsigma * (0.5 / sigma) * scale, xc, out=tmp)
        gxc = np.divide(gy, sigma, out=gy)
        gxc += tmp
        gxc += tmp
        gxc -= gxc.sum(axis=-1, keepdims=True) * scale
        return ((x, gxc), (gain, _unbroadcast(np.multiply(g, xhat, out=tmp), gain.data.shape)),
                (bias, _unbroadcast(g, bias.data.shape)))

    return _from_op(data, (x, gain, bias), backward)


def relu(x: Tensor) -> Tensor:
    return _from_op(np.maximum(x.data, 0), (x,), lambda g: ((x, g * (x.data > 0)),))


def elu_plus_one(x: Tensor) -> Tensor:
    """elu(x) + 1: x+1 for x >= 0, exp(x) otherwise. Strictly positive.

    ``exp(min(x, 0))`` is 1 for x >= 0, so it is also the derivative.
    """
    ex = np.minimum(x.data, 0)
    np.exp(ex, out=ex)
    data = np.maximum(x.data, 0)
    data += ex
    return _from_op(data, (x,), lambda g: ((x, g * ex),))


def exp(x: Tensor) -> Tensor:
    data = np.exp(x.data)
    return _from_op(data, (x,), lambda g: ((x, g * data),))


def log(x: Tensor) -> Tensor:
    return _from_op(np.log(x.data), (x,), lambda g: ((x, g / x.data),))


def sqrt(x: Tensor) -> Tensor:
    data = np.sqrt(x.data)
    return _from_op(data, (x,), lambda g: ((x, g * (0.5 / data)),))


def sigmoid(x: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-x.data))
    return _from_op(data, (x,), lambda g: ((x, g * data * (1 - data)),))


def maximum_scalar(x: Tensor, floor: float) -> Tensor:
    """Elementwise max(x, floor); subgradient goes to x where x > floor."""
    mask = x.data > floor
    data = np.maximum(x.data, floor)
    return _from_op(data, (x,), lambda g: ((x, g * mask),))


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return ((x, np.broadcast_to(g, x.shape).copy()),)

    return _from_op(data, (x,), backward)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return tsum(x, axis=axis, keepdims=keepdims) * (1.0 / n)


def tmax(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max-reduce along one axis; gradient routed to the (first) argmax."""
    data = x.data.max(axis=axis, keepdims=keepdims)

    def backward(g):
        expanded = data if keepdims else np.expand_dims(data, axis)
        mask = x.data == expanded
        # split gradient among ties to keep the op well-defined
        counts = mask.sum(axis=axis, keepdims=True)
        gg = g if keepdims else np.expand_dims(g, axis)
        return ((x, mask * (gg / counts)),)

    return _from_op(data, (x,), backward)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        out = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            out.append((t, g[tuple(idx)]))
        return tuple(out)

    return _from_op(data, tensors, backward)


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)
    return _from_op(data, (x,), lambda g: ((x, g.reshape(x.shape)),))


def swapaxes(x: Tensor, a1: int, a2: int) -> Tensor:
    data = np.swapaxes(x.data, a1, a2)
    return _from_op(data, (x,), lambda g: ((x, np.swapaxes(g, a1, a2)),))


def gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows of each set: x (S, m, d) at integer index (S, k) -> (S, k, d),
    out[s, i] = x[s, index[s, i]], or of one set x (m, d) at any integer
    index; the gradient of a repeated row is summed."""
    d = x.data.shape[-1]
    if x.data.ndim == 3 and index.ndim == 2 and index.shape[0] == x.data.shape[0]:
        index = index + x.data.shape[1] * np.arange(len(index))[:, None]
    elif x.data.ndim != 2:
        raise ShapeError(f"gather needs an (S, k) index for (S, m, d), "
                         f"got {index.shape} for {x.shape}")
    flat = index.reshape(-1)
    data = np.take(x.data.reshape(-1, d), flat, axis=0).reshape(index.shape + (d,))

    def backward(g):
        gx = np.zeros((x.data.size // d, d), dtype=g.dtype)
        np.add.at(gx, flat, g.reshape(-1, d))
        return ((x, gx.reshape(x.shape)),)

    return _from_op(data, (x,), backward)


# -- composite layers ----------------------------------------------------


def pool_concat(x: Tensor) -> Tensor:
    """Column-wise max concatenated with column-wise mean over the set axis.

    Input (..., n, d) -> output (..., 2d). The reduction axis is -2.
    """
    if x.data.shape[-2] == 0:
        raise ShapeError("pool_concat over an empty set")
    return concat([tmax(x, axis=-2), tmean(x, axis=-2)], axis=-1)


def bce_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy, numerically stable in the logits."""
    y = np.asarray(labels, dtype=logits.dtype)
    if y.shape != logits.shape:
        raise ShapeError(f"labels shape {y.shape} != logits shape {logits.shape}")
    z = logits.data
    per = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    data = np.asarray(per.mean(), dtype=logits.dtype)
    n = z.size

    def backward(g):
        s = 1.0 / (1.0 + np.exp(-z))
        return ((logits, g * (s - y) / n),)

    return _from_op(data, (logits,), backward)
