"""Autodiff core: forward values, gradients vs finite differences, tape rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preid import nn
from preid.nn import GradError, ShapeError, Tensor


def fd_grad(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar f at float64 array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def check_grad(op, shapes, seed=0, tol=1e-4):
    """Compare analytic gradients of sum(op(*xs)) to finite differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0, 1, size=s).astype(np.float64) for s in shapes]
    for which in range(len(arrays)):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = nn.tsum(op(*tensors))
        out.backward()
        analytic = tensors[which].grad

        def scalar(x, which=which):
            xs = [a.copy() for a in arrays]
            xs[which] = x
            return float(nn.tsum(op(*[Tensor(a) for a in xs])).data)

        numeric = fd_grad(scalar, arrays[which])
        denom = np.maximum(np.abs(numeric), 1.0)
        assert np.max(np.abs(analytic - numeric) / denom) < tol, f"operand {which}"


class TestForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        np.testing.assert_allclose((a + b).data, 1.0 + np.arange(3.0) * np.ones((2, 3)))

    def test_matmul_value(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose((a @ b).data, [[19, 22], [43, 50]])

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_relu(self):
        x = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(nn.relu(x).data, [0.0, 0.0, 2.0])

    def test_elu_plus_one_positive(self):
        x = Tensor(np.linspace(-20, 20, 101).astype(np.float64))
        y = nn.elu_plus_one(x).data
        assert np.all(y > 0)
        np.testing.assert_allclose(y[x.data >= 0], x.data[x.data >= 0] + 1)

    def test_sigmoid_midpoint(self):
        assert float(nn.sigmoid(Tensor([0.0])).data[0]) == pytest.approx(0.5)

    def test_tmax_value(self):
        x = Tensor([[1.0, 5.0], [3.0, 2.0]])
        np.testing.assert_allclose(nn.tmax(x, axis=0).data, [3.0, 5.0])

    def test_default_dtype_is_f32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_f64_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64


class TestGradients:
    @pytest.mark.parametrize("op,shapes", [
        (lambda a, b: a + b, [(3, 4), (3, 4)]),
        (lambda a, b: a - b, [(3, 4), (4,)]),          # broadcast
        (lambda a, b: a * b, [(2, 3), (2, 3)]),
        (lambda a, b: a / (b * b + 1.0), [(3,), (3,)]),
        (lambda a, b: a @ b, [(3, 4), (4, 2)]),
        (lambda a, b: a @ b, [(2, 3, 4), (2, 4, 2)]),  # batched
        (lambda a, b: a @ b, [(2, 3, 4), (4, 2)]),     # broadcast batch
        (lambda x: nn.relu(x), [(5, 5)]),
        (lambda x: nn.elu_plus_one(x), [(7,)]),
        (lambda x: nn.exp(x * 0.3), [(4,)]),
        (lambda x: nn.log(x * x + 1.0), [(4,)]),
        (lambda x: nn.sqrt(x * x + 0.5), [(4,)]),
        (lambda x: nn.sigmoid(x), [(6,)]),
        (lambda x: nn.maximum_scalar(x, 0.1), [(20,)]),
        (lambda x: nn.tsum(x, axis=1), [(3, 5)]),
        (lambda x: nn.tmean(x, axis=0, keepdims=True), [(3, 5)]),
        (lambda x: nn.tmax(x, axis=-1), [(4, 6)]),
        (lambda a, b: nn.concat([a, b], axis=1), [(2, 3), (2, 2)]),
        (lambda x: nn.reshape(x, (6, 2)), [(3, 4)]),
        (lambda x: nn.swapaxes(x, 0, 1), [(3, 4)]),
        (lambda x, g, b: nn.layer_norm(x, g, b), [(4, 8), (8,), (8,)]),
        (lambda x, g, b: nn.layer_norm(x, g, b), [(2, 3, 6), (6,), (6,)]),
        (lambda x, w: nn.linear(x, w), [(4, 3), (3, 5)]),
        (lambda x, w, b: nn.linear(x, w, b), [(4, 3), (3, 5), (5,)]),
        (lambda x, w: nn.linear(x, w), [(2, 4, 3), (3, 5)]),
        (lambda x, w, b: nn.linear(x, w, b), [(2, 4, 3), (3, 5), (5,)]),
        (lambda x: nn.pool_concat(x), [(2, 5, 3)]),
    ])
    def test_op_gradcheck(self, op, shapes):
        check_grad(op, shapes)

    def test_gather_gradcheck(self):
        # fewer rows taken than each set holds, one row taken twice; d = 1
        idx = np.array([[0, 2], [1, 1], [3, 0]])
        check_grad(lambda x: nn.gather(x, idx), [(3, 4, 1)])
        with pytest.raises(ShapeError):
            nn.gather(Tensor(np.zeros((3, 4, 1))), idx[:2])

    def test_take_rows_gradcheck(self):
        # repeated rows sum their gradients; row 3 of the second set is never taken
        idx = np.array([[0, 2, 2, 1, 0], [3, 0, 1, 1, 0]])
        check_grad(lambda x: nn.gather(x, idx), [(2, 4, 3)])
        out = nn.gather(Tensor(np.arange(24.0).reshape(2, 4, 3)), idx).data
        np.testing.assert_array_equal(out, np.arange(24.0).reshape(2, 4, 3)[[[0], [1]], idx])

    def test_tmax_tie_splitting(self):
        x = Tensor(np.array([[2.0, 2.0, 1.0]], dtype=np.float64), requires_grad=True)
        nn.tsum(nn.tmax(x, axis=1)).backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])

    def test_bce_with_logits_gradcheck(self):
        rng = np.random.default_rng(1)
        z = rng.normal(0, 2, size=8).astype(np.float64)
        y = rng.integers(0, 2, size=8).astype(np.float64)
        t = Tensor(z.copy(), requires_grad=True)
        nn.bce_with_logits(t, y).backward()
        numeric = fd_grad(lambda x: float(nn.bce_with_logits(Tensor(x), y).data), z)
        np.testing.assert_allclose(t.grad, numeric, rtol=1e-5, atol=1e-8)

    def test_grad_accumulation_reuse(self):
        x = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
        y = x * x + x * 3.0    # dy/dx = 2x + 3 = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])


def composed_layer_norm(x, gain, bias, eps=1e-5):
    """The 9-op layer norm that the fused primitive replaced."""
    mu = nn.tmean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = nn.tmean(xc * xc, axis=-1, keepdims=True)
    y = xc / nn.sqrt(var + eps)
    return y * gain + bias


def where_elu_plus_one(x):
    """The np.where form of elu(x) + 1 and its derivative that the fused op replaced."""
    pos = x >= 0
    ex = np.exp(np.minimum(x, 0))
    return np.where(pos, x + 1, ex), np.where(pos, np.ones((), dtype=x.dtype), ex)


class TestFusedOps:
    @pytest.mark.parametrize("dtype,shape", [(np.float64, (3, 7, 16)), (np.float32, (63, 64, 32)),
                                             (np.float32, (5, 7))])
    def test_layer_norm_matches_composed_reference(self, dtype, shape):
        # same float operations in the same order: equal bit for bit, which
        # is within 1e-10 in float64 and keeps seeded float32 training as it was
        rng = np.random.default_rng(2)
        x = rng.normal(3.0, 2.0, size=shape).astype(dtype)
        gain, bias = rng.normal(size=shape[-1:]).astype(dtype), rng.normal(size=shape[-1:]).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        results = []
        for ln in (nn.layer_norm, composed_layer_norm):
            ts = [Tensor(a.copy(), requires_grad=True) for a in (x, gain, bias)]
            out = ln(*ts)
            out.backward(g)
            results.append([out.data] + [t.grad for t in ts])
        for fused, ref in zip(*results):
            np.testing.assert_array_equal(fused, ref)

    @pytest.mark.parametrize("x_shape,w_shape", [((63, 64, 32), (32, 32)), ((16, 128, 128), (128, 64)),
                                                 ((40, 64), (64, 8)), ((2, 8, 4, 64), (64, 32))])
    def test_linear_matches_matmul_plus_bias(self, x_shape, w_shape):
        rng = np.random.default_rng(4)
        arrays = [rng.normal(size=x_shape).astype(np.float32),
                  rng.normal(size=w_shape).astype(np.float32),
                  rng.normal(size=w_shape[1:]).astype(np.float32)]
        g = rng.normal(size=x_shape[:-1] + w_shape[1:]).astype(np.float32)
        results = []
        for op in (nn.linear, lambda x, w, b: x @ w + b):
            ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = op(*ts)
            out.backward(g)
            results.append([out.data] + [t.grad for t in ts])
        for fused, ref in zip(*results):
            np.testing.assert_array_equal(fused, ref)
        np.testing.assert_array_equal(nn.linear(Tensor(arrays[0]), Tensor(arrays[1])).data,
                                      arrays[0] @ arrays[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elu_plus_one_bit_identical_to_where_form(self, dtype):
        x = np.concatenate([np.linspace(-20, 20, 4001), [0.0, -0.0]]).astype(dtype)
        t = Tensor(x, requires_grad=True, dtype=dtype)
        out = nn.elu_plus_one(t)
        g = np.random.default_rng(3).normal(size=x.shape).astype(dtype)
        out.backward(g)
        value, deriv = where_elu_plus_one(x)
        assert out.data.tobytes() == value.tobytes()
        assert t.grad.tobytes() == (g * deriv).tobytes()

    def test_linear_shape_error(self):
        with pytest.raises(ShapeError):
            nn.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_frozen_inputs_record_no_tape(self):
        x = Tensor(np.ones((2, 3, 4)))
        outs = [nn.linear(x, Tensor(np.ones((4, 4))), Tensor(np.zeros(4))),
                nn.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))),
                nn.elu_plus_one(x), nn.relu(x)]
        assert all(o._backward is None and o._parents == () for o in outs)


class TestTapeRules:
    def test_backward_twice_raises(self):
        x = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        y = nn.tsum(x * x)
        y.backward()
        with pytest.raises(GradError):
            y.backward()

    def test_backward_nonscalar_needs_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GradError):
            (x * x).backward()

    def test_no_tape_without_requires_grad(self):
        x = Tensor(np.ones(3))
        y = x * x + x
        assert y._backward is None and y._parents == ()

    def test_layer_norm_bad_eps(self):
        with pytest.raises(ValueError):
            nn.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(4)),
                          Tensor(np.zeros(4)), eps=0.0)

    def test_pool_concat_empty_set(self):
        with pytest.raises(ShapeError):
            nn.pool_concat(Tensor(np.ones((2, 0, 3))))


class TestPooling:
    def test_pool_concat_value(self):
        x = Tensor(np.array([[[1.0, 2.0], [3.0, 0.0]]]))
        np.testing.assert_allclose(nn.pool_concat(x).data, [[3.0, 2.0, 2.0, 1.0]])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_pool_concat_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, size=(6, 4)).astype(np.float64)
        perm = rng.permutation(6)
        a = nn.pool_concat(Tensor(x)).data
        b = nn.pool_concat(Tensor(x[perm])).data
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_bce_stable_far_from_zero(self):
        # stable form must agree with the naive clamped form across [-15, 15]
        z = np.linspace(-15, 15, 301).astype(np.float64)
        for y in (0.0, 1.0):
            labels = np.full_like(z, y)
            stable = float(nn.bce_with_logits(Tensor(z), labels).data)
            p = np.clip(1 / (1 + np.exp(-z)), 1e-7, 1 - 1e-7)
            naive = float(-(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean())
            assert abs(stable - naive) <= 1e-6
