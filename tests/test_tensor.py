import numpy as np
import pytest

import dgnet_lab.tensor as T
from dgnet_lab.rng import Rng
from dgnet_lab.tensor import ShapeError, Tensor


# -- naive reference implementations -------------------------------------------


def naive_conv2d(x, w, b, stride, pad):
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, f, ho, wo), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    out[ni, fi, i, j] = (patch * w[fi]).sum() + b[fi]
    return out


def naive_conv2d_transpose(x, w, b, stride, pad):
    n, c, h, wd = x.shape
    _, f, k, _ = w.shape
    ho = (h - 1) * stride - 2 * pad + k
    wo = (wd - 1) * stride - 2 * pad + k
    out = np.zeros((n, f, ho + 2 * pad, wo + 2 * pad), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(h):
                for j in range(wd):
                    out[ni, :, i * stride:i * stride + k, j * stride:j * stride + k] += \
                        x[ni, ci, i, j] * w[ci]
    out = out[:, :, pad:pad + ho, pad:pad + wo]
    return out + b[None, :, None, None]


def naive_dense(x, w, b):
    n, d = x.shape
    _, m = w.shape
    out = np.zeros((n, m), dtype=np.float64)
    for ni in range(n):
        for mi in range(m):
            out[ni, mi] = sum(x[ni, di] * w[di, mi] for di in range(d)) + b[mi]
    return out


def fd_gradient(loss_fn, param, h=1e-6):
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn().item()
        flat[i] = orig - h
        down = loss_fn().item()
        flat[i] = orig
        grad[i] = (up - down) / (2 * h)
    return grad.reshape(param.shape)


# -- conv2d ---------------------------------------------------------------------


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(Rng(0).uniform((2, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = T.conv2d(x, w, Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_kernel_on_twos(self):
        x = Tensor(np.full((1, 1, 3, 3), 2.0))
        out = T.conv2d(x, Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == pytest.approx(18.0)

    def test_matches_naive_oracle(self):
        rng = Rng(7)
        x = rng.uniform((1, 2, 5, 5)) - 0.5
        w = rng.uniform((3, 2, 3, 3)) - 0.5
        b = rng.uniform(3)
        for stride, pad in [(1, 0), (1, 1), (2, 1)]:
            got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
            want = naive_conv2d(x, w, b, stride, pad)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_output_size_formula(self):
        x = Tensor(np.zeros((1, 1, 9, 9)))
        out = T.conv2d(x, Tensor(np.zeros((2, 1, 3, 3))), Tensor(np.zeros(2)), stride=2, pad=0)
        assert out.shape == (1, 2, 4, 4)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ShapeError, match="channel"):
            T.conv2d(x, Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)))

    def test_kernel_larger_than_input_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ShapeError):
            T.conv2d(x, Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros(1)))


class TestConv2dTranspose:
    def test_identity_kernel(self):
        x = Tensor(Rng(3).uniform((2, 1, 4, 4)))
        out = T.conv2d_transpose(x, Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_adjoint_identity(self):
        # <conv2d(x; W), y> == <x, conv2d_transpose(y; W)>
        rng = Rng(11)
        for stride, pad, k in [(1, 0, 3), (2, 1, 4), (2, 0, 2)]:
            x = (rng.uniform((2, 3, 8, 8)) - 0.5).astype(np.float32)
            w = (rng.uniform((4, 3, k, k)) - 0.5).astype(np.float32)
            fwd = T.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(4, np.float32)),
                           stride, pad)
            y = (rng.uniform(fwd.shape) - 0.5).astype(np.float32)
            back = T.conv2d_transpose(Tensor(y), Tensor(w), Tensor(np.zeros(3, np.float32)),
                                      stride, pad)
            lhs = float((fwd.data * y).sum())
            rhs = float((x * back.data).sum())
            assert lhs == pytest.approx(rhs, abs=1e-4 * max(1.0, abs(lhs)))

    def test_stride2_scatter_oracle(self):
        rng = Rng(5)
        x = rng.uniform((1, 1, 2, 2))
        w = rng.uniform((1, 1, 2, 2))
        b = rng.uniform(1)
        out = T.conv2d_transpose(Tensor(x), Tensor(w), Tensor(b), stride=2, pad=0)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out.data, naive_conv2d_transpose(x, w, b, 2, 0),
                                   atol=1e-6)

    def test_matches_naive_oracle(self):
        rng = Rng(9)
        x = rng.uniform((2, 3, 3, 3)) - 0.5
        w = rng.uniform((3, 2, 4, 4)) - 0.5
        b = rng.uniform(2)
        for stride, pad in [(1, 0), (2, 1), (3, 0)]:
            got = T.conv2d_transpose(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
            np.testing.assert_allclose(got, naive_conv2d_transpose(x, w, b, stride, pad),
                                       atol=1e-6)


class TestConvLayout:
    """One GEMM per op over the whole batch, on channel-major activations."""

    # (C, F, side) of the encoder's convolutions and the decoder's
    # transposed convolutions at 64 px, with the model's k=4, stride 2, pad 1.
    ENCODER = [(1, 16, 64), (16, 32, 32), (32, 64, 16), (64, 128, 8)]
    DECODER = [(128, 64, 4), (64, 32, 8), (32, 16, 16), (16, 1, 32)]

    @staticmethod
    def _run(op, x, w, b, r, stride, pad):
        """Forward output and the gradients of sum(out * r) for x, w and b."""
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = op(xt, wt, bt, stride, pad)
        (out * Tensor(r)).sum().backward()
        return [out.data, xt.grad, wt.grad, bt.grad]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["conv2d", "conv2d_transpose"])
    @pytest.mark.parametrize("k,stride,pad", [(4, 2, 1), (3, 1, 0)])
    def test_memory_order_of_x_does_not_change_any_bit(self, op, dtype, k, stride, pad):
        rng = Rng(21)
        x = (rng.uniform((3, 5, 8, 8)) - 0.5).astype(dtype)
        w = (rng.uniform((6, 5, k, k) if op == "conv2d" else (5, 6, k, k)) - 0.5).astype(dtype)
        b = rng.uniform(6).astype(dtype)
        fn = getattr(T, op)
        out_shape = fn(Tensor(x), Tensor(w), Tensor(b), stride, pad).shape
        r = (rng.uniform(out_shape) - 0.5).astype(dtype)
        channel_major = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        assert not channel_major.flags.c_contiguous
        for want, got in zip(self._run(fn, x, w, b, r, stride, pad),
                             self._run(fn, channel_major, w, b, r, stride, pad)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op,layers", [("conv2d", ENCODER),
                                           ("conv2d_transpose", DECODER)])
    def test_images_do_not_depend_on_the_batch(self, op, layers):
        rng = Rng(22)
        fn = getattr(T, op)
        for c, f, side in layers:
            x = (rng.uniform((8, c, side, side)) - 0.5).astype(np.float32)
            shape = (f, c, 4, 4) if op == "conv2d" else (c, f, 4, 4)
            w = Tensor((rng.uniform(shape) - 0.5).astype(np.float32))
            b = Tensor(rng.uniform(f).astype(np.float32))
            batch = fn(Tensor(x), w, b, 2, 1).data
            for n in range(len(x)):
                alone = fn(Tensor(x[n:n + 1]), w, b, 2, 1).data[0]
                assert batch[n].tobytes() == alone.tobytes()

    def test_conv2d_output_is_a_view_of_its_gemm_rows(self):
        rng = Rng(23)
        out = T.conv2d(Tensor(rng.uniform((4, 3, 8, 8))), Tensor(rng.uniform((5, 3, 4, 4))),
                       Tensor(np.zeros(5)), 2, 1).data
        rows = out.transpose(1, 0, 2, 3).reshape(5, 4 * 4 * 4)
        assert np.shares_memory(rows, out)


class TestBatchNorm:
    def test_constant_channel_gives_zeros(self):
        x = Tensor(np.full((2, 3, 4, 4), 7.0))
        out = T.batchnorm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                            np.zeros(3), np.ones(3), train=True)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_affine_on_normalized_data(self):
        rng = Rng(2)
        x = rng.normal((4, 2, 8, 8))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        out = T.batchnorm2d(Tensor(x), Tensor(np.full(2, 2.0)), Tensor(np.ones(2)),
                            np.zeros(2), np.ones(2), train=True)
        np.testing.assert_allclose(out.data, 2.0 * x + 1.0, atol=1e-3)

    def test_train_mode_statistics(self):
        x = Tensor(Rng(4).normal((4, 8, 16, 16)) * 3.0 + 1.5)
        out = T.batchnorm2d(x, Tensor(np.ones(8)), Tensor(np.zeros(8)),
                            np.zeros(8), np.ones(8), train=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-3)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update_and_eval(self):
        rng = Rng(6)
        x = rng.normal((4, 2, 4, 4)) + 5.0
        rm, rv = np.zeros(2), np.ones(2)
        T.batchnorm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, train=True)
        mu = x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(rm, 0.1 * mu, rtol=1e-5)
        out = T.batchnorm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                            rm, rv, train=False)
        want = (x - rm[None, :, None, None]) / np.sqrt(rv[None, :, None, None] + 1e-5)
        np.testing.assert_allclose(out.data, want, rtol=1e-4)

    def test_zero_size_batch_rejected(self):
        with pytest.raises(ShapeError):
            T.batchnorm2d(Tensor(np.zeros((0, 2, 4, 4))), Tensor(np.ones(2)),
                          Tensor(np.zeros(2)), np.zeros(2), np.ones(2), train=True)

    def test_eval_mode_is_a_constant(self):
        # Inference takes no gradient, so eval mode records no parents and no
        # backward even when every input requires a gradient.
        x = Tensor(Rng(7).normal((2, 3, 4, 4)), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        out = T.batchnorm2d(x, gamma, beta, np.zeros(3), np.ones(3), train=False)
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None


class TestPointwise:
    def test_leaky_relu_values(self):
        x = Tensor(np.array([0.0, -1.0, 2.0]))
        out = x.leaky_relu(0.2)
        np.testing.assert_allclose(out.data, [0.0, -0.2, 2.0], atol=1e-7)

    def test_leaky_relu_gradient_in_negative_region(self):
        x = Tensor(np.array([-3.0]), requires_grad=True)
        x.leaky_relu(0.2).sum().backward()
        assert x.grad[0] == pytest.approx(0.2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.2, 0.1, 0.7, 1.0 - 2.0 ** -30])
    def test_leaky_relu_matches_a_select_bitwise(self, dtype, slope):
        # Values and gradients are those of x * (1 if x >= 0 else slope),
        # at both signs of zero and at subnormals.
        rng = Rng(5)
        data = ((rng.uniform(256) - 0.5) * 10.0 ** rng.integers(-40, 3, 256)).astype(dtype)
        tiny = np.finfo(dtype).tiny
        data[:4] = [0.0, -0.0, -0.3 * tiny, 0.3 * tiny]
        g = (rng.uniform(256) - 0.5).astype(dtype)
        x = Tensor(data, requires_grad=True)
        out = x.leaky_relu(slope)
        (out * Tensor(g)).sum().backward()
        scale = np.where(data >= 0, 1.0, slope).astype(dtype)
        assert out.dtype == dtype and x.grad.dtype == dtype
        assert out.data.tobytes() == (data * scale).tobytes()
        assert x.grad.tobytes() == (np.zeros_like(data) + g * scale).tobytes()

    def test_leaky_relu_slope_validation(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(2)).leaky_relu(1.0)

    def test_sigmoid_at_zero(self):
        assert Tensor(np.array([0.0])).sigmoid().item() == pytest.approx(0.5)

    def test_sigmoid_no_overflow(self):
        out = Tensor(np.array([500.0, -500.0])).sigmoid()
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0)
        assert np.all(np.isfinite(out.data))

    def test_sigmoid_matches_scalar_oracle(self):
        import math
        xs = (Rng(8).uniform(32) - 0.5) * 10
        got = Tensor(xs).sigmoid().data
        want = [1.0 / (1.0 + math.exp(-v)) for v in xs]
        np.testing.assert_allclose(got, want, rtol=1e-6)


class TestOperands:
    """An operand of +, - and * is a Tensor of the same shape or a number."""

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("left, right", [((2, 3), (3,)), ((2, 3), (1,)), ((2, 3), ()),
                                             ((), (1,)), ((1,), (2,))],
                             ids=["2x3-3", "2x3-1", "2x3-0d", "0d-1", "1-2"])
    def test_tensor_of_another_shape_raises(self, op, left, right):
        a, b = Tensor(np.ones(left)), Tensor(np.ones(right))
        fn = {"add": lambda u, v: u + v, "sub": lambda u, v: u - v,
              "mul": lambda u, v: u * v}[op]
        with pytest.raises(ShapeError):
            fn(a, b)
        with pytest.raises(ShapeError):
            fn(b, a)

    def test_numbers_are_constants(self):
        x = Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True)
        y = 3.0 - (x - 0.5) * 2.0 + 1
        assert y.dtype == np.float32
        np.testing.assert_array_equal(y.data, [3.0, 9.0])
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [-2.0, -2.0])


class TestDense:
    def test_identity(self):
        x = Tensor(Rng(1).uniform((3, 4)))
        out = T.dense(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x.data, atol=1e-7)

    def test_small_example(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = Tensor(np.array([3.0, 3.0]))
        np.testing.assert_allclose(T.dense(x, w, b).data, [[4.0, 5.0]])

    def test_matches_naive_oracle(self):
        rng = Rng(12)
        x = rng.uniform((3, 5)) - 0.5
        w = rng.uniform((5, 4)) - 0.5
        b = rng.uniform(4)
        np.testing.assert_allclose(T.dense(Tensor(x), Tensor(w), Tensor(b)).data,
                                   naive_dense(x, w, b), atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_do_not_depend_on_the_batch(self, dtype):
        # At the encoder head's size, a [1,D] product and an [N,D] one take
        # different BLAS paths; each row must still have the same bytes.
        rng = Rng(13)
        x = (rng.uniform((11, 2048)) - 0.5).astype(dtype)
        w = Tensor((rng.uniform((2048, 128)) - 0.5).astype(dtype))
        b = Tensor(rng.uniform(128).astype(dtype))
        batch = T.dense(Tensor(x), w, b).data
        for k in range(len(x)):
            assert batch[k].tobytes() == T.dense(Tensor(x[k:k + 1]), w, b).data[0].tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


# -- backward -------------------------------------------------------------------


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(Rng(0).uniform((3, 4)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_backward_rejects_non_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2.0).backward()

    def test_backward_releases_the_graph(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = (x * x).exp()
        loss = y.sum()
        loss.backward()
        for node in (loss, y):
            assert node._parents == () and node._backward_fn is None
        np.testing.assert_allclose(x.grad, 2.0 * x.data * np.exp(x.data ** 2))

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        (x + x).sum().backward()
        assert x.grad[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("op_name", ["conv", "convt", "bn", "dense", "pointwise"])
    def test_per_op_finite_differences(self, op_name):
        rng = Rng(hash(op_name) & 0xFFFF)
        if op_name == "conv":
            x = Tensor(rng.uniform((1, 2, 6, 6)).astype(np.float64), requires_grad=True)
            w = Tensor((rng.uniform((3, 2, 3, 3)) - 0.5), requires_grad=True)
            b = Tensor(rng.uniform(3), requires_grad=True)
            params = {"x": x, "w": w, "b": b}
            loss_fn = lambda: (T.conv2d(x, w, b, 1, 1) ** 2).sum()
        elif op_name == "convt":
            x = Tensor(rng.uniform((1, 2, 3, 3)).astype(np.float64), requires_grad=True)
            w = Tensor((rng.uniform((2, 3, 4, 4)) - 0.5), requires_grad=True)
            b = Tensor(rng.uniform(3), requires_grad=True)
            params = {"x": x, "w": w, "b": b}
            loss_fn = lambda: (T.conv2d_transpose(x, w, b, 2, 1) ** 2).sum()
        elif op_name == "bn":
            x = Tensor(rng.normal((2, 3, 4, 4)), requires_grad=True)
            g = Tensor(1.0 + rng.uniform(3), requires_grad=True)
            be = Tensor(rng.uniform(3), requires_grad=True)
            params = {"x": x, "g": g, "be": be}
            loss_fn = lambda: (T.batchnorm2d(x, g, be, np.zeros(3), np.ones(3),
                                             train=True) ** 3).sum()
        elif op_name == "dense":
            x = Tensor(rng.uniform((2, 4)), requires_grad=True)
            w = Tensor((rng.uniform((4, 3)) - 0.5), requires_grad=True)
            b = Tensor(rng.uniform(3), requires_grad=True)
            params = {"x": x, "w": w, "b": b}
            loss_fn = lambda: (T.dense(x, w, b) ** 2).sum()
        else:
            x = Tensor(rng.normal(8), requires_grad=True)
            params = {"x": x}
            loss_fn = lambda: ((x.sigmoid() + x.leaky_relu(0.1)).exp()
                               * x.clamp(-0.5, 0.5)).sum()
        err = T.finite_difference_check(loss_fn, params, h=1e-5)
        assert err < 1e-3

    def test_finite_difference_check_skips_frozen(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        frozen = Tensor(np.array([5.0]), requires_grad=False)
        err = T.finite_difference_check(lambda: (x * x).sum(), {"x": x, "frozen": frozen},
                                        h=1e-6)
        assert err < 1e-5

    def test_linear_model_grad_check(self):
        rng = Rng(21)
        x = Tensor(rng.uniform((4, 3)).astype(np.float64))
        w = Tensor((rng.uniform((3, 2)) - 0.5), requires_grad=True)
        b = Tensor(rng.uniform(2), requires_grad=True)
        err = T.finite_difference_check(lambda: (T.dense(x, w, b) ** 2).sum(),
                                        {"w": w, "b": b}, h=1e-6)
        assert err < 1e-5

    def test_conv_stack_grad_check(self):
        rng = Rng(22)
        x = Tensor(rng.uniform((1, 1, 8, 8)).astype(np.float64))
        w1 = Tensor((rng.uniform((2, 1, 4, 4)) - 0.5), requires_grad=True)
        b1 = Tensor(np.zeros(2), requires_grad=True)
        w2 = Tensor((rng.uniform((2, 2, 4, 4)) - 0.5), requires_grad=True)
        b2 = Tensor(np.zeros(2), requires_grad=True)

        def loss_fn():
            h1 = T.conv2d(x, w1, b1, stride=2, pad=1).leaky_relu(0.2)
            h2 = T.conv2d(h1, w2, b2, stride=2, pad=1).sigmoid()
            return h2.sum()

        err = T.finite_difference_check(loss_fn, {"w1": w1, "b1": b1, "w2": w2, "b2": b2},
                                        h=1e-5)
        assert err < 1e-3


class TestInvariants:
    def test_nan_detection(self):
        with pytest.raises(T.NonFiniteError):
            Tensor(np.array([np.nan]))
        x = Tensor(np.array([1000.0]))
        with pytest.raises(T.NonFiniteError):
            (x * x).exp()

    def test_non_finite_output_names_its_op(self):
        x = Tensor(np.full((1, 1, 4, 4), 1e30, np.float32))
        w = Tensor(np.full((1, 1, 3, 3), 1e30, np.float32))
        b = Tensor(np.zeros(1, np.float32))
        with np.errstate(over="ignore"):
            with pytest.raises(T.NonFiniteError, match="^conv2d produced"):
                T.conv2d(x, w, b)
            with pytest.raises(T.NonFiniteError, match="^exp produced"):
                Tensor(np.array([1000.0])).exp()
        with pytest.raises(T.NonFiniteError, match="^tensor holds"):
            Tensor(np.array([np.nan]))

    def test_gradient_check_probe_that_overflows_raises(self):
        # exp(88.72) is finite in float32 and exp(88.73) is not: the probe
        # must fail like a training forward instead of scoring a perfect match.
        x = Tensor(np.array([88.72], np.float32), requires_grad=True)
        with pytest.raises(T.NonFiniteError, match="^exp produced"):
            T.finite_difference_check(lambda: x.exp().sum(), {"x": x}, h=1e-2)

    def test_gradient_check_that_raises_leaves_state_intact(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        calls = []

        def loss_fn():
            calls.append(None)
            if len(calls) == 3:             # the second probe of x[0]
                raise RuntimeError("probe failed")
            return (x * x).sum()

        with pytest.raises(RuntimeError, match="probe failed"):
            T.finite_difference_check(loss_fn, {"x": x}, h=1e-3)
        assert x.requires_grad
        np.testing.assert_array_equal(x.data, [1.0, 2.0])
        with pytest.raises(T.NonFiniteError):
            Tensor(np.array([np.inf]))

    def test_determinism(self):
        def run():
            rng = Rng(99)
            x = Tensor(rng.uniform((1, 2, 8, 8)).astype(np.float32))
            w = Tensor((rng.uniform((3, 2, 3, 3)) - 0.5).astype(np.float32))
            return T.conv2d(x, w, Tensor(np.zeros(3, np.float32)), 2, 1).data
        a, b = run(), run()
        assert np.array_equal(a, b)


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(Rng(5).uniform(16), Rng(5).uniform(16))

    def test_split_independent_of_parent_consumption(self):
        a = Rng(5)
        a.uniform(100)  # consume parent
        b = Rng(5)
        assert np.array_equal(a.split("child").uniform(8), b.split("child").uniform(8))

    def test_distinct_labels_distinct_streams(self):
        r = Rng(5)
        assert not np.array_equal(r.split("a").uniform(8), r.split("b").uniform(8))

    def test_nested_split_paths_distinct(self):
        r = Rng(5)
        assert not np.array_equal(r.split("a").split("b").uniform(8),
                                  r.split(("a", "b")).uniform(8))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            Rng(-1)

    def test_seed_beyond_64_bits_rejected(self):
        # Masking it to 64 bits would give 2**64 the stream of seed 0.
        assert Rng(2 ** 64 - 1).uniform(4).shape == (4,)
        with pytest.raises(ValueError, match="non-negative 64-bit integer"):
            Rng(2 ** 64)
