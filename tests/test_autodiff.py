"""Tensor engine tests.

Value oracles are computed in-test with straight-line numpy (naive loop
convolutions, explicit normalization formulas, frozen activation constants)
so they cannot share bugs with the engine. Every op also gets a
finite-difference gradient sweep in float64.
"""

import numpy as np
import pytest

import vcmamba.autodiff as ad
from vcmamba.autodiff import AutodiffError, ShapeMismatch, Tape, Tensor, backward
from vcmamba.gradcheck import finite_diff_check

F64 = np.float64


def t64(data, requires_grad=True, name=None):
    return Tensor(np.asarray(data, dtype=F64), requires_grad=requires_grad,
                  name=name, dtype=F64)


def nhwc(a):
    """(B, C, H, W) -> channels-last (B, H, W, C), the layout the map ops take."""
    return np.moveaxis(a, 1, -1)


def nchw(a):
    return np.moveaxis(a, -1, 1)


def assert_grads_ok(f, wrt, **kw):
    report = finite_diff_check(f, wrt, **kw)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# independent oracles


def conv2d_loops(x, w, b, stride, padding):
    """Cross-correlation with explicit loops; the comparison oracle."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    y = np.zeros((bsz, cout, oh, ow), dtype=x.dtype)
    for n in range(bsz):
        for co in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[n, ci, oy * stride + i, ox * stride + j] * w[co, ci, i, j]
                    y[n, co, oy, ox] = acc + (0.0 if b is None else b[co])
    return y


def depthwise_loops(x, w, b, stride, padding):
    bsz, c, h, wd = x.shape
    _, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    y = np.zeros((bsz, c, oh, ow), dtype=x.dtype)
    for n in range(bsz):
        for ch in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for i in range(kh):
                        for j in range(kw):
                            acc += xp[n, ch, oy * stride + i, ox * stride + j] * w[ch, 0, i, j]
                    y[n, ch, oy, ox] = acc + (0.0 if b is None else b[ch])
    return y


# ---------------------------------------------------------------------------
# tensors and tape mechanics


class TestTensor:
    def test_default_dtype_is_float32(self):
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float32

    def test_explicit_float64(self):
        t = Tensor([1.0], dtype=F64)
        assert t.dtype == F64

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeMismatch):
            Tensor([1.0, 2.0]).item()

    def test_item_value(self):
        assert Tensor(3.5).item() == 3.5

    def test_shape_size_ndim(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4) and t.ndim == 3 and t.size == 24


class TestTapeMechanics:
    def test_no_recording_outside_tape(self):
        a = t64([1.0, 2.0])
        y = ad.sum_all(a)
        assert not y.requires_grad and y._tape is None

    def test_backward_without_tape_raises(self):
        y = ad.sum_all(t64([1.0]))
        with pytest.raises(AutodiffError, match="not attached to a tape"):
            backward(y)

    def test_backward_twice_raises(self):
        a = t64([1.0, 2.0])
        with Tape():
            y = ad.sum_all(a)
        backward(y)
        with pytest.raises(AutodiffError, match="already ran"):
            backward(y)

    def test_recording_on_consumed_tape_raises(self):
        a = t64([1.0, 2.0])
        with Tape():
            y = ad.sum_all(a)
            backward(y)
            with pytest.raises(AutodiffError, match="consumed"):
                ad.sum_all(a)

    def test_nonscalar_loss_raises(self):
        a = t64([1.0, 2.0])
        with Tape():
            y = ad.relu(a)
        with pytest.raises(AutodiffError, match="scalar"):
            backward(y)

    def test_sum_gradient_is_ones(self):
        a = t64(np.arange(6.0).reshape(2, 3))
        with Tape():
            y = ad.sum_all(a)
        backward(y)
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))

    def test_grads_accumulate_across_tapes(self):
        a = t64([1.0, -2.0])
        for _ in range(2):
            with Tape():
                y = ad.sum_all(ad.mul(a, a))
            backward(y)
        np.testing.assert_allclose(a.grad, 2 * 2 * a.data)

    def test_constant_inputs_get_no_grad(self):
        a = t64([1.0, 2.0])
        c = t64([3.0, 4.0], requires_grad=False)
        with Tape():
            y = ad.sum_all(ad.mul(a, c))
        backward(y)
        assert c.grad is None
        np.testing.assert_allclose(a.grad, c.data)

    def test_backward_is_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            a = t64(rng.normal(size=(3, 4)))
            w = t64(rng.normal(size=(2, 4)))
            with Tape():
                y = ad.sum_all(ad.gelu(ad.linear(a, w)))
            backward(y)
            return y.item(), a.grad.copy(), w.grad.copy()

        l1, ga1, gw1 = run()
        l2, ga2, gw2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(ga1, ga2)
        np.testing.assert_array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# elementwise and shape ops


class TestElementwise:
    def test_add_sub_mul_values(self):
        a, b = t64([1.0, 2.0]), t64([3.0, -4.0])
        np.testing.assert_array_equal(ad.add(a, b).data, [4.0, -2.0])
        np.testing.assert_array_equal(ad.sub(a, b).data, [-2.0, 6.0])
        np.testing.assert_array_equal(ad.mul(a, b).data, [3.0, -8.0])

    def test_binary_ops_reject_broadcasting(self):
        a, b = t64(np.zeros((2, 3))), t64(np.zeros(3))
        for op in (ad.add, ad.sub, ad.mul):
            with pytest.raises(ShapeMismatch) as err:
                op(a, b)
            assert "(2, 3)" in str(err.value) and "(3,)" in str(err.value)

    def test_scale_add_scalar(self):
        a = t64([1.0, -2.0])
        np.testing.assert_array_equal(ad.scale(a, 2.5).data, [2.5, -5.0])
        np.testing.assert_array_equal(ad.add_scalar(a, 1.0).data, [2.0, -1.0])

    def test_operator_sugar(self):
        a, b = t64([2.0]), t64([3.0])
        assert (a + b).item() == 5.0
        assert (a - b).item() == -1.0
        assert (a * b).item() == 6.0
        assert (-a).item() == -2.0
        assert (a * 2.0).item() == 4.0
        assert (a + 1.0).item() == 3.0

    def test_mean_all(self):
        assert ad.mean_all(t64([1.0, 2.0, 3.0, 6.0])).item() == 3.0


class TestShapeOps:
    def test_reshape_roundtrip(self, rng):
        a = t64(rng.normal(size=(2, 3, 4)))
        y = ad.reshape(a, (4, 6))
        np.testing.assert_array_equal(y.data, a.data.reshape(4, 6))

    def test_reshape_bad_size_raises(self):
        with pytest.raises(ShapeMismatch):
            ad.reshape(t64(np.zeros((2, 3))), (4, 4))

    def test_moveaxis(self, rng):
        a = t64(rng.normal(size=(2, 3, 4)))
        y = ad.moveaxis(a, 1, -1)
        assert y.shape == (2, 4, 3)
        np.testing.assert_array_equal(y.data, np.moveaxis(a.data, 1, -1))

    def test_take_last_values(self):
        a = t64([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        y = ad.take_last(a, np.array([2, 0, 0]))
        np.testing.assert_array_equal(y.data, [[3.0, 1.0, 1.0], [6.0, 4.0, 4.0]])

    def test_take_last_repeated_index_accumulates_grad(self):
        a = t64([1.0, 2.0, 3.0])
        with Tape():
            y = ad.sum_all(ad.take_last(a, np.array([0, 0, 2])))
        backward(y)
        np.testing.assert_array_equal(a.grad, [2.0, 0.0, 1.0])

    def test_take_last_out_of_range_raises(self):
        with pytest.raises(ShapeMismatch):
            ad.take_last(t64([1.0, 2.0]), np.array([2]))


# ---------------------------------------------------------------------------
# activations: frozen constants


class TestActivations:
    def test_relu_table(self):
        y = ad.relu(t64([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(y.data, [0.0, 0.0, 3.0])

    def test_gelu_frozen_values(self):
        y = ad.gelu(t64([0.0, 1.0, -1.0]))
        np.testing.assert_allclose(
            y.data, [0.0, 0.8413447460685429, -0.15865525393145707], atol=1e-12)

    def test_silu_frozen_value(self):
        assert ad.silu(t64([1.0])).item() == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_softplus_frozen_value(self):
        assert ad.softplus(t64([0.0])).item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_softplus_is_stable(self):
        # finite everywhere; positive down to the float64 underflow floor
        y = ad.softplus(t64([-1e4, -700.0, -20.0, 0.0, 20.0, 1e4]))
        assert np.all(np.isfinite(y.data)) and np.all(y.data >= 0)
        assert np.all(y.data[1:] > 0)
        assert y.data[-1] == pytest.approx(1e4)

    @pytest.mark.parametrize("op, owner, name", [(ad.gelu, np, "exp"),
                                                 (ad.softplus, ad, "expit")])
    def test_slope_is_computed_only_by_the_tape(self, rng, monkeypatch, op, owner, name):
        x = t64(rng.normal(size=(3, 4)), name="x")

        def refuse(*args, **kwargs):
            raise AssertionError(f"{op.__name__} called {name} outside a tape")

        with monkeypatch.context() as m:     # no tape: nothing will read the slope
            m.setattr(owner, name, refuse)
            op(x)

        def f():
            y = op(x)
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [x])             # inside a tape the vjp computes it


# ---------------------------------------------------------------------------
# linear / conv layers against loop oracles


class TestLinear:
    def test_identity_weight(self):
        y = ad.linear(t64([1.0, 2.0, 3.0]), t64(np.eye(3)), t64([1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(y.data, [2.0, 3.0, 4.0])

    def test_batched_matmul_oracle(self, rng):
        x = rng.normal(size=(2, 5, 3))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        y = ad.linear(t64(x), t64(w), t64(b))
        expected = np.einsum("bld,od->blo", x, w) + b
        np.testing.assert_allclose(y.data, expected, atol=1e-12)

    def test_feature_mismatch_raises(self):
        with pytest.raises(ShapeMismatch) as err:
            ad.linear(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))))
        assert "3" in str(err.value) and "5" in str(err.value)


class TestConv2d:
    def test_ones_kernel_counts_window(self):
        x = t64(np.ones((1, 3, 3, 1)))
        w = t64(np.ones((1, 1, 2, 2)))
        y = ad.conv2d(x, w)
        np.testing.assert_array_equal(y.data, np.full((1, 2, 2, 1), 4.0))

    def test_matches_loop_oracle(self, rng):
        for stride, padding, kh, kw in [(1, 0, 3, 3), (2, 1, 3, 3), (1, 2, 2, 3), (3, 0, 1, 1)]:
            x = rng.normal(size=(2, 3, 7, 6))
            w = rng.normal(size=(4, 3, kh, kw))
            b = rng.normal(size=4)
            y = ad.conv2d(t64(nhwc(x)), t64(w), t64(b), stride=stride, padding=padding)
            np.testing.assert_allclose(nchw(y.data), conv2d_loops(x, w, b, stride, padding),
                                       atol=1e-10)

    def test_output_shape_formula(self, rng):
        for h, wd, k, s, p in [(11, 7, 3, 2, 1), (8, 8, 5, 3, 2), (6, 9, 1, 1, 0)]:
            x = t64(rng.normal(size=(1, h, wd, 2)))
            w = t64(rng.normal(size=(3, 2, k, k)))
            y = ad.conv2d(x, w, stride=s, padding=p)
            oh = (h + 2 * p - k) // s + 1
            ow = (wd + 2 * p - k) // s + 1
            assert y.shape == (1, oh, ow, 3)

    def test_kernel_larger_than_input_raises(self):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(t64(np.zeros((1, 1, 2, 2))), t64(np.zeros((1, 1, 5, 5))))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(t64(np.zeros((1, 4, 4, 3))), t64(np.zeros((2, 4, 3, 3))))


class TestDepthwiseConv2d:
    def test_matches_loop_oracle(self, rng):
        for stride, padding in [(1, 1), (2, 1), (1, 0)]:
            x = rng.normal(size=(2, 4, 6, 5))
            w = rng.normal(size=(4, 1, 3, 3))
            b = rng.normal(size=4)
            y = ad.depthwise_conv2d(t64(nhwc(x)), t64(w), t64(b), stride=stride,
                                    padding=padding)
            np.testing.assert_allclose(nchw(y.data), depthwise_loops(x, w, b, stride, padding),
                                       atol=1e-12)

    def test_channels_stay_separate(self, rng):
        # zeroing one channel's kernel must zero exactly that output channel
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(3, 1, 3, 3))
        w[1] = 0.0
        y = ad.depthwise_conv2d(t64(nhwc(x)), t64(w), padding=1)
        assert np.all(y.data[..., 1] == 0.0)
        assert np.any(y.data[..., 0] != 0.0)

    def test_weight_shape_validated(self):
        with pytest.raises(ShapeMismatch):
            ad.depthwise_conv2d(t64(np.zeros((1, 4, 4, 3))), t64(np.zeros((4, 1, 3, 3))))


# ---------------------------------------------------------------------------
# normalization


class TestBatchNorm:
    def _stats(self, c):
        return np.zeros(c, dtype=F64), np.ones(c, dtype=F64)

    def test_train_normalizes_batch(self, rng):
        x = t64(nhwc(rng.normal(loc=3.0, scale=2.0, size=(4, 3, 5, 5))))
        gamma, beta = t64(np.ones(3)), t64(np.zeros(3))
        rm, rv = self._stats(3)
        y = ad.batch_norm(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(y.data.mean(axis=(0, 1, 2)), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.data.var(axis=(0, 1, 2)), 1.0, atol=1e-4)

    def test_train_constant_channel_maps_to_beta(self):
        x = t64(np.full((2, 3, 3, 2), 7.0))
        gamma, beta = t64([2.0, 2.0]), t64([0.5, -0.5])
        rm, rv = self._stats(2)
        y = ad.batch_norm(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(y.data[..., 0], 0.5, atol=1e-6)
        np.testing.assert_allclose(y.data[..., 1], -0.5, atol=1e-6)

    def test_running_stats_update_formula(self, rng):
        x = rng.normal(loc=1.0, size=(2, 3, 4, 4))
        rm, rv = self._stats(3)
        ad.batch_norm(t64(nhwc(x)), t64(np.ones(3)), t64(np.zeros(3)), rm, rv,
                      training=True, momentum=0.1)
        n = 2 * 4 * 4
        mean = x.mean(axis=(0, 2, 3))
        unbiased = x.var(axis=(0, 2, 3)) * n / (n - 1)
        np.testing.assert_allclose(rm, 0.9 * 0.0 + 0.1 * mean, atol=1e-12)
        np.testing.assert_allclose(rv, 0.9 * 1.0 + 0.1 * unbiased, atol=1e-12)

    def test_eval_uses_running_stats(self, rng):
        x = rng.normal(size=(2, 2, 3, 3))
        gamma, beta = t64([1.5, 0.5]), t64([0.1, -0.2])
        rm = np.array([0.3, -0.4])
        rv = np.array([1.2, 0.8])
        y = ad.batch_norm(t64(nhwc(x)), gamma, beta, rm.copy(), rv.copy(), training=False)
        expected = (gamma.data[None, :, None, None]
                    * (x - rm[None, :, None, None]) / np.sqrt(rv[None, :, None, None] + 1e-5)
                    + beta.data[None, :, None, None])
        np.testing.assert_allclose(nchw(y.data), expected, atol=1e-12)

    def test_eval_leaves_running_stats_alone(self, rng):
        rm, rv = self._stats(2)
        ad.batch_norm(t64(rng.normal(size=(2, 3, 3, 2))), t64(np.ones(2)), t64(np.zeros(2)),
                      rm, rv, training=False)
        np.testing.assert_array_equal(rm, 0.0)
        np.testing.assert_array_equal(rv, 1.0)


class TestLayerNorm:
    def test_matches_formula(self, rng):
        x = rng.normal(size=(2, 5, 6))
        gamma = rng.normal(size=6)
        beta = rng.normal(size=6)
        y = ad.layer_norm(t64(x), t64(gamma), t64(beta))
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        expected = gamma * (x - mean) / np.sqrt(var + 1e-5) + beta
        np.testing.assert_allclose(y.data, expected, atol=1e-12)

    def test_normalizes_last_axis(self, rng):
        x = t64(rng.normal(loc=5.0, scale=3.0, size=(4, 8)))
        y = ad.layer_norm(x, t64(np.ones(8)), t64(np.zeros(8)))
        np.testing.assert_allclose(y.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.data.var(axis=-1), 1.0, atol=1e-4)


# ---------------------------------------------------------------------------
# spatial ops and loss


class TestSpatialOps:
    def test_add_map_broadcasts_over_batch(self, rng):
        x = rng.normal(size=(3, 2, 4, 4))
        m = rng.normal(size=(2, 4, 4))
        y = ad.add_map(t64(x), t64(m))
        np.testing.assert_allclose(y.data, x + m[None], atol=1e-12)

    def test_add_map_shape_validated(self):
        with pytest.raises(ShapeMismatch):
            ad.add_map(t64(np.zeros((1, 2, 4, 4))), t64(np.zeros((2, 4, 5))))

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        y = ad.global_avg_pool(t64(x))
        np.testing.assert_allclose(y.data, x.mean(axis=(2, 3)), atol=1e-12)

    def test_bilinear_same_size_is_bitwise_identity(self, rng):
        m = t64(rng.normal(size=(3, 4, 5)))
        y = ad.bilinear_resize(m, 4, 5)
        np.testing.assert_array_equal(y.data, m.data)

    def test_bilinear_2x2_to_3x3_oracle(self):
        m = t64([[[1.0, 2.0], [3.0, 4.0]]])
        y = ad.bilinear_resize(m, 3, 3)
        expected = np.array([[[1.0, 1.5, 2.0], [2.0, 2.5, 3.0], [3.0, 3.5, 4.0]]])
        np.testing.assert_allclose(y.data, expected, atol=1e-12)

    def test_bilinear_corners_map_to_corners(self, rng):
        m = rng.normal(size=(2, 3, 4))
        y = ad.bilinear_resize(t64(m), 7, 9)
        np.testing.assert_allclose(y.data[:, 0, 0], m[:, 0, 0], atol=1e-12)
        np.testing.assert_allclose(y.data[:, -1, -1], m[:, -1, -1], atol=1e-12)
        np.testing.assert_allclose(y.data[:, 0, -1], m[:, 0, -1], atol=1e-12)
        np.testing.assert_allclose(y.data[:, -1, 0], m[:, -1, 0], atol=1e-12)

    def test_bilinear_constant_stays_constant(self):
        m = t64(np.full((2, 1, 1), 3.25))
        y = ad.bilinear_resize(m, 5, 7)
        np.testing.assert_array_equal(y.data, np.full((2, 5, 7), 3.25))


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = t64(np.zeros((4, 10)))
        loss = ad.softmax_cross_entropy(logits, np.arange(4))
        assert loss.item() == pytest.approx(np.log(10.0), abs=1e-12)

    def test_confident_correct_logit_gives_small_loss(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 50.0
        loss = ad.softmax_cross_entropy(t64(logits), np.array([2]))
        assert loss.item() < 1e-8

    def test_shift_invariance(self, rng):
        z = rng.normal(size=(3, 7))
        labels = np.array([0, 3, 6])
        a = ad.softmax_cross_entropy(t64(z), labels).item()
        b = ad.softmax_cross_entropy(t64(z + 1000.0), labels).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_label_validation(self):
        logits = t64(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            ad.softmax_cross_entropy(logits, np.array([0, 3]))
        with pytest.raises(ShapeMismatch):
            ad.softmax_cross_entropy(logits, np.array([0.0, 1.0]))
        with pytest.raises(ShapeMismatch):
            ad.softmax_cross_entropy(logits, np.array([0]))


# ---------------------------------------------------------------------------
# finite-difference sweep over every op


class TestGradients:
    def test_elementwise_and_reductions(self, rng):
        a = t64(rng.normal(size=(3, 4)), name="a")
        b = t64(rng.normal(size=(3, 4)), name="b")

        def f():
            s = ad.add(ad.mul(a, b), ad.sub(a, b))
            s = ad.add_scalar(ad.scale(s, 0.7), 0.3)
            return ad.add(ad.mean_all(s), ad.sum_all(ad.mul(s, s)))

        assert_grads_ok(f, [a, b])

    def test_activations(self, rng):
        base = rng.uniform(0.1, 1.5, size=(2, 5)) * rng.choice([-1.0, 1.0], size=(2, 5))
        x = t64(base, name="x")  # kept away from the relu kink

        def f():
            y = ad.add(ad.relu(x), ad.gelu(x))
            y = ad.add(y, ad.silu(x))
            y = ad.add(y, ad.softplus(x))
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [x])

    def test_shape_ops(self, rng):
        x = t64(rng.normal(size=(2, 3, 4)), name="x")
        idx = np.array([3, 0, 0, 2])

        def f():
            y = ad.moveaxis(ad.reshape(x, (3, 2, 4)), 0, 1)
            y = ad.take_last(y, idx)
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [x])

    def test_linear(self, rng):
        x = t64(rng.normal(size=(2, 3, 4)), name="x")
        w = t64(rng.normal(size=(5, 4)), name="w")
        b = t64(rng.normal(size=5), name="b")

        def f():
            return ad.sum_all(ad.gelu(ad.linear(x, w, b)))

        assert_grads_ok(f, [x, w, b])

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 2)])
    def test_conv2d(self, rng, stride, padding):
        x = t64(nhwc(rng.normal(size=(2, 2, 5, 4))), name="x")
        w = t64(rng.normal(size=(3, 2, 3, 2)), name="w")
        b = t64(rng.normal(size=3), name="b")

        def f():
            y = ad.conv2d(x, w, b, stride=stride, padding=padding)
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [x, w, b])

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_depthwise_conv2d(self, rng, stride, padding):
        x = t64(nhwc(rng.normal(size=(2, 3, 5, 5))), name="x")
        w = t64(rng.normal(size=(3, 1, 3, 3)), name="w")
        b = t64(rng.normal(size=3), name="b")

        def f():
            y = ad.depthwise_conv2d(x, w, b, stride=stride, padding=padding)
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [x, w, b])

    def test_batch_norm_training(self, rng):
        x = t64(nhwc(rng.normal(size=(3, 2, 4, 4))), name="x")
        gamma = t64(rng.uniform(0.5, 1.5, size=2), name="gamma")
        beta = t64(rng.normal(size=2), name="beta")
        rm, rv = np.zeros(2), np.ones(2)

        def f():
            y = ad.batch_norm(x, gamma, beta, rm, rv, training=True)
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [x, gamma, beta])

    def test_batch_norm_eval(self, rng):
        x = t64(nhwc(rng.normal(size=(2, 2, 3, 3))), name="x")
        gamma = t64(rng.uniform(0.5, 1.5, size=2), name="gamma")
        beta = t64(rng.normal(size=2), name="beta")
        rm = rng.normal(size=2)
        rv = rng.uniform(0.5, 2.0, size=2)

        def f():
            y = ad.batch_norm(x, gamma, beta, rm, rv, training=False)
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [x, gamma, beta])

    def test_layer_norm(self, rng):
        x = t64(rng.normal(size=(2, 3, 6)), name="x")
        gamma = t64(rng.uniform(0.5, 1.5, size=6), name="gamma")
        beta = t64(rng.normal(size=6), name="beta")

        def f():
            y = ad.layer_norm(x, gamma, beta)
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [x, gamma, beta])

    def test_add_map_and_pool(self, rng):
        x = t64(rng.normal(size=(2, 3, 4, 4)), name="x")
        m = t64(rng.normal(size=(3, 4, 4)), name="m")

        def f():
            y = ad.global_avg_pool(ad.add_map(x, m))
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [x, m])

    def test_bilinear_resize(self, rng):
        m = t64(rng.normal(size=(2, 3, 5)), name="m")

        def f():
            y = ad.bilinear_resize(m, 4, 7)
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [m])

    def test_softmax_cross_entropy(self, rng):
        logits = t64(rng.normal(size=(4, 6)), name="logits")
        labels = np.array([0, 2, 5, 2])

        def f():
            return ad.softmax_cross_entropy(logits, labels)

        assert_grads_ok(f, [logits])
