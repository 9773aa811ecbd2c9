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


def conv2d_loops(x, w):
    """3x3 cross-correlation at stride 2 and zero padding 1, with explicit
    loops; the comparison oracle."""
    bsz, cin, h, wd = x.shape
    cout = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    oh, ow = (h - 1) // 2 + 1, (wd - 1) // 2 + 1
    y = np.zeros((bsz, cout, oh, ow), dtype=x.dtype)
    for n in range(bsz):
        for co in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(3):
                            for j in range(3):
                                acc += xp[n, ci, 2 * oy + i, 2 * ox + j] * w[co, ci, i, j]
                    y[n, co, oy, ox] = acc
    return y


def depthwise_loops(x, w, b):
    """3x3 per-channel cross-correlation, stride 1 and zero padding 1, with
    explicit loops."""
    bsz, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = np.zeros((bsz, c, h, wd), dtype=x.dtype)
    for n in range(bsz):
        for ch in range(c):
            for oy in range(h):
                for ox in range(wd):
                    acc = 0.0
                    for i in range(3):
                        for j in range(3):
                            acc += xp[n, ch, oy + i, ox + j] * w[ch, 0, i, j]
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

    def test_recording_needs_a_tape_and_an_input_that_wants_a_gradient(self):
        a, c = t64([1.0]), t64([2.0], requires_grad=False)
        assert not ad.recording(a)
        with Tape():
            assert not ad.recording(c, None)
            assert not ad.recording()
            assert ad.recording(c, None, a)

    def test_recording_on_consumed_tape_raises_like_record(self):
        a, c = t64([1.0, 2.0]), t64([3.0, 4.0], requires_grad=False)
        with Tape():
            backward(ad.sum_all(a))
            with pytest.raises(AutodiffError) as from_record:
                ad.sum_all(a)
            for args in [(a,), (c,), ()]:     # even with no input that wants a gradient
                with pytest.raises(AutodiffError) as err:
                    ad.recording(*args)
                assert str(err.value) == str(from_record.value)
            for op in (ad.relu, ad.gelu, ad.silu, ad.softplus):
                with pytest.raises(AutodiffError, match="consumed"):
                    op(c)

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


class TestGradientRouting:
    """Gradients pass from node to node; a node keeps no output data."""

    def test_fan_out_accumulates_both_contributions(self):
        a, c = t64([1.0, -2.0, 3.0]), t64([0.5, 4.0, -1.0], requires_grad=False)
        with Tape():
            h = ad.mul(a, c)                                  # an intermediate used twice
            y = ad.sum_all(ad.add(ad.mul(h, h), ad.scale(h, 3.0)))
        backward(y)
        np.testing.assert_allclose(a.grad, (2 * a.data * c.data + 3.0) * c.data)

    def test_residual_accumulates_both_contributions(self):
        a = t64([0.5, -1.5, 2.0])
        with Tape():
            h = ad.scale(a, 2.0)
            y = ad.sum_all(ad.add(h, ad.relu(h)))             # h + relu(h)
        backward(y)
        np.testing.assert_allclose(a.grad, 2.0 * (1.0 + (a.data > 0)))

    def test_held_intermediate_gets_the_gradient_that_reached_it(self):
        a = t64([1.0, -2.0, 3.0])
        with Tape():
            h = ad.scale(a, 3.0)
            y = ad.sum_all(ad.add(ad.mul(h, h), h))
        backward(y)
        np.testing.assert_allclose(h.grad, 2 * h.data + 1.0)
        np.testing.assert_allclose(a.grad, 3.0 * h.grad)
        assert y.grad is not None and y.grad.shape == y.shape

    def test_output_of_a_consumed_tape_is_a_leaf_on_a_new_tape(self):
        a, c = t64([1.0, -2.0]), t64([5.0, 7.0], requires_grad=False)
        with Tape():
            h = ad.mul(a, a)
            y = ad.sum_all(h)
        backward(y)
        np.testing.assert_allclose(h.grad, [1.0, 1.0])
        a_grad = a.grad.copy()
        with Tape() as tape:
            z = ad.sum_all(ad.mul(h, c))
        assert len(tape) == 2
        backward(z)
        np.testing.assert_allclose(h.grad, 1.0 + c.data)      # accumulated as a leaf's
        np.testing.assert_array_equal(a.grad, a_grad)         # nothing flows past h

    @pytest.mark.parametrize("op", ["linear", "conv2d", "depthwise_conv2d", "layer_norm"])
    def test_an_input_without_grad_gets_none_and_the_rest_keep_their_bits(self, rng, op):
        # every vjp computes all of its gradients; backward drops the one no link wants
        shapes, f = {
            "linear": ([(2, 3, 5), (4, 5), (4,)], ad.linear),
            "conv2d": ([(2, 5, 5, 3), (4, 3, 3, 3)], ad.conv2d),
            "depthwise_conv2d": ([(2, 5, 5, 3), (3, 1, 3, 3), (3,)], ad.depthwise_conv2d),
            "layer_norm": ([(2, 3, 5), (5,), (5,)], ad.layer_norm),
        }[op]
        data = [rng.normal(size=shape).astype(np.float32) for shape in shapes]

        def grads(frozen):
            ins = [Tensor(d, requires_grad=i != frozen) for i, d in enumerate(data)]
            with Tape():
                y = f(*ins)
                loss = ad.sum_all(ad.mul(y, Tensor(np.cos(np.arange(y.size)).reshape(y.shape))))
            backward(loss)
            return [t.grad for t in ins]

        full = grads(None)
        for frozen in range(len(data)):
            got = grads(frozen)
            assert got[frozen] is None
            for i, (g, want) in enumerate(zip(got, full)):
                if i != frozen:
                    assert g.dtype == want.dtype and g.tobytes() == want.tobytes(), (frozen, i)


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

        assert_grads_ok(f, [x])             # a taped node computes it as it records


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

    @pytest.mark.parametrize("shape", [(5,), (4, 5, 3, 3), (4, 5, 1), (4, 5, 1, 2)])
    def test_rejects_weights_that_are_not_a_matrix(self, shape):
        with pytest.raises(ShapeMismatch):
            ad.linear(t64(np.zeros((2, 5))), t64(np.zeros(shape)))


class TestNodeRebuild:
    """A recorded bias-free linear's node rebuilds its output from the
    operands its vjp holds; no other op offers a rebuild."""

    @pytest.mark.parametrize("dtype", [np.float32, F64], ids=["f32", "f64"])
    @pytest.mark.parametrize("wshape", [(6, 5), (6, 5, 1, 1)], ids=["matrix", "pointwise"])
    @pytest.mark.parametrize("xshape", [(7, 5), (2, 3, 4, 5)], ids=["2d", "4d"])
    def test_bias_free_linear_rebuilds_its_exact_bytes(self, rng, dtype, wshape, xshape):
        x = Tensor(rng.normal(size=xshape), requires_grad=True, dtype=dtype)
        w = Tensor(rng.normal(size=wshape), requires_grad=True, dtype=dtype)
        with Tape():
            y = ad.linear(x, w)
        want, node = y.data.copy(), y._node
        del y     # the rebuild holds the output's shape, not the output
        assert node.out() is None
        got = node.rebuild()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_no_other_recorded_op_offers_a_rebuild(self, rng):
        x2, w2, b = t64(rng.normal(size=(7, 5))), t64(rng.normal(size=(6, 5))), t64(np.zeros(6))
        x4 = t64(rng.normal(size=(1, 6, 6, 3)))
        with Tape():
            outs = [ad.linear(x2, w2, b), ad.conv2d(x4, t64(rng.normal(size=(2, 3, 3, 3)))),
                    ad.depthwise_conv2d(x4, t64(rng.normal(size=(3, 1, 3, 3))))]
        assert all(y._node is not None and y._node.rebuild is None for y in outs)

    def test_an_unrecorded_linear_has_no_node(self, rng):
        x, w = rng.normal(size=(7, 5)), rng.normal(size=(6, 5))
        untaped = ad.linear(t64(x), t64(w))
        with Tape():
            no_grad = ad.linear(t64(x, requires_grad=False), t64(w, requires_grad=False))
        assert untaped._node is None and no_grad._node is None

    def test_backward_clears_the_rebuild(self, rng):
        x, w = t64(rng.normal(size=(7, 5))), t64(rng.normal(size=(6, 5)))
        with Tape():
            y = ad.linear(x, w)
            loss = ad.sum_all(y)
        node = y._node
        assert node.rebuild is not None
        backward(loss)
        assert node.rebuild is None and w.grad is not None


class TestConv2d:
    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(2, 3, 7, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        y = ad.conv2d(t64(nhwc(x)), t64(w))
        np.testing.assert_allclose(nchw(y.data), conv2d_loops(x, w), atol=1e-10)

    def test_output_shape_formula(self, rng):
        x = t64(rng.normal(size=(1, 11, 7, 2)))
        y = ad.conv2d(x, t64(rng.normal(size=(3, 2, 3, 3))))
        assert y.shape == (1, (11 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1, 3)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(t64(np.zeros((1, 4, 4, 3))), t64(np.zeros((2, 4, 3, 3))))

    @pytest.mark.parametrize("kernel", [(1, 1), (5, 5), (3, 1)])
    def test_only_the_3x3_kernel(self, kernel):
        with pytest.raises(ShapeMismatch):
            ad.conv2d(t64(np.zeros((1, 6, 6, 3))), t64(np.zeros((2, 3) + kernel)))

    @pytest.mark.parametrize("knob", ["stride", "padding", "b"])
    def test_stride_and_padding_are_not_arguments(self, knob):
        # the op is the model's one 3x3 conv: stride 2, padding 1, no bias
        with pytest.raises(TypeError):
            ad.conv2d(t64(np.zeros((1, 6, 6, 3))), t64(np.zeros((2, 3, 3, 3))),
                      **{knob: t64(np.zeros(2)) if knob == "b" else 1})


class TestDepthwiseConv2d:
    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(2, 4, 6, 5))
        w = rng.normal(size=(4, 1, 3, 3))
        b = rng.normal(size=4)
        y = ad.depthwise_conv2d(t64(nhwc(x)), t64(w), t64(b))
        assert y.shape == (2, 6, 5, 4)
        np.testing.assert_allclose(nchw(y.data), depthwise_loops(x, w, b), atol=1e-12)

    def test_channels_stay_separate(self, rng):
        # zeroing one channel's kernel must zero exactly that output channel
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(3, 1, 3, 3))
        w[1] = 0.0
        y = ad.depthwise_conv2d(t64(nhwc(x)), t64(w))
        assert np.all(y.data[..., 1] == 0.0)
        assert np.any(y.data[..., 0] != 0.0)

    def test_weight_shape_validated(self):
        with pytest.raises(ShapeMismatch):
            ad.depthwise_conv2d(t64(np.zeros((1, 4, 4, 3))), t64(np.zeros((4, 1, 3, 3))))

    @pytest.mark.parametrize("kernel", [(5, 5), (3, 1)])
    def test_only_the_3x3_kernel(self, kernel):
        with pytest.raises(ShapeMismatch):
            ad.depthwise_conv2d(t64(np.zeros((1, 6, 6, 3))), t64(np.zeros((3, 1) + kernel)))

    @pytest.mark.parametrize("knob", ["stride", "padding"])
    def test_stride_and_padding_are_not_arguments(self, knob):
        # the op is the model's one 3x3 "same" filter: stride 1, padding 1
        with pytest.raises(TypeError):
            ad.depthwise_conv2d(t64(np.zeros((1, 6, 6, 3))), t64(np.zeros((3, 1, 3, 3))),
                                **{knob: 1})


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

    @pytest.mark.parametrize("conv, shape", [("linear", (5, 3, 1, 1)),
                                             ("depthwise_conv2d", (3, 1, 3, 3))])
    def test_fold_equals_eval_batch_norm_after_the_conv(self, rng, conv, shape):
        x = t64(nhwc(rng.normal(size=(2, 3, 4, 5))))
        w = t64(rng.normal(size=shape))
        c = shape[0]
        gamma, beta = t64(rng.uniform(0.5, 1.5, c)), t64(rng.normal(size=c))
        rm, rv = rng.normal(size=c), rng.uniform(0.5, 2.0, c)
        op = getattr(ad, conv)
        want = ad.batch_norm(op(x, w), gamma, beta, rm, rv, training=False).data
        got = op(x, *ad.fold_batch_norm(w, gamma, beta, rm, rv)).data
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_fold_rejects_statistics_of_another_width(self):
        with pytest.raises(ShapeMismatch):
            ad.fold_batch_norm(t64(np.ones((4, 3, 1, 1))), t64(np.ones(3)), t64(np.zeros(3)),
                               np.zeros(3), np.ones(3))

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

    @staticmethod
    def resize_with_grad(m, g, out, dtype):
        """bilinear_resize of m to out and m's gradient under upstream g."""
        mt = Tensor(m, requires_grad=True, dtype=dtype)
        with Tape():
            y = ad.bilinear_resize(mt, *out)
            backward(ad.sum_all(ad.mul(y, Tensor(g, dtype=dtype))))
        return y.data, mt.grad

    def test_bilinear_same_size_is_bitwise_identity(self, rng):
        # forward and vjp: at the native grid nano and S@224 keep their bits
        for dtype in (np.float64, np.float32):
            m, g = (rng.normal(size=(3, 4, 5)).astype(dtype) for _ in range(2))
            y, gm = self.resize_with_grad(m, g, (4, 5), dtype)
            assert y.dtype == dtype and gm.dtype == dtype
            assert y.tobytes() == m.tobytes()
            assert gm.tobytes() == g.tobytes()

    @pytest.mark.parametrize("shape, out", [((576, 7, 7), (14, 14)), ((64, 4, 4), (8, 8)),
                                            ((32, 7, 9), (13, 5))])
    def test_bilinear_float32_tracks_float64(self, rng, shape, out):
        m, g = rng.normal(size=shape), rng.normal(size=(shape[0], *out))
        ref = self.resize_with_grad(m, g, out, np.float64)
        got = self.resize_with_grad(m, g, out, np.float32)
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-7 * np.abs(b).max()

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

    def test_conv2d(self, rng):
        x = t64(nhwc(rng.normal(size=(2, 2, 5, 4))), name="x")
        w = t64(rng.normal(size=(3, 2, 3, 3)), name="w")

        def f():
            y = ad.conv2d(x, w)
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [x, w])

    def test_depthwise_conv2d(self, rng):
        x = t64(nhwc(rng.normal(size=(2, 3, 5, 5))), name="x")
        w = t64(rng.normal(size=(3, 1, 3, 3)), name="w")
        b = t64(rng.normal(size=3), name="b")

        def f():
            y = ad.depthwise_conv2d(x, w, b)
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

    @pytest.mark.parametrize("conv, shape", [("linear", (5, 3, 1, 1)),
                                             ("depthwise_conv2d", (3, 1, 3, 3))])
    def test_fold_batch_norm(self, rng, conv, shape):
        x = t64(nhwc(rng.normal(size=(2, 3, 4, 4))), name="x")
        w = t64(rng.normal(size=shape), name="w")
        c = shape[0]
        gamma = t64(rng.uniform(0.5, 1.5, size=c), name="gamma")
        beta = t64(rng.normal(size=c), name="beta")
        rm = rng.normal(size=c)
        rv = rng.uniform(0.5, 2.0, size=c)

        def f():
            y = getattr(ad, conv)(x, *ad.fold_batch_norm(w, gamma, beta, rm, rv))
            return ad.sum_all(ad.mul(y, y))

        assert_grads_ok(f, [x, w, gamma, beta])

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
