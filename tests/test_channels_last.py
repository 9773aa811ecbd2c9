"""The channels-last conv stack against the NCHW bodies it replaced.

The references below are the earlier NCHW implementations of conv2d,
depthwise_conv2d and training-mode batch_norm, forward and vjp, written out
in plain numpy. The new layout keeps their bits in every forward output, the
running statistics, the gradients of the convs (the pointwise ones now run as
linear) and the depthwise input gradient. The batch-norm statistics are still
taken over a (B, C, H, W) copy for that.

The per-channel gradient sums over B*H*W (batch norm's gamma and beta
gradients, the depthwise weight and bias gradients) read the channels-last
rows into a float64 accumulator instead, so they land on other bits than the
NCHW sums. They are checked per channel against an exactly summed oracle,
within a rounding bound of the sum of the terms' magnitudes, and batch
norm's input gradient, which uses them, within a few eps of the NCHW one.

Batch norm's vjp rebuilds xhat from its input, and the depthwise vjp re-pads
its input, instead of keeping either from the forward. One test checks that
moving batch norm's running buffers between the forward and the backward
leaves every gradient bit; another that a taped forward of either op holds
about its output alone. The conv2d vjp keeps its input, not its patch
matrix, and a BN after a 1x1 conv rebuilds the conv's output, so a taped
ConvMlp holds five hidden maps. The depthwise input gradient runs the
forward's tap sum over the padded gradient, and its vjp peaks at about two
input maps; a pointwise conv's vjp peaks at about one.

An op builds its output one way whether or not a tape records: GELU, SiLU
and batch norm write it over their own scratch buffer, and the depthwise
forward runs in row tiles. The tests at the end check that an op run with no
tape keeps the taped bits, leaves its inputs alone and holds about one
output's worth of memory (two for the depthwise conv, which pads a copy of
its input).
"""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import vcmamba.autodiff as ad
from vcmamba.autodiff import Tape, Tensor
from vcmamba.blocks import ConvMlp


def nhwc(a):
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def nchw(a):
    return np.ascontiguousarray(np.moveaxis(a, -1, 1))


def _window(i, stride, n_out):
    return slice(i, i + stride * (n_out - 1) + 1, stride)


def conv2d_nchw(x, w, b, stride, padding):
    """im2col cross-correlation of an NCHW map: (y, vjp(g) -> (gx, gw, gb)),
    gb None when b is."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(bsz * oh * ow, -1)
    wmat = w.reshape(cout, -1)
    y = cols @ wmat.T
    if b is not None:
        y = y + b
    y = np.ascontiguousarray(y.reshape(bsz, oh, ow, cout).transpose(0, 3, 1, 2))

    def vjp(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(bsz * oh * ow, cout)
        gw = (g2.T @ cols).reshape(w.shape)
        gb = None if b is None else g2.sum(axis=0)
        gcols = (g2 @ wmat).reshape(bsz, oh, ow, cin, kh, kw)
        gxp = np.zeros(xp.shape, dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, _window(i, stride, oh), _window(j, stride, ow)] += \
                    gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        return gxp[:, :, padding:padding + h, padding:padding + wd], gw, gb

    return y, vjp


def depthwise_nchw(x, w):
    """3x3 per-channel cross-correlation of an NCHW map, stride 1 and padding 1,
    no bias: (y, vjp(g) -> (gx, gw, gb)), gb the gradient a bias would get. The
    input gradient scatters each tap's gradient into a zeroed padded map."""
    bsz, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    taps = [(i, j, xp[:, :, i:i + h, j:j + wd]) for i in range(3) for j in range(3)]
    y = np.zeros((bsz, c, h, wd), dtype=x.dtype)
    for i, j, v in taps:
        y += w[:, 0, i, j][None, :, None, None] * v

    def vjp(g):
        gw = np.zeros_like(w)
        gxp = np.zeros(xp.shape, dtype=g.dtype)
        for i, j, v in taps:
            gw[:, 0, i, j] = (g * v).sum(axis=(0, 2, 3))
            gxp[:, :, i:i + h, j:j + wd] += w[:, 0, i, j][None, :, None, None] * g
        return gxp[:, :, 1:1 + h, 1:1 + wd], gw, g.sum(axis=(0, 2, 3))

    return y, vjp


def batch_norm_nchw(x, gamma, beta, momentum=0.1, eps=1e-5):
    """Training-mode batch norm of an NCHW map: (y, running mean, running var,
    xhat, vjp(g) -> (gx, ggamma, gbeta)), the running statistics updated from 0
    and 1."""
    n = x.shape[0] * x.shape[2] * x.shape[3]
    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    c = gamma.shape[0]
    running_mean = (1.0 - momentum) * np.zeros(c, x.dtype) + momentum * mean
    running_var = (1.0 - momentum) * np.ones(c, x.dtype) + momentum * (var * (n / (n - 1)))
    istd = (1.0 / np.sqrt(var + eps))[None, :, None, None]
    xhat = (x - mean[None, :, None, None]) * istd
    y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]

    def vjp(g):
        gsum = g.sum(axis=(0, 2, 3), keepdims=True)
        gxsum = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        gx = gamma[None, :, None, None] * istd * (g - gsum / n - xhat * (gxsum / n))
        return gx, gxsum.reshape(-1), gsum.reshape(-1)

    return y, running_mean, running_var, xhat, vjp


def assert_channel_sums_close(got, a, b):
    """got[c] is the sum of a * b over every axis but the last, up to rounding:
    within 2 eps of the sum of the terms' magnitudes in float32 (a product and
    a final rounding; the accumulator is float64), n eps in float64. The
    oracle sums in long double, which holds a float32 product exactly."""
    terms = a.astype(np.longdouble) * b.astype(np.longdouble)
    axes = tuple(range(terms.ndim - 1))
    exact, mass = terms.sum(axis=axes), np.abs(terms).sum(axis=axes)
    n = terms.size // terms.shape[-1]
    bound = (2 if got.dtype == np.float32 else n) * np.finfo(got.dtype).eps * mass
    err = np.abs(got.astype(np.longdouble) - exact)
    assert (err <= bound).all(), float((err / bound).max())


def run_op(op, x, params, g, before_backward=lambda: None):
    """Forward op(x, *params) on a tape, seed the output gradient with g;
    returns the output and the gradients of x and params. before_backward()
    runs between the forward and the backward."""
    xt = Tensor(x, requires_grad=True, dtype=x.dtype)
    pt = [Tensor(p, requires_grad=True, dtype=p.dtype) for p in params]
    with Tape():
        y = op(xt, *pt)
        loss = ad.sum_all(ad.mul(y, Tensor(g, dtype=g.dtype)))
    before_backward()
    ad.backward(loss)
    return y.data, xt.grad, [p.grad for p in pt]


# (NCHW input shape, Cout, kernel, stride, padding): the stem's and the
# downsamplers' 3x3 stride-2 convs (conv2d, no bias) and the pointwise convs
# (linear with a (Cout, Cin, 1, 1) weight, with bias), at nano sizes (batch
# 32 and 4) and at S@448 stage sizes (batch 1)
CONV_CASES = [
    ((32, 3, 32, 32), 8, 3, 2, 1),
    ((32, 16, 8, 8), 32, 3, 2, 1),
    ((32, 16, 8, 8), 64, 1, 1, 0),
    ((32, 64, 8, 8), 16, 1, 1, 0),
    ((4, 256, 2, 2), 64, 1, 1, 0),
    ((4, 64, 2, 2), 128, 3, 2, 1),
    ((1, 32, 112, 112), 64, 3, 2, 1),
    ((1, 32, 112, 112), 128, 1, 1, 0),
    ((1, 576, 14, 14), 288, 1, 1, 0),
]
# NCHW input shapes: the nano and S@448 maps; heights of 1, 3, 5 and 7 rows,
# which the tap sum's row tile does not divide or is taller than; then the
# four stage maps of an S@224 batch-2 train step
DEPTHWISE_CASES = [(32, 64, 8, 8), (32, 256, 2, 2), (4, 128, 4, 4),
                   (1, 128, 112, 112), (1, 576, 14, 14),
                   (2, 16, 1, 5), (4, 32, 3, 3), (2, 24, 5, 7), (1, 576, 7, 7),
                   (2, 128, 56, 56), (2, 256, 28, 28), (2, 576, 14, 14), (2, 1152, 7, 7)]
DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,cout,k,stride,padding", CONV_CASES)
def test_conv2d_keeps_every_bit(shape, cout, k, stride, padding, dtype):
    rng = np.random.default_rng(sum(shape) + cout)
    x = rng.standard_normal(shape).astype(dtype)
    w = (rng.standard_normal((cout, shape[1], k, k)) * 0.1).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    if k == 1:
        op, params = ad.linear, [w, b]
    else:
        op, params, b = ad.conv2d, [w], None
    ref, ref_vjp = conv2d_nchw(x, w, b, stride, padding)
    g = rng.standard_normal(ref.shape).astype(dtype)
    y, gx, grads = run_op(op, nhwc(x), params, nhwc(g))
    ref_gx, *ref_grads = ref_vjp(g)
    np.testing.assert_array_equal(y, nhwc(ref))
    np.testing.assert_array_equal(gx, nhwc(ref_gx))
    for got, want in zip(grads, ref_grads):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", DEPTHWISE_CASES,
                         ids=[f"shape{i}" for i in range(len(DEPTHWISE_CASES))])
def test_depthwise_keeps_every_bit(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((shape[1], 1, 3, 3)).astype(dtype)
    b = np.zeros(shape[1], dtype)
    ref, ref_vjp = depthwise_nchw(x, w)
    g = rng.standard_normal(ref.shape).astype(dtype)
    y, gx, (gw, gb) = run_op(ad.depthwise_conv2d, nhwc(x), [w, b], nhwc(g))
    ref_gx, _, _ = ref_vjp(g)
    np.testing.assert_array_equal(y, nhwc(ref))
    np.testing.assert_array_equal(gx, nhwc(ref_gx))
    xp = np.pad(nhwc(x), ((0, 0), (1, 1), (1, 1), (0, 0)))
    h, wd = shape[2:]
    for i in range(3):
        for j in range(3):
            assert_channel_sums_close(gw[:, 0, i, j], nhwc(g), xp[:, i:i + h, j:j + wd])
    assert_channel_sums_close(gb, nhwc(g), np.ones_like(nhwc(g)))


# NCHW shapes of the stem's and the stages' batch norms at nano sizes, and
# stage 1 of S at 448 px
BATCH_NORM_CASES = [(32, 8, 16, 16), (32, 64, 8, 8), (4, 256, 2, 2), (2, 32, 112, 112)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", BATCH_NORM_CASES)
def test_training_batch_norm_keeps_every_bit(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    c = shape[1]
    scale, shift = rng.uniform(0.5, 2.0, c), rng.uniform(-2.0, 2.0, c)
    x = (rng.standard_normal(shape) * scale[:, None, None] + shift[:, None, None]).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
    beta = rng.standard_normal(c).astype(dtype)
    ref, ref_mean, ref_var, ref_xhat, ref_vjp = batch_norm_nchw(x, gamma, beta)
    g = rng.standard_normal(shape).astype(dtype)
    running_mean, running_var = np.zeros(c, dtype), np.ones(c, dtype)
    y, gx, (ggamma, gbeta) = run_op(
        lambda t, gt, bt: ad.batch_norm(t, gt, bt, running_mean, running_var, training=True),
        nhwc(x), [gamma, beta], nhwc(g))
    ref_gx, _, _ = ref_vjp(g)
    np.testing.assert_array_equal(y, nhwc(ref))
    np.testing.assert_array_equal(running_mean, ref_mean)
    np.testing.assert_array_equal(running_var, ref_var)
    assert np.abs(gx - nhwc(ref_gx)).max() <= 4 * np.finfo(dtype).eps * np.abs(ref_gx).max()
    assert_channel_sums_close(ggamma, nhwc(g), nhwc(ref_xhat))
    assert_channel_sums_close(gbeta, nhwc(g), np.ones_like(nhwc(g)))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
def test_batch_norm_vjp_ignores_later_buffer_updates(training, dtype):
    # the vjp rebuilds xhat from x with the statistics the forward normalized
    # with, so moving the running buffers before the backward (in place, or by
    # another training forward of the same layer) leaves every gradient bit
    shape, c = (4, 6, 5, 16), 16
    rng = np.random.default_rng(13)
    x = (rng.standard_normal(shape) * 2.0 + 0.5).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
    beta = rng.standard_normal(c).astype(dtype)
    mean0 = rng.standard_normal(c).astype(dtype)
    var0 = rng.uniform(0.5, 2.0, c).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    other = (rng.standard_normal(shape) * 3.0 - 1.0).astype(dtype)

    def grads(move_buffers):
        mean, var = mean0.copy(), var0.copy()

        def op(t, gt, bt):
            return ad.batch_norm(t, gt, bt, mean, var, training=training)

        def before_backward():
            if not move_buffers:
                return
            if training:
                gt, bt = Tensor(gamma, dtype=dtype), Tensor(beta, dtype=dtype)
                with Tape():
                    op(Tensor(other, requires_grad=True, dtype=dtype), gt, bt)
            else:
                mean[...] = 7.0
                var[...] = 0.01
            assert not np.array_equal(mean, mean0)

        _, gx, (ggamma, gbeta) = run_op(op, x, [gamma, beta], g, before_backward)
        return [gx, ggamma, gbeta]

    for got, want in zip(grads(True), grads(False)):
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


def forward_ops(rng, channels, dtype):
    """Name -> f(x Tensor) for the ops run with and without a tape, parameters
    drawn once; each also returns the arrays besides x that it must leave alone."""
    w = rng.standard_normal((channels, 1, 3, 3)).astype(dtype)
    b = rng.standard_normal(channels).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, channels).astype(dtype)
    beta = rng.standard_normal(channels).astype(dtype)
    mean = rng.standard_normal(channels).astype(dtype)
    var = rng.uniform(0.5, 2.0, channels).astype(dtype)
    wt, bt = Tensor(w, dtype=dtype), Tensor(b, dtype=dtype)
    gt, betat = Tensor(gamma, dtype=dtype), Tensor(beta, dtype=dtype)
    return {
        "gelu": (ad.gelu, []),
        "silu": (ad.silu, []),
        "relu": (ad.relu, []),
        "softplus": (ad.softplus, []),
        "batch_norm": (lambda t: ad.batch_norm(t, gt, betat, mean, var, training=False),
                       [gamma, beta, mean, var]),
        "depthwise_conv2d": (lambda t: ad.depthwise_conv2d(t, wt, bt), [w, b]),
    }


# channels-last ConvMlp hidden maps of stage 1: nano at batch 32, S@448 at batch 1
TAPELESS_SHAPES = [(32, 8, 8, 64), (1, 112, 112, 128)]
TAPELESS_OPS = ["gelu", "silu", "batch_norm", "depthwise_conv2d", "relu", "softplus"]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", TAPELESS_SHAPES)
@pytest.mark.parametrize("name", TAPELESS_OPS)
def test_tapeless_forward_keeps_the_taped_bits(name, shape, dtype):
    rng = np.random.default_rng(sum(shape))
    op, params = forward_ops(rng, shape[-1], dtype)[name]
    x = (rng.standard_normal(shape) * 3.0).astype(dtype)
    before = [a.copy() for a in [x] + params]

    y = op(Tensor(x, dtype=dtype)).data
    with Tape():
        taped = op(Tensor(x, requires_grad=True, dtype=dtype)).data

    assert y.dtype == taped.dtype == dtype and y.shape == taped.shape
    assert y.tobytes() == taped.tobytes()
    for a, kept in zip([x] + params, before):
        assert a.tobytes() == kept.tobytes()


@pytest.mark.parametrize("name,bound", [("gelu", 1.1), ("batch_norm", 1.1),
                                        ("depthwise_conv2d", 2.2)])
def test_tapeless_forward_holds_about_one_output(name, bound):
    # gelu and eval batch_norm hold their output buffer alone; depthwise_conv2d
    # adds the padded input copy and one row tile of tap products
    shape = (1, 112, 112, 128)
    rng = np.random.default_rng(0)
    op, _ = forward_ops(rng, shape[-1], np.float32)[name]
    x = Tensor(rng.standard_normal(shape).astype(np.float32))
    tracemalloc.start()
    try:
        y = op(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * y.data.nbytes, peak / y.data.nbytes


@pytest.mark.parametrize("name", ["batch_norm", "depthwise_conv2d"])
def test_taped_forward_holds_about_one_output(name):
    # under a tape, training batch_norm and depthwise_conv2d keep no copy of
    # their input's size: their vjp rebuilds xhat or the padded map from x
    shape = (1, 112, 112, 128)
    c = shape[-1]
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((c, 1, 3, 3)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True)
    beta = Tensor(rng.standard_normal(c), requires_grad=True)
    mean, var = np.zeros(c, np.float32), np.ones(c, np.float32)
    op = {"batch_norm": lambda t: ad.batch_norm(t, gamma, beta, mean, var, training=True),
          "depthwise_conv2d": lambda t: ad.depthwise_conv2d(t, w, beta)}[name]
    x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            y = op(x)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    assert current <= 1.1 * y.data.nbytes, current / y.data.nbytes


def test_depthwise_vjp_holds_about_two_input_maps():
    # the input gradient pads the output gradient and runs the forward's tap
    # sum over it; the padded input the weight gradient reads is gone by then
    shape = (2, 56, 56, 128)
    c = shape[-1]
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((c, 1, 3, 3)).astype(np.float32), requires_grad=True)
    with Tape():
        y = ad.depthwise_conv2d(x, w)
    vjp = y._node.vjp
    g = rng.standard_normal(shape).astype(np.float32)
    tracemalloc.start()
    try:
        gx, _, _ = vjp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx.shape == shape
    assert peak <= 2.5 * x.data.nbytes, peak / x.data.nbytes


def test_taped_gelu_holds_about_two_input_maps():
    # the output over the cdf buffer and the slope built in one more buffer
    shape = (2, 56, 56, 128)
    x = Tensor(np.random.default_rng(0).standard_normal(shape).astype(np.float32),
               requires_grad=True)
    tracemalloc.start()
    try:
        with Tape():
            y = ad.gelu(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == shape
    assert peak <= 2.2 * x.data.nbytes, peak / x.data.nbytes


def test_pointwise_vjp_holds_about_one_input_map():
    # a 1x1 conv is linear on each position's channels: the input gradient is
    # one gemm's result, with no padded map to zero-fill and scatter into
    shape = (2, 56, 56, 128)
    project = ConvMlp(32).draw(np.random.default_rng(0)).project   # 128 -> 32
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    with Tape():
        y = project(x)
    vjp = y._node.vjp
    g = rng.standard_normal(y.shape).astype(np.float32)
    tracemalloc.start()
    try:
        gx = vjp(g)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx.shape == shape
    assert peak <= 1.5 * x.data.nbytes, peak / x.data.nbytes


def test_taped_conv_mlp_holds_what_its_vjps_read():
    # per hidden map: two GELU slopes, the depthwise input and output and the
    # project input; no node keeps its output, so each BN output dies with the
    # GELU it feeds, and norm1 rebuilds the expand output from the block input
    shape = (1, 56, 56, 32)
    mlp = ConvMlp(shape[-1]).draw(np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal(shape).astype(np.float32))
    hidden_bytes = np.prod(shape[:-1]) * mlp.expand.weight.shape[0] * 4
    tracemalloc.start()
    try:
        with Tape() as tape:
            mlp(x)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) == 7
    assert current <= 5.5 * hidden_bytes, current / hidden_bytes


@pytest.mark.parametrize("shape,cout,grad", [((2, 56, 56, 64), 128, True),
                                             ((2, 64, 64, 3), 16, False)],
                         ids=["downsampler", "stem_images"])
def test_taped_conv2d_holds_its_input_not_its_patches(shape, cout, grad):
    # the vjp keeps the input map and regathers the patch matrix (2.25 input
    # maps at stride 2) from it, whether or not the input needs a gradient
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((cout, shape[-1], 3, 3)).astype(np.float32),
               requires_grad=True)
    tracemalloc.start()
    try:
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=grad)
        with Tape():
            y = ad.conv2d(x, w)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    held = current - y.data.nbytes
    assert held <= 1.1 * x.data.nbytes, held / x.data.nbytes
