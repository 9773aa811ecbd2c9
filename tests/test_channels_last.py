"""The channels-last conv stack against the NCHW bodies it replaced.

The references below are the earlier NCHW implementations of conv2d,
depthwise_conv2d and training-mode batch_norm, forward and vjp, written out
in plain numpy. The new layout promises the same bits: output and every
gradient of conv2d, depthwise_conv2d and training-mode batch_norm, and the
running statistics. The per-channel sums over B*H*W (batch-norm statistics
and gradient sums, depthwise weight and bias gradients) are taken over a
(B, C, H, W) copy for that, since a channels-last float32 sum adds the rows
in another order and lands on other bits.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import vcmamba.autodiff as ad
from vcmamba.autodiff import Tape, Tensor


def nhwc(a):
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def nchw(a):
    return np.ascontiguousarray(np.moveaxis(a, -1, 1))


def _window(i, stride, n_out):
    return slice(i, i + stride * (n_out - 1) + 1, stride)


def conv2d_nchw(x, w, b, stride, padding):
    """im2col cross-correlation of an NCHW map: (y, vjp(g) -> (gx, gw, gb))."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(bsz * oh * ow, -1)
    wmat = w.reshape(cout, -1)
    y = cols @ wmat.T + b
    y = np.ascontiguousarray(y.reshape(bsz, oh, ow, cout).transpose(0, 3, 1, 2))

    def vjp(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(bsz * oh * ow, cout)
        gw = (g2.T @ cols).reshape(w.shape)
        gb = g2.sum(axis=0)
        gcols = (g2 @ wmat).reshape(bsz, oh, ow, cin, kh, kw)
        gxp = np.zeros(xp.shape, dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, _window(i, stride, oh), _window(j, stride, ow)] += \
                    gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        return gxp[:, :, padding:padding + h, padding:padding + wd], gw, gb

    return y, vjp


def depthwise_nchw(x, w, stride, padding):
    """Per-channel cross-correlation of an NCHW map, no bias: (y, vjp(g) -> (gx, gw, gb)),
    gb the gradient a bias would get."""
    bsz, c, h, wd = x.shape
    _, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    taps = [(i, j, xp[:, :, _window(i, stride, oh), _window(j, stride, ow)])
            for i in range(kh) for j in range(kw)]
    y = np.zeros((bsz, c, oh, ow), dtype=x.dtype)
    for i, j, v in taps:
        y += w[:, 0, i, j][None, :, None, None] * v

    def vjp(g):
        gw = np.zeros_like(w)
        gxp = np.zeros(xp.shape, dtype=g.dtype)
        for i, j, v in taps:
            gw[:, 0, i, j] = (g * v).sum(axis=(0, 2, 3))
            gxp[:, :, _window(i, stride, oh), _window(j, stride, ow)] += \
                w[:, 0, i, j][None, :, None, None] * g
        return gxp[:, :, padding:padding + h, padding:padding + wd], gw, g.sum(axis=(0, 2, 3))

    return y, vjp


def batch_norm_nchw(x, gamma, beta, momentum=0.1, eps=1e-5):
    """Training-mode batch norm of an NCHW map: (y, running mean, running var,
    vjp(g) -> (gx, ggamma, gbeta)), the running statistics updated from 0 and 1."""
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

    return y, running_mean, running_var, vjp


def run_op(op, x, params, g):
    """Forward op(x, *params) on a tape, seed the output gradient with g;
    returns the output and the gradients of x and params."""
    xt = Tensor(x, requires_grad=True, dtype=x.dtype)
    pt = [Tensor(p, requires_grad=True, dtype=p.dtype) for p in params]
    with Tape():
        y = op(xt, *pt)
        loss = ad.sum_all(ad.mul(y, Tensor(g, dtype=g.dtype)))
    ad.backward(loss)
    return y.data, xt.grad, [p.grad for p in pt]


# (NCHW input shape, Cout, kernel, stride, padding): the stem's and the
# downsamplers' 3x3 stride-2 convs and the pointwise convs, at nano sizes
# (batch 32 and 4) and at S@448 stage sizes (batch 1)
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
DEPTHWISE_CASES = [(32, 64, 8, 8), (32, 256, 2, 2), (4, 128, 4, 4), (1, 128, 112, 112),
                   (1, 576, 14, 14)]
DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,cout,k,stride,padding", CONV_CASES)
def test_conv2d_keeps_every_bit(shape, cout, k, stride, padding, dtype):
    rng = np.random.default_rng(sum(shape) + cout)
    x = rng.standard_normal(shape).astype(dtype)
    w = (rng.standard_normal((cout, shape[1], k, k)) * 0.1).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    ref, ref_vjp = conv2d_nchw(x, w, b, stride, padding)
    g = rng.standard_normal(ref.shape).astype(dtype)
    y, gx, (gw, gb) = run_op(lambda t, wt, bt: ad.conv2d(t, wt, bt, stride=stride,
                                                        padding=padding),
                             nhwc(x), [w, b], nhwc(g))
    ref_gx, ref_gw, ref_gb = ref_vjp(g)
    np.testing.assert_array_equal(y, nhwc(ref))
    np.testing.assert_array_equal(gx, nhwc(ref_gx))
    np.testing.assert_array_equal(gw, ref_gw)
    np.testing.assert_array_equal(gb, ref_gb)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", DEPTHWISE_CASES)
def test_depthwise_keeps_every_bit(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((shape[1], 1, 3, 3)).astype(dtype)
    b = np.zeros(shape[1], dtype)
    ref, ref_vjp = depthwise_nchw(x, w, 1, 1)
    g = rng.standard_normal(ref.shape).astype(dtype)
    y, gx, (gw, gb) = run_op(lambda t, wt, bt: ad.depthwise_conv2d(t, wt, bt, padding=1),
                             nhwc(x), [w, b], nhwc(g))
    ref_gx, ref_gw, ref_gb = ref_vjp(g)
    np.testing.assert_array_equal(y, nhwc(ref))
    np.testing.assert_array_equal(gx, nhwc(ref_gx))
    np.testing.assert_array_equal(gw, ref_gw)
    np.testing.assert_array_equal(gb, ref_gb)


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
    ref, ref_mean, ref_var, ref_vjp = batch_norm_nchw(x, gamma, beta)
    g = rng.standard_normal(shape).astype(dtype)
    running_mean, running_var = np.zeros(c, dtype), np.ones(c, dtype)
    y, gx, (ggamma, gbeta) = run_op(
        lambda t, gt, bt: ad.batch_norm(t, gt, bt, running_mean, running_var, training=True),
        nhwc(x), [gamma, beta], nhwc(g))
    ref_gx, ref_ggamma, ref_gbeta = ref_vjp(g)
    np.testing.assert_array_equal(y, nhwc(ref))
    np.testing.assert_array_equal(running_mean, ref_mean)
    np.testing.assert_array_equal(running_var, ref_var)
    np.testing.assert_array_equal(gx, nhwc(ref_gx))
    np.testing.assert_array_equal(ggamma, ref_ggamma)
    np.testing.assert_array_equal(gbeta, ref_gbeta)
