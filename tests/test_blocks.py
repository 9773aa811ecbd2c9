"""Block-level tests.

The MdmBlock is checked against a straight-line recomputation in this file
that calls the public tensor ops directly with the block's own parameters,
so any wiring mistake (norm placement, residual order, projection order)
shows up as a bitwise mismatch.
"""

import numpy as np
import pytest

import vcmamba.autodiff as ad
from vcmamba.autodiff import ShapeMismatch, Tensor
from vcmamba.blocks import (ConvMlp, DownsampleLayer, FfnBlock, MambaBranch, MdmBlock,
                            Stem)
from vcmamba.gradcheck import finite_diff_check
from vcmamba.model import VCMamba, get_preset
from vcmamba.nn import BatchNorm2d
from vcmamba.scanpath import path_table
from vcmamba.ssm import ScanInputs, direction_aware_scan, selective_projection

F64 = np.float64


def make_rng(seed=0):
    return np.random.default_rng(seed)


class TestStem:
    def test_reduces_by_four(self, rng):
        stem = Stem(16).draw(make_rng())
        y = stem(Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32)))
        assert y.shape == (2, 8, 8, 16)

    def test_intermediate_width_is_half(self):
        stem = Stem(16).draw(make_rng())
        assert stem.conv1.weight.shape == (8, 3, 3, 3)
        assert stem.conv2.weight.shape == (16, 8, 3, 3)

    def test_output_nonnegative(self, rng):
        stem = Stem(8).draw(make_rng())
        y = stem(Tensor(rng.normal(size=(1, 3, 16, 16)).astype(np.float32)))
        assert np.all(y.data >= 0)

    def test_rejects_non_rgb_input(self, rng):
        stem = Stem(8).draw(make_rng())
        with pytest.raises(ShapeMismatch):
            stem(Tensor(rng.normal(size=(1, 4, 16, 16))))

    def test_conv_weights_have_no_bias(self):
        stem = Stem(8).draw(make_rng())
        assert not [name for name, _ in stem.named_parameters() if "bias" in name]


class TestConvMlp:
    def test_hidden_width_is_four_x(self):
        mlp = ConvMlp(6).draw(make_rng())
        assert mlp.expand.weight.shape == (24, 6, 1, 1)
        assert mlp.dwconv.weight.shape == (24, 1, 3, 3)
        assert mlp.project.weight.shape == (6, 24, 1, 1)
        assert mlp.expand.bias is None and mlp.dwconv.bias is None
        assert mlp.project.bias is not None

    def test_preserves_spatial_shape(self, rng):
        mlp = ConvMlp(4).draw(make_rng())
        y = mlp(Tensor(rng.normal(size=(2, 5, 7, 4)).astype(np.float32)))
        assert y.shape == (2, 5, 7, 4)


class TestFfnBlock:
    def test_zero_projection_gives_bitwise_identity(self, rng):
        block = FfnBlock(4).draw(make_rng())
        block.mlp.project.weight.data[:] = 0.0
        block.mlp.project.bias.data[:] = 0.0
        x = Tensor(rng.normal(size=(2, 6, 6, 4)).astype(np.float32))
        for mode in (True, False):
            block.train(mode)
            y = block(x)
            np.testing.assert_array_equal(y.data, x.data)

    def test_residual_changes_output_when_nonzero(self, rng):
        block = FfnBlock(4).draw(make_rng()).eval()
        x = Tensor(rng.normal(size=(1, 5, 5, 4)).astype(np.float32))
        assert np.any(block(x).data != x.data)

    def test_gradients(self, rng):
        block = FfnBlock(3).draw(make_rng()).to(F64).eval()
        x = Tensor(rng.normal(size=(1, 4, 4, 3)), requires_grad=True, dtype=F64, name="x")

        def f():
            y = block(x)
            return ad.sum_all(ad.mul(y, y))

        wrt = [x] + [p for _, p in block.named_parameters()]
        report = finite_diff_check(f, wrt, max_coords_per_tensor=20,
                                   rng=np.random.default_rng(0))
        assert report.passed, str(report)


class TestDownsampleLayer:
    def test_halves_odd_sizes_by_ceiling(self, rng):
        down = DownsampleLayer(3, 8).draw(make_rng())
        y = down(Tensor(rng.normal(size=(1, 7, 5, 3)).astype(np.float32)))
        assert y.shape == (1, 4, 3, 8)

    def test_even_sizes(self, rng):
        down = DownsampleLayer(4, 6).draw(make_rng())
        y = down(Tensor(rng.normal(size=(2, 8, 8, 4)).astype(np.float32)))
        assert y.shape == (2, 4, 4, 6)


class TestMambaBranch:
    def test_shape_preserved_at_native_grid(self, rng):
        branch = MambaBranch(4, (3, 3), n_state=4).draw(make_rng()).eval()
        y = branch(Tensor(rng.normal(size=(2, 3, 3, 4)).astype(np.float32)))
        assert y.shape == (2, 3, 3, 4)

    def test_positional_table_resizes_off_grid(self, rng):
        branch = MambaBranch(4, (2, 2), n_state=4).draw(make_rng()).eval()
        y = branch(Tensor(rng.normal(size=(1, 5, 3, 4)).astype(np.float32)))
        assert y.shape == (1, 5, 3, 4)
        assert np.all(np.isfinite(y.data))

    def test_inner_width_is_double(self):
        branch = MambaBranch(6, (2, 2)).draw(make_rng())
        assert branch.d_inner == 12
        assert branch.in_proj.weight.shape == (12, 6, 1, 1)
        assert branch.out_proj.weight.shape == (6, 12, 1, 1)
        assert branch.out_proj.bias is None

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            MambaBranch(4, (0, 2))

    def test_one_projection_and_one_scan_per_forward(self, rng, monkeypatch):
        import vcmamba.ssm as ssm

        calls = {"selective_projection": 0, "direction_aware_scan": 0}
        for name in calls:
            def counted(*args, _real=getattr(ssm, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(ssm, name, counted)
        branch = MambaBranch(4, (4, 4), n_state=4).draw(make_rng()).eval()
        with ad.Tape() as tape:
            branch(Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32)))
        assert calls == {"selective_projection": 1, "direction_aware_scan": 1}
        ops = [node.op for node in tape._nodes]
        layout = {op: ops.count(op)
                  for op in ("moveaxis", "reshape", "gather_tokens", "scatter_tokens")}
        # the one layout change left moves the resized position map to channels-last
        assert layout == {"moveaxis": 1, "reshape": 0, "gather_tokens": 4, "scatter_tokens": 1}
        # out_norm, folded into out_proj, records the folded weight and bias
        assert ops.count("fold_batch_norm") == 2 and "batch_norm" not in ops
        assert len(tape) == 21


class TestMdmBlock:
    def _block(self, channels=2, grid=(2, 2), dtype=np.float32, seed=0):
        return MdmBlock(channels, grid, n_state=4).draw(make_rng(seed)).to(dtype)

    def test_passthrough_when_projections_zeroed(self, rng):
        block = self._block(channels=4).eval()
        block.mamba.out_proj.weight.data[:] = 0.0
        block.mlp.project.weight.data[:] = 0.0
        block.mlp.project.bias.data[:] = 0.0
        x = Tensor(rng.normal(size=(2, 2, 2, 4)).astype(np.float32))
        np.testing.assert_array_equal(block(x).data, x.data)

    def test_matches_straight_line_recomputation(self, rng):
        block = self._block(channels=3, grid=(3, 3), dtype=F64).eval()
        # make the eval-mode batch norms non-trivial
        for _, buf in block.named_buffers():
            buf[...] = rng.uniform(0.5, 1.5, size=buf.shape)
        x = Tensor(rng.normal(size=(2, 3, 3, 3)), dtype=F64)
        got = block(x)

        def bn(t, norm):
            return ad.batch_norm(t, norm.gamma, norm.beta, norm.running_mean,
                                 norm.running_var, training=False, eps=norm.eps)

        def folded(weight, norm):   # the eval BN after a conv, folded into its weight
            return ad.fold_batch_norm(weight, norm.gamma, norm.beta, norm.running_mean,
                                      norm.running_var, eps=norm.eps)

        mb = block.mamba
        z = ad.linear(bn(x, block.norm1), mb.in_proj.weight, mb.in_proj.bias)
        z = ad.add_map(z, ad.moveaxis(ad.bilinear_resize(mb.pos_table, 3, 3), 0, 2))
        z = ad.silu(ad.depthwise_conv2d(z, mb.dwconv.weight, mb.dwconv.bias))
        z = ad.moveaxis(z, 3, 1)    # channels first: a token's features are a column
        mixed = None
        for path in path_table(3, 3):
            tokens = ad.take_last(ad.reshape(z, (2, mb.d_inner, 9)), path.order)
            delta, b_seq, c_seq = selective_projection(ad.moveaxis(tokens, 1, 2), mb.ssm)
            inp = ScanInputs(tokens, *(ad.moveaxis(t, 1, 2) for t in (delta, b_seq, c_seq)),
                             dirs=path.dirs)
            y = direction_aware_scan(inp, mb.ssm)
            spread = ad.reshape(ad.take_last(y, path.inverse()), (2, mb.d_inner, 3, 3))
            mixed = spread if mixed is None else ad.add(mixed, spread)
        normed = ad.layer_norm(ad.moveaxis(mixed, 1, 3), mb.mix_norm.gamma, mb.mix_norm.beta,
                               eps=mb.mix_norm.eps)
        branch = ad.linear(normed, *folded(mb.out_proj.weight, mb.out_norm))
        x1 = ad.add(x, branch)

        mlp = block.mlp
        t = ad.gelu(ad.linear(bn(x1, block.norm2), *folded(mlp.expand.weight, mlp.norm1)))
        t = ad.gelu(ad.depthwise_conv2d(t, *folded(mlp.dwconv.weight, mlp.norm2)))
        expected = ad.add(x1, ad.linear(t, block.mlp.project.weight,
                                        block.mlp.project.bias))
        np.testing.assert_array_equal(got.data, expected.data)

    def test_every_parameter_gets_gradient_on_multi_token_grid(self, rng):
        block = self._block(channels=2, grid=(2, 2), dtype=F64)
        x = Tensor(rng.normal(size=(2, 2, 2, 2)), requires_grad=True, dtype=F64)
        with ad.Tape():
            y = block(x)
            loss = ad.sum_all(ad.mul(y, y))
        ad.backward(loss)
        grads = {name: p.grad for name, p in block.named_parameters()}
        assert all(g is not None for g in grads.values())
        largest = max(np.abs(g).max() for g in grads.values())
        # each of these shifts the input of a bias-free 1x1 conv feeding a
        # train-mode BN, which removes any per-channel shift: true gradient 0
        shift_removed = {"norm2.beta", "mamba.mix_norm.beta"}
        for name, g in grads.items():
            if name in shift_removed:
                assert np.abs(g).max() <= 1e-12 * largest, name
            else:
                assert np.any(g != 0), name
        # the four 2x2 paths use all five direction codes between them
        table_grad = block.mamba.ssm.direction_table.grad
        assert np.all(np.any(table_grad != 0, axis=1)), table_grad

    def test_gradients(self, rng):
        block = self._block(channels=2, grid=(2, 2), dtype=F64).eval()
        for _, buf in block.named_buffers():
            buf[...] = rng.uniform(0.8, 1.2, size=buf.shape)
        x = Tensor(rng.normal(size=(1, 2, 2, 2)), requires_grad=True, dtype=F64, name="x")

        def f():
            y = block(x)
            return ad.sum_all(ad.mul(y, y))

        wrt = [x] + [p for _, p in block.named_parameters()]
        report = finite_diff_check(f, wrt, max_coords_per_tensor=8,
                                   rng=np.random.default_rng(0))
        assert report.passed, str(report)

    def test_same_seed_same_block(self, rng):
        b1, b2 = self._block(seed=3), self._block(seed=3)
        x = Tensor(rng.normal(size=(1, 2, 2, 2)).astype(np.float32))
        np.testing.assert_array_equal(b1.eval()(x).data, b2.eval()(x).data)
        for (n1, p1), (n2, p2) in zip(b1.named_parameters(), b2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)


def batch_norms(module):
    """Every BatchNorm2d in the module tree."""
    found, stack = [], [module]
    while stack:
        m = stack.pop()
        found += [m] if isinstance(m, BatchNorm2d) else []
        stack.extend(m._children.values())
    return found


def unfolded(module, x):
    """module's eval forward of x with no BN folded: BatchNorm2d.after runs
    the conv and then the BN's own eval-mode batch_norm pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchNorm2d, "after", lambda norm, op, inp, weight: norm(op(inp, weight)))
        return module.eval()(x)


def scramble_batch_norms(module, rng):
    for norm in batch_norms(module):
        c = norm.gamma.shape[0]
        norm.gamma.data[...] = rng.uniform(0.5, 1.5, c)
        norm.beta.data[...] = rng.normal(size=c)
        norm.running_mean[...] = rng.normal(size=c)
        norm.running_var[...] = rng.uniform(0.5, 2.0, c)


class TestEvalBatchNormFold:
    @pytest.mark.parametrize("make, train_calls", [
        (lambda: ConvMlp(4), 2),
        (lambda: MambaBranch(4, (3, 3), n_state=4), 1),
    ], ids=["ConvMlp", "MambaBranch"])
    def test_folded_pairs_make_no_batch_norm_call(self, rng, monkeypatch, make, train_calls):
        calls = []

        def counted(*args, _real=ad.batch_norm, **kwargs):
            calls.append(kwargs["training"])
            return _real(*args, **kwargs)

        monkeypatch.setattr(ad, "batch_norm", counted)
        module = make().draw(make_rng())
        x = Tensor(rng.normal(size=(2, 3, 3, 4)).astype(np.float32))
        module.eval()(x)
        assert calls == []
        module.train()(x)
        assert calls == [True] * train_calls

    @pytest.mark.parametrize("make", [
        lambda: ConvMlp(4), lambda: MambaBranch(4, (3, 3), n_state=4),
    ], ids=["ConvMlp", "MambaBranch"])
    @pytest.mark.parametrize("norms_training", [True, False], ids=["train_bn", "eval_bn"])
    def test_only_the_batch_norms_read_the_mode(self, rng, make, norms_training):
        module = make().draw(make_rng())
        scramble_batch_norms(module, rng)
        x = Tensor(rng.normal(size=(2, 3, 3, 4)).astype(np.float32))
        outputs = []
        for training in (True, False):
            module.train(training)
            for norm in batch_norms(module):
                norm.train(norms_training)
            outputs.append(module(x).data)
        np.testing.assert_array_equal(outputs[0], outputs[1])

    @pytest.mark.parametrize("which", ["mdm_block", "nano"])
    def test_folded_matches_unfolded_in_float64(self, rng, which):
        if which == "nano":
            model = VCMamba(get_preset("nano"), seed=0).to(F64)
            x = Tensor(rng.random((2, 3, 32, 32)), dtype=F64)
        else:
            model = MdmBlock(4, (3, 3), n_state=4).draw(make_rng()).to(F64)
            x = Tensor(rng.normal(size=(2, 3, 3, 4)), dtype=F64)
        scramble_batch_norms(model, rng)
        got = model.eval()(x).data
        want = unfolded(model, x).data
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_a_changed_gamma_or_variance_takes_effect_at_once(self, rng):
        block = MdmBlock(4, (3, 3), n_state=4).draw(make_rng()).to(F64)
        scramble_batch_norms(block, rng)
        x = Tensor(rng.normal(size=(2, 3, 3, 4)), dtype=F64)
        changes = [(block.mlp.norm1.gamma.data, 2.0), (block.mlp.norm2.running_var, 3.0),
                   (block.mamba.out_norm.gamma.data, 0.5),
                   (block.mamba.out_norm.running_var, 4.0)]
        for array, factor in changes:
            before = block.eval()(x).data
            array[0] *= factor
            after = block.eval()(x).data
            assert not np.array_equal(after, before)
            want = unfolded(block, x).data
            assert np.abs(after - want).max() <= 1e-12 * np.abs(want).max()


def taped_step(module, x, weights, *, backward_inside):
    """One taped forward of a fresh copy of x and the backward of sum(y * weights),
    run after the Tape block or inside it, where the tape is consumed and any
    op that a rebuild ran through would raise. Returns the output, the BN
    running statistics, the input gradient and every parameter gradient."""
    for p in module.parameters():
        p.zero_grad()
    xt = Tensor(x, requires_grad=True, dtype=x.dtype)
    with ad.Tape():
        y = module(xt)
        loss = ad.sum_all(ad.mul(y, Tensor(weights, dtype=x.dtype)))
        if backward_inside:
            ad.backward(loss)
    if not backward_inside:
        ad.backward(loss)
    return ([y.data] + [b.copy() for _, b in module.named_buffers()]
            + [xt.grad] + [p.grad for p in module.parameters()])


def after_kept_output(norm, op, x, weight):
    """BatchNorm2d.after in training mode on an output whose node offers no
    rebuild, so the BN's vjp keeps the output itself."""
    y = op(x, weight)
    if y._node is not None:
        y._node.rebuild = None
    return norm(y)


class TestTrainingBatchNormRebuild:
    """A training BN keeps no copy of a bias-free linear's output: its vjp
    rebuilds it through the linear's node, and moves no bit. The oracle
    clears that rebuild, so each BN keeps op(x, weight) as it comes."""

    @pytest.mark.parametrize("dtype", [np.float32, F64], ids=["f32", "f64"])
    @pytest.mark.parametrize("backward_inside", [False, True], ids=["after_tape", "inside_tape"])
    @pytest.mark.parametrize("make", [
        lambda: ConvMlp(4), lambda: MambaBranch(4, (3, 3), n_state=4),
    ], ids=["ConvMlp", "MambaBranch"])
    def test_matches_the_kept_output_bit_for_bit(self, rng, make, backward_inside, dtype):
        x = rng.normal(size=(2, 3, 3, 4)).astype(dtype)
        weights = rng.normal(size=(2, 3, 3, 4)).astype(dtype)
        got = taped_step(make().draw(make_rng()).to(dtype), x, weights,
                         backward_inside=backward_inside)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BatchNorm2d, "after", after_kept_output)
            want = taped_step(make().draw(make_rng()).to(dtype), x, weights,
                              backward_inside=backward_inside)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()
