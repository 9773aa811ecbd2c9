"""Backbone assembly tests.

The parameter and MAC counters are checked against totals computed by hand
in this file for a deliberately tiny configuration, term by term, so the
counters cannot be graded against themselves.
"""

import dataclasses
import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

import vcmamba.autodiff as ad
from vcmamba.autodiff import ShapeMismatch, Tensor
from vcmamba.checkpoint import save_checkpoint
from vcmamba.model import (PRESETS, ModelSpec, VCMamba, count_macs, count_params,
                           get_preset, interleave_blocks)
from vcmamba.nn import Linear

TINY = ModelSpec("tiny", (4, 4, 4, 4), ("F", "F", "F", "M"), 10, 32, n_state=2)
GRADFLOW = ModelSpec("gradflow", (8, 16, 24, 32), ("F", "F", "FF", "MF"), 10, 64,
                     n_state=4)
MFM128 = ModelSpec("mfm128", (16, 32, 64, 128), ("FF", "FF", "FFFF", "MFM"), 10, 128)


def named_state(model):
    return [(n, p.data) for n, p in model.named_parameters()] + list(model.named_buffers())


def state_sha256(model):
    """Digest of the name, dtype and bytes of every parameter and buffer."""
    h = hashlib.sha256()
    for name, arr in named_state(model):
        h.update(name.encode())
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def declared_names(module, prefix=""):
    """Dotted names of the parameters a module tree declares for drawing."""
    yield from (prefix + name for name in module._inits)
    for name, child in module._children.items():
        yield from declared_names(child, prefix + name + ".")


class TestInterleave:
    def test_frozen_orders(self):
        assert interleave_blocks(4, 4) == "MFMFMFMF"
        assert interleave_blocks(2, 4) == "MFMFMM"
        assert interleave_blocks(1, 2) == "MFM"
        assert interleave_blocks(0, 2) == "MM"
        assert interleave_blocks(2, 0) == "FF"
        assert interleave_blocks(0, 0) == ""

    def test_counts_preserved(self):
        for f, m in [(3, 5), (5, 3), (0, 4), (7, 7)]:
            s = interleave_blocks(f, m)
            assert s.count("F") == f and s.count("M") == m


class TestPresets:
    def test_preset_table(self):
        assert PRESETS["S"].channels == (32, 64, 144, 288)
        assert PRESETS["M"].channels == (48, 96, 224, 448)
        assert PRESETS["B"].channels == (64, 128, 320, 512)
        assert PRESETS["nano"].channels == (16, 32, 64, 128)

    def test_stage_depths(self):
        for name in ("S", "M", "B"):
            spec = PRESETS[name]
            assert [len(s) for s in spec.stage_blocks] == [4, 4, 12, 8 if name == "S" else 6]
            assert spec.num_classes == 1000 and spec.input_resolution == 224
        nano = PRESETS["nano"]
        assert [len(s) for s in nano.stage_blocks] == [2, 2, 4, 3]
        assert nano.num_classes == 10 and nano.input_resolution == 32

    def test_stage4_orders(self):
        assert PRESETS["S"].stage_blocks[3] == "MFMFMFMF"
        assert PRESETS["M"].stage_blocks[3] == "MFMFMM"
        assert PRESETS["B"].stage_blocks[3] == "MFMFMM"
        assert PRESETS["nano"].stage_blocks[3] == "MFM"

    def test_get_preset_unknown(self):
        with pytest.raises(ValueError, match="unknown preset"):
            get_preset("XL")


class TestModelSpec:
    def test_roundtrips_through_dict(self):
        spec = PRESETS["nano"]
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PRESETS["nano"].num_classes = 7

    @pytest.mark.parametrize("mutation,match", [
        (dict(channels=(16, 32, 64)), "four integers"),
        (dict(channels=(1, 32, 64, 128)), "four integers"),
        (dict(channels=(15, 32, 64, 128)), "even"),
        (dict(stage_blocks=("F", "M", "F", "M")), "FFN-only"),
        (dict(stage_blocks=("F", "F", "F", "X")), "unknown block kinds"),
        (dict(stage_blocks=("F", "F", "", "M")), "non-empty"),
        (dict(num_classes=1), "num_classes"),
        (dict(input_resolution=100), "multiple of 32"),
        (dict(input_resolution=0), "multiple of 32"),
        (dict(n_state=0), "n_state"),
        (dict(name=""), "name"),
    ])
    def test_validation(self, mutation, match):
        base = PRESETS["nano"].to_dict()
        base.update(mutation)
        with pytest.raises(ValueError, match=match):
            ModelSpec(**base)


class TestForwardShapes:
    def test_nano_stage_ladder(self, rng):
        model = VCMamba(get_preset("nano"), seed=0).eval()
        x = Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
        h = model.stem(x)
        assert h.shape == (2, 8, 8, 16)
        h = model.down1(model.stage1(h))
        assert h.shape == (2, 4, 4, 32)
        h = model.down2(model.stage2(h))
        assert h.shape == (2, 2, 2, 64)
        h = model.down3(model.stage3(h))
        assert h.shape == (2, 1, 1, 128)
        h = model.stage4(h)
        assert h.shape == (2, 1, 1, 128)
        assert model.features(x).shape == (2, 128, 1, 1)
        logits = model(x)
        assert logits.shape == (2, 10)

    def test_resolution_must_be_multiple_of_32(self, rng):
        model = VCMamba(get_preset("nano"), seed=0).eval()
        with pytest.raises(ShapeMismatch, match="multiples of 32"):
            model(Tensor(rng.normal(size=(1, 3, 40, 40)).astype(np.float32)))

    def test_rejects_non_rgb(self, rng):
        model = VCMamba(get_preset("nano"), seed=0).eval()
        with pytest.raises(ShapeMismatch):
            model(Tensor(rng.normal(size=(1, 1, 32, 32)).astype(np.float32)))

    def test_larger_inputs_accepted(self, rng):
        model = VCMamba(GRADFLOW, seed=0).eval()
        y = model(Tensor(rng.normal(size=(1, 3, 64, 64)).astype(np.float32)))
        assert y.shape == (1, 10)
        assert np.all(np.isfinite(y.data))


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, rng):
        m1 = VCMamba(get_preset("nano"), seed=11).eval()
        m2 = VCMamba(get_preset("nano"), seed=11).eval()
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
        np.testing.assert_array_equal(m1(x).data, m2(x).data)

    def test_different_seed_differs(self):
        m1 = VCMamba(get_preset("nano"), seed=0)
        m2 = VCMamba(get_preset("nano"), seed=1)
        assert np.any(m1.head.weight.data != m2.head.weight.data)

    def test_backward_bitwise_reproducible(self, rng):
        def run():
            model = VCMamba(TINY, seed=5)
            x = Tensor(rng_local.normal(size=(2, 3, 32, 32)).astype(np.float32))
            labels = np.array([1, 4])
            with ad.Tape():
                loss = ad.softmax_cross_entropy(model(x), labels)
            ad.backward(loss)
            return loss.item(), {n: p.grad.copy() for n, p in model.named_parameters()
                                 if p.grad is not None}

        rng_local = np.random.default_rng(3)
        l1, g1 = run()
        rng_local = np.random.default_rng(3)
        l2, g2 = run()
        assert l1 == l2 and g1.keys() == g2.keys()
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])


class TestBuildPinning:
    """Float32 builds are frozen bit for bit: any change to initialization,
    draw order, naming or dtype handling moves these digests."""

    @pytest.mark.parametrize("spec, digest", [
        (get_preset("nano"), "b07d6676b1859dbfcafd29fa7716b6ac496d34d1b6c6c3bd0e1d41ba8e2eca53"),
        (MFM128, "e33a4466149d1f7f9289d23c60fe2459075d9b221cdbba0e9fb098bb0fff82fb"),
    ])
    def test_seed0_state_digest(self, spec, digest):
        assert state_sha256(VCMamba(spec, seed=0)) == digest

    def test_seed0_nano_checkpoint_file_digest(self, tmp_path):
        # the file also holds the header and every entry's shape, which
        # state_sha256 does not hash: reshaping a parameter moves this digest
        path = tmp_path / "nano.ckpt"
        save_checkpoint(VCMamba(get_preset("nano"), seed=0), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "61036589b991bf04ec3dae2882cdb54881e3eddef274cbc27487a1112ec59ccb"

    @pytest.mark.parametrize("spec", [get_preset("nano"), MFM128])
    def test_drawing_the_undrawn_tree_is_the_build(self, spec):
        built = dict(named_state(VCMamba(spec, seed=3)))
        undrawn = VCMamba.undrawn(spec)
        declared = set(declared_names(undrawn))
        assert declared and declared <= set(built)
        assert [name for name, _ in named_state(undrawn)] == list(built)
        for name, arr in named_state(undrawn):
            assert (arr.shape, arr.dtype) == (built[name].shape, built[name].dtype), name
            if name in declared:
                assert not arr.any(), name
            else:    # deterministic values are built, not drawn
                assert np.array_equal(arr, built[name]), name
        drawn = dict(named_state(undrawn.draw(np.random.default_rng(3))))
        for name, arr in built.items():
            assert np.array_equal(drawn[name], arr), name


class TestQualnames:
    def test_every_module_knows_its_dotted_name(self):
        model = VCMamba.undrawn(get_preset("nano"))
        assert model.qualname == ""
        assert model.stage4.blocks[2].mamba.qualname == "stage4.blocks.2.mamba"
        assert model.stage4.blocks[2].mamba.ssm.qualname == "stage4.blocks.2.mamba.ssm"
        # a parameter's name is its owner's qualname plus its own attribute name
        owners = {}

        def walk(module):
            owners.update({f"{module.qualname}.{n}".lstrip("."): p
                           for n, p in module._params.items()})
            for child in module._children.values():
                walk(child)

        walk(model)
        assert owners == dict(model.named_parameters())


class TestModuleTo:
    def test_float64_reaches_everything_in_place(self):
        model = VCMamba(TINY, seed=0)
        widened = {n: a.astype(np.float64) for n, a in named_state(model)}
        params = dict(model.named_parameters())
        assert model.to(np.float64) is model
        assert np.dtype(model.dtype) == np.float64
        for name, arr in named_state(model):
            assert arr.dtype == np.float64, name
            assert np.array_equal(arr, widened[name]), name
        assert all(params[n] is p for n, p in model.named_parameters())
        # the buffers batch norm reads are the registered, cast ones
        buffers = dict(model.named_buffers())
        assert model.stem.norm1.running_mean is buffers["stem.norm1.running_mean"]
        assert model.stem.norm1.running_var is buffers["stem.norm1.running_var"]

    def test_draw_after_cast_is_the_float32_draw_widened(self):
        early = VCMamba.undrawn(TINY).to(np.float64).draw(np.random.default_rng(4))
        assert state_sha256(early) == state_sha256(VCMamba(TINY, seed=4).to(np.float64))

    def test_same_dtype_copies_nothing(self):
        model = VCMamba(TINY, seed=0)
        before = dict(named_state(model))
        model.to(np.float32)
        for name, arr in named_state(model):
            assert np.shares_memory(arr, before[name]), name


class TestStepGraphLifetime:
    def test_backward_frees_the_tape_without_the_cycle_collector(self, rng):
        # a recorded graph is a cycle (Tensor._tape -> Tape._nodes -> a vjp
        # closure -> its input Tensor); backward must break it so a step's
        # graph dies by reference counting
        model = VCMamba(GRADFLOW, seed=0)
        x = Tensor(rng.normal(size=(1, 3, 64, 64)).astype(np.float32))
        gc.disable()
        try:
            with ad.Tape() as tape:
                loss = ad.softmax_cross_entropy(model(x), np.array([3]))
            ad.backward(loss)
            alive = weakref.ref(tape)
            del tape, loss
            assert alive() is None
        finally:
            gc.enable()
        assert all(p.grad is not None for _, p in model.named_parameters())

    def test_held_loss_and_logits_pin_no_graph(self, rng):
        # train() keeps loss and logits until the next step; through their
        # nodes they must not keep the step's vjps, inputs or node gradients
        model = VCMamba(GRADFLOW, seed=0)
        x = Tensor(rng.normal(size=(2, 3, 64, 64)).astype(np.float32))
        grad_bytes = sum(p.data.nbytes for _, p in model.named_parameters())
        gc.disable()
        tracemalloc.start()
        try:
            with ad.Tape():
                logits = model(x)
                loss = ad.softmax_cross_entropy(logits, np.array([3, 7]))
            ad.backward(loss)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert logits.grad is not None and loss.grad is not None
        assert current <= 1.5 * grad_bytes, current / grad_bytes


class TestInitBehavior:
    def test_logits_finite_across_seeds(self, rng):
        spec = get_preset("nano")
        for seed in range(100):
            model = VCMamba(spec, seed=seed).eval()
            x = Tensor(rng.normal(size=(1, 3, 32, 32)).astype(np.float32))
            logits = model(x)
            assert np.all(np.isfinite(logits.data)), seed

    def test_every_parameter_gets_gradient(self):
        # needs a stage-4 grid larger than 1x1: with a single token the
        # recurrence decay never engages and a_log correctly has zero grad
        for seed in range(5):
            model = VCMamba(GRADFLOW, seed=seed)
            rng = np.random.default_rng(100 + seed)
            x = Tensor(rng.normal(size=(2, 3, 64, 64)).astype(np.float32))
            labels = rng.integers(0, 10, size=2)
            with ad.Tape():
                loss = ad.softmax_cross_entropy(model(x), labels)
            ad.backward(loss)
            for name, p in model.named_parameters():
                assert p.grad is not None, (seed, name)
                assert np.any(p.grad != 0), (seed, name)


class TestParamCounts:
    def test_linear_layer_oracle(self):
        layer = Linear(10, 5)
        assert sum(p.size for p in layer.parameters()) == 55

    def test_tiny_config_counted_by_hand(self):
        model = VCMamba(TINY, seed=0)
        counts = count_params(model)

        stem = (2 * 3 * 9) + 2 * 2 + (4 * 2 * 9) + 2 * 4      # convs + 2 BNs
        ffn = (16 * 4) + 2 * 16 + (16 * 9) + 2 * 16 + (4 * 16 + 4)
        ffn_stage = 2 * 4 + ffn + 2 * 4                       # entry/exit BN
        down = (4 * 4 * 9) + 2 * 4
        ssm = (8 * 2) + 8 + (2 * 8) + (2 * 8) + (1 * 8) + (8 * 1) + 8 + (5 * 2)
        branch = (8 * 4 + 8) + (8 * 1 * 1) + (8 * 9 + 8) + ssm + (2 * 8) + (4 * 8) + 2 * 4
        mdm = 2 * 4 + branch + 2 * 4 + ffn
        stage4 = 2 * 4 + mdm + 2 * 4
        head = 4 * 10 + 10
        expected = stem + 3 * (ffn_stage + down) + stage4 + head

        assert counts["total"] == expected
        assert counts["total"] == sum(p.size for p in model.parameters())
        assert counts["sections"]["head"] == head
        assert counts["sections"]["stem"] == stem

    def test_buffer_elements_counted_separately(self):
        model = VCMamba(TINY, seed=0)
        counts = count_params(model)
        assert counts["buffer_elements"] == sum(b.size for _, b in model.named_buffers())
        assert counts["buffer_elements"] > 0
        # buffers must not leak into the parameter total
        assert counts["total"] == sum(p.size for p in model.parameters())

    def test_preset_totals_in_expected_region(self):
        totals = {}
        for name in ("nano",):
            totals[name] = count_params(VCMamba.undrawn(get_preset(name)))["total"]
        assert 0.5e6 < totals["nano"] < 1.5e6


class TestMacCounts:
    def test_tiny_sections_by_hand(self):
        spec = get_preset("nano")
        macs = count_macs(spec)
        # stem at 32x32: conv1 on 16^2, conv2 on 8^2
        assert macs["sections"]["stem"] == 16 ** 2 * 8 * 3 * 9 + 8 ** 2 * 16 * 8 * 9
        assert macs["sections"]["head"] == 128 * 10
        assert macs["sections"]["down1"] == 4 ** 2 * 32 * 16 * 9
        assert macs["total"] == sum(macs["sections"].values())

    def test_ffn_stage_formula(self):
        spec = get_preset("nano")
        macs = count_macs(spec)
        c, s = 16, 8  # stage 1 at 32x32 input
        hidden, l = 4 * c, s * s
        ffn = l * hidden * c + l * hidden * 9 + l * c * hidden
        assert macs["sections"]["stage1"] == 2 * ffn

    def test_quadratic_resolution_scaling(self):
        spec = get_preset("nano")
        ratio = count_macs(spec, 64)["total"] / count_macs(spec, 32)["total"]
        assert 3.9 < ratio < 4.1

    def test_resolution_validation(self):
        with pytest.raises(ValueError, match="multiple of 32"):
            count_macs(get_preset("nano"), 50)

    def test_mdm_block_by_hand(self):
        # stage 4 at a 1x1 grid: channels 4, inner width 8, delta rank 1, 16 states
        spec = ModelSpec("a", (4, 4, 4, 4), ("F", "F", "F", "M"), 10, 32)
        c, d, rank, n, l = 4, 8, 1, 16, 1
        mamba = l * d * c + l * d * 9 + l * c * d                # in-proj, dwconv, out-proj
        mamba += 2 * l * n * d + 2 * l * rank * d                 # B/C and delta, once
        mamba += 4 * (5 * l * d * n + l * d)                      # scan and skip, per path
        mlp = l * 4 * c * c + l * 4 * c * 9 + l * c * 4 * c
        assert mamba + mlp == 3272
        assert count_macs(spec)["sections"]["stage4"] == 3272

    def test_mdm_beats_ffn_at_same_width(self):
        # a Mamba block strictly contains an FFN block, so it must cost more
        with_m = count_macs(ModelSpec("a", (4, 4, 4, 4), ("F", "F", "F", "M"), 10, 32))
        with_f = count_macs(ModelSpec("b", (4, 4, 4, 4), ("F", "F", "F", "F"), 10, 32))
        assert with_m["total"] > with_f["total"]
