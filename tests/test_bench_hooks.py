"""The benchmark's run-time hooks against the package they wrap.

bench/tracing.py patches package functions by name and reads the scan
operands' layout to count scanned elements. A rename or a layout change in
``src/`` would break ``bench/run.py --trace 1`` without failing any kernel
test; these trace a single Mamba mixer forward, a single eval ConvMlp
forward and a taped ConvMlp and Mamba mixer forward and backward, the last
also off the mixer's native grid, instead. One more checks that a traced
ConvMlp still rebuilds, not keeps, its expand output.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import vcmamba.autodiff as ad
from vcmamba.autodiff import Tape, Tensor
from vcmamba.blocks import MAMBA_EXPANSION, ConvMlp, DownsampleLayer, MambaBranch

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_namespaces():
    """Every vcmamba module and class namespace, name -> object, by identity."""
    spaces = {}
    for key, module in list(sys.modules.items()):
        if key == "vcmamba" or key.startswith("vcmamba."):
            spaces[key] = dict(vars(module))
            for name, obj in vars(module).items():
                if isinstance(obj, type) and obj.__module__ == key:
                    spaces[f"{key}.{name}"] = dict(vars(obj))
    return spaces


def changed(before, now):
    """The (namespace, name) pairs whose object is no longer the one before held."""
    return {(space, name) for space, names in before.items()
            for name, obj in names.items() if now[space].get(name) is not obj}


def test_tracer_counts_one_scan_and_restores_the_package():
    bsz, channels, n_state, (h, w) = 2, 4, 4, (3, 3)
    branch = MambaBranch(channels, (h, w), n_state=n_state).draw(np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(bsz, h, w, channels)))
    before = package_namespaces()

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        installed = package_namespaces()
        tracer.begin_op()
        branch(x)
        tracer.end_op()
    finally:
        tracer.uninstall()
    after = package_namespaces()

    assert ("vcmamba.ssm", "direction_aware_scan") in changed(before, installed)
    assert ("vcmamba.autodiff.Tape", "__enter__") in changed(before, installed)
    assert not changed(before, after)

    metrics, _ = tracer.summary()
    assert metrics["ssm.scan_calls"] == 1
    # four paths folded into the batch, each scanning L = H * W tokens
    assert metrics["ssm.scan_elements"] == 4 * bsz * MAMBA_EXPANSION * channels * n_state * h * w


def test_tracer_times_the_conv_mlp_ops_and_restores_them():
    # the ops the conv stack's eval fast path changes stay visible to the
    # trace: an eval ConvMlp folds its BNs into expand and the depthwise conv,
    # and an eval DownsampleLayer still runs its BN as a batch_norm op
    mlp = ConvMlp(4).draw(np.random.default_rng(0)).eval()
    down = DownsampleLayer(4, 6).draw(np.random.default_rng(2)).eval()
    x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 5, 4)))
    before = package_namespaces()

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        installed = changed(before, package_namespaces())
        tracer.begin_op()
        down(mlp(x))
        tracer.end_op()
    finally:
        tracer.uninstall()

    ops = ("gelu", "depthwise_conv2d", "linear", "batch_norm")
    assert {("vcmamba.autodiff", op) for op in ops} <= installed
    assert not changed(before, package_namespaces())
    metrics, _ = tracer.summary()
    for op in ops:
        assert metrics[f"autodiff.fwd_s.{op}"] > 0, op
    assert metrics["blocks.fwd_s.ConvMlp"] > 0
    assert metrics["blocks.fwd_s.DownsampleLayer"] > 0


def test_tracer_times_the_conv_mlp_vjps_and_restores_them():
    # the vjp spans are the per-layer view of what a backward rebuilds
    mlp = ConvMlp(4).draw(np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 5, 4)), requires_grad=True)
    before = package_namespaces()

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        installed = changed(before, package_namespaces())
        tracer.begin_op()
        with Tape():
            loss = ad.sum_all(mlp(x))
        ad.backward(loss)
        tracer.end_op()
    finally:
        tracer.uninstall()

    assert {("vcmamba.autodiff", "record"), ("vcmamba.autodiff", "backward")} <= installed
    assert not changed(before, package_namespaces())
    assert x.grad is not None
    metrics, _ = tracer.summary()
    for op in ("batch_norm", "depthwise_conv2d"):
        assert metrics[f"autodiff.vjp_s.{op}"] > 0, op
    assert metrics["autodiff.tape_nodes"] > 0


def test_traced_conv_mlp_keeps_no_linear_output():
    # the tracer wraps autodiff.linear; the wrapped linear's node must still
    # offer its rebuild, so norm1's vjp keeps no copy of the expand output
    mlp = ConvMlp(4).draw(np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 5, 4)), requires_grad=True)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        with Tape() as tape:
            loss = ad.sum_all(mlp(x))
        linears = [node for node in tape._nodes if node.op == "linear"]
        assert len(linears) == 2 and all(node.out() is None for node in linears)
        ad.backward(loss)
    finally:
        tracer.uninstall()
    assert mlp.expand.weight.grad is not None


def test_tracer_times_the_mamba_branch_vjps_and_restores_them():
    # silu and softplus reach record through the pointwise path; the bench
    # reads their vjp spans next to the scan's and layer norm's
    bsz, channels, (h, w) = 2, 4, (3, 3)
    branch = MambaBranch(channels, (h, w), n_state=4).draw(np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(bsz, h, w, channels)), requires_grad=True)
    before = package_namespaces()

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        with Tape():
            loss = ad.sum_all(branch(x))
        ad.backward(loss)
        tracer.end_op()
    finally:
        tracer.uninstall()

    assert not changed(before, package_namespaces())
    assert x.grad is not None
    metrics, _ = tracer.summary()
    for key in ("autodiff.vjp_s.silu", "autodiff.vjp_s.softplus", "autodiff.vjp_s.layer_norm",
                "ssm.scan_vjp_s"):
        assert metrics[key] > 0, key


def test_tracer_times_the_positional_resize_off_the_native_grid():
    # the bench times bilinear_resize by name; s448_eval resizes every
    # stage-4 positional map, so the op and its vjp must stay visible there
    bsz, channels = 2, 4
    branch = MambaBranch(channels, (3, 3), n_state=4).draw(np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(bsz, 5, 4, channels)), requires_grad=True)
    before = package_namespaces()

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        installed = changed(before, package_namespaces())
        tracer.begin_op()
        with Tape():
            loss = ad.sum_all(branch(x))
        ad.backward(loss)
        tracer.end_op()
    finally:
        tracer.uninstall()

    assert ("vcmamba.autodiff", "bilinear_resize") in installed
    assert not changed(before, package_namespaces())
    assert branch.pos_table.grad is not None
    metrics, _ = tracer.summary()
    for key in ("autodiff.fwd_s.bilinear_resize", "autodiff.vjp_s.bilinear_resize"):
        assert metrics[key] > 0, key
