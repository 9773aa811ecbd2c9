"""Self-test behind the `check` CLI subcommand.

It ships with the installed package and checks what depends on the machine
and its numpy/BLAS build rather than on the source: that the doubling scan
still matches the literal one, that the vjps match finite differences in
float64, that same-seed builds, forwards and train steps repeat bit for bit,
that the toy dataset repeats, and that checkpoints round-trip and reject
corruption. The properties the source fixes (parameter and MAC budgets, the
stage ladder, the scan paths, the direction-aware scan against an oracle) are
held by the test suite; `tests/test_acceptance.py` is the release gate.
Each check returns a CheckResult; run_all runs all five.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import (CheckpointFormatError, CheckpointIntegrityError, load_checkpoint,
                         save_checkpoint)
from .data import ToyDataset
from .gradcheck import finite_diff_check
from .model import PRESETS, VCMamba
from .nn import BatchNorm2d
from .optim import AdamW
from .ssm import (CHUNK, N_DIRECTIONS, ScanInputs, SsmParams, direction_aware_scan,
                  selective_scan_parallel, selective_scan_sequential)
from .train import train_step


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# scan kernel


def random_scan_instance(rng: np.random.Generator, length: int, d_inner: int, n_state: int,
                         batch: int, dtype, with_dirs: bool = False):
    """Magnitude-controlled random operands: delta in the init range, B/C
    scaled by 1/sqrt(N) so outputs stay O(1)."""
    params = SsmParams(d_inner, n_state).draw(rng).to(dtype)
    scale = 1.0 / np.sqrt(n_state)
    x = Tensor(rng.standard_normal((batch, d_inner, length)), dtype=dtype)
    delta = Tensor(rng.uniform(0.001, 0.25, size=(batch, d_inner, length)), dtype=dtype)
    b_seq = Tensor(rng.standard_normal((batch, n_state, length)) * scale, dtype=dtype)
    c_seq = Tensor(rng.standard_normal((batch, n_state, length)) * scale, dtype=dtype)
    dirs = None
    if with_dirs:
        dirs = np.zeros(length, dtype=np.int64)
        if length > 1:
            dirs[1:] = rng.integers(1, N_DIRECTIONS, size=length - 1)
        params.direction_table.data[...] = (rng.standard_normal((N_DIRECTIONS, n_state))
                                            * scale).astype(dtype)
    return ScanInputs(x=x, delta=delta, b_seq=b_seq, c_seq=c_seq, dirs=dirs), params


def check_parallel_equivalence() -> CheckResult:
    """Doubling scan against the literal recurrence, float32 within 1e-5 and
    float64 within 1e-10, over 100 random instances with L up to 512, every
    other one with direction codes, as the model scans."""
    rng = np.random.default_rng(11)
    lengths = [1, 2, 3, 257, 512]
    trials = 100
    worst32 = worst64 = 0.0
    for t in range(trials):
        length = lengths[t] if t < len(lengths) else int(rng.integers(1, 513))
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 17))
        b = int(rng.integers(1, 4))
        for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-10)):
            inputs, params = random_scan_instance(rng, length, d, n, b, dtype,
                                                  with_dirs=bool(t % 2))
            ys = selective_scan_sequential(inputs, params)
            yp = selective_scan_parallel(inputs, params)
            err = float(np.abs(ys.data - yp.data).max())
            if dtype == np.float32:
                worst32 = max(worst32, err)
            else:
                worst64 = max(worst64, err)
            if err >= tol:
                return _result("parallel_equivalence", False,
                               f"L={length} D={d} N={n} {np.dtype(dtype).name}: err {err:.2e}")
    return _result("parallel_equivalence", True,
                   f"{trials} instances: max err {worst32:.2e} (f32), {worst64:.2e} (f64)")


# ---------------------------------------------------------------------------
# gradients


def check_gradients() -> CheckResult:
    """Finite-difference spot suite over the core ops and the fused scan."""
    rng = np.random.default_rng(23)
    failures = []
    worst = 0.0

    def run(tag, f, wrt, **kw):
        nonlocal worst
        report = finite_diff_check(f, wrt, **kw)
        worst = max(worst, report.max_error)
        if not report.passed:
            failures.append(f"{tag}: {report.max_error:.2e}")

    def t64(*shape, scale=1.0):
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=np.float64)

    # the map ops take channels-last (B, H, W, C) maps
    x, w = t64(2, 6, 6, 3), t64(4, 3, 3, 3, scale=0.3)
    run("conv2d", lambda: ad.sum_all(ad.conv2d(x, w)), [x, w])
    wd, bd = t64(3, 1, 3, 3, scale=0.3), t64(3, scale=0.3)
    weights = Tensor(rng.standard_normal((2, 6, 6, 3)), dtype=np.float64)
    run("depthwise_conv2d",
        lambda: ad.sum_all(ad.mul(ad.depthwise_conv2d(x, wd, bd), weights)),
        [x, wd, bd])
    gamma, beta = t64(3, scale=0.3), t64(3, scale=0.3)
    stats = np.zeros(3), np.ones(3)
    run("batch_norm (training)",
        lambda: ad.sum_all(ad.mul(ad.batch_norm(x, gamma, beta, *stats, training=True), weights)),
        [x, gamma, beta])

    xl = Tensor(rng.standard_normal((5, 4)), requires_grad=True, dtype=np.float64)
    wl = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
    run("linear+gelu", lambda: ad.sum_all(ad.gelu(ad.linear(xl, wl))), [xl, wl])

    # long enough that the backward's recompute crosses two chunk boundaries
    inputs, params = random_scan_instance(rng, 2 * CHUNK + 3, 3, 4, 2, np.float64,
                                          with_dirs=True)
    operands = [inputs.x, inputs.delta, inputs.b_seq, inputs.c_seq]
    for t in operands:
        t.requires_grad = True
    wrt = operands + [params.a_log, params.direction_table, params.skip_gain]
    run("direction_aware_scan", lambda: ad.sum_all(direction_aware_scan(inputs, params)), wrt)

    # a 1x1 conv's training BN, whose vjp rebuilds the conv's output
    norm, wp = BatchNorm2d(4).to(np.float64), t64(4, 3, 1, 1, scale=0.3)
    weights = Tensor(rng.standard_normal((2, 6, 6, 4)), dtype=np.float64)
    run("linear+batch_norm (training, BatchNorm2d.after)",
        lambda: ad.sum_all(ad.mul(norm.after(ad.linear, x, wp), weights)),
        [x, wp, norm.gamma, norm.beta])

    if failures:
        return _result("gradients", False, "; ".join(failures))
    return _result("gradients", True, f"spot suite max err {worst:.2e} (tol 1e-3)")


# ---------------------------------------------------------------------------
# builds, data and files


def check_determinism() -> CheckResult:
    a = VCMamba(PRESETS["nano"], seed=5)
    b = VCMamba(PRESETS["nano"], seed=5)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        if na != nb or not np.array_equal(pa.data, pb.data):
            return _result("determinism", False, f"same-seed builds differ at {na}")
    x = np.random.default_rng(3).random((2, 3, 32, 32), dtype=np.float32)
    if not np.array_equal(a.eval()(Tensor(x)).data, b.eval()(Tensor(x)).data):
        return _result("determinism", False, "same-seed eval forwards differ")
    for model in (a, b):
        train_step(model.train(), AdamW(model.named_parameters()), x, np.array([0, 1]))
    for (n, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        if not (np.array_equal(pa.grad, pb.grad) and np.array_equal(pa.data, pb.data)):
            return _result("determinism", False, f"same-seed train steps differ at {n}")
    return _result("determinism", True, "same-seed builds, forwards and train steps bit-identical")


def check_dataset() -> CheckResult:
    d1 = ToyDataset(200, seed=0)
    d2 = ToyDataset(200, seed=0)
    if d1.images.tobytes() != d2.images.tobytes() or not np.array_equal(d1.labels, d2.labels):
        return _result("dataset", False, "same-seed datasets differ")
    counts = np.bincount(d1.labels, minlength=10)
    if not np.all(counts == 20):
        return _result("dataset", False, f"label histogram {counts.tolist()} not balanced")
    if d1.images.min() < 0.0 or d1.images.max() > 1.0:
        return _result("dataset", False, "pixels escape [0, 1]")
    return _result("dataset", True, "deterministic, balanced, pixels in [0, 1]")


def check_checkpoint_roundtrip() -> CheckResult:
    model = VCMamba(PRESETS["nano"], seed=4)
    x = Tensor(np.random.default_rng(0).random((2, 3, 32, 32), dtype=np.float32))
    model.train()(x)  # move the BN running stats off init
    model.eval()
    y_ref = model(x)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "m.ckpt")
        save_checkpoint(model, path)
        clone = load_checkpoint(path).eval()
        if not np.array_equal(clone(x).data, y_ref.data):
            return _result("checkpoint_roundtrip", False, "round trip is not bit-exact")
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        try:
            load_checkpoint(path)
            return _result("checkpoint_roundtrip", False, "truncated file was accepted")
        except CheckpointIntegrityError:
            pass
        path.write_bytes(b"NOPE" + blob[4:])
        try:
            load_checkpoint(path)
            return _result("checkpoint_roundtrip", False, "bad magic was accepted")
        except (CheckpointFormatError, CheckpointIntegrityError):
            pass
    return _result("checkpoint_roundtrip", True, "bit-exact round trip; corruption rejected")


def run_all() -> list[CheckResult]:
    return [
        check_parallel_equivalence(),
        check_gradients(),
        check_determinism(),
        check_dataset(),
        check_checkpoint_roundtrip(),
    ]
