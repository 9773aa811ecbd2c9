"""Runtime invariant suite behind the `check` CLI subcommand.

Each check returns a CheckResult; run_all executes the whole matrix. The
stochastic suites accept a trial count so the CLI can run reduced sizes
(--trials caps each at N); the defaults match the documented acceptance sizes.
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
from .model import PRESETS, VCMamba, count_macs, count_params
from .nn import BatchNorm2d
from .optim import AdamW
from .scanpath import Direction, PathId, build_path, gather_tokens, path_table, scatter_tokens
from .ssm import (CHUNK, N_DIRECTIONS, ScanInputs, SsmParams, _chunk_states, _discretize,
                  direction_aware_scan, selective_scan_parallel, selective_scan_sequential)
from .train import train_step


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# scan paths


def check_scan_paths(max_side: int = 16) -> CheckResult:
    """Exhaustive path validation for every grid up to max_side x max_side:
    permutation, 4-neighbor adjacency, direction consistency, exact reversal
    pairs, pairwise distinct orders on non-degenerate grids."""
    checked = 0
    for h in range(1, max_side + 1):
        for w in range(1, max_side + 1):
            paths = {pid: build_path(h, w, pid) for pid in PathId}
            for pid, p in paths.items():
                if sorted(p.order.tolist()) != list(range(h * w)):
                    return _result("scan_paths", False, f"{pid.value} {h}x{w}: not a permutation")
                if p.dirs[0] != Direction.BEGIN:
                    return _result("scan_paths", False, f"{pid.value} {h}x{w}: bad begin code")
                dr, dc = np.diff(p.order // w), np.diff(p.order % w)
                if p.length > 1 and not np.all(np.abs(dr) + np.abs(dc) == 1):
                    return _result("scan_paths", False, f"{pid.value} {h}x{w}: adjacency broken")
                codes = np.select([dc == 1, dc == -1, dr == 1], [Direction.RIGHT, Direction.LEFT,
                                                                 Direction.DOWN], Direction.UP)
                if not np.array_equal(p.dirs[1:], codes):
                    return _result("scan_paths", False, f"{pid.value} {h}x{w}: bad direction code")
            for a, b in ((PathId.ROW_SNAKE_TL, PathId.ROW_SNAKE_BR),
                         (PathId.COL_SNAKE_TL, PathId.COL_SNAKE_BR)):
                if not np.array_equal(paths[a].order[::-1], paths[b].order):
                    return _result("scan_paths", False, f"{h}x{w}: {b.value} is not the exact "
                                                        f"reversal of {a.value}")
            if h > 1 and w > 1:
                orders = [tuple(p.order.tolist()) for p in paths.values()]
                if len(set(orders)) != len(orders):
                    return _result("scan_paths", False, f"{h}x{w}: paths are not pairwise distinct")
            checked += 1
    return _result("scan_paths", True, f"{checked} grids x 4 paths validated")


def check_gather_scatter(trials: int = 10) -> CheckResult:
    rng = np.random.default_rng(7)
    for t in range(trials):
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        x = Tensor(rng.standard_normal((2, h, w, 3)), dtype=np.float64)
        for path in path_table(h, w):
            back = scatter_tokens(gather_tokens(x, [path]), [path])
            if not np.array_equal(back.data, x.data):
                return _result("gather_scatter", False,
                               f"round trip not bit-exact on {h}x{w} {path.path_id.value}")
    return _result("gather_scatter", True, f"{trials} grids x 4 paths round-trip bit-exact")


# ---------------------------------------------------------------------------
# scan kernels


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


def check_parallel_equivalence(trials: int = 100) -> CheckResult:
    """Doubling scan against the literal recurrence, float32 within 1e-5 and
    float64 within 1e-10, over random instances with L up to 512."""
    rng = np.random.default_rng(11)
    lengths = [1, 2, 3, 257, 512]
    worst32 = worst64 = 0.0
    for t in range(trials):
        length = lengths[t] if t < len(lengths) else int(rng.integers(1, 513))
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 17))
        b = int(rng.integers(1, 4))
        for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-10)):
            inputs, params = random_scan_instance(rng, length, d, n, b, dtype)
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


def dense_transition_oracle(inputs: ScanInputs, params: SsmParams) -> np.ndarray:
    """Brute-force reference: composes per-token transitions right to left
    for every output index, O(L^2), no shared recurrence state."""
    x, delta = inputs.x.data, inputs.delta.data
    b, c = inputs.b_seq.data, inputs.c_seq.data
    a = -np.exp(params.a_log.data)
    table = params.direction_table.data
    dirs = np.asarray(inputs.dirs)
    bsz, d_inner, length = x.shape
    abar = np.exp(delta[:, :, None, :] * a[None, :, :, None])
    beff = b + np.moveaxis(table[dirs], -1, -2)         # dirs (L,) or per row (B, L)
    u = delta[:, :, None, :] * beff[:, None, :, :] * x[:, :, None, :]
    y = np.empty_like(x)
    for i in range(length):
        h_i = np.zeros(abar.shape[:-1], dtype=x.dtype)
        weight = np.ones(abar.shape[:-1], dtype=x.dtype)
        for j in range(i, -1, -1):
            h_i = h_i + weight * u[..., j]
            weight = weight * abar[..., j]
        y[..., i] = (c[:, None, :, i] * h_i).sum(axis=2)
    return y + params.skip_gain.data[None, :, None] * x


def check_direction_oracle(trials: int = 50) -> CheckResult:
    """Direction-aware kernel against the dense composition oracle (float64,
    1e-6) and bitwise equality with the plain kernel at zero table. Every
    other trial gives each batch row its own codes, (B, L), the form the
    model's four-path call uses."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for t in range(trials):
        length = int(rng.integers(1, 49))
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        inputs, params = random_scan_instance(rng, length, d, n, 2, np.float64, with_dirs=True)
        if t % 2:
            inputs.dirs = np.stack([inputs.dirs, rng.permutation(inputs.dirs)])
            inputs.dirs[:, 0] = Direction.BEGIN
        y = direction_aware_scan(inputs, params)
        ref = dense_transition_oracle(inputs, params)
        err = float(np.abs(y.data - ref).max())
        worst = max(worst, err)
        if err >= 1e-6:
            return _result("direction_oracle", False, f"L={length}: err vs oracle {err:.2e}")

        params.direction_table.data[...] = 0.0
        y0 = direction_aware_scan(inputs, params)
        plain = selective_scan_sequential(inputs, params)
        if not np.array_equal(y0.data, plain.data):
            return _result("direction_oracle", False,
                           f"L={length}: zero table is not bitwise equal to the plain scan")
    return _result("direction_oracle", True,
                   f"{trials} instances: max err {worst:.2e}; zero-table bitwise equal")


def check_kernel_stability(trials: int = 20) -> CheckResult:
    """|h_i| <= max_j |bbar_j x_j| / (1 - max abar): the contraction bound
    of the recurrence with A < 0, on the states the scan kernel runs."""
    rng = np.random.default_rng(17)
    for _ in range(trials):
        length = int(rng.integers(1, 257))
        inputs, params = random_scan_instance(rng, length, 4, 8, 2, np.float64)
        # scan axis first: (L, B, D) and (L, B, N), states (L, B, N, D)
        dt, b, x = (np.moveaxis(v.data, -1, 0) for v in (inputs.delta, inputs.b_seq, inputs.x))
        a_t = -np.exp(params.a_log.data.T)
        abar, h = _chunk_states(dt, a_t, b, x, 0.0)
        u = _discretize(dt, a_t, b)[1] * x[:, :, None, :]
        amax = float(abar.max())
        bound = float(np.abs(u).max()) / (1.0 - amax)
        hmax = float(np.abs(h).max())
        if not (amax < 1.0 and hmax <= bound * (1.0 + 1e-12)):
            return _result("kernel_stability", False,
                           f"L={length}: |h| {hmax:.3e} exceeds bound {bound:.3e}")
    return _result("kernel_stability", True, f"{trials} instances within the contraction bound")


def check_kernel_causality(trials: int = 10) -> CheckResult:
    """Perturbing tokens after position i leaves y[..k<=i] bitwise unchanged."""
    rng = np.random.default_rng(19)
    for _ in range(trials):
        length = int(rng.integers(2, 65))
        cut = int(rng.integers(0, length - 1))
        inputs, params = random_scan_instance(rng, length, 3, 5, 2, np.float64, with_dirs=True)
        y = direction_aware_scan(inputs, params)
        x2 = inputs.x.data.copy()
        x2[..., cut + 1:] += rng.standard_normal(x2[..., cut + 1:].shape)
        bumped = ScanInputs(x=Tensor(x2, dtype=np.float64), delta=inputs.delta,
                            b_seq=inputs.b_seq, c_seq=inputs.c_seq, dirs=inputs.dirs)
        y2 = direction_aware_scan(bumped, params)
        if not np.array_equal(y.data[..., :cut + 1], y2.data[..., :cut + 1]):
            return _result("kernel_causality", False, f"L={length} cut={cut}: prefix changed")
    return _result("kernel_causality", True, f"{trials} perturbation trials causal")


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
# blocks and model


def check_residual_passthrough() -> CheckResult:
    """Zeroing a block's final projection makes it the identity (eval mode),
    for both the FFN block and the Mamba branch of the MDM block."""
    from .blocks import FfnBlock, MdmBlock

    rng = np.random.default_rng(29)
    x = Tensor(rng.standard_normal((2, 5, 5, 8)), dtype=np.float64)

    ffn = FfnBlock(8).draw(np.random.default_rng(1)).to(np.float64).eval()
    ffn.mlp.project.weight.data[...] = 0.0
    ffn.mlp.project.bias.data[...] = 0.0
    if not np.array_equal(ffn(x).data, x.data):
        return _result("residual_passthrough", False, "FFN with zero projection is not identity")

    mdm = MdmBlock(8, (5, 5)).draw(np.random.default_rng(2)).to(np.float64).eval()
    mdm.mamba.out_proj.weight.data[...] = 0.0
    mdm.mamba.out_norm.beta.data[...] = 0.0
    mdm.mlp.project.weight.data[...] = 0.0
    mdm.mlp.project.bias.data[...] = 0.0
    if not np.array_equal(mdm(x).data, x.data):
        return _result("residual_passthrough", False, "MDM with zero projections is not identity")
    return _result("residual_passthrough", True, "zeroed projections pass inputs through bitwise")


def check_shape_ladder() -> CheckResult:
    """Stage-by-stage channels-last feature shapes of the B preset at 224 input."""
    model = VCMamba.undrawn(PRESETS["B"]).eval()
    x = Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32))
    expected = [(1, 56, 56, 64), (1, 28, 28, 128), (1, 14, 14, 320), (1, 7, 7, 512)]
    t = model.stem(x)
    got = []
    t = model.stage1(t)
    got.append(t.shape)
    t = model.stage2(model.down1(t))
    got.append(t.shape)
    t = model.stage3(model.down2(t))
    got.append(t.shape)
    t = model.stage4(model.down3(t))
    got.append(t.shape)
    logits = model.head(ad.global_avg_pool(ad.moveaxis(t, 3, 1)))
    if got != expected or logits.shape != (1, 1000):
        return _result("shape_ladder", False, f"got {got} logits {logits.shape}")
    return _result("shape_ladder", True, f"stages {got}, logits {logits.shape}")


def check_param_counts() -> CheckResult:
    targets = {"S": 10.5e6, "M": 21.0e6, "B": 31.5e6}
    details = []
    for name, target in targets.items():
        total = count_params(VCMamba.undrawn(PRESETS[name]))["total"]
        details.append(f"{name}={total / 1e6:.2f}M")
        if abs(total - target) > 0.10 * target:
            return _result("param_counts", False,
                           f"{name}: {total} outside {target:.0f} +- 10%")
    return _result("param_counts", True, ", ".join(details) + " all within 10%")


def check_mac_counts() -> CheckResult:
    targets = {"S": 1.1e9, "B": 4.0e9}
    details = []
    for name, target in targets.items():
        total = count_macs(PRESETS[name], 224)["total"]
        details.append(f"{name}={total / 1e9:.2f}G")
        if abs(total - target) > 0.15 * target:
            return _result("mac_counts", False, f"{name}: {total} outside {target:.0f} +- 15%")
    small = count_macs(PRESETS["B"], 224)["total"]
    big = count_macs(PRESETS["B"], 448)["total"]
    ratio = big / small
    details.append(f"448/224 ratio {ratio:.3f}")
    if not (3.9 <= ratio <= 4.1):
        return _result("mac_counts", False, f"448 vs 224 scaling ratio {ratio:.3f} not ~4")
    return _result("mac_counts", True, ", ".join(details))


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


def run_all(trials: int | None = None) -> list[CheckResult]:
    """The whole matrix; trials caps each stochastic suite's trial count."""
    def n(default: int) -> int:
        return default if trials is None else min(trials, default)

    return [
        check_scan_paths(),
        check_gather_scatter(n(10)),
        check_parallel_equivalence(n(100)),
        check_direction_oracle(n(50)),
        check_kernel_stability(n(20)),
        check_kernel_causality(n(10)),
        check_gradients(),
        check_residual_passthrough(),
        check_shape_ladder(),
        check_param_counts(),
        check_mac_counts(),
        check_determinism(),
        check_dataset(),
        check_checkpoint_roundtrip(),
    ]
