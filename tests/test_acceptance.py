"""Release acceptance gate: ten numbered criteria, one test each.

Every test records exactly one [PASS]/[FAIL] scoreboard line through the
criterion_report fixture before asserting, so a full run of this module
ends with a criterion-by-criterion summary whatever the outcome.

The module is self-contained: expected values are stated inline and the
reference implementations (naive recurrence, direction table, loop-free
oracles) are written here rather than imported from the code under test.
Criterion 9 trains the nano preset for real (three 500-step runs, each in a
child process with one BLAS thread, as many at once as there are usable
cores) and dominates the runtime at a few minutes; everything else runs in
seconds.
"""

import csv
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import vcmamba.autodiff as ad
from vcmamba.autodiff import Tensor
from vcmamba.blocks import FfnBlock, MdmBlock
from vcmamba.checkpoint import (CheckpointError, CheckpointFormatError,
                                CheckpointIntegrityError, load_checkpoint,
                                save_checkpoint)
from vcmamba.gradcheck import finite_diff_check
from vcmamba.model import PRESETS, VCMamba, count_macs, count_params, get_preset
from vcmamba.scanpath import PathId, build_path, gather_tokens, scatter_tokens
from vcmamba.ssm import (ScanInputs, SsmParams, direction_aware_scan,
                         selective_scan_parallel, selective_scan_sequential)

F64 = np.float64
REPO = Path(__file__).resolve().parents[1]
SRC = str(Path(ad.__file__).resolve().parents[1])     # the vcmamba these tests import

# flat-index offsets of each direction code on an H x W grid, stated fresh
OFFSET_BY_CODE = {1: (0, 1), 2: (0, -1), 3: (1, 0), 4: (-1, 0)}


def sample_scan_instance(rng, length, d_inner, n_state, batch, dtype, directed=False):
    """Random operands at controlled magnitude: delta inside the init range,
    state projections scaled 1/sqrt(N) so outputs stay O(1)."""
    params = SsmParams(d_inner, n_state).draw(rng).to(dtype)
    scale = 1.0 / np.sqrt(n_state)
    inputs = ScanInputs(
        x=Tensor(rng.standard_normal((batch, d_inner, length)), dtype=dtype),
        delta=Tensor(rng.uniform(0.005, 0.3, size=(batch, d_inner, length)), dtype=dtype),
        b_seq=Tensor(rng.standard_normal((batch, n_state, length)) * scale, dtype=dtype),
        c_seq=Tensor(rng.standard_normal((batch, n_state, length)) * scale, dtype=dtype))
    if directed:
        dirs = np.zeros(length, dtype=np.int64)
        if length > 1:
            dirs[1:] = rng.integers(1, 5, size=length - 1)
        inputs.dirs = dirs
        params.direction_table.data[...] = (rng.standard_normal((5, n_state)) * scale).astype(dtype)
    return inputs, params


def naive_recurrence(inputs, params):
    """Literal per-token recurrence in float64: h = exp(delta*A) h +
    delta*(b + table[dir]) x, y = c.h + skip x. Plain python loops."""
    x = np.asarray(inputs.x.data, dtype=F64)
    delta = np.asarray(inputs.delta.data, dtype=F64)
    bseq = np.asarray(inputs.b_seq.data, dtype=F64)
    cseq = np.asarray(inputs.c_seq.data, dtype=F64)
    a = -np.exp(np.asarray(params.a_log.data, dtype=F64))
    table = np.asarray(params.direction_table.data, dtype=F64)
    skip = np.asarray(params.skip_gain.data, dtype=F64)
    batch, d_inner, length = x.shape
    y = np.zeros_like(x)
    for bi in range(batch):
        for di in range(d_inner):
            h = np.zeros(a.shape[1])
            for i in range(length):
                b_i = bseq[bi, :, i].copy()
                if inputs.dirs is not None:
                    b_i += table[int(inputs.dirs[i])]
                h = np.exp(delta[bi, di, i] * a[di]) * h \
                    + delta[bi, di, i] * b_i * x[bi, di, i]
                y[bi, di, i] = cseq[bi, :, i] @ h + skip[di] * x[bi, di, i]
    return y


def test_c01_parameter_counts(criterion_report):
    targets = {"S": 10.5e6, "M": 21.0e6, "B": 31.5e6}
    parts, ok = [], True
    t0 = time.perf_counter()
    for name, target in targets.items():
        total = count_params(VCMamba.undrawn(PRESETS[name]))["total"]
        rel = (total - target) / target
        parts.append(f"{name}={total / 1e6:.3f}M ({rel:+.1%})")
        ok = ok and abs(rel) <= 0.10
    detail = ", ".join(parts) + f" vs 10.5/21.0/31.5M +-10% in {time.perf_counter() - t0:.1f}s"
    criterion_report("C1 parameter counts S/M/B", ok, detail)
    assert ok, detail


def test_c02_mac_counts(criterion_report):
    s = count_macs(PRESETS["S"], 224)["total"]
    b224 = count_macs(PRESETS["B"], 224)["total"]
    b448 = count_macs(PRESETS["B"], 448)["total"]
    ratio = b448 / b224
    ok = (abs(s - 1.1e9) <= 0.15 * 1.1e9 and abs(b224 - 4.0e9) <= 0.15 * 4.0e9
          and 3.9 <= ratio <= 4.1)
    detail = (f"S={s / 1e9:.3f}G, B={b224 / 1e9:.3f}G vs 1.1/4.0G +-15%; "
              f"448/224 ratio {ratio:.3f}")
    criterion_report("C2 multiply-accumulate counts", ok, detail)
    assert ok, detail


def test_c03_parallel_equals_sequential(criterion_report):
    rng = np.random.default_rng(202)
    worst = {"float32": 0.0, "float64": 0.0}
    count = 0
    for trial in range(50):
        length = (1, 2, 3, 257, 512)[trial] if trial < 5 else int(rng.integers(1, 513))
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 17))
        b = int(rng.integers(1, 4))
        for dtype, tol in ((np.float32, 1e-5), (F64, 1e-10)):
            inputs, params = sample_scan_instance(rng, length, d, n, b, dtype)
            err = float(np.abs(selective_scan_sequential(inputs, params).data
                               - selective_scan_parallel(inputs, params).data).max())
            key = np.dtype(dtype).name
            worst[key] = max(worst[key], err)
            count += 1
    ok = worst["float32"] < 1e-5 and worst["float64"] < 1e-10
    detail = (f"{count} instances, L<=512: max |seq - par| "
              f"{worst['float32']:.2e} f32 (<1e-5), {worst['float64']:.2e} f64 (<1e-10)")
    criterion_report("C3 doubling scan equals literal recurrence", ok, detail)
    assert ok, detail


def test_c04_direction_aware_matches_naive(criterion_report):
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(50):
        length = int(rng.integers(1, 97))
        inputs, params = sample_scan_instance(rng, length, int(rng.integers(1, 7)),
                                              int(rng.integers(1, 9)),
                                              int(rng.integers(1, 3)), F64, directed=True)
        got = direction_aware_scan(inputs, params, parallel=bool(trial % 2))
        worst = max(worst, float(np.abs(got.data - naive_recurrence(inputs, params)).max()))
    # zero table: directed scan is the plain scan, bit for bit, on both routes
    inputs, params = sample_scan_instance(rng, 40, 4, 6, 2, F64, directed=True)
    params.direction_table.data[...] = 0.0
    plain = ScanInputs(x=inputs.x, delta=inputs.delta, b_seq=inputs.b_seq, c_seq=inputs.c_seq)
    neutral = (np.array_equal(direction_aware_scan(inputs, params, parallel=False).data,
                              selective_scan_sequential(plain, params).data)
               and np.array_equal(direction_aware_scan(inputs, params, parallel=True).data,
                                  selective_scan_parallel(plain, params).data))
    ok = worst < 1e-6 and neutral
    detail = (f"50 instances vs naive recurrence: max err {worst:.2e} (<1e-6); "
              f"zero-table bitwise reduction {'holds' if neutral else 'BROKEN'}")
    criterion_report("C4 direction-aware scan vs brute force", ok, detail)
    assert ok, detail


def test_c05_scan_path_suite(criterion_report):
    rng = np.random.default_rng(505)
    ok = True
    grids = 0
    t0 = time.perf_counter()
    for h in range(1, 17):
        for w in range(1, 17):
            probe = Tensor(rng.standard_normal((1, h, w, 2)).astype(np.float32))
            for pid in PathId:
                path = build_path(h, w, pid)
                order = np.asarray(path.order)
                ok = ok and sorted(order.tolist()) == list(range(h * w))
                rows, cols = order // w, order % w
                dr, dc = np.diff(rows), np.diff(cols)
                ok = ok and bool(np.all(np.abs(dr) + np.abs(dc) == 1))
                expected = np.zeros(h * w, dtype=np.int64)
                for code, (er, ec) in OFFSET_BY_CODE.items():
                    expected[1:][(dr == er) & (dc == ec)] = code
                ok = ok and np.array_equal(expected, np.asarray(path.dirs))
                back = scatter_tokens(gather_tokens(probe, [path]), [path])
                ok = ok and np.array_equal(back.data, probe.data)
            grids += 1
    elapsed = time.perf_counter() - t0
    detail = (f"{grids} grids x 4 paths: permutation, adjacency, direction labels, "
              f"gather/scatter round-trip in {elapsed:.1f}s")
    criterion_report("C5 exhaustive scan-path suite to 16x16", ok, detail)
    assert ok, detail


def _op_gradient_cases(rng):
    """One finite-difference case per differentiable op. Each entry is
    (name, zero-arg loss fn, tensors to perturb)."""

    def t(*shape, lo=-1.0, hi=1.0):
        return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True, dtype=F64)

    def w(*shape):  # fixed weighting so reductions are not permutation-blind
        return Tensor(rng.standard_normal(shape), dtype=F64)

    def nhwc(a):  # the map ops take channels-last maps
        return Tensor(np.moveaxis(a.data, 1, -1), requires_grad=a.requires_grad, dtype=F64)

    x23, y23, wt23 = t(2, 3), t(2, 3), w(2, 3)
    xk = Tensor(rng.uniform(0.2, 1.0, size=(2, 3)) * rng.choice([-1.0, 1.0], size=(2, 3)),
                requires_grad=True, dtype=F64)  # kept away from the relu kink
    x235 = t(2, 3, 5)
    wt65, wt253, wt234 = w(6, 5), w(2, 5, 3), w(2, 3, 4)
    idx = np.array([4, 0, 0, 2])
    xc, wc = nhwc(t(2, 3, 5, 5)), t(4, 3, 3, 3)
    wt_conv = nhwc(w(2, 4, 3, 3))
    xd, wd, bd = nhwc(t(2, 3, 5, 5)), t(3, 1, 3, 3), t(3)
    wt_dw = nhwc(w(2, 3, 5, 5))
    xl, wl, bl, wt_lin = t(2, 4), t(3, 4), t(3), w(2, 3)
    xb, gb, bb, wt_bn = nhwc(t(2, 3, 2, 2)), t(3, lo=0.5, hi=1.5), t(3), nhwc(w(2, 3, 2, 2))
    rm, rv = np.zeros(3), np.ones(3)
    xn, gn, bn, wt_ln = t(2, 3, 4), t(4, lo=0.5, hi=1.5), t(4), w(2, 3, 4)
    xm, mm, wt_map = t(2, 3, 2, 2), t(3, 2, 2), w(2, 3, 2, 2)
    xg, wt_gap = t(2, 3, 4, 4), w(2, 3)
    mr, wt_rs = t(2, 3, 3), w(2, 4, 5)
    logits = t(3, 5)
    labels = np.array([0, 4, 2])

    def weighted(out, weights):
        return ad.sum_all(ad.mul(out, weights))

    cases = [
        ("add", lambda: weighted(ad.add(x23, y23), wt23), [x23, y23]),
        ("sub", lambda: weighted(ad.sub(x23, y23), wt23), [x23, y23]),
        ("mul", lambda: weighted(ad.mul(x23, y23), wt23), [x23, y23]),
        ("scale", lambda: weighted(ad.scale(x23, -1.7), wt23), [x23]),
        ("add_scalar", lambda: weighted(ad.add_scalar(x23, 0.4), wt23), [x23]),
        ("sum_all", lambda: ad.sum_all(x23), [x23]),
        ("mean_all", lambda: ad.mean_all(x23), [x23]),
        ("reshape", lambda: weighted(ad.reshape(x235, (6, 5)), wt65), [x235]),
        ("moveaxis", lambda: weighted(ad.moveaxis(x235, 1, 2), wt253), [x235]),
        ("take_last", lambda: weighted(ad.take_last(x235, idx), wt234), [x235]),
        ("relu", lambda: weighted(ad.relu(xk), wt23), [xk]),
        ("gelu", lambda: weighted(ad.gelu(x23), wt23), [x23]),
        ("silu", lambda: weighted(ad.silu(x23), wt23), [x23]),
        ("softplus", lambda: weighted(ad.softplus(x23), wt23), [x23]),
        ("linear", lambda: weighted(ad.linear(xl, wl, bl), wt_lin), [xl, wl, bl]),
        ("conv2d", lambda: weighted(ad.conv2d(xc, wc), wt_conv), [xc, wc]),
        ("depthwise_conv2d", lambda: weighted(ad.depthwise_conv2d(xd, wd, bd), wt_dw),
         [xd, wd, bd]),
        ("batch_norm",
         lambda: weighted(ad.batch_norm(xb, gb, bb, rm, rv, training=True), wt_bn),
         [xb, gb, bb]),
        ("layer_norm", lambda: weighted(ad.layer_norm(xn, gn, bn), wt_ln), [xn, gn, bn]),
        ("add_map", lambda: weighted(ad.add_map(xm, mm), wt_map), [xm, mm]),
        ("global_avg_pool", lambda: weighted(ad.global_avg_pool(xg), wt_gap), [xg]),
        ("bilinear_resize", lambda: weighted(ad.bilinear_resize(mr, 4, 5), wt_rs), [mr]),
        ("softmax_cross_entropy", lambda: ad.softmax_cross_entropy(logits, labels), [logits]),
    ]

    seq_in, seq_p = sample_scan_instance(rng, 5, 2, 2, 1, F64)
    dir_in, dir_p = sample_scan_instance(rng, 6, 2, 2, 1, F64, directed=True)
    for operand in (seq_in.x, seq_in.delta, seq_in.b_seq, seq_in.c_seq,
                    dir_in.x, dir_in.delta, dir_in.b_seq, dir_in.c_seq):
        operand.requires_grad = True
    wt_seq = w(1, 2, 5)
    seq_wrt = [seq_in.x, seq_in.delta, seq_in.b_seq, seq_in.c_seq,
               seq_p.a_log, seq_p.skip_gain]
    wt_dir = w(1, 2, 6)
    cases += [
        ("selective_scan_sequential",
         lambda: weighted(selective_scan_sequential(seq_in, seq_p), wt_seq), seq_wrt),
        ("selective_scan_parallel",
         lambda: weighted(selective_scan_parallel(seq_in, seq_p), wt_seq), seq_wrt),
        ("direction_aware_scan",
         lambda: weighted(direction_aware_scan(dir_in, dir_p, parallel=True), wt_dir),
         [dir_in.x, dir_in.delta, dir_in.b_seq, dir_in.c_seq,
          dir_p.a_log, dir_p.skip_gain, dir_p.direction_table]),
    ]
    return cases


def test_c06_finite_difference_gradients(criterion_report):
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    failures, worst, n_ops = [], 0.0, 0
    for name, f, wrt in _op_gradient_cases(rng):
        report = finite_diff_check(f, wrt, max_coords_per_tensor=6, rng=rng)
        worst = max(worst, report.max_error)
        n_ops += 1
        if not report.passed:
            failures.append(f"{name}: {report}")

    block = MdmBlock(4, (2, 2)).draw(np.random.default_rng(7)).to(F64).train()
    xb = Tensor(np.moveaxis(rng.standard_normal((1, 4, 2, 2)), 1, -1), requires_grad=True,
                dtype=F64)
    wtb = Tensor(np.moveaxis(rng.standard_normal((1, 4, 2, 2)), 1, -1), dtype=F64)
    report = finite_diff_check(lambda: ad.sum_all(ad.mul(block(xb), wtb)),
                               [p for _, p in block.named_parameters()] + [xb],
                               max_coords_per_tensor=4, rng=rng)
    worst = max(worst, report.max_error)
    if not report.passed:
        failures.append(f"mdm_block: {report}")

    model = VCMamba(get_preset("nano"), seed=3).to(F64)
    xe = Tensor(rng.random((2, 3, 32, 32)), requires_grad=True, dtype=F64)
    labels = np.array([3, 7])
    # end-to-end check runs in eval mode: with 2 samples on a 1x1 stage-4 grid,
    # train-mode batch norm normalizes bare channel pairs and the loss acquires
    # near-discontinuities narrower than any usable step (the train-mode VJP is
    # covered by the op-level and block-level checks above); eval mode keeps
    # the same parameters on a smooth composition
    model.train()(xe)   # prime the running stats away from their init values
    model.eval()
    report = finite_diff_check(lambda: ad.softmax_cross_entropy(model(xe), labels),
                               [p for _, p in model.named_parameters()] + [xe],
                               max_coords_per_tensor=2, rng=rng)
    worst = max(worst, report.max_error)
    if not report.passed:
        failures.append(f"nano_end_to_end: {report}")

    ok = not failures
    detail = (f"{n_ops} ops + mdm block + nano end to end: max rel err {worst:.2e} "
              f"(tol 1e-3) in {time.perf_counter() - t0:.0f}s")
    if failures:
        detail += "; FAILED " + "; ".join(failures)
    criterion_report("C6 finite-difference gradient checks", ok, detail)
    assert ok, detail


def test_c07_shape_ladder(criterion_report):
    t0 = time.perf_counter()
    model = VCMamba.undrawn(PRESETS["B"]).eval()
    x = Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32))
    expected = [(1, 56, 56, 64), (1, 28, 28, 128), (1, 14, 14, 320), (1, 7, 7, 512)]
    t = model.stage1(model.stem(x))
    got = [t.shape]
    t = model.stage2(model.down1(t))
    got.append(t.shape)
    t = model.stage3(model.down2(t))
    got.append(t.shape)
    t = model.stage4(model.down3(t))
    got.append(t.shape)
    logits = model.head(ad.global_avg_pool(ad.moveaxis(t, 3, 1)))
    ok = got == expected and logits.shape == (1, 1000)
    detail = f"stages {got}, logits {logits.shape} in {time.perf_counter() - t0:.1f}s"
    criterion_report("C7 variant-B shape ladder at 224", ok, detail)
    assert ok, detail


def test_c08_passthrough_invariants(criterion_report):
    rng = np.random.default_rng(808)
    x = Tensor(rng.standard_normal((2, 5, 5, 8)), dtype=F64)

    ffn = FfnBlock(8).draw(np.random.default_rng(1)).to(F64).eval()
    ffn.mlp.project.weight.data[...] = 0.0
    ffn.mlp.project.bias.data[...] = 0.0
    ffn_ok = np.array_equal(ffn(x).data, x.data)

    mdm = MdmBlock(8, (5, 5)).draw(np.random.default_rng(2)).to(F64).eval()
    mdm.mamba.out_proj.weight.data[...] = 0.0
    mdm.mamba.out_norm.beta.data[...] = 0.0
    mdm.mlp.project.weight.data[...] = 0.0
    mdm.mlp.project.bias.data[...] = 0.0
    mdm_ok = np.array_equal(mdm(x).data, x.data)

    inputs, params = sample_scan_instance(rng, 24, 3, 4, 2, F64, directed=True)
    params.direction_table.data[...] = 0.0
    plain = ScanInputs(x=inputs.x, delta=inputs.delta, b_seq=inputs.b_seq, c_seq=inputs.c_seq)
    theta_ok = np.array_equal(direction_aware_scan(inputs, params).data,
                              selective_scan_sequential(plain, params).data)

    ok = ffn_ok and mdm_ok and theta_ok
    detail = (f"zeroed-projection identity: ffn {'ok' if ffn_ok else 'BROKEN'}, "
              f"mdm {'ok' if mdm_ok else 'BROKEN'}; "
              f"zero direction table neutral: {'ok' if theta_ok else 'BROKEN'}")
    criterion_report("C8 residual passthrough and direction neutrality", ok, detail)
    assert ok, detail


# one C9 seed's run in a fresh interpreter: train(TrainConfig(**json argv[1])),
# then its final loss, first loss and final accuracy as a JSON line
C9_CHILD = """\
import json, sys
from vcmamba.config import TrainConfig
from vcmamba.train import train
result = train(TrainConfig(**json.loads(sys.argv[1])))
print(json.dumps([result.final_loss, result.first_loss, result.final_accuracy]))
"""


def train_in_child(config, timeout_s=1800):
    """Run C9_CHILD on a config dict with one BLAS thread, set in the child's
    environment before numpy loads; the completed process keeps its stderr.
    A child still running after timeout_s is killed and reads as exit -1."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    args = [sys.executable, "-c", C9_CHILD, json.dumps(config)]
    try:
        return subprocess.run(args, env=env, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(args, -1, "", f"killed after {timeout_s} s\n")


@pytest.mark.slow
def test_c09_training_smoke(criterion_report, tmp_path):
    # committed reference run: nano, 2000 steps, batch 32 (reference/train_nano.cfg)
    with open(REPO / "reference" / "train_log.csv", newline="") as f:
        ref = list(csv.DictReader(f))
    ref_final = ref[-1]
    ref_first = float(ref[0]["loss"])
    ref_at_500 = float(ref[499]["loss"])
    ref_ok = (ref_final["phase"] == "eval" and int(ref_final["step"]) == 2000
              and float(ref_final["accuracy"]) >= 0.90
              and ref_at_500 < 0.5 * ref_first)

    seeds = (0, 1, 2)
    configs = [dict(preset="nano", steps=500, batch_size=32, n_samples=512,
                    seed=seed, data_seed=0, checkpoint_every=500,
                    checkpoint_path=str(tmp_path / f"s{seed}.ckpt"),
                    log_path=str(tmp_path / f"s{seed}.csv")) for seed in seeds]
    t0 = time.perf_counter()
    with ThreadPoolExecutor(min(len(seeds), len(os.sched_getaffinity(0)))) as pool:
        runs = list(pool.map(train_in_child, configs))
    elapsed = time.perf_counter() - t0
    for seed, run in zip(seeds, runs):
        if run.returncode:
            criterion_report("C9 nano learns the toy task", False,
                             f"seed {seed} training exited {run.returncode}")
            pytest.fail(f"C9 seed {seed} training exited {run.returncode}:\n{run.stderr}",
                        pytrace=False)
    results = [json.loads(run.stdout.splitlines()[-1]) for run in runs]
    ratios = [final_loss / first_loss for final_loss, first_loss, _ in results]
    accs = [accuracy for _, _, accuracy in results]

    halved = float(np.mean(ratios)) < 0.5
    learned = min(accs) >= 0.90     # hit within 500 steps, well inside the 2000 budget
    ok = ref_ok and halved and learned
    detail = (f"3 seeds x 500 steps in {elapsed:.0f}s: final/initial loss "
              f"{np.mean(ratios):.4f} (<0.5), train accuracy "
              f"{', '.join(f'{a:.3f}' for a in accs)} (>=0.90); committed 2000-step run: "
              f"accuracy {float(ref_final['accuracy']):.3f}")
    criterion_report("C9 nano learns the toy task", ok, detail)
    assert ok, detail


def test_c10_checkpoint_round_trip(criterion_report, tmp_path):
    model = VCMamba(get_preset("nano"), seed=4)
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((2, 3, 32, 32), dtype=np.float32))
    model.train()(x)    # move BN running stats off their init values
    y_ref = model.eval()(x)

    path = tmp_path / "m.ckpt"
    save_checkpoint(model, str(path))
    clone = load_checkpoint(str(path)).eval()
    bitwise = np.array_equal(clone(x).data, y_ref.data)

    blob = path.read_bytes()
    rejected = []
    for tag, corrupt in (("truncated", blob[: len(blob) // 2]),
                         ("flipped-byte", blob[:100] + bytes([blob[100] ^ 0xFF]) + blob[101:]),
                         ("bad-magic", b"XCMB" + blob[4:])):
        path.write_bytes(corrupt)
        try:
            load_checkpoint(str(path))
            rejected.append(f"{tag}: ACCEPTED")
        except (CheckpointFormatError, CheckpointIntegrityError):
            pass
        except CheckpointError as exc:
            rejected.append(f"{tag}: wrong class {type(exc).__name__}")

    ok = bitwise and not rejected
    detail = (f"save/load/forward {'bit-identical' if bitwise else 'DIFFERS'}; "
              f"corruption {'all rejected' if not rejected else '; '.join(rejected)}")
    criterion_report("C10 checkpoint round trip and rejection", ok, detail)
    assert ok, detail
