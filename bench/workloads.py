"""The three benchmark workloads.

Each is a closed loop: one client issues the next operation only after the
previous one returns. Inputs come from the workload seed; the model weights
are the seed-0 initialisation, so a fixed canary input checks them against a
stored reference while the seed varies the data.

nano_train  the public train() on reference/train_nano.cfg (nano, 32 px,
            batch 32, 512 samples), run as repeated shortened episodes that
            write checkpoints inside the loop and end with evaluate().
s448_eval   S preset, eval mode, batch-1 forwards at 448x448.
s224_train  S preset train steps at batch 2 on 224x224 images.

Why each was chosen, and which layer metric should move which end-to-end
metric on it, is in layer_map.json.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import json
import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from vcmamba import autodiff, checkpoint, config, data, optim
from vcmamba.autodiff import Tensor
from vcmamba.model import VCMamba, get_preset

from tracing import StepClock, Tracer, train_module

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_LOG = ROOT / "reference" / "train_log.csv"
NANO_CONFIG = ROOT / "reference" / "train_nano.cfg"

SETUP_REPS = 3          # setup_s is the median of this many set-ups
NANO_EPISODE_STEPS = 20
NANO_CHECKPOINT_EVERY = 5
NANO_CANARY_STEPS = 3
EVAL_POOL = 4           # distinct images cycled by s448_eval
TRAIN_POOL = 16         # images s224_train draws its batches from
TRAIN_BATCH = 2

# Each train step's graph is a reference cycle (Tensor._tape -> Tape._nodes
# -> output Tensor) that only the cyclic collector frees, so uncollected
# steps pile up: unguarded, s224_train reaches about 7 GiB in 30 s, more than
# an 8 GiB machine can spare. So between operations, outside the timed
# region, the S loop runs gc.collect() once more than this many earlier
# steps' Tapes are still alive. The defect still shows, in peak_rss_mib
# (about 2.8 GiB against the 1.1 GiB one step needs), in
# autodiff.tapes_alive_max and in the count of guard collections, which is
# 0 once the cycle is gone.
GUARD_TAPES = 1

# s224_train steps run after set-up and before timing starts: the first
# steps after set-up page in fresh memory (about 280k minor faults each) and
# run 30% slower than the ones after. Eval forwards need none.
SETTLE_STEPS = 2

# Tolerances of the correctness gates. A float reorder in float32 moves a
# logged value by far less than these; a wrong gradient moves step-1
# grad_norm and every later loss by much more.
LOG_RTOL, LOG_ATOL = 2e-3, 2e-5        # loss and grad_norm rows of the nano log
LOG_ACC_ATOL = 1.0 / 32 + 1e-6         # one of 32 predictions may flip
CANARY_RTOL = 1e-3                     # S canaries, relative to the largest |value|
CANARY_LOGITS = 64                     # leading logits of each canary image kept


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    workdir: Path
    reference: dict
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)          # untraced
    traced_op_s: list[float] = field(default_factory=list)
    images: int = 0
    loop_s: float = 0.0
    mode: str = "train"
    guard_collections: int = 0
    tapes: list[weakref.ref] = field(default_factory=list)     # of the S train steps

    def record(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def phases(self):
        """(seconds, traced) of each timed phase. A traced run measures its
        first half untraced, for trace.overhead_pct, and its second traced."""
        if self.trace:
            return [(self.seconds / 2, False), (self.seconds / 2, True)]
        return [(self.seconds, False)]

    @contextmanager
    def traced_set_up(self):
        """In a traced run, set-up is traced too: it is where data.* and
        checkpoint.* work happens on the S workloads."""
        if self.trace:
            self.tracer.install()
        try:
            yield
        finally:
            if self.trace:
                self.tracer.uninstall()

    def set_up(self, build):
        """Run build() SETUP_REPS times, timing each; return the last state.
        Garbage of a discarded set-up is collected first: a user sets up once."""
        state = None
        for _ in range(SETUP_REPS):
            state = None
            gc.collect()
            t0 = perf_counter()
            state = build()
            self.setup_s.append(perf_counter() - t0)
        return state


def close(got, ref, rtol: float = CANARY_RTOL) -> bool:
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape or not np.isfinite(got).all():
        return False
    scale = max(float(np.abs(ref).max()), 1e-12)
    return float(np.abs(got - ref).max()) <= rtol * scale


def check_canary(run: Run, name: str, got: dict) -> None:
    ref = run.reference.get(name)
    if ref is None:
        run.record(False, f"{name}: no reference stored in bench/reference.json")
        return
    bad = [k for k in ref if not close(got[k], ref[k])]
    run.record(not bad, f"{name}: {', '.join(bad)} differ from bench/reference.json")


# ---------------------------------------------------------------------------
# S-preset workloads

def save_s_checkpoint(run: Run) -> str:
    """The weights the S workloads load: seed-0 initialisation."""
    path = str(run.workdir / "s_seed0.ckpt")
    checkpoint.save_checkpoint(VCMamba(get_preset("S"), seed=0), path)
    return path


def canary_images(res: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    samples = [data.render_sample(0, i, res) for i in range(n)]
    return np.stack([s[0] for s in samples]), np.array([s[1] for s in samples])


def train_step(model: VCMamba, opt: optim.AdamW, images: np.ndarray, labels: np.ndarray,
               tapes: list | None = None):
    """One step exactly as train() runs it; returns (loss, grad_norm, logits).
    A weak reference to the step's Tape goes to tapes, when given."""
    with autodiff.Tape() as tape:
        if tapes is not None:
            tapes.append(weakref.ref(tape))
        logits = model(Tensor(images))
        loss = autodiff.softmax_cross_entropy(logits, labels)
    loss_val = loss.item()
    opt.zero_grad()
    autodiff.backward(loss)
    gnorm = opt.grad_norm()
    opt.step()
    return loss_val, gnorm, logits.data


def section_grad_norms(model: VCMamba) -> list[float]:
    sums: dict[str, float] = {}
    for name, p in model.named_parameters():
        section = name.split(".", 1)[0]
        sums[section] = sums.get(section, 0.0) + float((p.grad.astype(np.float64) ** 2).sum())
    return [math.sqrt(sums[k]) for k in sorted(sums)]


def s448_canary(model: VCMamba, res: int) -> dict:
    images, _ = canary_images(res, 1)
    return {"logits": model(Tensor(images)).data[:, :CANARY_LOGITS].tolist()}


def s224_canary(model: VCMamba, opt: optim.AdamW, res: int) -> dict:
    images, labels = canary_images(res, TRAIN_BATCH)
    loss, gnorm, logits = train_step(model, opt, images, labels)
    return {"loss": [loss], "grad_norm": [gnorm], "section_grad_norms": section_grad_norms(model),
            "logits": logits[:, :CANARY_LOGITS].tolist()}


def s_resolution(workload: str, tiny: bool) -> int:
    return 64 if tiny else {"s448_eval": 448, "s224_train": 224}[workload]


def timed_loop(run: Run, op, check, settle: int = 0) -> None:
    """Closed loop over op(i): settle operations untimed, then each phase
    until its time is up. check(i, output) returns a problem string or None; an
    exception counts as a failed operation."""

    def one(i: int, traced: bool) -> float:
        if traced:
            run.tracer.begin_op()
        t0 = perf_counter()
        try:
            out, problem = op(i), None
        except Exception as exc:  # a failed operation, not a failed benchmark
            out, problem = None, f"operation {i} raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if traced:
            run.tracer.end_op()
        if problem is None:
            problem = check(i, out)
        run.record(problem is None, problem or "")
        run.tapes = [t for t in run.tapes if t() is not None]
        if len(run.tapes) > GUARD_TAPES:
            gc.collect()
            run.guard_collections += 1
        return dt

    for i in range(settle):
        one(i, False)
    i = settle
    for seconds, traced in run.phases():
        times = run.traced_op_s if traced else run.op_s
        if traced:
            run.tracer.install()
        try:
            deadline = perf_counter() + seconds
            start = len(times)
            while len(times) == start or perf_counter() < deadline:
                times.append(one(i, traced))
                i += 1
        finally:
            if traced:
                run.tracer.uninstall()


def s448_eval(run: Run) -> None:
    res = s_resolution("s448_eval", run.tiny)
    run.mode = "eval"

    def build():
        model = checkpoint.load_checkpoint(ckpt)
        model.eval()
        pool = data.ToyDataset(EVAL_POOL, seed=run.seed, resolution=res)
        check_canary(run, f"s448_eval@{res}", s448_canary(model, res))   # warm-up and gate
        return model, pool

    with run.traced_set_up():
        ckpt = save_s_checkpoint(run)
        model, pool = run.set_up(build)
    first: dict[int, np.ndarray] = {}

    def op(i):
        k = i % EVAL_POOL
        return model(Tensor(pool.images[k:k + 1])).data

    def check(i, logits):
        if not np.isfinite(logits).all():
            return f"forward {i}: non-finite logits"
        k = i % EVAL_POOL
        if k in first and not np.array_equal(first[k], logits):
            return f"forward {i}: logits of image {k} differ from its first forward"
        first.setdefault(k, logits)
        return None

    timed_loop(run, op, check)
    run.images = len(run.op_s)
    run.loop_s = sum(run.op_s)


def s224_train(run: Run) -> None:
    res = s_resolution("s224_train", run.tiny)

    def build():
        model = checkpoint.load_checkpoint(ckpt)
        model.train()
        opt = optim.AdamW(model.named_parameters())
        pool = data.ToyDataset(TRAIN_POOL, seed=run.seed, resolution=res)
        check_canary(run, f"s224_train@{res}", s224_canary(model, opt, res))  # warm-up, gate
        return model, opt, pool

    with run.traced_set_up():
        ckpt = save_s_checkpoint(run)
        model, opt, pool = run.set_up(build)
    rng = np.random.default_rng(run.seed)

    def op(i):
        idx = rng.integers(0, len(pool), size=TRAIN_BATCH)
        return train_step(model, opt, pool.images[idx], pool.labels[idx], run.tapes)

    def check(i, out):
        loss, gnorm, _ = out
        if not (math.isfinite(loss) and math.isfinite(gnorm)):
            return f"step {i}: non-finite loss {loss} or grad_norm {gnorm}"
        return None

    timed_loop(run, op, check, settle=SETTLE_STEPS)
    run.images = TRAIN_BATCH * len(run.op_s)
    run.loop_s = sum(run.op_s)


# ---------------------------------------------------------------------------
# nano_train

def read_log(path: str) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


def reference_problem(row: list[str], ref: list[str]) -> str | None:
    """Tolerance gate of one train row against reference/train_log.csv."""
    loss, acc, gnorm = (float(v) for v in row[2:5])
    rloss, racc, rgnorm = (float(v) for v in ref[2:5])
    ok = (row[:2] == ref[:2]
          and abs(loss - rloss) <= LOG_ATOL + LOG_RTOL * abs(rloss)
          and abs(gnorm - rgnorm) <= LOG_ATOL + LOG_RTOL * abs(rgnorm)
          and abs(acc - racc) <= LOG_ACC_ATOL)
    return None if ok else f"step {row[0]}: {row[2:5]} against reference {ref[2:5]}"


def check_episode(run: Run, rows: list[list[str]], first: list[list[str]] | None,
                  reference: list[list[str]], steps: int) -> None:
    """One check per log row: finite loss; the first episode against the
    reference when the seed is 0; every later episode bit-identical to the
    first."""
    run.record(len(rows) == steps + 1, f"episode log has {len(rows)} rows, not {steps + 1}")
    for k, row in enumerate(rows):
        if not math.isfinite(float(row[2])):
            problem = f"step {row[0]}: non-finite loss {row[2]}"
        elif first is not None:
            same = k < len(first) and row == first[k]
            problem = None if same else f"row {row} differs from the first episode's"
        elif run.seed == 0 and row[1] == "train":
            problem = reference_problem(row, reference[k])
        else:
            problem = None
        run.record(problem is None, f"episode {problem}")


def nano_train(run: Run) -> None:
    steps = 2 if run.tiny else NANO_EPISODE_STEPS
    base = dataclasses.replace(config.load_train_config(str(NANO_CONFIG)),
                               checkpoint_path=str(run.workdir / "nano.ckpt"),
                               log_path=str(run.workdir / "nano_log.csv"))
    reference = read_log(str(REFERENCE_LOG))

    # Canary at seed 0, which reference/ was produced with; also warms up.
    canary = dataclasses.replace(base, steps=NANO_CANARY_STEPS, seed=0, data_seed=0)
    try:
        train_module.train(canary)
        for row, ref in zip(read_log(canary.log_path)[:NANO_CANARY_STEPS], reference):
            problem = reference_problem(row, ref)
            run.record(problem is None, f"canary {problem}")
    except Exception as exc:
        run.record(False, f"canary train() raised {type(exc).__name__}: {exc}")

    episode = dataclasses.replace(base, steps=steps, checkpoint_every=NANO_CHECKPOINT_EVERY,
                                  seed=run.seed, data_seed=run.seed)
    first_rows: list[list[str]] | None = None
    clock = StepClock()
    clock.install()
    try:
        for seconds, traced in run.phases():
            times = run.traced_op_s if traced else run.op_s
            if traced:
                run.tracer.install(train_steps_are_ops=True)
            try:
                deadline = perf_counter() + seconds
                ran = False
                while not ran or perf_counter() < deadline:
                    ran = True
                    s0 = len(clock.starts)
                    t_entry = perf_counter()
                    try:
                        train_module.train(episode)
                    except Exception as exc:
                        run.record(False, f"train() raised {type(exc).__name__}: {exc}")
                        continue
                    t_exit = perf_counter()
                    starts, ends = clock.starts[s0:], clock.ends[s0:]
                    times.extend(e - s for s, e in zip(starts, ends))
                    if not traced:
                        run.setup_s.append(starts[0] - t_entry)
                        run.loop_s += t_exit - starts[0]
                        run.images += episode.batch_size * len(ends)

                    rows = read_log(episode.log_path)
                    check_episode(run, rows, first_rows, reference, steps)
                    first_rows = first_rows or rows
                    restored = checkpoint.load_checkpoint(episode.checkpoint_path)
                    run.record(all(np.isfinite(p.data).all() for p in restored.parameters()),
                               "checkpoint holds non-finite parameters")
            finally:
                if traced:
                    run.tracer.uninstall()
    finally:
        clock.uninstall()


WORKLOADS = {"nano_train": nano_train, "s448_eval": s448_eval, "s224_train": s224_train}


def write_reference() -> dict:
    """Canary outputs of the S workloads at full and smoke-test size."""
    out = {}
    for res in (448, 64):
        model = VCMamba(get_preset("S"), seed=0)
        model.eval()
        out[f"s448_eval@{res}"] = s448_canary(model, res)
    for res in (224, 64):
        model = VCMamba(get_preset("S"), seed=0)
        out[f"s224_train@{res}"] = s224_canary(model, optim.AdamW(model.named_parameters()), res)
    # 8 significant digits keep the file small and sit far inside CANARY_RTOL
    return json.loads(json.dumps(out), parse_float=lambda v: float(f"{float(v):.8g}"))
