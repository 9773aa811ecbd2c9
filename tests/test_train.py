"""Optimizer and training loop tests.

The training loop contracts under test: bitwise reproducibility for a fixed
seed, under one or two BLAS threads alike, zero learning rate changes
nothing, a diverged train_step leaves the parameters and AdamW bit-unchanged,
divergence aborts training while keeping the last finite-loss checkpoint on
disk and closing the log with a diverged row, and the log's closing eval row
is exactly what evaluate() reports. A fresh run of the reference config
reproduces the committed log's first rows within the benchmark's gate.
"""

import csv
import dataclasses
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vcmamba.autodiff as ad
from vcmamba.autodiff import Tape, Tensor, backward
from vcmamba.blocks import MdmBlock
from vcmamba.checkpoint import load_checkpoint, save_checkpoint
from vcmamba.config import TrainConfig, ValidationError, load_train_config
from vcmamba.data import ToyDataset
from vcmamba.model import VCMamba, get_preset
from vcmamba.optim import AdamW
from vcmamba.train import TrainingDiverged, evaluate, train

F64 = np.float64
# the package re-exports train(), which hides the module of the same name
train_module = importlib.import_module("vcmamba.train")
REFERENCE = Path(__file__).resolve().parents[1] / "reference"


def small_cfg(tmp_path, **overrides):
    base = dict(preset="nano", steps=3, batch_size=4, n_samples=16,
                checkpoint_every=2, seed=0, data_seed=0,
                checkpoint_path=str(tmp_path / "m.ckpt"),
                log_path=str(tmp_path / "log.csv"))
    base.update(overrides)
    return TrainConfig(**base)


def read_log(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestAdamW:
    def test_single_step_hand_computed(self):
        w = Tensor(np.array([[1.0]]), requires_grad=True, dtype=F64)
        opt = AdamW([("w", w)], lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
        w.grad = np.array([[1.0]])
        opt.step()
        # bias-corrected m-hat = v-hat = 1 on the first step
        assert w.data[0, 0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-12)

    def test_decay_is_decoupled_and_applied_first(self):
        w = Tensor(np.array([[1.0]]), requires_grad=True, dtype=F64)
        opt = AdamW([("w", w)], lr=0.1, weight_decay=0.5)
        w.grad = np.array([[1.0]])
        opt.step()
        assert w.data[0, 0] == pytest.approx(0.95 - 0.1 / (1.0 + 1e-8), abs=1e-12)

    def test_vectors_are_not_decayed(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True, dtype=F64)
        b = Tensor(np.ones(2), requires_grad=True, dtype=F64)
        opt = AdamW([("w", w), ("b", b)], lr=0.1, weight_decay=0.5)
        w.grad = np.zeros((2, 2))
        b.grad = np.zeros(2)
        opt.step()
        assert np.all(w.data < 1.0)                      # decay hit the matrix
        np.testing.assert_array_equal(b.data, 1.0)       # bias untouched

    def test_params_without_grad_are_skipped(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True, dtype=F64)
        opt = AdamW([("w", w)], lr=0.1, weight_decay=0.5)
        opt.step()
        np.testing.assert_array_equal(w.data, 1.0)

    def test_zero_lr_changes_nothing_bitwise(self, rng):
        model = VCMamba(get_preset("nano"), seed=0)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        opt = AdamW(model.named_parameters(), lr=0.0, weight_decay=0.05)
        for _ in range(3):
            x = Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
            labels = rng.integers(0, 10, size=2)
            opt.zero_grad()
            with Tape():
                loss = ad.softmax_cross_entropy(model(x), labels)
            backward(loss)
            opt.step()
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name]), name

    def test_grad_norm(self):
        w = Tensor(np.array([[3.0]]), requires_grad=True, dtype=F64)
        b = Tensor(np.array([4.0]), requires_grad=True, dtype=F64)
        opt = AdamW([("w", w), ("b", b)], lr=0.1)
        w.grad, b.grad = np.array([[3.0]]), np.array([4.0])
        assert opt.grad_norm() == pytest.approx(5.0, abs=1e-12)

    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            AdamW([])


class TestEvaluate:
    def test_untrained_model_is_at_chance(self):
        model = VCMamba(get_preset("nano"), seed=0)
        ds = ToyDataset(500, seed=0)
        loss, acc = evaluate(model, ds)
        assert 2.0 < loss < 2.7       # near ln(10) = 2.3026
        assert 0.0 <= acc < 0.3

    def test_restores_training_mode(self):
        model = VCMamba(get_preset("nano"), seed=0).train()
        evaluate(model, ToyDataset(8, seed=0))
        assert model.training
        model.eval()
        evaluate(model, ToyDataset(8, seed=0))
        assert not model.training

    def test_empty_dataset_rejected(self):
        class Empty:
            def __len__(self):
                return 0

        with pytest.raises(ValueError, match="empty"):
            evaluate(VCMamba(get_preset("nano"), seed=0), Empty())

    def test_batch_size_does_not_change_result(self):
        model = VCMamba(get_preset("nano"), seed=1)
        ds = ToyDataset(30, seed=0)
        l1, a1 = evaluate(model, ds, batch_size=7)
        l2, a2 = evaluate(model, ds, batch_size=30)
        assert a1 == a2
        assert l1 == pytest.approx(l2, abs=1e-6)


# Each plants one fault in a train step and returns a function that gives what
# the step's TrainingDiverged must carry: (fault, loss, grad_norm).
def plant_nan_dt_bias(monkeypatch, model):
    dict(model.named_parameters())["stage4.blocks.0.mamba.ssm.dt_bias"].data[0] = np.nan
    return lambda: ("model state", math.nan, math.nan)


def plant_huge_stem_weight(monkeypatch, model):
    model.stem.conv1.weight.data *= 1e25    # stem.norm1's batch variance passes float32's range
    return lambda: ("model state", math.nan, math.nan)


def plant_nan_loss(monkeypatch, model):
    monkeypatch.setattr(ad, "softmax_cross_entropy", lambda logits, labels: Tensor(np.nan))
    return lambda: ("loss", math.nan, math.nan)


def plant_nan_gradient(monkeypatch, model):
    real_backward = ad.backward
    losses = []

    def poisoned_backward(loss):
        losses.append(loss.item())
        real_backward(loss)
        model.stem.conv1.weight.grad[0, 0, 0, 0] = np.nan

    monkeypatch.setattr(ad, "backward", poisoned_backward)
    return lambda: ("gradient norm", losses[0], math.nan)


class TestTrainStep:
    """train_step, the one forward -> backward -> update sequence."""

    @staticmethod
    def stepped_model():
        # one clean step first, so AdamW's moments and count are not at zero
        model = VCMamba(get_preset("nano"), seed=0).train()
        opt = AdamW(model.named_parameters())
        data = ToyDataset(4, seed=0)
        train_module.train_step(model, opt, data.images, data.labels)
        return model, opt, data

    @pytest.mark.filterwarnings("ignore:invalid value encountered in logaddexp:RuntimeWarning")
    @pytest.mark.parametrize("plant", [plant_nan_dt_bias, plant_huge_stem_weight,
                                       plant_nan_loss, plant_nan_gradient])
    def test_fault_raises_before_the_update(self, monkeypatch, plant):
        model, opt, data = self.stepped_model()
        expected = plant(monkeypatch, model)

        def state():
            return ([p.data.tobytes() for p in model.parameters()],
                    [m.tobytes() for m in opt._m], [v.tobytes() for v in opt._v],
                    opt.step_count)

        before = state()
        with pytest.raises(TrainingDiverged) as err:
            train_module.train_step(model, opt, data.images, data.labels)
        assert err.value.step == opt.step_count + 1 == 2
        fault, loss, grad_norm = expected()
        assert err.value.fault.startswith(f"{fault} (")
        # nan matches nan here
        np.testing.assert_array_equal((err.value.loss, err.value.grad_norm), (loss, grad_norm))
        assert err.value.checkpoint_path is None
        assert state() == before

    def test_direction_term_is_live_at_64px(self):
        # at 64 px the stage-4 grid is 2x2 (L = 4): every path reads move codes
        # and carries a state. At 32 px (1x1, L = 1) every code is the begin
        # code, so table rows 1-4 and a_log get exactly zero gradient there
        spec = dataclasses.replace(get_preset("nano"), input_resolution=64)
        model = VCMamba(spec, seed=0).train()
        opt = AdamW(model.named_parameters())
        data = ToyDataset(8, seed=0, resolution=64)
        ssms = [m.mamba.ssm for m in model.stage4.blocks if isinstance(m, MdmBlock)]
        assert len(ssms) == 2
        tables = [ssm.direction_table.data.copy() for ssm in ssms]
        train_module.train_step(model, opt, data.images, data.labels)
        for ssm, before in zip(ssms, tables):
            assert np.all(np.linalg.norm(ssm.direction_table.grad, axis=1) > 0)
            assert np.any(ssm.a_log.grad != 0)
            # the zero-initialised table moves by its gradient alone
            assert np.all((ssm.direction_table.data != before).any(axis=1))

    def test_float64_model_steps_in_float64(self, monkeypatch):
        # float32 images enter a float64 model as float64
        model = VCMamba(get_preset("nano"), seed=0).to(np.float64).train()
        opt = AdamW(model.named_parameters())
        data = ToyDataset(2, seed=0)
        assert data.images.dtype == np.float32
        real_forward, inputs = model.forward, []

        def forward(x):
            inputs.append(x.dtype)
            return real_forward(x)

        monkeypatch.setattr(model, "forward", forward)
        loss, gnorm, logits = train_module.train_step(model, opt, data.images, data.labels)
        assert inputs == [np.float64] and logits.dtype == np.float64
        assert math.isfinite(loss) and math.isfinite(gnorm) and opt.step_count == 1
        for p in model.parameters():
            assert p.data.dtype == p.grad.dtype == np.float64


class TestTrainLoop:
    def test_log_schema_and_lengths(self, tmp_path):
        cfg = small_cfg(tmp_path)
        train(cfg)
        rows = read_log(cfg.log_path)
        assert [r["phase"] for r in rows] == ["train"] * 3 + ["eval"]
        assert list(rows[0].keys()) == ["step", "phase", "loss", "accuracy", "grad_norm"]
        assert [int(r["step"]) for r in rows] == [1, 2, 3, 3]
        for row in rows[:-1]:
            assert float(row["grad_norm"]) > 0.0
            assert math.isfinite(float(row["loss"]))

    def test_same_seed_reproduces_log_and_checkpoint_bytes(self, tmp_path):
        cfg_a = small_cfg(tmp_path / "a")
        cfg_b = small_cfg(tmp_path / "b")
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        train(cfg_a)
        train(cfg_b)
        assert Path(cfg_a.log_path).read_bytes() == Path(cfg_b.log_path).read_bytes()
        assert Path(cfg_a.checkpoint_path).read_bytes() == \
            Path(cfg_b.checkpoint_path).read_bytes()

    def test_first_loss_near_log_ten(self, tmp_path):
        result = train(small_cfg(tmp_path, steps=1))
        assert result.first_loss == pytest.approx(np.log(10.0), abs=0.4)

    def test_final_eval_row_matches_evaluate(self, tmp_path):
        # batch 96 trains at a batch size above evaluate()'s default of 64
        for batch_size, steps, n_samples in ((4, 4, 16), (96, 2, 200)):
            out = tmp_path / str(batch_size)
            out.mkdir()
            cfg = small_cfg(out, steps=steps, batch_size=batch_size, n_samples=n_samples)
            result = train(cfg)
            rows = read_log(cfg.log_path)
            assert rows[-1]["phase"] == "eval"
            assert float(rows[-1]["loss"]) == pytest.approx(result.final_loss, abs=1e-6)
            assert float(rows[-1]["accuracy"]) == pytest.approx(result.final_accuracy, abs=1e-6)
            # the checkpoint on disk is the evaluated model
            loaded = load_checkpoint(cfg.checkpoint_path)
            ds = ToyDataset(cfg.n_samples, seed=cfg.data_seed, resolution=32)
            loss, acc = evaluate(loaded, ds)
            assert loss == pytest.approx(result.final_loss, abs=1e-9), batch_size
            assert acc == result.final_accuracy

    def test_divergence_aborts_and_keeps_last_good_checkpoint(self, tmp_path, monkeypatch):
        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        clean = small_cfg(clean_dir, steps=2)
        train(clean)
        good_bytes = Path(clean.checkpoint_path).read_bytes()

        real = ad.softmax_cross_entropy
        calls = {"n": 0}

        def poisoned(logits, labels):
            calls["n"] += 1
            if calls["n"] == 3:
                return Tensor(np.nan)
            return real(logits, labels)

        monkeypatch.setattr(ad, "softmax_cross_entropy", poisoned)
        div_dir = tmp_path / "div"
        div_dir.mkdir()
        cfg = small_cfg(div_dir, steps=5)
        with pytest.raises(TrainingDiverged) as err:
            train(cfg)
        assert err.value.step == 3
        assert str(err.value) == ("non-finite loss (nan) at step 3; last-good checkpoint "
                                  f"retained at {cfg.checkpoint_path}")
        # retained file is the step-2 state: identical to a clean 2-step run
        assert Path(cfg.checkpoint_path).read_bytes() == good_bytes
        # the log says so: the loss was measured (nan), nothing after it was
        rows = read_log(cfg.log_path)
        assert [r["phase"] for r in rows] == ["train", "train", "diverged"]
        assert list(rows[-1].values()) == ["3", "diverged", "nan", "nan", "nan"]

    def test_nonfinite_gradient_is_never_applied(self, tmp_path, monkeypatch):
        # a NaN gradient with a finite loss at a checkpoint step must abort
        # before the update, so the last-good checkpoint holds no NaN
        models = []

        def build(*args, **kwargs):
            models.append(VCMamba(*args, **kwargs))
            return models[-1]

        real_backward = ad.backward
        calls = {"n": 0}

        def poisoned_backward(loss):
            real_backward(loss)
            calls["n"] += 1
            if calls["n"] == 2:
                models[0].stem.conv1.weight.grad[0, 0, 0, 0] = np.nan

        monkeypatch.setattr(train_module, "VCMamba", build)
        monkeypatch.setattr(ad, "backward", poisoned_backward)
        cfg = small_cfg(tmp_path, steps=4, checkpoint_every=2)
        with pytest.raises(TrainingDiverged, match="gradient") as err:
            train(cfg)
        assert err.value.step == 2
        assert str(err.value) == ("non-finite gradient norm (nan) at step 2; last-good "
                                  f"checkpoint retained at {cfg.checkpoint_path}")
        rows = read_log(cfg.log_path)
        assert [r["phase"] for r in rows] == ["train", "diverged"]
        step, _, loss, acc, gnorm = rows[-1].values()
        assert (step, acc, gnorm) == ("2", "nan", "nan")
        assert math.isfinite(float(loss))
        monkeypatch.undo()
        saved = load_checkpoint(cfg.checkpoint_path)
        for name, p in saved.named_parameters():
            assert np.all(np.isfinite(p.data)), name
        init = VCMamba(get_preset("nano"), seed=cfg.seed)
        for (_, p1), (_, p2) in zip(init.named_parameters(), saved.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in logaddexp:RuntimeWarning")
    def test_nonfinite_scan_state_is_divergence(self, tmp_path, monkeypatch):
        # weights that turn a scan's delta NaN mid-run are a runtime fault:
        # TrainingDiverged (CLI exit 2), not an operand error (exit 1), with
        # the last-good checkpoint left loadable
        real_step = AdamW.step

        def poisoned_step(opt):
            real_step(opt)
            dict(opt.params)["stage4.blocks.0.mamba.ssm.dt_bias"].data[0] = np.nan

        monkeypatch.setattr(AdamW, "step", poisoned_step)
        cfg = small_cfg(tmp_path, steps=4, checkpoint_every=2)
        with pytest.raises(TrainingDiverged, match="delta") as err:
            train(cfg)
        assert err.value.step == 2
        # the forward failed, so no value of step 2 was measured
        rows = read_log(cfg.log_path)
        assert [r["phase"] for r in rows] == ["train", "diverged"]
        assert list(rows[-1].values()) == ["2", "diverged", "nan", "nan", "nan"]
        monkeypatch.undo()
        saved = load_checkpoint(cfg.checkpoint_path)
        init = VCMamba(get_preset("nano"), seed=cfg.seed)
        for (_, p1), (_, p2) in zip(init.named_parameters(), saved.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in logaddexp:RuntimeWarning")
    def test_nonfinite_scan_state_names_the_module(self, tmp_path, monkeypatch):
        # nano's stage 4 is M, F, M: the second Mamba block is blocks.2, and its
        # 1x1 grid has one cell; path 0 (row_snake_tl), image 0 fails first
        real_step = AdamW.step

        def poisoned_step(opt):
            real_step(opt)
            dict(opt.params)["stage4.blocks.2.mamba.ssm.dt_bias"].data[0] = np.nan

        monkeypatch.setattr(AdamW, "step", poisoned_step)
        cfg = small_cfg(tmp_path)
        with pytest.raises(TrainingDiverged) as err:
            train(cfg)
        state = err.value.__cause__
        assert state.module == "stage4.blocks.2.mamba"
        assert str(err.value) == ("non-finite model state (scan produced a non-finite delta at "
                                  "stage4.blocks.2.mamba, path row_snake_tl, image 0, cell (0, 0) "
                                  "(token index 0, batch row 0)) at step 2; last-good checkpoint "
                                  f"retained at {cfg.checkpoint_path}")

    def test_nonfinite_batch_norm_statistic_is_divergence(self, tmp_path, monkeypatch):
        # a stem conv weight scaled by 1e25 puts stem.norm1's batch variance
        # (about 1e48) past what its float32 running_var holds: the first
        # forward raises, naming the module, and the checkpoint saved before
        # it still loads, holding the weights it was saved with
        def build(*args, **kwargs):
            model = VCMamba(*args, **kwargs)
            model.stem.conv1.weight.data *= 1e25
            return model

        monkeypatch.setattr(train_module, "VCMamba", build)
        cfg = small_cfg(tmp_path)
        with pytest.raises(TrainingDiverged) as err:
            train(cfg)
        assert err.value.__cause__.module == "stem.norm1"
        assert str(err.value) == ("non-finite model state (batch norm stem.norm1 holds a "
                                  "non-finite running_var) at step 1; last-good checkpoint "
                                  f"retained at {cfg.checkpoint_path}")
        rows = read_log(cfg.log_path)
        assert [list(r.values()) for r in rows] == [["1", "diverged", "nan", "nan", "nan"]]
        saved = load_checkpoint(cfg.checkpoint_path)
        init = build(get_preset("nano"), seed=cfg.seed)
        for (n1, p1), (n2, p2) in zip(init.named_parameters(), saved.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        for (n1, b1), (n2, b2) in zip(init.named_buffers(), saved.named_buffers()):
            assert n1 == n2
            np.testing.assert_array_equal(b1, b2)

    def test_invalid_config_rejected_before_work(self, tmp_path):
        with pytest.raises(ValueError):
            train(small_cfg(tmp_path, steps=0))

    def test_directory_output_path_rejected_before_work(self, tmp_path):
        with pytest.raises(ValidationError, match="is a directory"):
            train(small_cfg(tmp_path, checkpoint_path=str(tmp_path)))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("steps,saves", [(4, 3), (5, 4)])
    def test_closing_save_only_when_the_last_step_did_not_save(self, tmp_path, monkeypatch,
                                                               steps, saves):
        # step 0, every second step, and at the end unless the last step saved
        models = []

        def counting_save(model, path):
            models.append(model)
            save_checkpoint(model, path)

        monkeypatch.setattr(train_module, "save_checkpoint", counting_save)
        cfg = small_cfg(tmp_path, steps=steps, checkpoint_every=2)
        train(cfg)
        assert len(models) == saves
        save_checkpoint(models[-1], str(tmp_path / "final.ckpt"))   # the trained weights
        assert (tmp_path / "final.ckpt").read_bytes() == Path(cfg.checkpoint_path).read_bytes()

    def test_loss_decreases_over_short_run(self, tmp_path):
        cfg = small_cfg(tmp_path, steps=30, batch_size=8, n_samples=32,
                        checkpoint_every=10)
        result = train(cfg)
        assert result.final_loss < result.first_loss


class TestReferenceRun:
    def test_fresh_run_matches_the_committed_log(self, tmp_path):
        # the first 20 train rows of reference/train_nano.cfg against
        # reference/train_log.csv, within the nano_train gate of
        # bench/workloads.py (LOG_RTOL, LOG_ATOL, LOG_ACC_ATOL)
        cfg = dataclasses.replace(load_train_config(str(REFERENCE / "train_nano.cfg")),
                                  steps=20, checkpoint_path=str(tmp_path / "m.ckpt"),
                                  log_path=str(tmp_path / "log.csv"))
        train(cfg)
        rows = read_log(cfg.log_path)[:20]
        ref = read_log(str(REFERENCE / "train_log.csv"))[:20]
        assert len(rows) == len(ref) == 20
        for row, want in zip(rows, ref):
            assert (row["step"], row["phase"]) == (want["step"], want["phase"])
            for key in ("loss", "grad_norm"):
                got, exp = float(row[key]), float(want[key])
                assert abs(got - exp) <= 2e-5 + 2e-3 * abs(exp), (row, want)
            assert abs(float(row["accuracy"]) - float(want["accuracy"])) <= 1 / 32 + 1e-6

    def test_learning_rate_5_ends_finite_or_diverged(self, tmp_path):
        # lr = 5 passes validation and drives the Mamba mix_norm's float32
        # variance past float32's range from step 3; under the suite's
        # error::RuntimeWarning filter the run must still end in a finite eval
        # loss or in TrainingDiverged with a checkpoint that loads
        cfg = dataclasses.replace(load_train_config(str(REFERENCE / "train_nano.cfg")),
                                  lr=5.0, steps=30, checkpoint_path=str(tmp_path / "m.ckpt"),
                                  log_path=str(tmp_path / "log.csv"))
        try:
            result = train(cfg)
        except TrainingDiverged:
            load_checkpoint(cfg.checkpoint_path)
        else:
            assert math.isfinite(result.final_loss)

    def test_training_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        src = str(Path(train_module.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            (out / "t.cfg").write_text(f"""\
[train]
batch_size = 32
steps = 5
checkpoint_every = 5
checkpoint = {out / "m.ckpt"}
log = {out / "log.csv"}

[data]
n_samples = 512
""")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "vcmamba.cli", "train", "--config",
                            str(out / "t.cfg")], env=env, check=True, capture_output=True,
                           timeout=600)
            runs.append(((out / "log.csv").read_bytes(), (out / "m.ckpt").read_bytes()))
        assert runs[0] == runs[1]
