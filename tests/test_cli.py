"""CLI tests, run in-process through main(argv).

Exit code contract: 0 success, 1 anything traceable to user input (bad
flags, bad config, missing or corrupt files, failed checks), 2 runtime
failures (divergence, unexpected crashes).
"""

import csv
import io

import numpy as np
import pytest

import vcmamba.checks as checks
import vcmamba.cli as cli
from vcmamba.checkpoint import save_checkpoint
from vcmamba.cli import main
from vcmamba.model import PRESETS, VCMamba, count_macs, count_params
from vcmamba.optim import AdamW
from vcmamba.train import TrainingDiverged


def total_line(out):
    for line in out.splitlines():
        if line.startswith("total"):
            return int(line.split()[-1])
    raise AssertionError(f"no total line in:\n{out}")


class TestInspection:
    def test_params_table(self, capsys):
        assert main(["params", "nano"]) == 0
        out = capsys.readouterr().out
        assert "preset nano" in out
        assert total_line(out) == count_params(VCMamba(PRESETS["nano"], seed=0))["total"]

    def test_macs_table_native_resolution(self, capsys):
        assert main(["macs", "nano"]) == 0
        out = capsys.readouterr().out
        assert "GMACs" in out
        assert f"at {PRESETS['nano'].input_resolution}x" in out
        expected = count_macs(PRESETS["nano"], PRESETS["nano"].input_resolution)["total"]
        assert str(expected) in out

    def test_macs_resolution_flag(self, capsys):
        assert main(["macs", "nano", "--resolution", "64"]) == 0
        out = capsys.readouterr().out
        assert "at 64x64" in out
        assert str(count_macs(PRESETS["nano"], 64)["total"]) in out


class TestScanDump:
    def test_two_by_two_row_snake(self, capsys):
        assert main(["scan-dump", "--height", "2", "--width", "2",
                     "--path", "row_snake_tl"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["step", "flat_index", "row", "col", "direction"]
        assert rows[1:] == [["0", "0", "0", "0", "begin"],
                            ["1", "1", "0", "1", "right"],
                            ["2", "3", "1", "1", "down"],
                            ["3", "2", "1", "0", "left"]]

    def test_unknown_path_id(self, capsys):
        assert main(["scan-dump", "--height", "2", "--width", "2",
                     "--path", "spiral"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_degenerate_grid(self, capsys):
        assert main(["scan-dump", "--height", "0", "--width", "2",
                     "--path", "row_snake_tl"]) == 1


class TestCheck:
    def test_all_checks_pass_as_csv(self, capsys):
        assert main(["check"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        # several details hold commas: every row must still parse to 3 fields
        assert all(len(row) == 3 for row in rows), [row for row in rows if len(row) != 3]
        assert rows[0] == ["check", "status", "detail"]
        assert [row[0] for row in rows[1:-1]] == ["parallel_equivalence", "gradients",
                                                  "determinism", "dataset",
                                                  "checkpoint_roundtrip"]
        assert all(row[1] == "PASS" for row in rows[1:-1])
        assert rows[-1] == ["summary", "PASS", "5/5 checks passed"]

    def test_failed_check_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(checks, "check_dataset",
                            lambda: checks.CheckResult("dataset", False, "planted failure"))
        assert main(["check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "dataset,FAIL,planted failure" in lines
        assert lines[-1] == "summary,FAIL,4/5 checks passed"

    def test_trials_is_not_an_option(self, capsys):
        assert main(["check", "--trials", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --trials 2" in captured.err


class TestTrainEval:
    def test_end_to_end(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"""\
[train]
batch_size = 4
steps = 2
checkpoint_every = 1
checkpoint = {ckpt}
log = {tmp_path / "log.csv"}

[data]
n_samples = 16
""")
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "trained 2 steps" in out
        assert str(ckpt) in out
        assert ckpt.exists()

        assert main(["eval", "--checkpoint", str(ckpt),
                     "--n-samples", "8", "--data-seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "8 samples" in out

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[optimizer]\nmomentum = 0.9\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "momentum" in capsys.readouterr().err

    def test_default_section_exits_one_before_training(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"[DEFAULT]\nlr = 0.5\n[train]\nsteps = 1\ncheckpoint = {ckpt}\n"
                       f"log = {tmp_path / 'log.csv'}\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "[DEFAULT]" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("line", ["lr = nan", "lr = inf", "eps = nan", "weight_decay = inf"])
    def test_non_finite_float_exits_one_before_training(self, tmp_path, capsys, line):
        ckpt = tmp_path / "m.ckpt"
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"[optimizer]\n{line}\n[train]\nsteps = 1\ncheckpoint = {ckpt}\n"
                       f"log = {tmp_path / 'log.csv'}\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_missing_log_directory_keeps_the_checkpoint(self, tmp_path, capsys):
        # a user-input error must exit 1 before the step-0 save replaces the last-good file
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_bytes(b"last-good checkpoint")
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"[train]\nsteps = 1\ncheckpoint = {ckpt}\n"
                       f"log = {tmp_path / 'missing' / 'log.csv'}\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "does not exist" in capsys.readouterr().err
        assert ckpt.read_bytes() == b"last-good checkpoint"

    def test_unopenable_log_keeps_the_checkpoint(self, tmp_path, capsys):
        # the log lies in an existing directory but is a dangling symlink into a
        # missing one: opening it fails, and it is opened before the step-0 save
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_bytes(b"last-good checkpoint")
        log = tmp_path / "log.csv"
        log.symlink_to(tmp_path / "missing" / "log.csv")
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"[train]\nsteps = 1\ncheckpoint = {ckpt}\nlog = {log}\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "vcmamba:" in capsys.readouterr().err
        assert ckpt.read_bytes() == b"last-good checkpoint"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_missing_checkpoint_file(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt")]) == 1

    def test_corrupt_checkpoint_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XCMB" + b"\x00" * 64)
        assert main(["eval", "--checkpoint", str(bad)]) == 1
        assert "vcmamba:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, value", [("stage1.entry_norm.running_var", -1.0),
                                              ("head.weight", np.nan)])
    def test_checkpoint_with_an_impossible_value_exits_one(self, tmp_path, capsys, entry, value):
        # a NaN weight or a negative BN variance is a bad file: it must not
        # surface as a scan failure (exit 2) or as "loss nan" (exit 0)
        model = VCMamba(PRESETS["nano"], seed=0)
        state = {name: p.data for name, p in model.named_parameters()}
        state.update(model.named_buffers())
        state[entry].flat[0] = value
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(model, str(ckpt))
        assert main(["eval", "--checkpoint", str(ckpt), "--n-samples", "8"]) == 1
        assert entry in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[train]\nsteps = 1\n")

        def blow_up(_cfg):
            raise TrainingDiverged("loss (nan)", 3, float("nan"))

        monkeypatch.setattr(cli, "train", blow_up)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "non-finite loss" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value encountered in logaddexp:RuntimeWarning")
    def test_nonfinite_scan_state_exit_code(self, tmp_path, capsys, monkeypatch):
        # a NaN delta reached through the weights is a runtime failure, not bad input
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"""\
[train]
batch_size = 4
steps = 3
checkpoint = {tmp_path / "m.ckpt"}
log = {tmp_path / "log.csv"}

[data]
n_samples = 16
""")
        real_step = AdamW.step

        def poisoned_step(opt):
            real_step(opt)
            dict(opt.params)["stage4.blocks.0.mamba.ssm.dt_bias"].data[:] = np.nan

        monkeypatch.setattr(AdamW, "step", poisoned_step)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "non-finite model state" in capsys.readouterr().err

    def test_unexpected_error_exit_code(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("[train]\nsteps = 1\n")
        monkeypatch.setattr(cli, "train", lambda _cfg: 1 // 0)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "unexpected error" in capsys.readouterr().err


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["frobnicate"],          # unknown subcommand
        ["params"],              # missing positional
        ["params", "giant"],     # unknown preset
        ["train"],               # missing --config
        ["macs", "nano", "--resolution", "big"],
    ])
    def test_bad_usage_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err
