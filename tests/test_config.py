"""Config file parsing and validation tests."""

import dataclasses
import re

import pytest

from vcmamba.config import TrainConfig, ValidationError, load_train_config

FULL = """\
[model]
preset = S

[optimizer]
lr = 2e-4            # inline comment
beta1 = 0.85
beta2 = 0.99
eps = 1e-9
weight_decay = 0.1

[train]
batch_size = 8
steps = 50
seed = 7
checkpoint_every = 25
checkpoint = run/model.ckpt
log = run/log.csv

[data]
n_samples = 128
seed = 3
"""


def write(tmp_path, text):
    p = tmp_path / "train.cfg"
    p.write_text(text)
    return str(p)


class TestDefaults:
    def test_default_construction_is_valid(self):
        cfg = TrainConfig().validate()
        assert cfg.preset == "nano"
        assert cfg.lr == 1e-3
        assert cfg.batch_size == 32
        assert cfg.steps == 2000
        assert cfg.checkpoint_path == "vcmamba.ckpt"
        assert cfg.log_path == "train_log.csv"


class TestParsing:
    def test_full_file(self, tmp_path):
        cfg = load_train_config(write(tmp_path, FULL))
        assert cfg.preset == "S"
        assert cfg.lr == 2e-4          # inline comment stripped
        assert cfg.beta1 == 0.85
        assert cfg.beta2 == 0.99
        assert cfg.eps == 1e-9
        assert cfg.weight_decay == 0.1
        assert cfg.batch_size == 8
        assert cfg.steps == 50
        assert cfg.seed == 7
        assert cfg.checkpoint_every == 25
        assert cfg.checkpoint_path == "run/model.ckpt"
        assert cfg.log_path == "run/log.csv"
        assert cfg.n_samples == 128
        assert cfg.data_seed == 3

    def test_partial_file_keeps_defaults(self, tmp_path):
        cfg = load_train_config(write(tmp_path, "[optimizer]\nlr = 5e-4\n"))
        assert cfg.lr == 5e-4
        assert cfg.steps == 2000
        assert cfg.preset == "nano"

    def test_empty_file_gives_defaults(self, tmp_path):
        assert load_train_config(write(tmp_path, "")) == TrainConfig()

    def test_data_seed_is_separate_from_train_seed(self, tmp_path):
        cfg = load_train_config(write(tmp_path, "[train]\nseed = 1\n\n[data]\nseed = 2\n"))
        assert cfg.seed == 1
        assert cfg.data_seed == 2

    def test_percent_signs_are_literal(self, tmp_path):
        # interpolation is off; configparser would choke on a bare % otherwise
        cfg = load_train_config(write(tmp_path, "[train]\nlog = acc_90%.csv\n"))
        assert cfg.log_path == "acc_90%.csv"

    def test_semicolon_comments(self, tmp_path):
        cfg = load_train_config(write(tmp_path, "; header\n[train]\nsteps = 9 ; note\n"))
        assert cfg.steps == 9


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_train_config(str(tmp_path / "nope.cfg"))

    def test_malformed_file(self, tmp_path):
        with pytest.raises(ValidationError, match="malformed"):
            load_train_config(write(tmp_path, "steps = 5\n"))  # key before any section

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ValidationError, match=r"unknown config section \[swarm\]"):
            load_train_config(write(tmp_path, "[swarm]\nn = 3\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown key 'momentum'"):
            load_train_config(write(tmp_path, "[optimizer]\nmomentum = 0.9\n"))

    def test_bad_int(self, tmp_path):
        with pytest.raises(ValidationError, match="not a valid int"):
            load_train_config(write(tmp_path, "[train]\nsteps = soon\n"))

    def test_bad_float(self, tmp_path):
        with pytest.raises(ValidationError, match="not a valid float"):
            load_train_config(write(tmp_path, "[optimizer]\nlr = fast\n"))

    @pytest.mark.parametrize("field, value, msg", [
        ("preset", "huge", "unknown preset"),
        ("lr", -1.0, "lr"),
        ("beta1", 1.0, "betas"),
        ("beta2", -0.1, "betas"),
        ("eps", 0.0, "eps"),
        ("weight_decay", -0.01, "weight_decay"),
        ("batch_size", 0, "batch_size"),
        ("steps", 0, "steps"),
        ("checkpoint_every", 0, "checkpoint_every"),
        ("n_samples", 0, "n_samples"),
        ("checkpoint_path", "", "non-empty"),
        ("log_path", "", "non-empty"),
        ("lr", float("nan"), "lr must be finite"),
        ("lr", float("inf"), "lr must be finite"),
        ("eps", float("nan"), "eps must be finite"),
        ("weight_decay", float("inf"), "weight_decay must be finite"),
    ])
    def test_out_of_range_values(self, field, value, msg):
        cfg = dataclasses.replace(TrainConfig(), **{field: value})
        with pytest.raises(ValidationError, match=msg):
            cfg.validate()

    @pytest.mark.parametrize("text, key", [("[train]\nseed = -1\n", "[train] seed"),
                                           ("[data]\nseed = -2\n", "[data] seed")],
                             ids=["train", "data"])
    def test_negative_seed_names_its_key(self, tmp_path, text, key):
        with pytest.raises(ValidationError, match=re.escape(key) + " must be >= 0"):
            load_train_config(write(tmp_path, text))

    def test_checkpoint_and_log_resolving_to_one_file_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = f"[train]\ncheckpoint = {tmp_path / 'run.out'}\nlog = ./run.out\n"
        with pytest.raises(ValidationError, match="same file"):
            load_train_config(write(tmp_path, text))

    def test_log_that_is_the_checkpoint_temporary_file_rejected(self, tmp_path):
        # each save writes <checkpoint>.tmp and renames it over the checkpoint
        text = f"[train]\ncheckpoint = {tmp_path / 'run.ckpt'}\nlog = {tmp_path / 'run.ckpt.tmp'}\n"
        with pytest.raises(ValidationError, match="temporary file"):
            load_train_config(write(tmp_path, text))

    def test_validation_error_is_a_value_error(self):
        assert issubclass(ValidationError, ValueError)

    def test_out_of_range_file_value_rejected_at_load(self, tmp_path):
        with pytest.raises(ValidationError, match="steps"):
            load_train_config(write(tmp_path, "[train]\nsteps = 0\n"))
