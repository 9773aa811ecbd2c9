"""tools/bitdigest.py, the bit-identity digests of a few train steps and an eval forward."""

import importlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitdigest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bitdigest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_nano_digest_is_reproducible():
    # the train digest and the eval digest each repeat on a second run
    tool = load_tool()
    first = tool.digest(*tool.CONFIGS["nano@32"])
    assert len(first) == 2 and first[0] != first[1]
    for hexdigest in first:
        assert len(hexdigest) == 16 and int(hexdigest, 16) >= 0
    assert tool.digest(*tool.CONFIGS["nano@32"]) == first


def test_digest_runs_the_library_train_step(monkeypatch):
    # the train digest stands for train()'s bits only while it runs the same
    # step: every step goes through vcmamba.train.train_step
    train_module = importlib.import_module("vcmamba.train")
    real = train_module.train_step
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(train_module, "train_step", counted)
    spec, batch, steps, dtype = load_tool().CONFIGS["nano@32"]
    load_tool().digest(spec, batch, steps, dtype)
    assert len(calls) == steps == 3
