"""tools/tapebytes.py, the bytes a training forward's tape holds."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "tapebytes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("tapebytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_s224_training_forward_keeps_no_rebuildable_map():
    # one S@224 batch-2 training forward held 239 MiB while each BN after a
    # 1x1 conv kept the conv's output and conv2d its patch matrix; rebuilding
    # both in the backward leaves about 201 MiB
    tool = load_tool()
    forward, backward = tool.tape_bytes(*tool.CONFIGS["S@224"])
    assert forward <= 210 * tool.MIB, forward / tool.MIB
    assert forward < backward <= forward + 20 * tool.MIB, (forward / tool.MIB,
                                                           backward / tool.MIB)


def test_nano_training_forward_keeps_no_linear_output():
    # one nano@32 batch-32 training forward holds about 14.8 MiB; with the
    # BNs after its 1x1 convs keeping the convs' outputs it held 17.0 MiB
    tool = load_tool()
    forward, _ = tool.tape_bytes(*tool.CONFIGS["nano@32"])
    assert forward <= 16 * tool.MIB, forward / tool.MIB
