"""tools/bitdigest.py, the bit-identity digests of a few train steps and an eval forward."""

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
