"""Print the bytes a training step's tape holds, per fixed configuration.

For each configuration the script builds the model from seed 0 in training
mode and runs one forward on the first toy images under a Tape, with
tracemalloc tracing from just before the input is made. It prints the bytes
still alive once the forward returns (what the tape keeps for the backward,
plus the input and the logits) and the traced peak during the backward that
follows (which adds the parameter gradients and each vjp's temporaries).
Unlike a process's peak RSS, these counts do not move with heap
fragmentation, so two source trees can be compared by them:

    PYTHONPATH=<checkout>/src python3 tools/tapebytes.py

Both configurations run in about 3 s on a 2-vCPU host.
"""

from __future__ import annotations

import gc
import tracemalloc

from vcmamba import autodiff as ad
from vcmamba.autodiff import Tensor
from vcmamba.data import ToyDataset
from vcmamba.model import ModelSpec, VCMamba, get_preset

MIB = 2 ** 20

# name -> (spec, batch size)
CONFIGS = {
    "nano@32": (get_preset("nano"), 32),
    "S@224": (get_preset("S"), 2),
}


def tape_bytes(spec: ModelSpec, batch: int) -> tuple[int, int]:
    """(bytes alive after one training forward, traced peak during its backward)."""
    model = VCMamba(spec, seed=0).train()
    data = ToyDataset(batch, seed=0, resolution=spec.input_resolution)
    gc.collect()
    tracemalloc.start()
    try:
        with ad.Tape():
            logits = model(Tensor(data.images))
            loss = ad.softmax_cross_entropy(logits, data.labels)
        forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(loss)
        backward = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return forward, backward


def main() -> None:
    for name, cfg in CONFIGS.items():
        forward, backward = tape_bytes(*cfg)
        print(f"{name:8s} batch {cfg[1]:2d}  after forward {forward / MIB:7.1f} MiB  "
              f"backward peak {backward / MIB:7.1f} MiB", flush=True)


if __name__ == "__main__":
    main()
