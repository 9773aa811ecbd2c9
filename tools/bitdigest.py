"""Print two sha256 prefixes per fixed training configuration.

Two source trees that print the same digests on one machine compute the same
floats there, bit for bit. Each configuration builds its model from seed 0 and
runs a few `train_step`s, the step `train()` runs, on the first toy images at
the model's resolution. The `train` digest covers, for every step, the logits, the loss,
the gradient norm, every parameter gradient, the parameters after the update
and the batch-norm buffers. The `eval` digest covers the logits of one
eval-mode forward after the last step, so a change to the eval route alone
moves only the `eval` digest.

To compare two checkouts, run the script against each source tree:

    PYTHONPATH=<checkout>/src python3 tools/bitdigest.py

All three configurations run in about 5 s on a 2-vCPU host.
"""

from __future__ import annotations

import hashlib

import numpy as np

from vcmamba.autodiff import Tensor
from vcmamba.data import ToyDataset
from vcmamba.model import ModelSpec, VCMamba, get_preset
from vcmamba.optim import AdamW
from vcmamba.train import train_step

# name -> (spec, batch size, train steps, dtype)
CONFIGS = {
    "nano@32": (get_preset("nano"), 8, 3, np.float32),
    "S@224": (get_preset("S"), 2, 1, np.float32),
    "mfm@128-f64": (ModelSpec("mfm", (16, 32, 64, 128), ("F", "F", "F", "MFM"), 10, 128),
                    2, 2, np.float64),
}


def digest(spec: ModelSpec, batch: int, steps: int, dtype) -> tuple[str, str]:
    """The (train, eval) digests of one configuration's run: the first 16 hex
    digits of each sha256."""
    train = hashlib.sha256()

    def feed(*arrays):
        for a in arrays:
            train.update(b"-" if a is None else np.ascontiguousarray(a).tobytes())

    model = VCMamba(spec, seed=0).to(dtype).train()
    data = ToyDataset(batch, seed=0, resolution=spec.input_resolution)
    opt = AdamW(model.named_parameters())
    params = [p for _, p in model.named_parameters()]
    for _ in range(steps):
        loss, gnorm, logits = train_step(model, opt, data.images, data.labels)
        feed(logits, np.asarray(loss, dtype), np.float64(gnorm), *(p.grad for p in params),
             *(p.data for p in params), *(b for _, b in model.named_buffers()))
    model.eval()
    evaluation = hashlib.sha256(model(Tensor(data.images, dtype=dtype)).data.tobytes())
    return train.hexdigest()[:16], evaluation.hexdigest()[:16]


def main() -> None:
    for name, cfg in CONFIGS.items():
        train, evaluation = digest(*cfg)
        print(f"{name:12s} train {train} eval {evaluation}", flush=True)


if __name__ == "__main__":
    main()
