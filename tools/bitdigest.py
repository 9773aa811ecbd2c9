"""Print two sha256 prefixes per fixed training configuration.

Two source trees that print the same digests on one machine compute the same
floats there, bit for bit. Each configuration builds its model from seed 0 and
runs a few AdamW train steps on the first toy images at the model's
resolution. The `train` digest covers, for every step, the logits, the loss,
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

from vcmamba import autodiff as ad
from vcmamba.autodiff import Tape, Tensor
from vcmamba.data import ToyDataset
from vcmamba.model import ModelSpec, VCMamba, get_preset
from vcmamba.optim import AdamW

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
    images = data.images.astype(dtype)
    opt = AdamW(model.named_parameters())
    params = [p for _, p in model.named_parameters()]
    for _ in range(steps):
        with Tape():
            logits = model(Tensor(images, dtype=dtype))
            loss = ad.softmax_cross_entropy(logits, data.labels)
        opt.zero_grad()
        ad.backward(loss)
        feed(logits.data, loss.data, np.float64(opt.grad_norm()), *(p.grad for p in params))
        opt.step()
        feed(*(p.data for p in params), *(b for _, b in model.named_buffers()))
    model.eval()
    evaluation = hashlib.sha256(model(Tensor(images, dtype=dtype)).data.tobytes())
    return train.hexdigest()[:16], evaluation.hexdigest()[:16]


def main() -> None:
    for name, cfg in CONFIGS.items():
        train, evaluation = digest(*cfg)
        print(f"{name:12s} train {train} eval {evaluation}", flush=True)


if __name__ == "__main__":
    main()
