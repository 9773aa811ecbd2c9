"""AdamW with decoupled weight decay.

Decay is applied directly to the weights (not through the moments) and only
to parameters with ndim >= 2; biases, norm gains/offsets and other vectors
are excluded. Update order follows parameter registration order, so a run is
deterministic given the gradients.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .autodiff import Tensor


class AdamW:
    def __init__(self, named_params: Iterable[tuple[str, Tensor]], *, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.05):
        self.params = list(named_params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for _, p in self.params]
        self._v = [np.zeros_like(p.data) for _, p in self.params]
        # two scratch buffers per dtype, shared by all parameters in step()
        n = max(p.size for _, p in self.params)
        self._scratch = {p.dtype: np.empty((2, n), p.dtype) for _, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def grad_norm(self) -> float:
        total = 0.0
        for _, p in self.params:
            if p.grad is not None:
                sq = p.grad.astype(np.float64)
                total += float(np.square(sq, out=sq).sum())
        return float(np.sqrt(total))

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for (name, p), m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            # temporaries go to the scratch buffers; the trailing comments
            # give each value's grouping
            s, t = (b.reshape(p.shape) for b in self._scratch[p.dtype][:, :p.size])
            if p.ndim >= 2 and self.weight_decay:
                p.data -= np.multiply(p.data, self.lr * self.weight_decay, out=s)
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=s)            # (1 - beta1) * g
            v *= self.beta2
            np.multiply(g, g, out=s)
            v += np.multiply(s, 1.0 - self.beta2, out=s)            # (1 - beta2) * (g * g)
            np.divide(m, bc1, out=s)
            s *= self.lr                                            # lr * (m / bc1)
            np.divide(v, bc2, out=t)
            np.sqrt(t, out=t)
            t += self.eps                                           # sqrt(v / bc2) + eps
            p.data -= np.divide(s, t, out=s)
