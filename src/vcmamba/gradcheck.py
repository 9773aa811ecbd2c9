"""Finite-difference gradient checking.

Central differences in float64 against the tape's analytic gradients. The
error metric is mixed absolute/relative,

    err = |analytic - numeric| / max(1, |analytic|, |numeric|),

so tiny gradients are compared absolutely and large ones relatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tape, Tensor, backward

STEP = 1e-4         # central-difference step
TOLERANCE = 1e-3    # largest mixed error that passes


@dataclass
class GradCheckReport:
    passed: bool
    max_error: float
    tolerance: float
    step: float
    n_coords: int
    worst_tensor: str
    worst_index: tuple[int, ...]
    per_tensor: dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (f"gradcheck {status}: max err {self.max_error:.3e} (tol {self.tolerance:.0e}, "
                f"step {self.step:.0e}, {self.n_coords} coords, worst {self.worst_tensor}"
                f"{list(self.worst_index)})")


def finite_diff_check(f: Callable[[], Tensor], wrt: Sequence[Tensor], *,
                      max_coords_per_tensor: int | None = None,
                      rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    f is a zero-argument callable that recomputes the loss from scratch on
    every call; wrt lists the float64 requires_grad tensors f reads, which
    are perturbed in place and restored. f must be deterministic given wrt
    (running-stat bookkeeping aside). When max_coords_per_tensor is set, a
    seeded subsample of coordinates is checked per tensor; otherwise every
    coordinate is swept.
    """
    wrt = list(wrt)
    if not wrt:
        raise ValueError("finite_diff_check needs at least one tensor to differentiate")
    for i, t in enumerate(wrt):
        if t.dtype != np.float64:
            raise ValueError(f"gradient checks run in float64; tensor {i} "
                             f"({t.name or 'unnamed'}) has dtype {t.dtype}")
        if not t.requires_grad:
            raise ValueError(f"tensor {i} ({t.name or 'unnamed'}) does not require grad")
        t.zero_grad()

    with Tape():
        loss = f()
    backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in wrt]
    for t in wrt:
        t.zero_grad()

    if max_coords_per_tensor is not None and rng is None:
        rng = np.random.default_rng(0)

    max_err = 0.0
    worst = ("", ())
    n_checked = 0
    per_tensor: dict[str, float] = {}
    for i, t in enumerate(wrt):
        label = t.name or f"arg{i}"
        flat = t.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_tensor is not None and flat.size > max_coords_per_tensor:
            coords = rng.choice(flat.size, size=max_coords_per_tensor, replace=False)
        t_err = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + STEP
            up = f().item()
            flat[c] = orig - STEP
            down = f().item()
            flat[c] = orig
            numeric = (up - down) / (2.0 * STEP)
            a = analytic[i].reshape(-1)[c]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            n_checked += 1
            if err > t_err:
                t_err = err
            if err > max_err:
                max_err = err
                worst = (label, np.unravel_index(int(c), t.shape))
        per_tensor[label] = t_err

    return GradCheckReport(passed=max_err <= TOLERANCE, max_error=max_err,
                           tolerance=TOLERANCE, step=STEP, n_coords=n_checked,
                           worst_tensor=worst[0], worst_index=tuple(worst[1]),
                           per_tensor=per_tensor)
