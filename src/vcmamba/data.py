"""Procedural toy dataset: ten drawn shape/texture classes.

Every sample is generated from its own deterministic stream
np.random.default_rng([seed, index]), so any slice of the dataset is
reproducible byte for byte on any platform. Labels are index mod 10. Pixels
live in [0, 1]: a random background/foreground pair, a class-specific mask,
mild gaussian noise, then a clip.

Classes: 0 horizontal stripes, 1 vertical stripes, 2 plus, 3 diagonal cross,
4 ring, 5 disk, 6 square outline, 7 filled square, 8 checkerboard,
9 diagonal stripes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NUM_CLASSES = 10


def _class_mask(label: int, rng: np.random.Generator, res: int) -> np.ndarray:
    yy, xx = np.mgrid[0:res, 0:res].astype(np.float64)
    cy, cx = rng.uniform(0.38 * res, 0.62 * res, size=2)
    radius = rng.uniform(0.26, 0.42) * res
    band = max(1.0, rng.uniform(0.05, 0.09) * res)
    dy, dx = yy - cy, xx - cx

    if label == 0:
        p = max(2, int(round(rng.uniform(0.09, 0.16) * res)))
        return ((yy.astype(int) + rng.integers(0, p)) // p) % 2 == 0
    if label == 1:
        p = max(2, int(round(rng.uniform(0.09, 0.16) * res)))
        return ((xx.astype(int) + rng.integers(0, p)) // p) % 2 == 0
    if label == 2:
        box = np.maximum(np.abs(dy), np.abs(dx)) < radius
        return box & ((np.abs(dx) < band) | (np.abs(dy) < band))
    if label == 3:
        box = np.maximum(np.abs(dy), np.abs(dx)) < radius
        return box & (np.abs(np.abs(dx) - np.abs(dy)) < band)
    if label == 4:
        r = np.hypot(dy, dx)
        return (r < radius) & (r > 0.6 * radius)
    if label == 5:
        return np.hypot(dy, dx) < 0.85 * radius
    if label == 6:
        m = np.maximum(np.abs(dy), np.abs(dx))
        return (m < radius) & (m > 0.6 * radius)
    if label == 7:
        return np.maximum(np.abs(dy), np.abs(dx)) < 0.8 * radius
    if label == 8:
        p = max(3, int(round(rng.uniform(0.2, 0.3) * res)))
        return ((xx.astype(int) // p) + (yy.astype(int) // p)) % 2 == 0
    if label == 9:
        p = max(3, int(round(rng.uniform(0.12, 0.2) * res)))
        return (((xx + yy).astype(int) + rng.integers(0, p)) // p) % 2 == 0
    raise ValueError(f"label {label} out of range")


def render_sample(seed: int, index: int, res: int) -> tuple[np.ndarray, int]:
    """One (3, res, res) float32 image in [0, 1] and its label."""
    label = index % NUM_CLASSES
    rng = np.random.default_rng([seed, index])
    mask = _class_mask(label, rng, res)
    bg = rng.uniform(0.0, 0.35, size=3)
    fg = rng.uniform(0.6, 1.0, size=3)
    img = bg[:, None, None] + (fg - bg)[:, None, None] * mask[None]
    img = img + rng.normal(0.0, 0.02, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32), label


@dataclass
class ToyDataset:
    """Materialized sample collection; images (N, 3, res, res) float32."""

    n_samples: int
    seed: int = 0
    resolution: int = 32
    images: np.ndarray = field(init=False, repr=False)
    labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.resolution < 8:
            raise ValueError(f"resolution must be at least 8, got {self.resolution}")
        imgs = np.empty((self.n_samples, 3, self.resolution, self.resolution), dtype=np.float32)
        labels = np.empty(self.n_samples, dtype=np.int64)
        for i in range(self.n_samples):
            imgs[i], labels[i] = render_sample(self.seed, i, self.resolution)
        self.images = imgs
        self.labels = labels

    def __len__(self) -> int:
        return self.n_samples
