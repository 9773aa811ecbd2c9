"""The four-stage hybrid backbone.

Stage layout: a 4x-reducing convolutional stem, then four stages separated
by stride-2 downsamplers. Stages 1-3 are pure FFN stacks; stage 4 interleaves
Mamba mixing blocks with FFN blocks, Mamba first. Every stage is wrapped in
an entry and an exit BatchNorm. The head is global average pooling plus one
linear layer. Images and features() are (B, C, H, W); between the stem and the
end of stage 4 every map is channels-last, (B, H, W, C).

Presets:
    S    channels (32, 64, 144, 288),  blocks (4F, 4F, 12F, MFMFMFMF)
    M    channels (48, 96, 224, 448),  blocks (4F, 4F, 12F, MFMFMM)
    B    channels (64, 128, 320, 512), blocks (4F, 4F, 12F, MFMFMM)
    nano channels (16, 32, 64, 128),   blocks (2F, 2F, 4F, MFM),
         10 classes at 32x32 input (the toy-training configuration)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor
from .blocks import FFN_EXPANSION, MAMBA_EXPANSION, DownsampleLayer, FfnBlock, MdmBlock, Stem
from .nn import BatchNorm2d, Linear, Module, ModuleList
from .scanpath import PathId
from .ssm import delta_rank

REDUCTION = 32  # stem 4x then three stride-2 downsamplers


@dataclass(frozen=True)
class ModelSpec:
    """Static architecture description; everything a build or a checkpoint
    needs to reproduce the module tree."""

    name: str
    channels: tuple[int, int, int, int]
    stage_blocks: tuple[str, str, str, str]
    num_classes: int
    input_resolution: int
    n_state: int = 16

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        object.__setattr__(self, "stage_blocks", tuple(str(s) for s in self.stage_blocks))
        if not self.name:
            raise ValueError("model spec needs a name")
        if len(self.channels) != 4 or any(c < 2 for c in self.channels):
            raise ValueError(f"channels must be four integers >= 2, got {self.channels}")
        if self.channels[0] % 2:
            raise ValueError(f"stage-1 channels must be even for the stem, got {self.channels[0]}")
        if len(self.stage_blocks) != 4 or any(not s for s in self.stage_blocks):
            raise ValueError(f"stage_blocks must be four non-empty strings, got {self.stage_blocks}")
        for i, s in enumerate(self.stage_blocks):
            bad = set(s) - {"F", "M"}
            if bad:
                raise ValueError(f"stage {i + 1} has unknown block kinds {sorted(bad)}")
            if i < 3 and "M" in s:
                raise ValueError(f"stages 1-3 are FFN-only; stage {i + 1} is {s!r}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_resolution < REDUCTION or self.input_resolution % REDUCTION:
            raise ValueError(f"input_resolution must be a positive multiple of {REDUCTION}, "
                             f"got {self.input_resolution}")
        if self.n_state < 1:
            raise ValueError(f"n_state must be positive, got {self.n_state}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(name=d["name"], channels=tuple(d["channels"]),
                   stage_blocks=tuple(d["stage_blocks"]), num_classes=int(d["num_classes"]),
                   input_resolution=int(d["input_resolution"]), n_state=int(d["n_state"]))


PRESETS: dict[str, ModelSpec] = {
    "S": ModelSpec("S", (32, 64, 144, 288), ("F" * 4, "F" * 4, "F" * 12, "MFMFMFMF"), 1000, 224),
    "M": ModelSpec("M", (48, 96, 224, 448), ("F" * 4, "F" * 4, "F" * 12, "MFMFMM"), 1000, 224),
    "B": ModelSpec("B", (64, 128, 320, 512), ("F" * 4, "F" * 4, "F" * 12, "MFMFMM"), 1000, 224),
    "nano": ModelSpec("nano", (16, 32, 64, 128), ("F" * 2, "F" * 2, "F" * 4, "MFM"), 10, 32),
}


def get_preset(name: str) -> ModelSpec:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


class Stage(Module):
    def __init__(self, channels: int, kinds: str, native_grid: tuple[int, int], *, n_state: int):
        super().__init__()
        self.entry_norm = BatchNorm2d(channels)
        blocks = []
        for kind in kinds:
            if kind == "F":
                blocks.append(FfnBlock(channels))
            else:
                blocks.append(MdmBlock(channels, native_grid, n_state=n_state))
        self.blocks = ModuleList(blocks)
        self.exit_norm = BatchNorm2d(channels)

    def forward(self, x: Tensor) -> Tensor:
        x = self.entry_norm(x)
        for block in self.blocks:
            x = block(x)
        return self.exit_norm(x)


class VCMamba(Module):
    """Build is fully determined by (spec, seed): names, shapes and float32
    initial values are reproducible bit for bit. VCMamba.undrawn(spec) is the
    same tree, every declared parameter zero, for callers that fill or count it."""

    def __init__(self, spec: ModelSpec, *, seed: int = 0):
        self._build(spec).draw(np.random.default_rng(seed))

    @classmethod
    def undrawn(cls, spec: ModelSpec) -> "VCMamba":
        return cls.__new__(cls)._build(spec)

    def _build(self, spec: ModelSpec) -> "VCMamba":
        super().__init__()
        self.spec = spec
        c, kinds, n_state = spec.channels, spec.stage_blocks, spec.n_state
        side = spec.input_resolution // REDUCTION
        native_grid = (side, side)

        self.stem = Stem(c[0])
        self.stage1 = Stage(c[0], kinds[0], native_grid, n_state=n_state)
        self.down1 = DownsampleLayer(c[0], c[1])
        self.stage2 = Stage(c[1], kinds[1], native_grid, n_state=n_state)
        self.down2 = DownsampleLayer(c[1], c[2])
        self.stage3 = Stage(c[2], kinds[2], native_grid, n_state=n_state)
        self.down3 = DownsampleLayer(c[2], c[3])
        self.stage4 = Stage(c[3], kinds[3], native_grid, n_state=n_state)
        self.head = Linear(c[3], spec.num_classes)
        return self

    @property
    def dtype(self) -> np.dtype:
        return self.head.weight.dtype

    def features(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != 3:
            raise ShapeMismatch("forward", f"expected (B, 3, H, W) images, got {x.shape}")
        h, w = x.shape[2], x.shape[3]
        if h % REDUCTION or w % REDUCTION or h == 0 or w == 0:
            raise ShapeMismatch("forward", f"input sides must be positive multiples of "
                                           f"{REDUCTION}, got {h}x{w}")
        x = self.stem(x)
        x = self.down1(self.stage1(x))
        x = self.down2(self.stage2(x))
        x = self.down3(self.stage3(x))
        return ad.moveaxis(self.stage4(x), 3, 1)

    def forward(self, x: Tensor) -> Tensor:
        return self.head(ad.global_avg_pool(self.features(x)))


def _section_of(name: str) -> str:
    return name.split(".", 1)[0]


def count_params(model: VCMamba) -> dict:
    """Learnable parameter counts per section plus the total; running
    statistics (BN buffers) are not parameters and are reported separately."""
    sections: dict[str, int] = {}
    total = 0
    for name, p in model.named_parameters():
        sections[_section_of(name)] = sections.get(_section_of(name), 0) + p.size
        total += p.size
    buffers = sum(b.size for _, b in model.named_buffers())
    return {"sections": sections, "total": total, "buffer_elements": buffers}


def _mlp_macs(channels: int, side_h: int, side_w: int) -> int:
    hidden = channels * FFN_EXPANSION
    l = side_h * side_w
    return l * hidden * channels + l * hidden * 9 + l * channels * hidden


def _mdm_macs(channels: int, side_h: int, side_w: int, n_state: int) -> int:
    d = MAMBA_EXPANSION * channels
    l = side_h * side_w
    inner = l * d * channels                  # in-projection
    inner += l * d * 9                        # depthwise conv
    inner += 2 * l * n_state * d              # B and C projections, once on the raster tokens
    inner += 2 * l * delta_rank(d) * d        # low-rank delta head, likewise
    # per path: discretization (2), input term, recurrence and readout per state, then the skip
    inner += len(PathId) * l * d * (5 * n_state + 1)
    inner += l * channels * d                 # out-projection
    return inner + _mlp_macs(channels, side_h, side_w)


def count_macs(spec: ModelSpec, resolution: int | None = None) -> dict:
    """Analytic multiply-accumulate counts at batch size 1.

    Counts convolutions (out_positions * Cout * Cin * kh * kw, depthwise
    out_positions * C * kh * kw), linear maps and the scan core (the
    per-token state updates and projections listed in _mdm_macs); norms,
    activations, adds and pooling count zero. Resolution must be a multiple
    of 32; stage grids follow the 4, 8, 16, 32x reductions.
    """
    res = spec.input_resolution if resolution is None else int(resolution)
    if res < REDUCTION or res % REDUCTION:
        raise ValueError(f"resolution must be a positive multiple of {REDUCTION}, got {res}")
    c = spec.channels
    mid = c[0] // 2
    sides = [res // 4, res // 8, res // 16, res // 32]

    sections: dict[str, int] = {}
    sections["stem"] = (res // 2) ** 2 * mid * 3 * 9 + (res // 4) ** 2 * c[0] * mid * 9
    for i in range(4):
        s = sides[i]
        total = 0
        for kind in spec.stage_blocks[i]:
            if kind == "F":
                total += _mlp_macs(c[i], s, s)
            else:
                total += _mdm_macs(c[i], s, s, spec.n_state)
        sections[f"stage{i + 1}"] = total
        if i < 3:
            sections[f"down{i + 1}"] = sides[i + 1] ** 2 * c[i + 1] * c[i] * 9
    sections["head"] = c[3] * spec.num_classes
    return {"sections": sections, "total": sum(sections.values()), "resolution": res}
