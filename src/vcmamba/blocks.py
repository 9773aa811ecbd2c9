"""Building blocks of the backbone.

Stem: two stride-2 3x3 convolutions (BN + ReLU after each), total reduction
4x. FfnBlock: residual inverted-bottleneck MLP built from convolutions,
1x1 expand (4x) -> BN -> GeLU -> 3x3 depthwise -> BN -> GeLU -> 1x1 project.
DownsampleLayer: strided 3x3 conv + BN between stages. MdmBlock: a Mamba
token-mixing branch followed by a ConvMLP, each behind its own entry BN and
residual; the mixing branch projects to an inner width of 2x channels, adds
a learned positional map (stored at the stage-native grid and bilinearly
resized elsewhere), applies a depthwise conv + SiLU, then runs the four-path
direction-aware scan mix and projects back.

Convolutions directly followed by a BN carry no bias. The stem takes
(B, 3, H, W) images and moves them to channels-last once; every block after
it takes and returns a channels-last (B, H, W, C) map. On that layout a 1x1
conv (PointwiseConv) is a linear map of each position's channels; the 3x3
stride-2 Conv2d serves only the stem and the downsamplers.

The BNs after ConvMlp's expand and depthwise convs and after MambaBranch's
out-projection are applied with BatchNorm2d.after, which in eval mode folds
the BN into that conv's weight and bias; every other eval BN is one affine
pass. Only the BNs read the train/eval mode.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor
from .nn import BatchNorm2d, Conv2d, DepthwiseConv2d, LayerNorm, Module, PointwiseConv
from .ssm import SsmParams, directional_scan_sum

FFN_EXPANSION = 4     # ConvMlp hidden width, in multiples of the block channels
MAMBA_EXPANSION = 2   # MambaBranch inner (scan) width, in multiples of the block channels


class Stem(Module):
    def __init__(self, out_channels: int):
        super().__init__()
        mid = max(1, out_channels // 2)
        self.conv1 = Conv2d(3, mid)
        self.norm1 = BatchNorm2d(mid)
        self.conv2 = Conv2d(mid, out_channels)
        self.norm2 = BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != 3:
            raise ShapeMismatch("stem", f"expected (B, 3, H, W) images, got {x.shape}")
        x = ad.relu(self.norm1(self.conv1(ad.moveaxis(x, 1, 3))))
        return ad.relu(self.norm2(self.conv2(x)))


class ConvMlp(Module):
    """The FFN transform without its residual: expand, depthwise, project."""

    def __init__(self, channels: int):
        super().__init__()
        hidden = channels * FFN_EXPANSION
        self.expand = PointwiseConv(channels, hidden, bias=False)
        self.norm1 = BatchNorm2d(hidden)
        self.dwconv = DepthwiseConv2d(hidden, bias=False)
        self.norm2 = BatchNorm2d(hidden)
        self.project = PointwiseConv(hidden, channels, bias=True)

    def forward(self, x: Tensor) -> Tensor:
        x = ad.gelu(self.norm1.after(ad.linear, x, self.expand.weight))
        x = ad.gelu(self.norm2.after(ad.depthwise_conv2d, x, self.dwconv.weight))
        return self.project(x)


class FfnBlock(Module):
    def __init__(self, channels: int):
        super().__init__()
        self.mlp = ConvMlp(channels)

    def forward(self, x: Tensor) -> Tensor:
        return ad.add(x, self.mlp(x))


class DownsampleLayer(Module):
    def __init__(self, in_channels: int, out_channels: int):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels)
        self.norm = BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        return self.norm(self.conv(x))


class MambaBranch(Module):
    """Token mixing: 1x1 in-projection to 2x channels, positional map,
    depthwise conv + SiLU, four-path direction-aware scan mix and channel layer
    norm, 1x1 out-projection + BN, all on the channels-last map."""

    def __init__(self, channels: int, native_grid: tuple[int, int], *, n_state: int = 16):
        super().__init__()
        d_inner = MAMBA_EXPANSION * channels
        gh, gw = native_grid
        if gh < 1 or gw < 1:
            raise ValueError(f"native grid must be positive, got {native_grid}")
        self.d_inner = d_inner
        self.in_proj = PointwiseConv(channels, d_inner, bias=True)
        self.declare("pos_table", (d_inner, gh, gw))
        self.dwconv = DepthwiseConv2d(d_inner, bias=True)
        self.ssm = SsmParams(d_inner, n_state)
        self.mix_norm = LayerNorm(d_inner)
        self.out_proj = PointwiseConv(d_inner, channels, bias=False)
        self.out_norm = BatchNorm2d(channels)

    def forward(self, x: Tensor) -> Tensor:
        _, h, w, _ = x.shape
        z = self.in_proj(x)
        pos = ad.moveaxis(ad.bilinear_resize(self.pos_table, h, w), 0, 2)
        z = ad.add_map(z, pos)
        z = ad.silu(self.dwconv(z))
        z = self.mix_norm(directional_scan_sum(z, self.ssm))
        return self.out_norm.after(ad.linear, z, self.out_proj.weight)


class MdmBlock(Module):
    """Mamba mixing then ConvMLP, each residual with its own entry BN:
    x1 = x + mamba(BN(x)); out = x1 + mlp(BN(x1))."""

    def __init__(self, channels: int, native_grid: tuple[int, int], *, n_state: int = 16):
        super().__init__()
        self.norm1 = BatchNorm2d(channels)
        self.mamba = MambaBranch(channels, native_grid, n_state=n_state)
        self.norm2 = BatchNorm2d(channels)
        self.mlp = ConvMlp(channels)

    def forward(self, x: Tensor) -> Tensor:
        x = ad.add(x, self.mamba(self.norm1(x)))
        return ad.add(x, self.mlp(self.norm2(x)))
