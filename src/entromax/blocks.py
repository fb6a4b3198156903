"""Building-block definitions and their expansion into flat conv layers.

Every supported block is a fixed arrangement of plain convolutions; the
tables below are the single source of truth for how a block unrolls.
Strides, batch-norm and bias placement follow the reference designs the
block names come from:

  plain_conv          conv(k) + BN + ReLU
  resnet_basic        conv(k, stride) -> conv(k); 1x1 projection shortcut
                      when the shape changes
  resnet_bottleneck   1x1 reduce -> conv(k, stride) -> 1x1 expand, inner
                      width = bottleneck_ratio * out; projection shortcut
                      as above (stride lives on the k x k conv)
  mobilenet_v2_se     1x1 expand (skipped when expansion == 1) ->
                      depthwise conv(k, stride) -> optional squeeze-excite
                      gate -> 1x1 linear project; identity residuals only,
                      never a projection conv

The expansion helpers accept float channel counts so a continuous
relaxation can reuse the exact same structure; `exact=True` enforces
integral derived channels and is what the validated model path uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

PLAIN = "plain_conv"
RESNET_BASIC = "resnet_basic"
RESNET_BOTTLENECK = "resnet_bottleneck"
MOBILENET_V2_SE = "mobilenet_v2_se"

KNOWN_KINDS = (PLAIN, RESNET_BASIC, RESNET_BOTTLENECK, MOBILENET_V2_SE)

# roles tag every expanded conv so metrics can select the signal path
ROLE_STEM = "stem"
ROLE_MAIN = "main"
ROLE_SHORTCUT = "shortcut"
ROLE_SE = "se"
ROLE_HEAD = "head"
ROLE_CLASSIFIER = "classifier"


@dataclass(frozen=True)
class BlockKind:
    """A block variant plus its fixed structural parameters."""

    kind: str
    bottleneck_ratio: float = 0.25  # resnet_bottleneck: inner = ratio * out
    expansion: float = 6.0          # mobilenet_v2_se: hidden = expansion * in
    se_reduction: float | None = None  # mobilenet_v2_se: None disables SE

    @classmethod
    def plain(cls) -> "BlockKind":
        return cls(kind=PLAIN)

    @classmethod
    def resnet_basic(cls) -> "BlockKind":
        return cls(kind=RESNET_BASIC)

    @classmethod
    def resnet_bottleneck(cls, ratio: float = 0.25) -> "BlockKind":
        return cls(kind=RESNET_BOTTLENECK, bottleneck_ratio=ratio)

    @classmethod
    def mobilenet_v2(cls, expansion: float = 6.0,
                     se_reduction: float | None = None) -> "BlockKind":
        return cls(kind=MOBILENET_V2_SE, expansion=expansion,
                   se_reduction=se_reduction)

    def structure_errors(self) -> list[str]:
        """Violations of the per-variant parameter invariants."""
        errs = []
        if self.kind not in KNOWN_KINDS:
            errs.append(f"unknown block kind {self.kind!r}")
        if self.kind == RESNET_BOTTLENECK and not self.bottleneck_ratio > 0:
            errs.append("bottleneck ratio must be > 0")
        if self.kind == MOBILENET_V2_SE:
            if not self.expansion > 0:
                errs.append("expansion ratio must be > 0")
            if self.se_reduction is not None and self.se_reduction < 1:
                errs.append("SE reduction ratio must be >= 1")
        return errs


class ConvPlan(NamedTuple):
    """One conv of an unrolled block, before resolution propagation."""

    c_in: float
    c_out: float
    kernel: int
    groups: float
    stride: int
    role: str
    has_bn: bool
    has_bias: bool


def _channels(value: float, what: str, exact: bool) -> float:
    if exact:
        rounded = round(value)
        if abs(value - rounded) > 1e-9 or rounded < 1:
            raise ValueError(f"{what} must be a positive integer, got {value}")
        return int(rounded)
    if value < 1e-9:
        raise ValueError(f"{what} must be positive, got {value}")
    return value


def block_convs(block: BlockKind, c_in: float, c_out: float, kernel: int,
                groups: int, stride: int, exact: bool = True) -> list[ConvPlan]:
    """Unroll one block into its conv sequence (shortcut conv last)."""
    if block.kind == PLAIN:
        return [ConvPlan(c_in, c_out, kernel, groups, stride, ROLE_MAIN, True, False)]

    if block.kind == RESNET_BASIC:
        convs = [
            ConvPlan(c_in, c_out, kernel, groups, stride, ROLE_MAIN, True, False),
            ConvPlan(c_out, c_out, kernel, groups, 1, ROLE_MAIN, True, False),
        ]
        if stride != 1 or c_in != c_out:
            convs.append(ConvPlan(c_in, c_out, 1, 1, stride, ROLE_SHORTCUT, True, False))
        return convs

    if block.kind == RESNET_BOTTLENECK:
        inner = _channels(c_out * block.bottleneck_ratio, "bottleneck channels", exact)
        convs = [
            ConvPlan(c_in, inner, 1, 1, 1, ROLE_MAIN, True, False),
            ConvPlan(inner, inner, kernel, groups, stride, ROLE_MAIN, True, False),
            ConvPlan(inner, c_out, 1, 1, 1, ROLE_MAIN, True, False),
        ]
        if stride != 1 or c_in != c_out:
            convs.append(ConvPlan(c_in, c_out, 1, 1, stride, ROLE_SHORTCUT, True, False))
        return convs

    if block.kind == MOBILENET_V2_SE:
        hidden = _channels(c_in * block.expansion, "expanded channels", exact)
        convs = []
        if block.expansion != 1:
            convs.append(ConvPlan(c_in, hidden, 1, 1, 1, ROLE_MAIN, True, False))
        convs.append(ConvPlan(hidden, hidden, kernel, hidden, stride, ROLE_MAIN, True, False))
        if block.se_reduction is not None:
            # squeeze-excite gate on pooled features; reduction is computed
            # from the block's input channels, floor with a minimum of one
            if exact:
                c_se = max(1, int(c_in / block.se_reduction))
            else:
                c_se = max(1.0, c_in / block.se_reduction)
            convs.append(ConvPlan(hidden, c_se, 1, 1, 1, ROLE_SE, False, True))
            convs.append(ConvPlan(c_se, hidden, 1, 1, 1, ROLE_SE, False, True))
        convs.append(ConvPlan(hidden, c_out, 1, 1, 1, ROLE_MAIN, True, False))
        return convs

    raise ValueError(f"unknown block kind {block.kind!r}")


def halve(resolution: int) -> int:
    """Stride-two output side, ceil division (same-padding convention)."""
    return math.ceil(resolution / 2)
