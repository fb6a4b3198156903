"""Closed-form architecture metrics.

All quantities are pure functions of the expanded layer list: projected
layer width, network entropy, geometric-mean width, effectiveness,
depth-uniformity penalty, parameter and multiply-accumulate counts.
Natural logarithms throughout; widths below one are rejected rather than
clamped, since a sub-unit width would contribute negative entropy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .blocks import ROLE_MAIN, ROLE_STEM
from .conventions import PINNED, Conventions
from .model import LayerDescriptor, NetworkSpec, expand, stage_resolutions

__all__ = [
    "MetricReport",
    "projected_width",
    "mlp_entropy",
    "cnn_entropy",
    "average_width",
    "effectiveness",
    "depth_uniformity_penalty",
    "weighted_entropy",
    "count_params",
    "count_flops",
    "params_of_layers",
    "flops_of_layers",
    "monotone_width_check",
    "path_roles",
    "entropy_path",
    "metric_report",
]


@dataclass(frozen=True)
class MetricReport:
    """Every reported quantity for one network under one convention set."""

    entropy_per_stage: tuple[float, ...]
    weighted_entropy: float
    rho: float
    q: float
    params: int
    flops: int
    widths: tuple[float, ...]
    monotone: bool


def projected_width(layer: LayerDescriptor) -> float:
    """MLP-equivalent width of a conv layer: c_in * k^2 / groups."""
    return layer.c_in * layer.k ** 2 / layer.g


def mlp_entropy(widths: Sequence[float], out_width: float) -> float:
    """out_width * sum(log w_i) over the layer widths, natural log."""
    if not widths:
        raise ValueError("widths must be nonempty")
    if min(widths) < 1:
        raise ValueError(f"widths below 1 are outside the entropy domain: {min(widths)}")
    return out_width * sum(math.log(w) for w in widths)


def cnn_entropy(layers: Sequence[LayerDescriptor], r_out: int, c_out: int) -> float:
    """log(r_out^2 * c_out) * sum(log projected width) over a layer prefix."""
    if not layers:
        raise ValueError("layer prefix must be nonempty")
    if r_out < 1 or c_out < 1:
        raise ValueError("output resolution and channels must be >= 1")
    total = 0.0
    for layer in layers:
        w = projected_width(layer)
        if w < 1:
            raise ValueError(f"projected width below 1 is outside the entropy domain: {w}")
        total += math.log(w)
    return math.log(r_out * r_out * c_out) * total


def average_width(widths: Sequence[float]) -> float:
    """Geometric mean, accumulated in log space for stability."""
    if not len(widths):
        raise ValueError("widths must be nonempty")
    if min(widths) <= 0:
        raise ValueError("widths must be positive")
    return math.exp(math.fsum(math.log(w) for w in widths) / len(widths))


def path_roles() -> frozenset[str]:
    """The roles of the convs whose widths enter entropy and effectiveness.

    The stem and block main-path convs, which carry the signal in series,
    so their variance factors multiply.  A projection shortcut adds its
    variance in parallel, and squeeze-excite, head and classifier convs
    gate or post-process the signal, so none of them is on the path.
    """
    return frozenset((ROLE_STEM, ROLE_MAIN))


def entropy_path(layers: Iterable[LayerDescriptor]) -> list[LayerDescriptor]:
    """The layers whose roles are on the signal path (`path_roles`)."""
    keep = path_roles()
    return [l for l in layers if l.role in keep]


def effectiveness(net: NetworkSpec,
                  layers: Sequence[LayerDescriptor] | None = None) -> float:
    """Depth over geometric-mean projected width of the signal path."""
    path = entropy_path(expand(net) if layers is None else layers)
    if not path:
        raise ValueError("entropy path is empty")
    return len(path) / average_width([projected_width(l) for l in path])


def depth_uniformity_penalty(depths: Sequence[int]) -> float:
    """exp of the population variance of the per-stage depths."""
    if not len(depths):
        raise ValueError("depths must be nonempty")
    mean = math.fsum(depths) / len(depths)
    var = math.fsum([(d - mean) ** 2 for d in depths]) / len(depths)
    return math.exp(var)


def weighted_entropy(net: NetworkSpec, alphas: Sequence[float],
                     layers: Sequence[LayerDescriptor] | None = None,
                     ) -> tuple[float, list[float]]:
    """Per-stage entropies H_i and their weighted sum.

    H_i scales log(r_i^2 c_i) at stage i's output by the sum of log
    projected widths over the signal path up to and including stage i:
    the log of stage i's output variance, a product over the whole prefix.
    The stem conv counts toward stage 0.
    """
    if len(alphas) != len(net.stages):
        raise ValueError(f"alpha count {len(alphas)} != stage count {len(net.stages)}")
    if not all(0 <= a < math.inf for a in alphas):  # NaN fails both comparisons
        raise ValueError("alphas must be finite and nonnegative")
    path = entropy_path(expand(net) if layers is None else layers)
    resolutions = stage_resolutions(net)

    sums = [0.0] * len(net.stages)
    for layer in path:
        stage = 0 if layer.stage is None else layer.stage
        w = projected_width(layer)
        if w < 1:
            raise ValueError(f"projected width below 1 is outside the entropy domain: {w}")
        sums[stage] += math.log(w)
    sums = list(itertools.accumulate(sums))

    per_stage = [
        math.log(resolutions[i] ** 2 * st.width) * sums[i]
        for i, st in enumerate(net.stages)
    ]
    return math.fsum(a * h for a, h in zip(alphas, per_stage)), per_stage


def _layer_params(layer: LayerDescriptor, conventions: Conventions) -> int:
    weights = layer.c_out * (layer.c_in // layer.g) * layer.k ** 2
    extra = 0
    if layer.has_bn and conventions.params_include_bn:
        extra += 2 * layer.c_out
    if layer.has_bias:
        extra += layer.c_out
    return weights + extra


def _layer_flops(layer: LayerDescriptor, conventions: Conventions) -> int:
    area = layer.r_out * layer.r_out
    macs = layer.c_out * (layer.c_in // layer.g) * layer.k ** 2 * area
    if layer.has_bn:
        macs += conventions.flops_bn_cost * layer.c_out * area
    return macs


def params_of_layers(layers: Sequence[LayerDescriptor],
                     conventions: Conventions = PINNED) -> int:
    return sum(_layer_params(l, conventions) for l in layers)


def flops_of_layers(layers: Sequence[LayerDescriptor],
                    conventions: Conventions = PINNED) -> int:
    return sum(_layer_flops(l, conventions) for l in layers)


def count_params(net: NetworkSpec, conventions: Conventions = PINNED,
                 layers: Sequence[LayerDescriptor] | None = None) -> int:
    """Trainable parameter count over every expanded layer."""
    return params_of_layers(expand(net) if layers is None else layers, conventions)


def count_flops(net: NetworkSpec, conventions: Conventions = PINNED,
                layers: Sequence[LayerDescriptor] | None = None) -> int:
    """Multiply-accumulate count at the network's input resolution.

    One MAC per output element per weight; batch-norm charged at
    `flops_bn_cost` ops per normalized element (pinned by calibration
    against the reference table).  Activations and pooling are free.
    """
    return flops_of_layers(expand(net) if layers is None else layers, conventions)


def monotone_width_check(net: NetworkSpec) -> bool:
    """True iff stage output channels are non-decreasing front to back."""
    widths = [s.width for s in net.stages]
    return all(a <= b for a, b in zip(widths, widths[1:]))


def metric_report(net: NetworkSpec, alphas: Sequence[float] | None = None,
                  conventions: Conventions = PINNED, check: bool = True) -> MetricReport:
    """One-pass computation of the full report (single expansion).

    Alphas default to (1, ..., 1, 8), the last stage's entropy weighted
    eight times; a single stage gets weight 1.  `check=False` skips
    `expand`'s validation, for callers that have validated `net` already.
    """
    layers = expand(net, check=check)
    if alphas is None:
        m = len(net.stages)
        alphas = [1.0] * (m - 1) + [8.0] if m > 1 else [1.0]
    weighted, per_stage = weighted_entropy(net, alphas, layers=layers)
    path = entropy_path(layers)
    widths = tuple(projected_width(l) for l in path)
    return MetricReport(
        entropy_per_stage=tuple(per_stage),
        weighted_entropy=weighted,
        rho=len(path) / average_width(widths),
        q=depth_uniformity_penalty([s.depth for s in net.stages]),
        params=count_params(net, conventions, layers=layers),
        flops=count_flops(net, conventions, layers=layers),
        widths=widths,
        monotone=monotone_width_check(net),
    )
