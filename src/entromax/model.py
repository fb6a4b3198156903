"""Canonical architecture model: stem, stages, head, and its flat expansion.

A network is described at block granularity (`NetworkSpec`) and every
metric operates on the flat conv-layer form produced by `expand`.  The
classifier is modelled as a 1x1 conv at resolution 1 so a single cost and
entropy pipeline covers the whole net.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import (
    ROLE_CLASSIFIER,
    ROLE_HEAD,
    ROLE_SE,
    ROLE_SHORTCUT,
    ROLE_STEM,
    BlockKind,
    block_convs,
    halve,
)

__all__ = [
    "StemSpec",
    "StageSpec",
    "NetworkSpec",
    "LayerDescriptor",
    "Violation",
    "ValidationError",
    "validate",
    "expand",
    "stage_resolutions",
]


@dataclass(frozen=True)
class StemSpec:
    """Single input conv, optionally followed by a stride-2 max pool."""

    channels: int
    kernel: int = 3
    stride: int = 2
    pool: bool = False


@dataclass(frozen=True)
class StageSpec:
    """A run of identical blocks at one feature-map resolution."""

    block: BlockKind
    depth: int
    width: int
    kernel: int = 3
    groups: int = 1
    downsample: bool = False


@dataclass(frozen=True)
class NetworkSpec:
    """Full architecture: stem, ordered stages, optional head conv, classifier."""

    input_resolution: int
    stem: StemSpec
    stages: tuple[StageSpec, ...]
    head_channels: int | None = None
    num_classes: int = 1000
    in_channels: int = 3

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))


@dataclass(frozen=True, slots=True)
class LayerDescriptor:
    """One conv after block expansion, with resolutions propagated.

    `stage` is the 0-based stage index, or None for stem / head /
    classifier layers.  `role` tags the layer's position in the signal
    path (see blocks module) so metrics can select layer subsets.
    """

    c_in: int
    c_out: int
    k: int
    g: int
    stride: int
    r_in: int
    r_out: int
    role: str
    stage: int | None
    has_bn: bool
    has_bias: bool


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.message}"


class ValidationError(ValueError):
    """Raised by expand() when the network description fails validation."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


def _check_positive(violations: list[Violation], value: int, code: str,
                    where: str, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        violations.append(Violation(code, where, f"{what} must be a positive integer, got {value!r}"))


def _check_flag(violations: list[Violation], value: bool, where: str, what: str) -> None:
    if not isinstance(value, bool):
        violations.append(Violation("flag_not_bool", where, f"{what} must be a bool, got {value!r}"))


def _check_kernel(violations: list[Violation], kernel: int, where: str) -> None:
    _check_positive(violations, kernel, "kernel_nonpositive", where, "kernel")
    if isinstance(kernel, int) and kernel >= 1 and kernel % 2 == 0:
        violations.append(Violation("kernel_even", where, "kernel must be odd"))


def validate(net: NetworkSpec) -> list[Violation]:
    """Every invariant violation, with a stable machine-readable code.

    An empty list means `expand` is guaranteed to succeed.
    """
    v: list[Violation] = []
    _check_positive(v, net.input_resolution, "resolution_nonpositive", "network", "input resolution")
    _check_positive(v, net.num_classes, "classes_nonpositive", "network", "num_classes")
    _check_positive(v, net.in_channels, "channels_nonpositive", "network", "input channels")
    if net.head_channels is not None:
        _check_positive(v, net.head_channels, "channels_nonpositive", "head", "head channels")
    if len(net.stages) < 1:
        v.append(Violation("no_stages", "network", "at least one stage is required"))

    _check_positive(v, net.stem.channels, "channels_nonpositive", "stem", "stem channels")
    _check_kernel(v, net.stem.kernel, "stem")
    if net.stem.stride not in (1, 2):
        v.append(Violation("bad_stride", "stem", f"stride must be 1 or 2, got {net.stem.stride}"))
    _check_flag(v, net.stem.pool, "stem", "pool")

    for i, stage in enumerate(net.stages):
        where = f"stage {i}"
        _check_positive(v, stage.depth, "depth_nonpositive", where, "depth")
        _check_positive(v, stage.width, "width_nonpositive", where, "width")
        _check_kernel(v, stage.kernel, where)
        _check_positive(v, stage.groups, "groups_nonpositive", where, "groups")
        _check_flag(v, stage.downsample, where, "downsample")
        for err in stage.block.structure_errors():
            v.append(Violation("bad_block", where, err))

    if v:
        return v

    # structural pass: derived channels, group divisibility, resolutions
    r = net.input_resolution
    if net.stem.stride == 2:
        if r < 2:
            v.append(Violation("resolution_underflow", "stem", f"cannot halve resolution {r}"))
        r = halve(r)
    if net.stem.pool:
        if r < 2:
            v.append(Violation("resolution_underflow", "stem pool", f"cannot halve resolution {r}"))
        r = halve(r)

    c_prev = net.stem.channels
    for i, stage in enumerate(net.stages):
        where = f"stage {i}"
        if stage.downsample:
            if r < 2:
                v.append(Violation("resolution_underflow", where, f"cannot halve resolution {r}"))
            r = halve(r)
        for first in (True, False):
            c_in = c_prev if first else stage.width
            stride = 2 if (first and stage.downsample) else 1
            try:
                plans = block_convs(stage.block, c_in, stage.width, stage.kernel,
                                    stage.groups, stride, exact=True)
            except ValueError as exc:
                v.append(Violation("channels_not_integral", where, str(exc)))
                break
            for plan in plans:
                g = int(plan.groups)
                if plan.c_in % g != 0 or plan.c_out % g != 0:
                    v.append(Violation(
                        "groups_indivisible", where,
                        f"groups {g} does not divide channels {plan.c_in}->{plan.c_out}"))
            if stage.depth == 1:
                break
        c_prev = stage.width

    return v


def stage_resolutions(net: NetworkSpec) -> list[int]:
    """Feature-map side at which each stage's blocks operate (post-downsample)."""
    r = net.input_resolution
    if net.stem.stride == 2:
        r = halve(r)
    if net.stem.pool:
        r = halve(r)
    out = []
    for stage in net.stages:
        if stage.downsample:
            r = halve(r)
        out.append(r)
    return out


def resolve_rows(plans, r_in: int):
    """Pair each conv plan of a block with its (r_in, r_out) resolutions.

    Squeeze-excite convs run on pooled features at resolution 1; the
    shortcut conv runs in parallel from the block input to the block
    output; main-path convs chain sequentially.
    """
    rows = []
    r_out_block = r_in
    for plan in plans:
        if plan.role not in (ROLE_SE, ROLE_SHORTCUT) and plan.stride == 2:
            r_out_block = halve(r_in)
    cur = r_in
    for plan in plans:
        if plan.role == ROLE_SE:
            rows.append((plan, 1, 1))
        elif plan.role == ROLE_SHORTCUT:
            rows.append((plan, r_in, r_out_block))
        else:
            nxt = halve(cur) if plan.stride == 2 else cur
            rows.append((plan, cur, nxt))
            cur = nxt
    return rows, r_out_block


def expand(net: NetworkSpec, check: bool = True) -> tuple[LayerDescriptor, ...]:
    """Every conv layer in execution order, resolutions propagated.

    Includes the stem conv, all block-internal convs (shortcut conv
    emitted after its block's main path), squeeze-excite convs at
    resolution 1, the optional head conv, and the classifier as a 1x1
    conv at resolution 1.  Deterministic: identical specs give identical
    layer tuples.  `check=False` skips validation, for callers that need
    to expand specs `validate` would reject.
    """
    if check:
        violations = validate(net)
        if violations:
            raise ValidationError(violations)

    layers: list[LayerDescriptor] = []
    r = net.input_resolution
    r_out = halve(r) if net.stem.stride == 2 else r
    layers.append(LayerDescriptor(
        c_in=net.in_channels, c_out=net.stem.channels, k=net.stem.kernel,
        g=1, stride=net.stem.stride, r_in=r, r_out=r_out, role=ROLE_STEM,
        stage=None, has_bn=True, has_bias=False))
    r = halve(r_out) if net.stem.pool else r_out

    c_prev = net.stem.channels
    for i, stage in enumerate(net.stages):
        for b in range(stage.depth):
            first = b == 0
            c_in = c_prev if first else stage.width
            stride = 2 if (first and stage.downsample) else 1
            plans = block_convs(stage.block, c_in, stage.width,
                                stage.kernel, stage.groups, stride)
            rows, r = resolve_rows(plans, r)
            for plan, row_r_in, row_r_out in rows:
                layers.append(LayerDescriptor(
                    c_in=int(plan.c_in), c_out=int(plan.c_out), k=plan.kernel,
                    g=int(plan.groups), stride=plan.stride,
                    r_in=row_r_in, r_out=row_r_out, role=plan.role, stage=i,
                    has_bn=plan.has_bn, has_bias=plan.has_bias))
        c_prev = stage.width

    feat = c_prev
    if net.head_channels is not None:
        layers.append(LayerDescriptor(
            c_in=feat, c_out=net.head_channels, k=1, g=1, stride=1,
            r_in=r, r_out=r, role=ROLE_HEAD, stage=None,
            has_bn=True, has_bias=False))
        feat = net.head_channels
    layers.append(LayerDescriptor(
        c_in=feat, c_out=net.num_classes, k=1, g=1, stride=1,
        r_in=1, r_out=1, role=ROLE_CLASSIFIER, stage=None,
        has_bn=False, has_bias=True))
    return tuple(layers)
