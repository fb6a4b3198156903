"""Versioned JSON file formats: architectures, problems, reports.

One format family, one `format` tag and integer `version` per document.
Parsers are strict: unknown fields are rejected unless `allow_unknown`
is passed (the compatibility escape hatch for newer writers).  Schemas
for external consumers are shipped under docs/.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .blocks import MOBILENET_V2_SE, RESNET_BOTTLENECK, BlockKind
from .conventions import Conventions
from .metrics import MetricReport
from .model import NetworkSpec, StageSpec, StemSpec

ARCHITECTURE_FORMAT = "entromax-architecture"
PROBLEM_FORMAT = "entromax-problem"
METRICS_FORMAT = "entromax-metrics"
SOLVE_REPORT_FORMAT = "entromax-solve-report"
FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed or out-of-contract document."""


def _require_keys(obj: dict, allowed: set[str], required: set[str],
                  where: str, allow_unknown: bool) -> None:
    missing = required - obj.keys()
    if missing:
        raise ParseError(f"{where}: missing fields {sorted(missing)}")
    if not allow_unknown:
        unknown = obj.keys() - allowed
        if unknown:
            raise ParseError(f"{where}: unknown fields {sorted(unknown)}")


def _check_header(obj: Any, expected_format: str, where: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: document must be a JSON object")
    if obj.get("format") != expected_format:
        raise ParseError(f"{where}: format must be {expected_format!r}, got {obj.get('format')!r}")
    if obj.get("version") != FORMAT_VERSION:
        raise ParseError(f"{where}: unsupported version {obj.get('version')!r}")


def block_to_dict(block: BlockKind) -> dict:
    out: dict[str, Any] = {"kind": block.kind}
    if block.kind == RESNET_BOTTLENECK:
        out["bottleneck_ratio"] = block.bottleneck_ratio
    if block.kind == MOBILENET_V2_SE:
        out["expansion"] = block.expansion
        out["se_reduction"] = block.se_reduction
    return out


def block_from_dict(obj: dict, where: str, allow_unknown: bool = False) -> BlockKind:
    _require_keys(obj, {"kind", "bottleneck_ratio", "expansion", "se_reduction"},
                  {"kind"}, where, allow_unknown)
    kwargs = {}
    for key in ("bottleneck_ratio", "expansion", "se_reduction"):
        if key in obj:
            kwargs[key] = obj[key]
    return BlockKind(kind=obj["kind"], **kwargs)


def _stem_to_dict(stem: StemSpec) -> dict:
    return {"channels": stem.channels, "kernel": stem.kernel,
            "stride": stem.stride, "pool": stem.pool}


def _stem_from_dict(obj: dict, allow_unknown: bool) -> StemSpec:
    _require_keys(obj, {"channels", "kernel", "stride", "pool"},
                  {"channels"}, "stem", allow_unknown)
    return StemSpec(
        channels=obj["channels"],
        kernel=obj.get("kernel", 3),
        stride=obj.get("stride", 2),
        pool=obj.get("pool", False),
    )


def network_to_dict(net: NetworkSpec) -> dict:
    return {
        "format": ARCHITECTURE_FORMAT,
        "version": FORMAT_VERSION,
        "input_resolution": net.input_resolution,
        "num_classes": net.num_classes,
        "stem": _stem_to_dict(net.stem),
        "stages": [
            {
                "block": block_to_dict(s.block),
                "depth": s.depth,
                "width": s.width,
                "kernel": s.kernel,
                "groups": s.groups,
                "downsample": s.downsample,
            }
            for s in net.stages
        ],
        "head_channels": net.head_channels,
    }


def network_from_dict(obj: dict, allow_unknown: bool = False) -> NetworkSpec:
    _check_header(obj, ARCHITECTURE_FORMAT, "architecture")
    _require_keys(
        obj,
        {"format", "version", "input_resolution", "num_classes", "stem",
         "stages", "head_channels"},
        {"format", "version", "input_resolution", "stem", "stages"},
        "architecture", allow_unknown)
    stem = _stem_from_dict(obj["stem"], allow_unknown)
    stages = []
    for i, s in enumerate(obj["stages"]):
        where = f"stage {i}"
        _require_keys(s, {"block", "depth", "width", "kernel", "groups", "downsample"},
                      {"block", "depth", "width"}, where, allow_unknown)
        stages.append(StageSpec(
            block=block_from_dict(s["block"], where, allow_unknown),
            depth=s["depth"],
            width=s["width"],
            kernel=s.get("kernel", 3),
            groups=s.get("groups", 1),
            downsample=s.get("downsample", False),
        ))
    return NetworkSpec(
        input_resolution=obj["input_resolution"],
        stem=stem,
        stages=tuple(stages),
        head_channels=obj.get("head_channels"),
        num_classes=obj.get("num_classes", 1000),
    )


def metrics_to_dict(report: MetricReport, conventions: Conventions | None = None) -> dict:
    out = {
        "format": METRICS_FORMAT,
        "version": FORMAT_VERSION,
        "entropy_per_stage": list(report.entropy_per_stage),
        "weighted_entropy": report.weighted_entropy,
        "rho": report.rho,
        "q": report.q,
        "params": report.params,
        "flops": report.flops,
        "monotone": report.monotone,
        "widths": list(report.widths),
    }
    if conventions is not None:
        out["conventions"] = conventions.fingerprint()
    return out


def problem_to_dict(prob) -> dict:
    return {
        "format": PROBLEM_FORMAT,
        "version": FORMAT_VERSION,
        "block": block_to_dict(prob.block),
        "stages": prob.stages,
        "alphas": list(prob.alphas),
        "beta": prob.beta,
        "rho0": prob.rho0,
        "max_flops": prob.max_flops,
        "max_params": prob.max_params,
        "input_resolution": prob.input_resolution,
        "num_classes": prob.num_classes,
        "downsample_schedule": list(prob.downsample_schedule),
        "width_bounds": [list(b) for b in prob.width_bounds],
        "depth_bounds": [list(b) for b in prob.depth_bounds],
        "width_granularity": prob.width_granularity,
        "kernel": prob.kernel,
        "groups": prob.groups,
        "stem": _stem_to_dict(prob.stem),
        "head_channels": prob.head_channels,
    }


def problem_from_dict(obj: dict, allow_unknown: bool = False):
    from .solver import ProblemSpec  # local import keeps this module light

    _check_header(obj, PROBLEM_FORMAT, "problem")
    _require_keys(
        obj,
        {"format", "version", "block", "stages", "alphas", "beta", "rho0",
         "max_flops", "max_params", "input_resolution", "num_classes",
         "downsample_schedule", "width_bounds", "depth_bounds",
         "width_granularity", "kernel", "groups", "stem", "head_channels"},
        {"format", "version", "block", "stages", "alphas", "rho0",
         "max_flops", "max_params", "input_resolution",
         "downsample_schedule", "width_bounds", "depth_bounds"},
        "problem", allow_unknown)
    stem = _stem_from_dict(obj.get("stem", {"channels": 32}), allow_unknown)
    prob = ProblemSpec(
        block=block_from_dict(obj["block"], "block", allow_unknown),
        stages=obj["stages"],
        alphas=tuple(obj["alphas"]),
        beta=obj.get("beta", 10.0),
        rho0=obj["rho0"],
        max_flops=obj["max_flops"],
        max_params=obj["max_params"],
        input_resolution=obj["input_resolution"],
        num_classes=obj.get("num_classes", 1000),
        downsample_schedule=tuple(obj["downsample_schedule"]),
        width_bounds=tuple(tuple(b) for b in obj["width_bounds"]),
        depth_bounds=tuple(tuple(b) for b in obj["depth_bounds"]),
        width_granularity=obj.get("width_granularity", 8),
        kernel=obj.get("kernel", 3),
        groups=obj.get("groups", 1),
        stem=stem,
        head_channels=obj.get("head_channels"),
    )
    prob.check()
    return prob


def read_problem(path: str | Path, allow_unknown: bool = False):
    return problem_from_dict(load_json(path), allow_unknown=allow_unknown)


def solve_report_to_dict(report, conventions: Conventions | None = None) -> dict:
    """Wall time is intentionally omitted: report files are byte-reproducible."""
    out = {
        "format": SOLVE_REPORT_FORMAT,
        "version": FORMAT_VERSION,
        "feasible": report.feasible,
        "best": None if report.best is None else {
            "widths": list(report.best.widths),
            "depths": list(report.best.depths),
        },
        "objective": None if report.best is None else report.objective,
        "slacks": dict(report.slacks),
        "restarts_used": report.restarts_used,
        "evaluations": report.evaluations,
        "budget_exhausted": report.budget_exhausted,
        "infeasibility": report.infeasibility,
    }
    if conventions is not None:
        out["conventions"] = conventions.fingerprint()
    if report.trace:
        out["trace"] = report.trace
    return out


def dumps(obj: dict) -> str:
    """Canonical serialization: explicit key order, two-space indent."""
    return json.dumps(obj, indent=2) + "\n"


def load_json(path: str | Path) -> dict:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def read_network(path: str | Path, allow_unknown: bool = False) -> NetworkSpec:
    return network_from_dict(load_json(path), allow_unknown=allow_unknown)


def write_network(net: NetworkSpec, path: str | Path) -> None:
    Path(path).write_text(dumps(network_to_dict(net)))
