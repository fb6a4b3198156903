"""Versioned JSON file formats: architectures, problems, reports.

One format family, one `format` tag and integer `version` per document.
Architectures and problems are read into their spec dataclasses, whose
fields, defaults and type hints define the format.  Parsers are strict:
wrongly typed values are rejected, and so are unknown fields unless
`allow_unknown` is passed (the compatibility escape hatch for newer
writers).  Schemas for external consumers are shipped under docs/.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from pathlib import Path
from typing import Any

from .blocks import MOBILENET_V2_SE, RESNET_BOTTLENECK, BlockKind
from .conventions import Conventions
from .metrics import MetricReport
from .model import NetworkSpec, StemSpec

ARCHITECTURE_FORMAT = "entromax-architecture"
PROBLEM_FORMAT = "entromax-problem"
METRICS_FORMAT = "entromax-metrics"
SOLVE_REPORT_FORMAT = "entromax-solve-report"
FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed or out-of-contract document."""


def _check_header(obj: Any, expected_format: str, where: str) -> dict:
    """The document's body: every field except `format` and `version`."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: document must be a JSON object")
    if obj.get("format") != expected_format:
        raise ParseError(f"{where}: format must be {expected_format!r}, got {obj.get('format')!r}")
    version = obj.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # not true, not 1.0
        raise ParseError(f"{where}: unsupported version {version!r}")
    return {k: v for k, v in obj.items() if k not in ("format", "version")}


# spec fields that no document carries
_NOT_IN_FILE = {NetworkSpec: ("in_channels",)}
_SCALARS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


@functools.cache
def _file_fields(cls) -> tuple[dict[str, Any], set[str]]:
    """Each document field's type, and the fields without a default."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in _NOT_IN_FILE.get(cls, ())]
    required = {f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING}
    return {f.name: hints[f.name] for f in fields}, required


def _from_dict(cls, obj: Any, where: str, allow_unknown: bool):
    """Build spec dataclass `cls` from a JSON object, checking every
    value's type; omitted fields take the dataclass defaults."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    hints, required = _file_fields(cls)
    missing = required - obj.keys()
    if missing:
        raise ParseError(f"{where}: missing fields {sorted(missing)}")
    unknown = obj.keys() - hints.keys()
    if unknown and not allow_unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")
    return cls(**{name: _value(hints[name], obj[name], f"{where}.{name}", allow_unknown)
                  for name in hints if name in obj})


def _value(tp, value: Any, where: str, allow_unknown: bool):
    if dataclasses.is_dataclass(tp):
        return _from_dict(tp, value, where, allow_unknown)
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (types.UnionType, typing.Union):  # X | None
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _value(tp, value, where, allow_unknown)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ParseError(f"{where}: expected a list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ParseError(f"{where}: expected {len(args)} entries, got {len(value)}")
        return tuple(_value(t, v, f"{where}[{i}]", allow_unknown)
                     for i, (t, v) in enumerate(zip(args, value)))
    # bool is an int to Python but not to the format; ints stay ints as floats
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepted):
        raise ParseError(f"{where}: expected {_SCALARS[tp]}, got {value!r}")
    return value


def block_to_dict(block: BlockKind) -> dict:
    out: dict[str, Any] = {"kind": block.kind}
    if block.kind == RESNET_BOTTLENECK:
        out["bottleneck_ratio"] = block.bottleneck_ratio
    if block.kind == MOBILENET_V2_SE:
        out["expansion"] = block.expansion
        out["se_reduction"] = block.se_reduction
    return out


def _stem_to_dict(stem: StemSpec) -> dict:
    return {"channels": stem.channels, "kernel": stem.kernel,
            "stride": stem.stride, "pool": stem.pool}


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
    body = _check_header(obj, ARCHITECTURE_FORMAT, "architecture")
    return _from_dict(NetworkSpec, body, "architecture", allow_unknown)


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

    body = _check_header(obj, PROBLEM_FORMAT, "problem")
    prob = _from_dict(ProblemSpec, body, "problem", allow_unknown)
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
    """Canonical serialization: explicit key order, two-space indent.
    A NaN or infinite value raises ValueError: JSON has no such numbers."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def load_json(path: str | Path) -> dict:
    """The parsed document.  NaN and Infinity, which Python's json module
    accepts and JSON does not, raise ParseError, as does a number too
    large for a float, which would read as infinite."""
    text = Path(path).read_text()

    def non_finite(name: str):
        raise ParseError(f"{path}: {name} is not a finite number")

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            non_finite(literal)
        return value

    try:
        return json.loads(text, parse_constant=non_finite, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def read_network(path: str | Path, allow_unknown: bool = False) -> NetworkSpec:
    return network_from_dict(load_json(path), allow_unknown=allow_unknown)


def write_network(net: NetworkSpec, path: str | Path) -> None:
    Path(path).write_text(dumps(network_to_dict(net)))
