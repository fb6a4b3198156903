"""Reference architectures and the convention calibration sweep.

The catalog ships transcriptions of five well-known ImageNet networks
(He et al. 2016 ResNets; Sandler et al. 2018 MobileNetV2; Tan & Le 2019
EfficientNet-B0) together with their published cost figures.  They pin
the counting conventions: a convention set is accepted only if it
reproduces every entry's effectiveness, parameter and FLOP figures
within the stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .conventions import PINNED, Conventions, all_conventions
from .fileio import network_from_dict, load_json
from .metrics import count_flops, count_params, effectiveness
from .model import LayerDescriptor, NetworkSpec, ValidationError, expand, validate


@dataclass(frozen=True)
class Expectation:
    params: int
    params_rtol: float
    flops: int
    flops_rtol: float
    rho: float
    rho_atol: float
    source: str


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    spec: NetworkSpec
    expected: Expectation


_EXPECTED = {
    "resnet18": Expectation(
        params=11_700_000, params_rtol=0.02,
        flops=1_800_000_000, flops_rtol=0.03,
        rho=0.01, rho_atol=0.01,
        source="ImageNet-1K reference cost table: 11.7M / 1.8G / rho 0.01"),
    "resnet34": Expectation(
        params=21_800_000, params_rtol=0.02,
        flops=3_600_000_000, flops_rtol=0.03,
        rho=0.02, rho_atol=0.01,
        source="ImageNet-1K reference cost table: 21.8M / 3.6G / rho 0.02"),
    "resnet50": Expectation(
        params=25_600_000, params_rtol=0.02,
        flops=4_100_000_000, flops_rtol=0.03,
        rho=0.09, rho_atol=0.01,
        source="ImageNet-1K reference cost table: 25.6M / 4.1G / rho 0.09"),
    "mobilenet_v2": Expectation(
        params=3_500_000, params_rtol=0.02,
        flops=320_000_000, flops_rtol=0.03,
        rho=0.9, rho_atol=0.1,
        source="mobile reference cost table: 3.5M / 320M / rho 0.9"),
    "efficientnet_b0": Expectation(
        params=5_300_000, params_rtol=0.02,
        flops=390_000_000, flops_rtol=0.03,
        rho=0.6, rho_atol=0.1,
        source="mobile reference cost table: 5.3M / 390M / rho 0.6"),
}


def names() -> list[str]:
    return sorted(_EXPECTED)


def reference(name: str) -> CatalogEntry:
    """Load a catalog entry by name; the spec is validated on load."""
    if name not in _EXPECTED:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(names())}")
    data = resources.files("entromax.data.architectures").joinpath(f"{name}.json")
    with resources.as_file(data) as path:
        spec = network_from_dict(load_json(path))
    violations = validate(spec)
    if violations:
        raise ValidationError(violations)
    return CatalogEntry(name=name, spec=spec, expected=_EXPECTED[name])


@dataclass(frozen=True)
class EntryResult:
    name: str
    params: int
    flops: int
    rho: float
    params_ok: bool
    flops_ok: bool
    rho_ok: bool

    @property
    def ok(self) -> bool:
        return self.params_ok and self.flops_ok and self.rho_ok


@dataclass(frozen=True)
class CalibrationReport:
    results: dict  # Conventions -> list[EntryResult]
    passing: tuple[Conventions, ...]
    pinned: Conventions

    @property
    def pinned_passes(self) -> bool:
        return self.pinned in self.passing

    def pinned_results(self) -> list[EntryResult]:
        return self.results[self.pinned]

    def to_markdown(self) -> str:
        lines = [
            "# Convention calibration",
            "",
            f"Pinned convention fingerprint: `{self.pinned.fingerprint()}`",
            f"Pinned convention passes: **{self.pinned_passes}**",
            f"Passing combinations: {len(self.passing)} of {len(self.results)}",
            "",
            "## Pinned convention vs reference table",
            "",
            "| entry | params | flops | rho | ok |",
            "|---|---|---|---|---|",
        ]
        for r in self.pinned_results():
            lines.append(
                f"| {r.name} | {r.params:,} ({'ok' if r.params_ok else 'OFF'}) "
                f"| {r.flops:,} ({'ok' if r.flops_ok else 'OFF'}) "
                f"| {r.rho:.4f} ({'ok' if r.rho_ok else 'OFF'}) "
                f"| {'yes' if r.ok else 'NO'} |")
        lines.append("")
        lines.append("## Flags pinned by the data")
        lines.append("")
        for flag in ("params_include_bn", "flops_bn_cost"):
            values = sorted({getattr(c, flag) for c in self.passing})
            state = f"forced to {values[0]}" if len(values) == 1 else f"free over {values}"
            lines.append(f"- `{flag}`: {state}")
        lines.append("")
        return "\n".join(lines)


def _evaluate(entry: CatalogEntry, layers: tuple[LayerDescriptor, ...],
              conventions: Conventions) -> EntryResult:
    params = count_params(entry.spec, conventions, layers=layers)
    flops = count_flops(entry.spec, conventions, layers=layers)
    rho = effectiveness(entry.spec, layers=layers)
    exp = entry.expected
    return EntryResult(
        name=entry.name,
        params=params, flops=flops, rho=rho,
        params_ok=abs(params - exp.params) <= exp.params_rtol * exp.params,
        flops_ok=abs(flops - exp.flops) <= exp.flops_rtol * exp.flops,
        rho_ok=abs(rho - exp.rho) <= exp.rho_atol,
    )


def calibrate(pinned: Conventions = PINNED) -> CalibrationReport:
    """Sweep every convention combination over the full catalog; the
    report's flag summary shows which flags the data actually forces."""
    # `reference` validated each spec on load
    entries = [(e, expand(e.spec, check=False)) for e in map(reference, names())]
    results: dict[Conventions, list[EntryResult]] = {}
    passing = []
    for conv in all_conventions():
        rows = [_evaluate(e, layers, conv) for e, layers in entries]
        results[conv] = rows
        if all(r.ok for r in rows):
            passing.append(conv)
    return CalibrationReport(results=results, passing=tuple(passing), pinned=pinned)
