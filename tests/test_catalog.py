import dataclasses

import pytest

from entromax import catalog
from entromax.conventions import PINNED
from entromax.fileio import network_from_dict, network_to_dict
from entromax.metrics import count_flops, count_params, effectiveness, metric_report
from entromax.model import expand, validate


def test_names_cover_the_reference_table():
    assert catalog.names() == ["efficientnet_b0", "mobilenet_v2", "resnet18",
                               "resnet34", "resnet50"]


def test_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown catalog entry"):
        catalog.reference("resnet101")


@pytest.mark.parametrize("name", catalog.names())
def test_entries_validate_and_expand(name):
    entry = catalog.reference(name)
    assert validate(entry.spec) == []
    assert len(expand(entry.spec)) > 0
    assert entry.expected.source


@pytest.mark.parametrize("name,rho,atol", [
    ("resnet18", 0.01, 0.01),
    ("resnet34", 0.02, 0.01),
    ("resnet50", 0.09, 0.01),
    ("mobilenet_v2", 0.9, 0.1),
    ("efficientnet_b0", 0.6, 0.1),
])
def test_rho_reproduces_reference_column(name, rho, atol):
    spec = catalog.reference(name).spec
    assert effectiveness(spec) == pytest.approx(rho, abs=atol)


@pytest.mark.parametrize("name,params,flops", [
    ("resnet18", 11_700_000, 1_800_000_000),
    ("resnet34", 21_800_000, 3_600_000_000),
    ("resnet50", 25_600_000, 4_100_000_000),
    ("mobilenet_v2", 3_500_000, 320_000_000),
    ("efficientnet_b0", 5_300_000, 390_000_000),
])
def test_budgets_reproduce_reference_columns(name, params, flops):
    spec = catalog.reference(name).spec
    assert count_params(spec) == pytest.approx(params, rel=0.02)
    assert count_flops(spec) == pytest.approx(flops, rel=0.03)


def test_catalog_round_trips_unchanged():
    for name in catalog.names():
        spec = catalog.reference(name).spec
        assert network_from_dict(network_to_dict(spec)) == spec


def test_calibration_pins_the_flop_convention():
    report = catalog.calibrate()
    assert report.pinned_passes
    assert report.passing
    # the reference table forces the batch-norm flop charge uniquely
    assert {c.flops_bn_cost for c in report.passing} == {2}
    # conv MACs alone undercount the mobile reference figure
    bare = dataclasses.replace(PINNED, flops_bn_cost=0)
    rows = {r.name: r for r in report.results[bare]}
    assert not rows["mobilenet_v2"].flops_ok


def test_bn_param_flag_does_not_touch_rho():
    spec = catalog.reference("resnet50").spec
    with_bn = metric_report(spec, conventions=PINNED)
    no_bn = dataclasses.replace(PINNED, params_include_bn=False)
    without = metric_report(spec, conventions=no_bn)
    assert with_bn.rho == without.rho
    assert with_bn.params > without.params


def test_flops_scale_spatially_for_resnet50():
    spec = catalog.reference("resnet50").spec
    doubled = dataclasses.replace(spec, input_resolution=448)
    assert count_flops(doubled) == pytest.approx(4 * count_flops(spec), rel=5e-3)


def test_calibration_markdown_report():
    report = catalog.calibrate()
    text = report.to_markdown()
    assert "flops_bn_cost" in text
    assert "forced to 2" in text


def test_calibration_expands_each_entry_once(monkeypatch):
    """Every convention is evaluated over the same expansion of a net, and
    the load in `reference` validates without expanding."""
    calls = []

    def counting_expand(net, check=True):
        calls.append(net)
        return expand(net, check)

    monkeypatch.setattr(catalog, "expand", counting_expand)
    catalog.calibrate()
    assert len(calls) == len(catalog.names())
