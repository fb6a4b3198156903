import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entromax.blocks import BlockKind
from entromax.catalog import reference
from entromax.conventions import PINNED
from entromax.metrics import (
    average_width,
    cnn_entropy,
    count_flops,
    count_params,
    depth_uniformity_penalty,
    effectiveness,
    entropy_path,
    flops_of_layers,
    metric_report,
    mlp_entropy,
    monotone_width_check,
    params_of_layers,
    projected_width,
    weighted_entropy,
)
from entromax.model import LayerDescriptor, NetworkSpec, StageSpec, StemSpec, expand


def conv_layer(c_in, c_out, k=1, g=1, r=1, bn=False, bias=False, role="main"):
    return LayerDescriptor(c_in=c_in, c_out=c_out, k=k, g=g, stride=1,
                           r_in=r, r_out=r, role=role, stage=0,
                           has_bn=bn, has_bias=bias)


# --- projected width ---------------------------------------------------------

def test_projected_width_direct_substitution():
    assert projected_width(conv_layer(64, 64, k=3)) == 576
    assert projected_width(conv_layer(96, 96, k=3, g=96)) == 9  # depthwise
    assert projected_width(conv_layer(256, 256, k=1)) == 256


# --- entropies ---------------------------------------------------------------

def test_mlp_entropy_log_one_is_zero():
    assert mlp_entropy([1.0], 5.0) == 0.0


def test_mlp_entropy_of_e_widths():
    assert mlp_entropy([math.e] * 3, 2.0) == pytest.approx(6.0, rel=1e-12)


def test_mlp_entropy_power_of_two_widths():
    # 16 * 32 * 64 = 2^15, so the log-sum is exactly 15 ln 2
    assert mlp_entropy([16, 32, 64], 10.0) == pytest.approx(
        10.0 * 15.0 * math.log(2.0), rel=1e-12)


def test_mlp_entropy_rejects_sub_unit_width():
    with pytest.raises(ValueError):
        mlp_entropy([0.5, 2.0], 1.0)


def test_cnn_entropy_single_layer():
    layer = conv_layer(64, 64, k=3, r=56)
    expected = math.log(56 ** 2 * 64) * math.log(576)
    assert cnn_entropy([layer], 56, 64) == pytest.approx(expected, rel=1e-12)


def test_cnn_entropy_unit_output_is_zero():
    assert cnn_entropy([conv_layer(64, 64, k=3)], 1, 1) == 0.0


def test_cnn_entropy_doubles_with_duplicated_layer():
    layer = conv_layer(64, 64, k=3, r=56)
    one = cnn_entropy([layer], 56, 64)
    two = cnn_entropy([layer, layer], 56, 64)
    assert two == pytest.approx(2 * one, rel=1e-12)


# --- average width and effectiveness -----------------------------------------

def test_average_width_of_equal_widths():
    for w in (1, 7, 64, 4096):
        assert average_width([w, w, w]) == pytest.approx(w, rel=1e-12)


def test_average_width_geometric_pair():
    assert average_width([4, 16]) == pytest.approx(8.0, rel=1e-12)


def test_average_width_mixed_list():
    expected = (576 * 576 * 1152 * 2304) ** 0.25
    assert average_width([576, 576, 1152, 2304]) == pytest.approx(
        expected, rel=1e-12)


def test_average_width_log_space_stability():
    # a thousand layers of width 1e6 stays exact in log space
    assert average_width([1e6] * 1000) == pytest.approx(1e6, rel=1e-9)


def test_average_width_rejects_empty():
    with pytest.raises(ValueError):
        average_width([])


@given(st.integers(min_value=1, max_value=4096),
       st.integers(min_value=1, max_value=40))
def test_average_width_exact_for_constant_integer_lists(w, n):
    assert average_width([w] * n) == pytest.approx(w, rel=1e-12)


@given(st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=40),
       st.floats(min_value=0.01, max_value=100.0))
def test_scale_law_on_projected_widths(widths, s):
    scaled = [w * s for w in widths]
    assert average_width(scaled) == pytest.approx(
        s * average_width(widths), rel=1e-12)
    rho = len(widths) / average_width(widths)
    rho_scaled = len(scaled) / average_width(scaled)
    assert rho_scaled * s == pytest.approx(rho, rel=1e-12)


@given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=60))
def test_geometric_mean_log_identity(widths):
    lhs = len(widths) * math.log(average_width(widths))
    rhs = math.fsum(math.log(w) for w in widths)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_entropy_monotone_in_added_layer():
    base = [conv_layer(16, 16, k=3, r=8)] * 3
    extra = base + [conv_layer(3, 3, k=1, r=8)]  # width 3 >= e
    assert cnn_entropy(extra, 8, 16) > cnn_entropy(base, 8, 16)


# --- depth uniformity ---------------------------------------------------------

def test_q_of_uniform_depths_is_one():
    assert depth_uniformity_penalty([3, 3, 3, 3]) == 1.0
    assert depth_uniformity_penalty([7]) == 1.0


def test_q_of_two_point_spread():
    assert depth_uniformity_penalty([1, 3]) == pytest.approx(math.e, rel=1e-12)


def test_q_population_variance_by_hand():
    # mean 4, squared deviations (4, 4, 16), population variance 8
    assert depth_uniformity_penalty([2, 2, 8]) == pytest.approx(
        math.exp(8.0), rel=1e-12)


@given(st.permutations([1, 4, 2, 9, 3]))
def test_q_permutation_invariance(depths):
    assert depth_uniformity_penalty(depths) == pytest.approx(
        depth_uniformity_penalty([1, 4, 2, 9, 3]), rel=1e-12)


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8))
def test_q_one_iff_uniform(depths):
    q = depth_uniformity_penalty(depths)
    if len(set(depths)) == 1:
        assert q == 1.0
    else:
        assert q > 1.0


# --- weighted entropy ---------------------------------------------------------

def single_stage_net():
    return NetworkSpec(
        input_resolution=32,
        stem=StemSpec(channels=8, kernel=3, stride=2),
        stages=(StageSpec(block=BlockKind.plain(), depth=3, width=16, kernel=3),),
        num_classes=10,
    )


def test_weighted_entropy_single_stage_reduces_to_cnn_entropy():
    net = single_stage_net()
    layers = expand(net)
    path = entropy_path(layers)
    total, per_stage = weighted_entropy(net, [2.5])
    expected = cnn_entropy(path, 16, 16)  # stage output: 16 channels at r 16
    assert per_stage[0] == pytest.approx(expected, rel=1e-12)
    assert total == pytest.approx(2.5 * expected, rel=1e-12)


def test_weighted_entropy_zero_alphas():
    net = reference("resnet18").spec
    total, per_stage = weighted_entropy(net, [0.0] * 4)
    assert total == 0.0
    assert all(h > 0 for h in per_stage)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_weighted_entropy_rejects_non_finite_alphas(bad):
    """NaN passes `a < 0` and inf passes both bounds, so each would give a
    NaN or infinite entropy instead of an error."""
    net = reference("resnet18").spec
    with pytest.raises(ValueError, match="finite"):
        weighted_entropy(net, [1.0, bad, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        metric_report(net, [bad, 1.0, 1.0, 1.0])


def test_weighted_entropy_alpha_length_mismatch():
    with pytest.raises(ValueError):
        weighted_entropy(reference("resnet18").spec, [1.0, 1.0])


def test_weighted_entropy_resnet18_golden():
    # golden value pinned after cross-checking stage sums by hand:
    # H_1 = ln(56^2*64) * (ln(3*7^2) + 4 ln(64*9))
    # H_2 = ln(28^2*128) * (ln(3*7^2) + 5 ln(576) + 3 ln(1152))
    net = reference("resnet18").spec
    total, per_stage = weighted_entropy(net, [1.0, 1.0, 1.0, 8.0])
    h1 = math.log(56 ** 2 * 64) * (math.log(3 * 49) + 4 * math.log(576))
    h2 = math.log(28 ** 2 * 128) * (
        math.log(3 * 49) + 5 * math.log(576) + 3 * math.log(1152))
    assert per_stage[0] == pytest.approx(h1, rel=1e-12)
    assert per_stage[1] == pytest.approx(h2, rel=1e-12)
    assert total == pytest.approx(11818.707134703825, rel=1e-12)


# --- parameter and flop counting ----------------------------------------------

def test_param_count_bare_1x1_conv():
    assert params_of_layers([conv_layer(8, 8)]) == 64


def test_flop_count_bare_1x1_conv_at_r4():
    assert flops_of_layers([conv_layer(8, 8, r=4)]) == 1024


def test_bn_affine_params_behind_flag():
    layer = conv_layer(8, 8, bn=True)
    assert params_of_layers([layer]) == 64 + 16
    no_bn = dataclasses.replace(PINNED, params_include_bn=False)
    assert params_of_layers([layer], no_bn) == 64


def test_flops_scale_by_four_at_doubled_resolution():
    import dataclasses

    for name in ("resnet50", "mobilenet_v2"):
        net = reference(name).spec
        doubled = dataclasses.replace(net, input_resolution=net.input_resolution * 2)
        spatial = lambda n: [l for l in expand(n) if l.role not in ("se", "classifier")]
        assert flops_of_layers(spatial(doubled)) == 4 * flops_of_layers(spatial(net))
        # whole-net ratio only deviates by the resolution-pinned gates/classifier
        assert count_flops(doubled) == pytest.approx(4 * count_flops(net), rel=5e-3)


def test_monotone_width_check():
    def widths_net(widths):
        return NetworkSpec(
            input_resolution=64,
            stem=StemSpec(channels=8, kernel=3, stride=2),
            stages=tuple(StageSpec(block=BlockKind.plain(), depth=1, width=w,
                                   kernel=3, downsample=i > 0)
                         for i, w in enumerate(widths)),
            num_classes=10,
        )

    assert monotone_width_check(widths_net([64, 128, 256, 512]))
    assert not monotone_width_check(widths_net([64, 32]))
    assert monotone_width_check(widths_net([64, 64, 64]))


def test_effectiveness_uses_entropy_path_only():
    net = reference("resnet50").spec
    layers = expand(net)
    path = entropy_path(layers)
    assert {l.role for l in path} == {"stem", "main"}
    widths = [projected_width(l) for l in path]
    assert effectiveness(net) == pytest.approx(
        len(widths) / average_width(widths), rel=1e-12)


def test_metric_report_is_consistent():
    net = reference("resnet34").spec
    rep = metric_report(net, [1.0, 1.0, 1.0, 8.0])
    assert rep.params == count_params(net)
    assert rep.flops == count_flops(net)
    assert rep.rho == pytest.approx(effectiveness(net), rel=1e-12)
    # depths are (3, 4, 6, 3): mean 4, population variance 6/4
    assert rep.q == pytest.approx(math.exp(1.5), rel=1e-12)
    assert rep.monotone
