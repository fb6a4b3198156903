import dataclasses

import pytest

from entromax.blocks import ROLE_CLASSIFIER, ROLE_MAIN, ROLE_STEM, BlockKind
from entromax.catalog import reference
from entromax.fileio import network_from_dict, network_to_dict
from entromax.model import (
    NetworkSpec,
    StageSpec,
    StemSpec,
    ValidationError,
    expand,
    stage_resolutions,
    validate,
)


def plain_net(depth=1, width=8, kernel=3, resolution=32, downsamples=1,
              stem_channels=4):
    stages = tuple(
        StageSpec(block=BlockKind.plain(), depth=depth, width=width,
                  kernel=kernel, downsample=i < downsamples)
        for i in range(max(1, downsamples)))
    return NetworkSpec(
        input_resolution=resolution,
        stem=StemSpec(channels=stem_channels, kernel=3, stride=2, pool=False),
        stages=stages,
        num_classes=10,
    )


def test_single_plain_block_is_one_conv_layer():
    net = NetworkSpec(
        input_resolution=32,
        stem=StemSpec(channels=4, kernel=3, stride=2),
        stages=(StageSpec(block=BlockKind.plain(), depth=1, width=8, kernel=3),),
        num_classes=10,
    )
    layers = expand(net)
    mains = [l for l in layers if l.role == ROLE_MAIN]
    assert len(mains) == 1
    assert (mains[0].c_in, mains[0].c_out, mains[0].k, mains[0].g) == (4, 8, 3, 1)
    assert mains[0].r_in == 16  # after the stride-2 stem


def test_resnet50_expands_to_enumerated_layer_census():
    # hand enumeration of the reference bottleneck net: 1 stem conv,
    # (3+4+6+3) blocks x 3 convs = 48 main convs, 4 projection shortcuts
    # (one per stage), and the classifier as a 1x1 conv: 54 layers
    layers = expand(reference("resnet50").spec)
    by_role = {}
    for l in layers:
        by_role[l.role] = by_role.get(l.role, 0) + 1
    assert by_role == {"stem": 1, "main": 48, "shortcut": 4, "classifier": 1}
    assert len(layers) == 54


def test_mobilenet_block_expansion_within_network():
    # stage 2 of the reference mobile net: first block expands 16 -> 96,
    # depthwise at stride 2, projects to 24
    layers = expand(reference("mobilenet_v2").spec)
    stage1 = [l for l in layers if l.stage == 1 and l.role == ROLE_MAIN]
    first = stage1[:3]
    assert [(l.c_in, l.c_out, l.k, l.g, l.stride) for l in first] == [
        (16, 96, 1, 1, 1),
        (96, 96, 3, 96, 2),
        (96, 24, 1, 1, 1),
    ]
    assert (first[1].r_in, first[1].r_out) == (112, 56)


def test_expand_is_deterministic_and_pure():
    net = reference("efficientnet_b0").spec
    assert expand(net) == expand(net)


def test_classifier_is_1x1_conv_at_resolution_one():
    layers = expand(plain_net())
    tail = layers[-1]
    assert tail.role == ROLE_CLASSIFIER
    assert (tail.k, tail.r_in, tail.r_out) == (1, 1, 1)
    assert tail.has_bias and not tail.has_bn


def test_stride_two_layer_count_matches_declared_downsamples():
    for name in ("resnet18", "resnet50", "mobilenet_v2", "efficientnet_b0"):
        net = reference(name).spec
        declared = (1 if net.stem.stride == 2 else 0) + sum(
            s.downsample for s in net.stages)
        strided = sum(1 for l in expand(net)
                      if l.stride == 2 and l.role in (ROLE_STEM, ROLE_MAIN))
        assert strided == declared


def test_groups_divide_channels_everywhere():
    for name in ("resnet50", "mobilenet_v2", "efficientnet_b0"):
        for l in expand(reference(name).spec):
            assert l.c_in % l.g == 0 and l.c_out % l.g == 0


def test_stage_resolutions_follow_downsample_schedule():
    net = reference("resnet18").spec  # stem /2, pool /2, then stages
    assert stage_resolutions(net) == [56, 28, 14, 7]
    net = reference("mobilenet_v2").spec
    assert stage_resolutions(net) == [112, 56, 28, 14, 14, 7, 7]


def test_validate_accepts_catalog_specs():
    for name in ("resnet18", "resnet34", "resnet50", "mobilenet_v2",
                 "efficientnet_b0"):
        assert validate(reference(name).spec) == []


def test_even_kernel_is_rejected():
    net = plain_net(kernel=4)
    codes = [v.code for v in validate(net)]
    assert "kernel_even" in codes


def test_boolean_depth_and_kernel_are_rejected():
    net = plain_net()
    stage = dataclasses.replace(net.stages[0], depth=True, kernel=True)
    codes = [v.code for v in validate(dataclasses.replace(net, stages=(stage,)))]
    assert codes == ["depth_nonpositive", "kernel_nonpositive"]


@pytest.mark.parametrize("field", ["pool", "downsample"])
def test_non_boolean_flags_are_rejected(field):
    net = plain_net()
    if field == "pool":
        net = dataclasses.replace(net, stem=dataclasses.replace(net.stem, pool="no"))
    else:
        stage = dataclasses.replace(net.stages[0], downsample="no")
        net = dataclasses.replace(net, stages=(stage,))
    assert [v.code for v in validate(net)] == ["flag_not_bool"]


def test_resolution_underflow_names_the_stage():
    # the stride-2 stem takes 32 to 16; stages halve 16 -> 8 -> 4 -> 2 -> 1,
    # so the fifth downsampling stage cannot halve a one-pixel map
    net = plain_net(resolution=32, downsamples=7)
    violations = validate(net)
    where = [v.where for v in violations if v.code == "resolution_underflow"]
    assert where and where[0] == "stage 4"


def test_group_divisibility_violation():
    net = NetworkSpec(
        input_resolution=32,
        stem=StemSpec(channels=4, kernel=3, stride=2),
        stages=(StageSpec(block=BlockKind.plain(), depth=1, width=9, kernel=3,
                          groups=2),),
        num_classes=10,
    )
    assert any(v.code == "groups_indivisible" for v in validate(net))


def test_expand_raises_on_invalid_spec():
    with pytest.raises(ValidationError):
        expand(plain_net(kernel=4))


def test_serialization_round_trip_preserves_expansion():
    for name in ("resnet50", "efficientnet_b0"):
        net = reference(name).spec
        again = network_from_dict(network_to_dict(net))
        assert again == net
        assert expand(again) == expand(net)
