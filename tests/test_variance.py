import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entromax import variance
from entromax.blocks import BlockKind
from entromax.metrics import weighted_entropy
from entromax.model import NetworkSpec, StageSpec, StemSpec, stage_resolutions
from entromax.variance import (
    MeanReport,
    SimulationConfig,
    check_variance_law,
    log_theoretical_variance,
    theoretical_variance,
)

SEED = 2024


def test_theoretical_variance_identity():
    assert theoretical_variance([1]) == 1.0


def test_theoretical_variance_direct_product():
    assert theoretical_variance([16, 32, 64]) == 32768.0


def test_theoretical_variance_deep_stack_via_logs():
    widths = [10] * 30
    assert theoretical_variance(widths) == pytest.approx(1e30, rel=1e-12)
    assert log_theoretical_variance(widths) == pytest.approx(
        30 * math.log(10), rel=1e-12)


def test_width_one_chain_has_unit_variance():
    rep, _ = check_variance_law(SimulationConfig(widths=(1,), n_samples=100_000,
                                                 seed=SEED))
    assert abs(rep.empirical - 1.0) < 0.03
    assert rep.passed


def test_two_layer_product_law():
    rep, _ = check_variance_law(SimulationConfig(widths=(16, 32),
                                                 n_samples=100_000, seed=SEED))
    assert rep.theoretical == 512.0
    assert abs(rep.empirical / rep.theoretical - 1.0) < 0.05
    assert rep.passed  # within the harness-computed 5-SE band


def test_three_layer_product_law():
    rep, _ = check_variance_law(SimulationConfig(widths=(8, 8, 8),
                                                 n_samples=200_000, seed=SEED))
    assert rep.theoretical == 512.0
    assert abs(rep.empirical / rep.theoretical - 1.0) < 0.05
    assert rep.passed


def test_mean_check_bands():
    for widths, n in (((16, 32), 100_000), ((1,), 10_000), ((8, 8, 8), 100_000)):
        _, rep = check_variance_law(SimulationConfig(widths=widths, n_samples=n, seed=SEED))
        assert isinstance(rep, MeanReport)
        assert rep.bound == pytest.approx(
            4 * math.sqrt(theoretical_variance(widths) / n), rel=1e-12)
        assert rep.passed


def test_identical_seed_gives_bit_identical_statistics():
    cfg = SimulationConfig(widths=(16, 32), n_samples=30_000, seed=7)
    assert check_variance_law(cfg) == check_variance_law(cfg)


def test_parallel_equals_sequential():
    cfg = SimulationConfig(widths=(8, 8), n_samples=50_000, seed=11)
    seq = check_variance_law(cfg)
    par = check_variance_law(dataclasses.replace(cfg, threads=4))
    assert par == seq


@pytest.mark.parametrize("threads", [2, 4])
def test_thread_count_does_not_change_the_reports(threads):
    cfg = SimulationConfig(widths=(16, 32), n_samples=30_000, seed=5)
    assert (check_variance_law(dataclasses.replace(cfg, threads=threads))
            == check_variance_law(cfg))


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_is_rejected(threads):
    with pytest.raises(ValueError, match="threads"):
        SimulationConfig(widths=(8, 8), n_samples=1000, threads=threads)


def _one_shot_chunk_sums(cfg, rng, n, fixed):
    """`_chunk_sums` with each layer's whole (n, w_out, w_in) weight tensor
    drawn at once: the reference the streamed draws must equal bit for bit."""
    dims = list(cfg.widths) + [cfg.out_width]
    x = rng.standard_normal((n, dims[0]))
    for i in range(len(dims) - 1):
        if fixed is not None:
            x = x @ fixed[i].T
        else:
            m = rng.standard_normal((n, dims[i + 1], dims[i]))
            x = np.einsum("sij,sj->si", m, x)
    first = x[:, 0]
    return (float(np.sum(first)), float(np.sum(first ** 2)),
            float(np.sum(first ** 4)))


@settings(max_examples=60, deadline=None)
@given(widths=st.lists(st.integers(1, 64), min_size=1, max_size=4),
       out_width=st.integers(1, 3),
       block_bytes=st.sampled_from([8, 4096, variance._BLOCK_BYTES]),
       layer=st.integers(0, 3), blocks=st.integers(1, 3), edge=st.integers(-1, 1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_chunk_sums_equal_one_shot_draws(widths, out_width, block_bytes,
                                                   layer, blocks, edge, seed):
    # n sits on a block edge of one layer, so partial last blocks are covered
    dims = widths + [out_width]
    i = layer % len(widths)
    block = max(1, block_bytes // (8 * dims[i] * dims[i + 1]))
    n = min(variance._CHUNK, max(1, blocks * block + edge))
    cfg = SimulationConfig(widths=tuple(widths), n_samples=1000, out_width=out_width)
    with mock.patch.object(variance, "_BLOCK_BYTES", block_bytes):
        streamed = variance._chunk_sums(cfg, np.random.default_rng(seed), n, None)
    assert streamed == _one_shot_chunk_sums(cfg, np.random.default_rng(seed), n, None)


def test_chunk_memory_is_bounded_at_wide_layers():
    # drawing a layer's weights whole took a 256 MiB tensor here, 264 MiB peak
    cfg = SimulationConfig(widths=(64, 64), n_samples=variance._CHUNK)
    tracemalloc.start()
    try:
        variance._chunk_sums(cfg, np.random.default_rng(0), variance._CHUNK, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_different_seeds_differ():
    a, _ = check_variance_law(SimulationConfig(widths=(8, 8), n_samples=20_000, seed=1))
    b, _ = check_variance_law(SimulationConfig(widths=(8, 8), n_samples=20_000, seed=2))
    assert a.empirical != b.empirical


def test_quenched_mode_runs():
    cfg = SimulationConfig(widths=(8, 8), n_samples=20_000, seed=3, quenched=True)
    rep, _ = check_variance_law(cfg)
    assert rep.empirical > 0


def test_infeasible_width_product_is_rejected():
    cfg = SimulationConfig(widths=(10,) * 30, n_samples=1000, seed=0)
    with pytest.raises(ValueError, match="log-space"):
        check_variance_law(cfg)


def test_ratio_band_uses_estimator_stderr():
    rep, _ = check_variance_law(SimulationConfig(widths=(16, 32),
                                                 n_samples=100_000, seed=SEED))
    # the harness asserts against its own standard error, not a fixed constant
    assert rep.passed == (abs(rep.empirical - rep.theoretical) <= 5 * rep.stderr)
    assert rep.stderr > 0


def test_geometric_mean_log_identity_on_random_lists():
    # direct property check of the geometric-mean identity on 1000 draws
    from entromax.metrics import average_width

    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        widths = np.exp(rng.uniform(0.0, math.log(4096.0), size=n)).tolist()
        lhs = n * math.log(average_width(widths))
        rhs = math.fsum(math.log(w) for w in widths)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# --- the entropy path against the variance law ------------------------------
# Each case samples a small linear Gaussian conv network: valid stride-1
# convolutions with fresh standard-normal weights per sample, on a patch of
# side 1 + sum(k - 1), reading output channel 0 of the last conv at the
# centre pixel.  Stride and padding do not change that pixel's variance:
# it still sums c_in * k^2 / g inputs.  The pinned entropy path must give
# the sampled variance, and each rejected reading (among them those of the
# removed stem, shortcut and stage-local path flags) must miss it.

LAW_SAMPLES = 20_000
LAW_BLOCK = 2_000  # samples drawn at once, bounding the weight arrays


def _conv(x, w, groups=1):
    """Valid convolution of each sample x[s] (c_in, side, side) with its own
    weights w[s] (c_out, c_in / groups, k, k)."""
    n, c_in, side, _ = x.shape
    _, c_out, c_g, k, _ = w.shape
    out = side - k + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, groups, c_g * k * k, out * out)
    y = w.reshape(n, groups, c_out // groups, c_g * k * k) @ cols
    return y.reshape(n, c_out, out, out)


def _sampled_variance(network, seed=0):
    """(variance, standard error) of network(rng, n) over LAW_SAMPLES draws;
    the error comes from the fourth moment, as `check_variance_law`'s does."""
    rng = np.random.default_rng(seed)
    s1 = s2 = s4 = 0.0
    for start in range(0, LAW_SAMPLES, LAW_BLOCK):
        y = network(rng, min(LAW_BLOCK, LAW_SAMPLES - start)).reshape(-1)
        s1 += float(np.sum(y))
        s2 += float(np.sum(y ** 2))
        s4 += float(np.sum(y ** 4))
    n = LAW_SAMPLES
    mean = s1 / n
    var = s2 / n - mean * mean
    return var, math.sqrt(max(s4 / n - var * var, 0.0) / n)


def _path_variance(net, stage=-1):
    """The output variance the pinned entropy path gives a stage: the product
    of projected widths that its entropy H_i = log(r_i^2 c_i) * sum log w scales."""
    _, per_stage = weighted_entropy(net, [1.0] * len(net.stages))
    r = stage_resolutions(net)[stage]
    return math.exp(per_stage[stage] / math.log(r * r * net.stages[stage].width))


def _net(stem_channels, *stages, in_channels=3):
    return NetworkSpec(input_resolution=8, in_channels=in_channels,
                       stem=StemSpec(channels=stem_channels, kernel=3, stride=1),
                       stages=stages, num_classes=10)


def _assert_law(network, laws, rejected):
    """Every law value lies within 5 standard errors of the sampled variance,
    and every rejected reading outside them."""
    var, se = _sampled_variance(network)
    for law in laws:
        assert abs(var - law) <= 5 * se, (var, se, law)
    for reading in rejected:
        assert abs(var - reading) > 5 * se, (var, se, reading)


def test_variance_law_puts_the_stem_in_series():
    net = _net(8, StageSpec(BlockKind.plain(), depth=1, width=8))
    assert _path_variance(net) == pytest.approx(27 * 72, rel=1e-12)

    def network(rng, n):
        x = rng.standard_normal((n, 3, 5, 5))
        x = _conv(x, rng.standard_normal((n, 8, 3, 3, 3)))  # stem 3 -> 8
        return _conv(x, rng.standard_normal((n, 1, 8, 3, 3)))  # 8 -> 8, channel 0

    _assert_law(network, [_path_variance(net)], rejected=[72])  # stem excluded


def test_variance_law_multiplies_over_the_stage_prefix():
    # stage 0 holds the stem and one conv, stage 1 the third conv
    net = _net(4, StageSpec(BlockKind.plain(), depth=1, width=4),
               StageSpec(BlockKind.plain(), depth=1, width=4), in_channels=4)
    assert _path_variance(net) == pytest.approx(36 ** 3, rel=1e-12)

    def network(rng, n):
        x = rng.standard_normal((n, 4, 7, 7))
        for _ in range(2):
            x = _conv(x, rng.standard_normal((n, 4, 4, 3, 3)))
        return _conv(x, rng.standard_normal((n, 1, 4, 3, 3)))

    _assert_law(network, [_path_variance(net)], rejected=[36])  # stage-local


def test_variance_law_adds_a_projection_shortcut_in_parallel():
    # a basic block 8 -> 16 after the stem: its 1x1 projection adds c_in = 8
    net = _net(8, StageSpec(BlockKind.resnet_basic(), depth=1, width=16))
    path = _path_variance(net)
    assert path == pytest.approx(27 * 72 * 144, rel=1e-12)

    def network(rng, n):
        x = rng.standard_normal((n, 3, 7, 7))
        h = _conv(x, rng.standard_normal((n, 8, 3, 3, 3)))  # stem, 5 x 5 out
        main = _conv(h, rng.standard_normal((n, 16, 8, 3, 3)))
        main = _conv(main, rng.standard_normal((n, 1, 16, 3, 3)))
        short = _conv(h[:, :, 2:3, 2:3], rng.standard_normal((n, 1, 8, 1, 1)))
        return main + short

    # the path drops the parallel term, 8 / 10,376 of the law, inside the band
    _assert_law(network, [27 * (72 * 144 + 8), path],
                rejected=[path * 8])  # shortcut on the path


def test_variance_law_divides_projected_width_by_groups():
    # two depthwise 3x3 convs at c = 4 after a dense stem: w = c k^2 / g = 9
    net = _net(4, StageSpec(BlockKind.plain(), depth=2, width=4, groups=4),
               in_channels=4)
    assert _path_variance(net) == pytest.approx(36 * 9 * 9, rel=1e-12)

    def network(rng, n):
        x = rng.standard_normal((n, 4, 7, 7))
        x = _conv(x, rng.standard_normal((n, 4, 4, 3, 3)))
        x = _conv(x, rng.standard_normal((n, 4, 1, 3, 3)), groups=4)
        # channel 0 of the last depthwise conv reads input channel 0 alone
        return _conv(x[:, :1], rng.standard_normal((n, 1, 1, 3, 3)))

    _assert_law(network, [_path_variance(net)], rejected=[36 ** 3])  # groups ignored
