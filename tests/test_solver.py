import dataclasses
import hashlib
import itertools
import math
import os
import signal
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_problem
from entromax.blocks import BlockKind
from entromax.catalog import reference
from entromax.conventions import PINNED, Conventions, all_conventions
from entromax.metrics import (
    count_flops,
    count_params,
    depth_uniformity_penalty,
    effectiveness,
    flops_of_layers,
    params_of_layers,
    weighted_entropy,
)
from entromax.model import StemSpec, expand
from entromax.solver import (
    Candidate,
    InfeasibleProblem,
    ProblemSpec,
    SolveOptions,
    brute_force,
    evaluate,
    feasible,
    lattice_size,
    objective,
    realize,
    round_and_repair,
    solve,
)
from entromax import solver as solver_module
from entromax.solver import (_better, _binding, _cheapest, _granular_bounds, _model, _neighbors,
                             _r_sequence, _StageModel, _start_point)


def r18_problem(max_params=11_689_512, max_flops=1_819_040_768, rho0=0.3):
    return ProblemSpec(
        block=BlockKind.resnet_basic(),
        stages=4,
        alphas=(1.0, 1.0, 1.0, 8.0),
        rho0=rho0,
        max_flops=max_flops,
        max_params=max_params,
        input_resolution=224,
        downsample_schedule=(False, True, True, True),
        width_bounds=((16, 512), (16, 1024), (16, 1024), (16, 2048)),
        depth_bounds=((1, 30), (1, 30), (1, 30), (1, 30)),
        beta=10.0,
        width_granularity=8,
        num_classes=1000,
        stem=StemSpec(channels=64, kernel=7, stride=2, pool=True),
    )


def r50_problem():
    return ProblemSpec(
        block=BlockKind.resnet_bottleneck(),
        stages=4,
        alphas=(1.0, 1.0, 1.0, 8.0),
        rho0=0.3,
        max_flops=4_111_412_224,
        max_params=25_557_032,
        input_resolution=224,
        downsample_schedule=(False, True, True, True),
        width_bounds=((16, 1024), (16, 2048), (16, 4096), (16, 4096)),
        depth_bounds=((1, 40), (1, 40), (1, 40), (1, 40)),
        stem=StemSpec(channels=64, kernel=7, stride=2, pool=True),
    )


# --- realize -------------------------------------------------------------------

def test_realize_small_plain_candidate():
    prob = ProblemSpec(
        block=BlockKind.plain(), stages=1, alphas=(1.0,), rho0=2.0,
        max_flops=10**12, max_params=10**9, input_resolution=32,
        downsample_schedule=(False,), width_bounds=((64, 64),),
        depth_bounds=((2, 2),), num_classes=10,
        stem=StemSpec(channels=8, kernel=3, stride=2))
    net = realize(Candidate((64,), (2,)), prob)
    assert len(net.stages) == 1
    assert net.stages[0].depth == 2 and net.stages[0].width == 64
    from entromax.model import expand
    layers = expand(net)
    assert [l.role for l in layers] == ["stem", "main", "main", "classifier"]


def test_realize_resnet50_round_trip_matches_catalog():
    prob = r50_problem()
    cand = Candidate((256, 512, 1024, 2048), (3, 4, 6, 3))
    net = realize(cand, prob)
    cat = reference("resnet50")
    assert count_params(net) == pytest.approx(count_params(cat.spec), rel=0.01)
    assert count_flops(net) == pytest.approx(count_flops(cat.spec), rel=0.01)
    # the fixed stem/head convention reproduces the reference exactly
    assert net == cat.spec


def test_realize_accepts_exact_bounds():
    prob = r18_problem()
    cand = Candidate((16, 16, 16, 2048), (1, 1, 1, 30))
    assert realize(cand, prob) is not None


def test_realize_rejects_out_of_bounds():
    prob = r18_problem()
    with pytest.raises(ValueError):
        realize(Candidate((8, 16, 16, 16), (1, 1, 1, 1)), prob)
    with pytest.raises(ValueError):
        realize(Candidate((20, 24, 24, 24), (1, 1, 1, 1)), prob)  # not on lattice


# --- problem check ---------------------------------------------------------------

@pytest.mark.parametrize("change, code", [
    ({"input_resolution": 2, "downsample_schedule": (True, True)}, "resolution_underflow"),
    ({"num_classes": 0}, "classes_nonpositive"),
    ({"groups": 3}, "groups_indivisible"),
    ({"kernel": 2}, "kernel_even"),
    # the cheapest designs are fine; widths of 32 and 24 are not
    ({"groups": 3, "width_bounds": ((24, 40), (24, 40)),
      "stem": StemSpec(channels=24)}, "width granularity"),
    ({"block": BlockKind.resnet_bottleneck(), "groups": 4,
      "width_bounds": ((16, 48), (16, 48)), "stem": StemSpec(channels=16)},
     "width granularity"),
    ({"downsample_schedule": ("no", True)}, "flag_not_bool"),
    # NaN slips past the sign checks: every comparison with it is false
    ({"alphas": (math.nan, 1.0)}, "finite"), ({"alphas": (1.0, math.inf)}, "finite"),
    ({"beta": math.nan}, "finite"), ({"beta": math.inf}, "finite"),
    ({"rho0": math.nan}, "finite"), ({"rho0": math.inf}, "finite"),
])
def test_check_rejects_problems_whose_designs_fail_validation(change, code):
    prob = dataclasses.replace(tiny_problem(0), stages=2, alphas=(1.0, 1.0),
                               downsample_schedule=(False, True),
                               width_bounds=((8, 24), (8, 24)),
                               depth_bounds=((1, 2), (1, 2)))
    prob.check()
    with pytest.raises(ValueError, match=code):
        dataclasses.replace(prob, **change).check()


# --- objective and feasibility ---------------------------------------------------

def test_objective_uniform_depths_subtracts_beta():
    prob = r18_problem()
    cand = Candidate((64, 128, 256, 512), (2, 2, 2, 2))
    net = realize(cand, prob)
    weighted, _ = weighted_entropy(net, prob.alphas)
    assert objective(cand, prob) == pytest.approx(weighted - prob.beta * 1.0,
                                                  rel=1e-12)


def test_objective_beta_zero_is_pure_entropy():
    prob = dataclasses.replace(r18_problem(), beta=0.0)
    cand = Candidate((64, 128, 256, 512), (2, 3, 2, 2))
    net = realize(cand, prob)
    weighted, _ = weighted_entropy(net, prob.alphas)
    assert objective(cand, prob) == pytest.approx(weighted, rel=1e-12)


def test_objective_difference_decomposes():
    prob = r18_problem()
    a = Candidate((64, 128, 256, 512), (2, 2, 2, 2))
    b = Candidate((64, 128, 256, 512), (2, 2, 2, 4))
    ea, eb = evaluate(a, prob), evaluate(b, prob)
    gain = eb.weighted_entropy - ea.weighted_entropy
    dq = depth_uniformity_penalty(b.depths) - depth_uniformity_penalty(a.depths)
    assert eb.objective - ea.objective == pytest.approx(
        gain - prob.beta * dq, rel=1e-9)


def test_objective_matches_metrics_recomputation():
    prob = r18_problem()
    cand = Candidate((64, 128, 256, 512), (2, 2, 2, 2))
    net = realize(cand, prob)
    weighted, _ = weighted_entropy(net, prob.alphas)
    q = depth_uniformity_penalty([s.depth for s in net.stages])
    assert evaluate(cand, prob).objective == pytest.approx(
        weighted - prob.beta * q, rel=1e-9)


def test_catalog_resnet18_is_feasible_in_shipped_budgets():
    prob = r18_problem()
    ok, violations = feasible(Candidate((64, 128, 256, 512), (2, 2, 2, 2)), prob)
    assert ok, violations


def test_monotonicity_violation_reported():
    prob = ProblemSpec(
        block=BlockKind.plain(), stages=2, alphas=(1.0, 1.0), rho0=2.0,
        max_flops=10**14, max_params=10**12, input_resolution=32,
        downsample_schedule=(False, True), width_bounds=((8, 256), (8, 256)),
        depth_bounds=((1, 3), (1, 3)), num_classes=10,
        stem=StemSpec(channels=8, kernel=3, stride=2))
    ok, violations = feasible(Candidate((128, 64), (1, 1)), prob)
    assert not ok and "monotone" in violations


def test_budget_boundary_is_inclusive():
    prob = tiny_problem(0)
    cand, ev = brute_force(prob)
    exact = dataclasses.replace(prob, max_flops=ev.flops, max_params=ev.params)
    ok, _ = feasible(cand, exact)
    assert ok


# --- the evaluation memo ---------------------------------------------------------

def _cold(cand, prob, conventions=PINNED):
    """`evaluate` on an equal copy of the problem, which the memo does not know."""
    return evaluate(cand, dataclasses.replace(prob), conventions)


def _some_candidates(prob, n):
    """The first `n` monotone lattice points at two depth vectors."""
    lo_g, hi_g = _granular_bounds(prob)
    g = prob.width_granularity
    chains = [w for w in itertools.product(*(range(lo, hi + 1, g) for lo, hi in zip(lo_g, hi_g)))
              if all(a <= b for a, b in zip(w, w[1:]))]
    depths = [tuple(b[k] for b in prob.depth_bounds) for k in (0, 1)]
    return [Candidate(w, d) for w in chains for d in depths][:n]


def test_a_repeat_evaluation_is_served_from_the_memo():
    prob = tiny_problem(3, family=1)
    cand = _some_candidates(prob, 1)[0]
    first = evaluate(cand, prob)
    assert evaluate(cand, prob) is first
    assert evaluate(Candidate(list(cand.widths), list(cand.depths)), prob) is first
    assert _cold(cand, prob) == first and _cold(cand, prob) is not first


def test_evaluate_checks_its_input_with_the_memo_warm_or_cold():
    """The memo holds only checked lattice points, keyed by (widths,
    depths): off-lattice input raises whatever the memo holds, and a float
    candidate coerces to ints and hits the entry of its int twin."""
    prob = tiny_problem(3, family=1)
    cand = _some_candidates(prob, 1)[0]
    w, d = cand.widths, cand.depths
    bad = (Candidate((w[0] + 1, *w[1:]), d),  # off the width lattice
           Candidate(w, (prob.depth_bounds[0][1] + 1, *d[1:])),  # depth out of bounds
           Candidate(w[:1], d[:1]))  # wrong arity
    for warm in (False, True):
        fresh = dataclasses.replace(prob)  # a new object: an empty memo
        if warm:
            solve(fresh, SolveOptions(restarts=3))
            first = evaluate(cand, fresh)
        for c in bad:
            with pytest.raises(ValueError):
                evaluate(c, fresh)
    floats = Candidate(tuple(map(float, w)), tuple(map(float, d)))
    assert floats.widths == w and all(type(v) is int for v in floats.widths + floats.depths)
    assert evaluate(floats, fresh) is first


def test_integral_granularities_of_other_types_give_int_designs():
    """The polish builds its neighbours without `Candidate`'s coercion, so
    a granularity of 8.0 or numpy's 8 must still step widths by the int 8."""
    base = tiny_problem(3, family=1)
    want = solve(base, SolveOptions(restarts=4))
    for g in (8.0, np.int64(8)):
        rep = solve(dataclasses.replace(base, width_granularity=g), SolveOptions(restarts=4))
        assert rep.best == want.best and rep.objective == want.objective
        assert all(type(v) is int for v in rep.best.widths + rep.best.depths)


def test_callers_cannot_change_a_memoized_evaluation():
    """`solve`'s report and `feasible` hand out copies of the memoized
    slacks and violations, so mutating them changes no later evaluation."""
    prob = tiny_problem(3, family=1)
    rep = solve(prob, SolveOptions(restarts=3))
    rep.slacks.clear()
    assert evaluate(rep.best, prob).slacks == _cold(rep.best, prob).slacks != {}

    tight = dataclasses.replace(prob, max_params=10, rho0=1e-3)
    cand = _some_candidates(tight, 1)[0]
    ok, violations = feasible(cand, tight)
    assert not ok and set(violations) == {"params", "rho"}
    violations.clear()
    assert feasible(cand, tight)[1] == evaluate(cand, tight).violations == \
        _cold(cand, tight).violations
    assert set(evaluate(cand, tight).violations) == {"params", "rho"}

    infeasible = solve(tight, SolveOptions(restarts=2))
    assert not infeasible.feasible
    infeasible.slacks["params"] = 0
    assert evaluate(solver_module._cheapest(tight), tight).slacks["params"] < 0


def test_interleaved_problems_and_conventions_match_cold_evaluations():
    base = tiny_problem(3, family=1)
    probs = (base, dataclasses.replace(base, alphas=(2.0, 0.5), max_params=base.max_params // 2))
    convs = (PINNED, Conventions(params_include_bn=False, flops_bn_cost=0))
    cands = _some_candidates(base, 6)
    pairs = list(itertools.product(probs, convs))
    cold = {(n, c): _cold(cand, *pair) for n, pair in enumerate(pairs)
            for c, cand in enumerate(cands)}
    # the four pairs cost each candidate differently
    assert all(len({repr(cold[n, c]) for n in range(4)}) == 4 for c in range(len(cands)))
    for c, cand in enumerate(cands):  # every call switches the pair
        for n, (prob, conv) in enumerate(pairs):
            assert evaluate(cand, prob, conv) == cold[n, c]
    for n, (prob, conv) in enumerate(pairs):  # a miss, then a hit
        for c, cand in enumerate(cands):
            assert evaluate(cand, prob, conv) == evaluate(cand, prob, conv) == cold[n, c]


def test_the_evaluation_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(solver_module, "_MEMO_CAP", 8)
    prob = tiny_problem(3, family=1)
    cands = _some_candidates(prob, 30)
    cold = [_cold(cand, prob) for cand in cands]
    sizes = []
    for cand, want in zip(cands + cands[::-1], cold + cold[::-1]):
        assert evaluate(cand, prob) == want
        sizes.append(len(solver_module._memo[3]))
    assert max(sizes) == 8


# --- brute force -----------------------------------------------------------------

def test_brute_force_single_point_lattice():
    prob = ProblemSpec(
        block=BlockKind.plain(), stages=1, alphas=(1.0,), rho0=2.0,
        max_flops=10**14, max_params=10**12, input_resolution=32,
        downsample_schedule=(False,), width_bounds=((16, 16),),
        depth_bounds=((2, 2),), num_classes=10,
        stem=StemSpec(channels=8, kernel=3, stride=2))
    cand, _ = brute_force(prob)
    assert cand == Candidate((16,), (2,))


def test_brute_force_prefers_more_entropy():
    prob = ProblemSpec(
        block=BlockKind.plain(), stages=1, alphas=(1.0,), rho0=2.0,
        max_flops=10**14, max_params=10**12, input_resolution=32,
        downsample_schedule=(False,), width_bounds=((8, 16),),
        depth_bounds=((1, 2),), num_classes=10,
        stem=StemSpec(channels=8, kernel=3, stride=2))
    cand, _ = brute_force(prob)
    assert cand == Candidate((16,), (2,))


def test_brute_force_infeasible_raises_with_binding_constraint():
    prob = dataclasses.replace(tiny_problem(0), max_params=10)
    with pytest.raises(InfeasibleProblem) as err:
        brute_force(prob)
    assert err.value.binding == "params"


def test_brute_force_rejects_oversized_lattice():
    prob = r18_problem()
    assert lattice_size(prob) > 10**6
    with pytest.raises(ValueError, match="lattice"):
        brute_force(prob)


def test_lattice_size_counts_only_monotone_width_chains():
    """816 monotone chains of three widths in 8..128 times 1,000 depth
    vectors: the full width product would be 4,096,000 points."""
    prob = ProblemSpec(
        block=BlockKind.plain(), stages=3, alphas=(1.0, 2.0, 4.0), rho0=0.6,
        max_flops=40_000_000, max_params=1_000_000, input_resolution=32,
        downsample_schedule=(False, True, True),
        width_bounds=((8, 128),) * 3, depth_bounds=((1, 10),) * 3,
        num_classes=10, stem=StemSpec(channels=8, kernel=3, stride=2))
    assert lattice_size(prob) == 816_000
    _, ev = brute_force(prob)
    assert ev.feasible


@pytest.mark.parametrize("seed", range(16))
def test_lattice_size_matches_enumeration(seed):
    """Bounds off the granularity, empty and non-nested axes included."""
    rng = np.random.default_rng(seed)
    m, g = int(rng.integers(1, 5)), int(rng.choice([1, 3, 8]))
    width_bounds = []
    for _ in range(m):
        lo = int(rng.integers(1, 6 * g))
        width_bounds.append((lo, lo + int(rng.integers(0, 12 * g))))
    depth_bounds = tuple((lo, lo + int(rng.integers(0, 3))) for lo in rng.integers(1, 4, m))
    prob = dataclasses.replace(tiny_problem(0), stages=m, width_granularity=g,
                               width_bounds=tuple(width_bounds), depth_bounds=depth_bounds)
    axes = [range(math.ceil(lo / g) * g, (hi // g) * g + 1, g) for lo, hi in width_bounds]
    chains = sum(all(a <= b for a, b in zip(w, w[1:])) for w in itertools.product(*axes))
    assert lattice_size(prob) == chains * math.prod(hi - lo + 1 for lo, hi in depth_bounds)


def _scan(prob, conventions=PINNED):
    """The exhaustive scalar scan: every monotone lattice point through
    `evaluate`, in enumeration order.  The reference the screened
    `brute_force` is held to."""
    g = prob.width_granularity
    width_axes = [range(math.ceil(lo / g) * g, (hi // g) * g + 1, g)
                  for lo, hi in prob.width_bounds]
    depth_axes = [range(lo, hi + 1) for lo, hi in prob.depth_bounds]
    best = tightest = None
    for widths in itertools.product(*width_axes):
        if any(a > b for a, b in zip(widths, widths[1:])):
            continue
        for depths in itertools.product(*depth_axes):
            cand = Candidate(widths, depths)
            ev = evaluate(cand, prob, conventions)
            if ev.feasible:
                if best is None or _better((cand, ev), best):
                    best = (cand, ev)
            else:
                name, rel = _binding(ev, prob)
                if tightest is None or rel < tightest[0]:
                    tightest = (rel, name)
    if best is None:
        binding = tightest[1] if tightest else "bounds"
        raise InfeasibleProblem(
            f"no feasible candidate in the lattice; tightest violated "
            f"constraint: {binding}", binding)
    return best


def _outcome(oracle, prob, conventions):
    try:
        return oracle(prob, conventions)
    except InfeasibleProblem as err:
        return err.binding, str(err)


def _corners(prob):
    """Evaluations of the cheapest and the most expensive lattice corner."""
    lo_g, hi_g = _granular_bounds(prob)
    return tuple(evaluate(Candidate(w, tuple(b[k] for b in prob.depth_bounds)), prob)
                 for k, w in enumerate((lo_g, hi_g)))


def _tightened(prob):
    """Variants where rho, FLOPs or params binds, and three infeasible ones."""
    lo, hi = _corners(prob)
    replace = dataclasses.replace
    return {
        "rho": replace(prob, rho0=lo.rho * 1.05),
        "flops": replace(prob, max_flops=int(lo.flops + 0.3 * (hi.flops - lo.flops))),
        "params": replace(prob, max_params=int(lo.params + 0.3 * (hi.params - lo.params))),
        "no-params": replace(prob, max_params=lo.params - 1),
        "no-rho": replace(prob, rho0=min(lo.rho, hi.rho) * 0.5),
        "no-rho-flops": replace(prob, rho0=lo.rho * 0.99, max_flops=int(lo.flops * 0.98)),
    }


def _oracle_cases():
    cases = {f"tiny-{f}-{s}": (tiny_problem(s, family=f), PINNED)
             for f, seeds in ((0, range(12)), (1, range(6))) for s in seeds}
    for f, s in ((0, 0), (0, 1), (0, 2), (1, 4)):
        for name, prob in _tightened(tiny_problem(s, family=f)).items():
            cases[f"tiny-{f}-{s}-{name}"] = (prob, PINNED)
    # every objective is 0: only params, then widths, then depths decide
    ties = dataclasses.replace(tiny_problem(5), alphas=(0.0,) * tiny_problem(5).stages,
                               beta=0.0)
    cases["all-ties"] = (ties, PINNED)
    cases["all-ties-params"] = (_tightened(ties)["params"], PINNED)
    # budgets equal to the argmax's own costs: it lies on the boundary
    for f, s in ((0, 3), (1, 5)):
        prob = tiny_problem(s, family=f)
        _, ev = _scan(prob)
        cases[f"tiny-{f}-{s}-boundary"] = (dataclasses.replace(
            prob, rho0=ev.rho, max_flops=ev.flops, max_params=ev.params), PINNED)
    # the two points' least violations tie at exactly 1.0, the first's by
    # rho and the second's by params: the first in enumeration order names it
    base = ProblemSpec(
        block=BlockKind.plain(), stages=1, alphas=(1.0,), rho0=1.0,
        max_flops=10**14, max_params=10**12, input_resolution=32,
        downsample_schedule=(False,), width_bounds=((8, 16),), depth_bounds=((2, 2),),
        num_classes=10, stem=StemSpec(channels=8, kernel=3, stride=2))
    narrow, wide = (evaluate(Candidate((w,), (2,)), base) for w in (8, 16))
    cases["binding-tie"] = (dataclasses.replace(
        base, rho0=narrow.rho / 2, max_params=wide.params // 2), PINNED)
    cases["no-bn-params"] = (_tightened(tiny_problem(7))["params"],
                             Conventions(params_include_bn=False))
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_brute_force_equals_the_exhaustive_scan(case):
    prob, conv = ORACLE_CASES[case]
    assert _outcome(brute_force, prob, conv) == _outcome(_scan, prob, conv)


def test_brute_force_on_a_large_lattice_is_a_local_optimum():
    """A 3-stage lattice of 512,000 points, every width chain monotone."""
    prob = ProblemSpec(
        block=BlockKind.plain(), stages=3, alphas=(1.0, 2.0, 4.0), rho0=0.6,
        max_flops=40_000_000, max_params=1_000_000, input_resolution=32,
        downsample_schedule=(False, True, True),
        width_bounds=((8, 32), (40, 64), (72, 96)), depth_bounds=((1, 20),) * 3,
        num_classes=10, stem=StemSpec(channels=8, kernel=3, stride=2))
    assert lattice_size(prob) >= 5 * 10**5
    best = brute_force(prob)
    assert best[1].feasible
    for cand in _neighbors(best[0], prob, _granular_bounds(prob)):
        ev = evaluate(cand, prob)
        assert not (ev.feasible and _better((cand, ev), best)), cand


# --- round and repair --------------------------------------------------------------

def test_round_and_repair_idempotent_on_lattice_point():
    prob = tiny_problem(1)
    cand, _ = brute_force(prob)
    out = round_and_repair([float(w) for w in cand.widths],
                           [float(d) for d in cand.depths], prob)
    assert out is not None and out[0] == cand


def test_round_and_repair_snaps_to_granularity():
    prob = ProblemSpec(
        block=BlockKind.plain(), stages=2, alphas=(1.0, 1.0), rho0=10.0,
        max_flops=10**14, max_params=10**12, input_resolution=32,
        downsample_schedule=(False, True), width_bounds=((8, 256), (8, 256)),
        depth_bounds=((1, 4), (1, 4)), num_classes=10,
        stem=StemSpec(channels=8, kernel=3, stride=2))
    out = round_and_repair([63.7, 120.2], [1.2, 2.0], prob)
    assert out is not None and out[0].widths == (64, 120)


def test_round_and_repair_monotone_projection():
    # (130, 120) pools to (125, 125), then snaps to the 8-lattice at (128, 128)
    prob = ProblemSpec(
        block=BlockKind.plain(), stages=2, alphas=(1.0, 1.0), rho0=10.0,
        max_flops=10**14, max_params=10**12, input_resolution=32,
        downsample_schedule=(False, True), width_bounds=((8, 256), (8, 256)),
        depth_bounds=((1, 4), (1, 4)), num_classes=10,
        stem=StemSpec(channels=8, kernel=3, stride=2))
    out = round_and_repair([130.0, 120.0], [2.0, 2.0], prob)
    assert out is not None and out[0].widths == (128, 128)


def test_round_and_repair_shrinks_to_budget():
    prob = tiny_problem(2)
    lo_w = [b[0] for b in prob.width_bounds]
    for i in range(1, len(lo_w)):
        lo_w[i] = max(lo_w[i], lo_w[i - 1])
    cheapest = evaluate(Candidate(tuple(lo_w),
                                  tuple(b[0] for b in prob.depth_bounds)), prob)
    tight = dataclasses.replace(prob, max_params=cheapest.params,
                                max_flops=cheapest.flops, rho0=max(prob.rho0, 1.0))
    hi = [float(b[1]) for b in tight.width_bounds]
    out = round_and_repair(hi, [float(b[1]) for b in tight.depth_bounds], tight)
    assert out is not None
    assert out[1].feasible


# --- solve ---------------------------------------------------------------------

def _stages_problem(m: int) -> ProblemSpec:
    """An m-stage problem whose stage 1 has equal width and depth bounds."""
    return dataclasses.replace(
        tiny_problem(0), stages=m, alphas=(1.0,) * m, downsample_schedule=(False,) * m,
        width_bounds=tuple((8 * (i + 1), 8 * (i + 1) if i == 1 else 64 * (i + 2))
                           for i in range(m)),
        depth_bounds=tuple((1 + i % 2, 2 if i == 1 else 3 + 5 * i) for i in range(m)))


def test_r_sequence_solves_its_phi_and_pins_its_first_points():
    # phi is the golden ratio in one dimension and the plastic number in two
    golden, plastic = (1 + 5 ** 0.5) / 2, 1.324717957244746
    assert _r_sequence(1, 1) == pytest.approx([(0.5 + 1 / golden) % 1], abs=1e-15)
    assert _r_sequence(1, 2) == pytest.approx(
        [(0.5 + 1 / plastic) % 1, (0.5 + plastic ** -2) % 1], abs=1e-15)
    for n in range(3, 15):
        phi = 2.0
        for _ in range(200):  # Roberts' fixed-point iteration, with libm powers
            phi = (1 + phi) ** (1 / (n + 1))
        for k in (1, 2, 97):
            assert _r_sequence(k, n) == pytest.approx(
                [(0.5 + k * phi ** -(j + 1)) % 1 for j in range(n)], abs=1e-12)
    # bit for bit: the points use no libm call, so they hold on every platform
    assert _r_sequence(1, 4) == [0.35667488385450286, 0.23389185662712597,
                                 0.12870672103780856, 0.03859725722360996]
    assert _r_sequence(2, 4) == [0.2133497677090057, 0.9677837132542519,
                                 0.7574134420756171, 0.5771945144472199]


def test_fixed_starts_lie_in_bounds_and_never_repeat():
    """Restarts 0-3 start at `_CORNERS`, later ones at R-sequence points:
    inside the granular bounds, on a degenerate axis too, and all distinct."""
    for m in range(2, 8):
        prob = _stages_problem(m)
        lo_g, hi_g = _granular_bounds(prob)
        lo_d, hi_d = zip(*prob.depth_bounds)
        assert any(a == b for a, b in zip(lo_g, hi_g)) and lo_d[1] == hi_d[1]
        starts = [_start_point(prob, r) for r in range(64)]
        assert starts[:4] == [(tuple(map(float, w)), tuple(map(float, d))) for w, d in (
            (hi_g, hi_d), (lo_g, hi_d),
            ([(a + b) / 2 for a, b in zip(lo_g, hi_g)], [(a + b) / 2 for a, b in zip(lo_d, hi_d)]),
            (hi_g, lo_d))]
        for widths, depths in starts:
            assert all(a <= w <= b for a, w, b in zip(lo_g, widths, hi_g))
            assert all(a <= d <= b for a, d, b in zip(lo_d, depths, hi_d))
        assert len(set(starts)) == len(starts)
        u = _r_sequence(1, 2 * m)
        assert starts[4] == tuple(
            tuple(a + (b - a) * t for a, b, t in zip(lo, hi, part))
            for lo, hi, part in ((lo_g, hi_g, u[:m]), (lo_d, hi_d, u[m:])))


def test_solve_is_deterministic():
    prob = tiny_problem(3)
    a = solve(prob, SolveOptions(seed=5))
    b = solve(prob, SolveOptions(seed=5))
    assert a.best == b.best and a.objective == b.objective
    assert a.evaluations == b.evaluations


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 - 5,
                                  (2**32 - 1) * 1000 + 7, (2**32 - 1) * 601 + 3])
def test_random_starts_reproduce_numpy_draws(seed):
    """Restarts 3 and up once started at `default_rng([seed, restart])` draws.
    Now each seed that stream was pinned at, up to 130 bits, is accepted and
    gives seed 0's solve through 16 restarts: the corners and R-sequence points."""
    prob = tiny_problem(4)

    def run(s):
        return dataclasses.replace(solve(prob, SolveOptions(seed=s, restarts=16, trace=True)),
                                   wall_time=0.0)

    report = run(seed)
    assert report.trace and report == run(0)
    assert [note["restart"] for note in report.trace] == list(range(16))


@pytest.mark.parametrize("threads", [1, 2])
def test_solve_ignores_the_seed(threads):
    prob = tiny_problem(13, family=1)
    reports = [dataclasses.replace(solve(prob, SolveOptions(seed=seed, threads=threads,
                                                            trace=True)), wall_time=0.0)
               for seed in (0, 5, 2**40)]
    assert reports[0].trace and reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("threads", [2, 3, 4])
@pytest.mark.parametrize("problem, options", [
    ("tiny", {}),
    ("tiny", {"restarts": 2}),
    ("tiny", {"max_evals": 40}),  # binds: restarts stop early
    ("tiny", {"trace": True}),
    ("mobilenet_scale", {"max_evals": 600, "trace": True}),
], ids=["tiny", "tiny-restarts-2", "tiny-binding-cap", "tiny-trace", "mobilenet-600"])
def test_parallel_restarts_match_sequential(threads, problem, options):
    prob = tiny_problem(4) if problem == "tiny" else _shipped(problem)
    seq = solve(prob, SolveOptions(seed=5, threads=1, **options))
    par = solve(prob, SolveOptions(seed=5, threads=threads, **options))
    assert par.best == seq.best and par.objective == seq.objective
    assert par.evaluations == seq.evaluations
    assert par.budget_exhausted == seq.budget_exhausted == ("max_evals" in options)
    assert par.trace == seq.trace and bool(par.trace) == options.get("trace", False)
    assert par.slacks == seq.slacks and par.infeasibility == seq.infeasibility


def test_every_restart_runs_once_with_more_workers_than_cores(monkeypatch, tmp_path):
    # a lost update of the claim token would run one restart twice
    log, run = tmp_path / "claims", solver_module._run_restart

    def logged(prob, conventions, restart, cap):
        with open(log, "a") as f:  # appends of one short line do not interleave
            f.write(f"{restart}\n")
        return run(prob, conventions, restart, cap)

    monkeypatch.setattr(solver_module, "_run_restart", logged)
    signal.alarm(60)
    try:
        workers = min((os.cpu_count() or 1) + 1, 8)
        rep = solve(tiny_problem(4), SolveOptions(threads=workers, restarts=48))
    finally:
        signal.alarm(0)
    assert sorted(map(int, log.read_text().split())) == list(range(48))
    assert rep.evaluations == solve(tiny_problem(4), SolveOptions(restarts=48)).evaluations
    _assert_no_child_left()


def _failing_restart(monkeypatch, fails):
    """Make `_run_restart` raise what `fails(restart)` returns, if anything;
    restarts the caller runs sleep first, so the child claims one."""
    caller, run = os.getpid(), solver_module._run_restart

    def patched(prob, conventions, restart, cap):
        if os.getpid() == caller:
            time.sleep(0.2)
        exc = fails(restart)
        if exc is not None:
            raise exc
        return run(prob, conventions, restart, cap)

    monkeypatch.setattr(solver_module, "_run_restart", patched)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_restart_error_is_raised_after_every_child_is_reaped(monkeypatch):
    _failing_restart(monkeypatch, lambda r: KeyError(f"restart {r}") if r == 1 else None)
    with pytest.raises(KeyError, match="restart 1"):
        solve(tiny_problem(4), SolveOptions(threads=2, restarts=4))
    _assert_no_child_left()


class _TwoArgs(Exception):
    def __init__(self, a, b):  # pickles, but does not unpickle: args is (a,)
        super().__init__(a)


def _local_error(r):
    class Local(Exception):  # a local class does not pickle
        pass
    return Local(r)


@pytest.mark.parametrize("error, name", [(_local_error, "Local"),
                                         (lambda r: _TwoArgs(r, r), "_TwoArgs")],
                         ids=["local-class", "init-signature"])
def test_child_error_that_does_not_round_trip_arrives_as_its_repr(monkeypatch, error, name):
    caller = os.getpid()
    _failing_restart(monkeypatch, lambda r: None if os.getpid() == caller else error(r))
    with pytest.raises(RuntimeError, match=name + r"\("):
        solve(tiny_problem(4), SolveOptions(threads=2, restarts=2))
    _assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError("in the caller"), KeyboardInterrupt()])
def test_caller_error_kills_and_reaps_every_child(monkeypatch, exc):
    caller = os.getpid()
    _failing_restart(monkeypatch, lambda r: exc if os.getpid() == caller else None)
    with pytest.raises(type(exc)):
        solve(tiny_problem(4), SolveOptions(threads=3, restarts=12))
    _assert_no_child_left()


@pytest.mark.parametrize("threads, restarts, children", [(4, 2, 1), (2, 1, 0), (3, 12, 2)])
def test_parallel_solve_forks_one_child_per_extra_worker(monkeypatch, threads, restarts,
                                                         children):
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    rep = solve(tiny_problem(4), SolveOptions(threads=threads, restarts=restarts))
    assert len(forked) == children
    assert rep == dataclasses.replace(solve(tiny_problem(4), SolveOptions(restarts=restarts)),
                                      wall_time=rep.wall_time)
    _assert_no_child_left()


def test_threads_without_fork_are_rejected(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="os.fork"):
        solve(tiny_problem(4), SolveOptions(threads=2))
    assert solve(tiny_problem(4), SolveOptions(threads=1)).feasible


def test_solve_best_passes_independent_feasibility_recheck():
    for seed in (0, 6, 9):
        prob = tiny_problem(seed)
        rep = solve(prob, SolveOptions(seed=seed))
        if rep.feasible:
            ok, violations = feasible(rep.best, prob)
            assert ok, violations


def test_budget_monotonicity_on_relaxed_budgets():
    for seed in range(8):
        prob = tiny_problem(seed, family=0)
        base = solve(prob, SolveOptions(seed=seed))
        relaxed = dataclasses.replace(
            prob, max_params=prob.max_params * 2, max_flops=prob.max_flops * 2,
            rho0=prob.rho0 * 2)
        wider = solve(relaxed, SolveOptions(seed=seed))
        if base.feasible:
            assert wider.feasible
            assert wider.objective >= base.objective


@pytest.mark.parametrize("seed", range(6))
def test_solve_infeasible_reports_binding_constraint(seed):
    # rho is violated ninefold and FLOPs by one: the binding constraint is
    # the larger violation relative to its bound, as the oracle names it
    prob = tiny_problem(seed)
    lo_w = [b[0] for b in prob.width_bounds]
    for i in range(1, len(lo_w)):
        lo_w[i] = max(lo_w[i], lo_w[i - 1])
    cheapest = evaluate(Candidate(tuple(lo_w),
                                  tuple(b[0] for b in prob.depth_bounds)), prob)
    prob = dataclasses.replace(prob, rho0=0.1 * cheapest.rho,
                               max_flops=cheapest.flops - 1)
    with pytest.raises(InfeasibleProblem) as err:
        brute_force(prob)
    rep = solve(prob, SolveOptions(seed=0))
    assert not rep.feasible
    assert rep.best is None
    assert rep.infeasibility == err.value.binding


def test_unproven_infeasibility_is_not_named(monkeypatch):
    """rho alone binds at the cheapest point, which proves nothing: one
    restart finds no feasible point without spending its budget, and a
    feasible design exists.  The cheapest-point probe is counted."""
    prob = tiny_problem(49, family=1)
    prob = dataclasses.replace(prob, rho0=0.5 * evaluate(_cheapest(prob), prob).rho)
    assert brute_force(prob)[0] == Candidate((56, 56), (2, 1))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr("entromax.solver.evaluate", counting)
    rep = solve(prob, SolveOptions(restarts=1))
    assert not rep.feasible and rep.best is None
    assert rep.infeasibility is None and not rep.budget_exhausted
    assert rep.evaluations == len(calls) == 5 and calls[-1] == _cheapest(prob)


def test_max_evals_one_returns_flagged():
    prob = tiny_problem(5)
    rep = solve(prob, SolveOptions(seed=0, max_evals=1))
    assert rep.evaluations <= 1
    assert rep.budget_exhausted


@pytest.mark.parametrize("option", [{"restarts": 0}, {"restarts": -2},
                                    {"max_evals": 0}, {"max_evals": -5},
                                    {"threads": 0}])
def test_counts_below_one_are_rejected(option):
    name = next(iter(option))
    with pytest.raises(ValueError, match=name):
        solve(tiny_problem(5), SolveOptions(seed=0, **option))


def test_q_pressure_keeps_depths_nearly_uniform():
    # slack budgets and beta 10: the returned depth spread stays tight
    prob = dataclasses.replace(tiny_problem(7), max_params=10**12,
                               max_flops=10**14, rho0=10.0, beta=10.0)
    rep = solve(prob, SolveOptions(seed=1))
    assert rep.feasible
    assert max(rep.best.depths) - min(rep.best.depths) <= 2


def test_trace_is_side_effect_free():
    prob = tiny_problem(8)
    plain = solve(prob, SolveOptions(seed=2, trace=False))
    traced = solve(prob, SolveOptions(seed=2, trace=True))
    assert traced.best == plain.best
    assert traced.objective == plain.objective
    assert traced.trace and not plain.trace


def _shipped(name: str) -> ProblemSpec:
    from importlib import resources

    from entromax.fileio import read_problem

    path = resources.files("entromax.data.problems").joinpath(f"{name}.json")
    with resources.as_file(path) as p:
        return read_problem(p)


@pytest.mark.parametrize("case", ["tiny-1-3", "resnet18_scale"])
def test_every_counted_evaluation_calls_module_evaluate(case, monkeypatch):
    """The benchmark counts evaluations by rebinding `solver.evaluate`; a
    single-thread solve must reach it once per evaluation it reports."""
    if case == "resnet18_scale":
        prob, opts = _shipped(case), SolveOptions(max_evals=600)
    else:
        prob, opts = tiny_problem(3, family=1), SolveOptions()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr("entromax.solver.evaluate", counting)
    rep = solve(prob, opts)
    assert rep.feasible
    assert len(calls) == rep.evaluations > 0


# widths, depths, evaluations and evaluations per restart of default traced
# solves; the solver's memos must not move a trajectory, so these change
# only with a declared change of design
TRAJECTORIES = {
    "tiny-0-1": ((24, 24, 24), (3, 3, 2), 243,
                 (5, 5, 5, 47, 5, 66, 5, 35, 5, 30, 5, 30)),
    "tiny-1-27": ((64, 64), (5, 4), 454,  # residual
                  (4, 4, 4, 51, 4, 71, 4, 95, 4, 101, 4, 108)),
    "tiny-1-3": ((32, 48), (7, 6), 871,  # the params budget binds
                 (25, 25, 25, 158, 41, 85, 41, 129, 85, 97, 47, 113)),
    "resnet18_scale": ((24, 32, 88, 136), (17, 17, 20, 18), 2818,
                       (250, 250, 68, 250, 250, 250, 250, 250, 250, 250, 250, 250)),
    "mobilenet_scale": ((8, 32, 48, 64, 136, 144, 360), (1, 1, 1, 1, 1, 3, 1), 2874,
                        (250, 250, 186, 250, 250, 219, 250, 250, 250, 234, 250, 235)),
}


# sha256 of repr(report.trace) of the same solves: every restart's
# continuous endpoints and penalty weight mu, so the relaxed ascent's float
# path is pinned bit for bit (a different libm `log` or `exp` may move it)
TRACE_DIGESTS = {
    "tiny-0-1": "3deb05f6b4f93253599527c8a56f68b8a9f97f1dc801d36559a00599d12de3e1",
    "tiny-1-27": "45c2fa88ea0437e7199c4bb83d2281722417288d6a5f1fb432b67ff99163fae3",
    "tiny-1-3": "07197829373b2310dbc52a662261334a42fcffa04d6bbb6eb59626a8436ce57e",
    "resnet18_scale": "9c9a5826212c9b3df2e67943b0f2d1ae20d0727aa35c0b065f58e3410324383b",
}


def _pinned_solve(case):
    if case.startswith("tiny"):
        _, family, seed = case.split("-")
        prob, opts = tiny_problem(int(seed), family=int(family)), SolveOptions(trace=True)
    else:
        prob, opts = _shipped(case), SolveOptions(max_evals=3000, trace=True)
    return solve(prob, opts)


@pytest.mark.parametrize("case", TRAJECTORIES)
def test_solver_trajectories_are_pinned(case):
    rep = _pinned_solve(case)
    widths, depths, evaluations, per_restart = TRAJECTORIES[case]
    assert rep.best == Candidate(widths, depths)
    assert rep.evaluations == evaluations
    assert tuple(note["evaluations"] for note in rep.trace) == per_restart


@pytest.mark.parametrize("case", TRACE_DIGESTS)
def test_solver_trace_digests_are_pinned(case):
    trace = _pinned_solve(case).trace
    assert all("continuous" in note for note in trace) and any("mu" in note for note in trace)
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == TRACE_DIGESTS[case]


# --- the stage-separable model against expand + metrics -------------------------

BLOCKS = {
    "plain": BlockKind.plain(),
    "basic": BlockKind.resnet_basic(),
    "bottleneck": BlockKind.resnet_bottleneck(),
    "mbv2-e1": BlockKind.mobilenet_v2(expansion=1),
    "mbv2-e1-se": BlockKind.mobilenet_v2(expansion=1, se_reduction=3),
    "mbv2-e6": BlockKind.mobilenet_v2(expansion=6),
    "mbv2-e6-se": BlockKind.mobilenet_v2(expansion=6, se_reduction=3),
}


@st.composite
def model_cases(draw, block):
    """A problem and a candidate in it.  With a channel unit of 24 the
    groups and the SE reduction divide every channel count; with 8 they
    need not, and the exact branch floors."""
    unit = draw(st.sampled_from((8, 24)))
    m = draw(st.integers(1, 4))
    widths = tuple(unit * draw(st.integers(1, 6)) for _ in range(m))
    depths = tuple(draw(st.integers(1, 4)) for _ in range(m))
    prob = ProblemSpec(
        block=block, stages=m,
        alphas=tuple(draw(st.floats(0.0, 8.0)) for _ in range(m)),
        rho0=1.0, max_flops=10**12, max_params=10**10,
        input_resolution=draw(st.sampled_from((15, 32, 56))),
        downsample_schedule=tuple(draw(st.booleans()) for _ in range(m)),
        width_bounds=((8, 144),) * m, depth_bounds=((1, 4),) * m,
        beta=draw(st.sampled_from((0.0, 10.0))),
        kernel=draw(st.sampled_from((3, 5))),
        groups=draw(st.sampled_from((1, 2, 3))),
        num_classes=draw(st.sampled_from((10, 1000))),
        stem=StemSpec(channels=unit * draw(st.integers(1, 2)),
                      kernel=draw(st.sampled_from((3, 7))),
                      stride=draw(st.sampled_from((1, 2))),
                      pool=draw(st.booleans())),
        head_channels=draw(st.sampled_from((None, 64))),
    )
    return prob, Candidate(widths, depths)


def _close(a, b):
    # subnormal results (alphas near 5e-324) keep too few bits for a relative bound
    return abs(a - b) <= 1e-12 * abs(b) + sys.float_info.min


@pytest.mark.parametrize("block", BLOCKS.values(), ids=BLOCKS.keys())
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_stage_model_matches_expand_and_metrics(block, data):
    prob, cand = data.draw(model_cases(block))
    net = realize(cand, prob)
    layers = expand(net, check=False)
    se = block.se_reduction
    divisions_exact = all(l.c_in % l.g == 0 for l in layers) and (
        se is None or all(c % se == 0 for c in (prob.stem.channels,) + cand.widths))
    for conv in all_conventions():
        ev = evaluate(cand, prob, conv)
        assert ev.params == params_of_layers(layers, conv)
        assert ev.flops == flops_of_layers(layers, conv)
        for i in range(prob.stages):
            stage = [l for l in layers if l.stage == i]
            assert ev.stage_params[i] == params_of_layers(stage, conv)
            assert ev.stage_flops[i] == flops_of_layers(stage, conv)
        weighted, _ = weighted_entropy(net, prob.alphas, layers=layers)
        assert _close(ev.weighted_entropy, weighted)
        assert _close(ev.rho, effectiveness(net, layers=layers))

        if divisions_exact:
            # the relaxed branch at the same inputs as floats
            relaxed = _StageModel(prob, conv, exact=False).costs(
                tuple(map(float, cand.widths)), tuple(map(float, cand.depths)))
            exact = _model(prob, conv).costs(cand.widths, cand.depths)
            for r, e in zip(relaxed, exact):
                assert _close(r, e)


GRID_CONVENTIONS = (
    PINNED,
    Conventions(params_include_bn=False, flops_bn_cost=0),
)


def _assert_grid_matches_costs(prob, chains, depth_vecs):
    """Every cell of `grid` against scalar `costs`: entropy and rho within
    1e-12 relative, params and FLOPs exactly while below 2**53."""
    for conv in GRID_CONVENTIONS:
        model = _StageModel(prob, conv)
        weighted, rho, params, flops = model.grid(chains, depth_vecs)
        for n, chain in enumerate(chains):
            for j, depths in enumerate(depth_vecs):
                want = model.costs(chain, depths)
                assert _close(weighted[n, j], want[0]) and _close(rho[n, j], want[1])
                for got, count in ((params[n, j], want[2]), (flops[n, j], want[3])):
                    assert got == count if count < 2**53 else _close(got, count)


@pytest.mark.parametrize("block", BLOCKS.values(), ids=BLOCKS.keys())
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_grid_matches_costs_on_block_variants(block, data):
    prob, cand = data.draw(model_cases(block))
    m = prob.stages
    _assert_grid_matches_costs(prob, [cand.widths, tuple(sorted(cand.widths))],
                               [cand.depths, (1,) * m, (4,) * m])


@pytest.mark.parametrize("name", ["resnet18_scale", "resnet34_scale", "resnet50_scale",
                                  "mobilenet_scale", "efficientnet_b0_scale"])
def test_grid_matches_costs_on_shipped_problems(name):
    prob = _shipped(name)
    lo_g, hi_g = _granular_bounds(prob)
    g = prob.width_granularity
    rng = np.random.default_rng(0)
    chains = [tuple(hi_g)]
    for _ in range(3):
        w = []
        for lo, hi in zip(lo_g, hi_g):  # prefix max keeps the chain monotone
            w.append(min(max([int(rng.integers(lo // g, hi // g + 1)) * g] + w[-1:]), hi))
        chains.append(tuple(w))
    depth_vecs = [tuple(hi for _, hi in prob.depth_bounds)] + [
        tuple(int(rng.integers(lo, hi + 1)) for lo, hi in prob.depth_bounds)
        for _ in range(3)]
    _assert_grid_matches_costs(prob, chains, depth_vecs)


@pytest.mark.parametrize("block, groups", [
    (BlockKind.mobilenet_v2(expansion=1, se_reduction=3), 1),
    (BlockKind.plain(), 3),
])
def test_relaxed_costs_do_not_leak_into_exact_evaluations(block, groups):
    """Where the SE reduction or the groups do not divide the widths, the
    two branches cost the same widths differently; costing them relaxed
    first must leave the exact evaluation as a fresh model gives it."""
    prob = ProblemSpec(
        block=block, stages=2, alphas=(1.0, 8.0), rho0=10.0,
        max_flops=10**12, max_params=10**10, input_resolution=32,
        downsample_schedule=(False, True), width_bounds=((8, 16), (8, 16)),
        depth_bounds=((1, 3), (1, 3)), groups=groups, num_classes=10,
        stem=StemSpec(channels=8, stride=1))
    cand = Candidate((8, 16), (2, 3))
    _model.cache_clear()
    fresh = evaluate(cand, prob)
    _model.cache_clear()
    relaxed = _StageModel(prob, PINNED, exact=False).costs(
        tuple(map(float, cand.widths)), tuple(map(float, cand.depths)))
    assert relaxed[2] != fresh.params  # the branches differ here
    # an equal copy of the problem misses the evaluation memo
    assert evaluate(cand, dataclasses.replace(prob)) == fresh


def test_solve_finds_the_argmax_that_its_polish_cannot_reach():
    """A family-1 instance with a local optimum at widths (40, 48), depths
    (8, 4), which no polish move leaves, below the brute-force argmax at
    widths (32, 64) with the same depths."""
    prob = tiny_problem(13, family=1)
    cand, ev = brute_force(prob)
    rep = solve(prob)
    assert rep.best == cand
    assert rep.objective == ev.objective
