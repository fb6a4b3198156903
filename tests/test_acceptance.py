"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from conftest import tiny_problem
from entromax import catalog
from entromax.cli import main as cli_main
from entromax.metrics import (
    average_width,
    count_flops,
    count_params,
    depth_uniformity_penalty,
    effectiveness,
    flops_of_layers,
)
from entromax.model import expand
from entromax.solver import (
    Candidate,
    InfeasibleProblem,
    SolveOptions,
    brute_force,
    evaluate,
    solve,
)
from entromax.variance import SimulationConfig, check_variance_law


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_catalog_rho_column():
    t0 = time.perf_counter()
    expected = {"resnet18": (0.01, 0.01), "resnet34": (0.02, 0.01),
                "resnet50": (0.09, 0.01), "mobilenet_v2": (0.9, 0.1),
                "efficientnet_b0": (0.6, 0.1)}
    got = {}
    for name, (rho, atol) in expected.items():
        value = effectiveness(catalog.reference(name).spec)
        got[name] = value
        assert value == pytest.approx(rho, abs=atol), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("1 (rho column)",
            " ".join(f"{n}={v:.3f}" for n, v in got.items()) + f", {elapsed:.2f}s")


def test_criterion_2_catalog_budgets():
    t0 = time.perf_counter()
    expected = {
        "resnet18": (11_700_000, 1_800_000_000),
        "resnet34": (21_800_000, 3_600_000_000),
        "resnet50": (25_600_000, 4_100_000_000),
        "mobilenet_v2": (3_500_000, 320_000_000),
        "efficientnet_b0": (5_300_000, 390_000_000),
    }
    for name, (params, flops) in expected.items():
        spec = catalog.reference(name).spec
        layers = expand(spec)
        assert count_params(spec, layers=layers) == pytest.approx(params, rel=0.02), name
        assert count_flops(spec, layers=layers) == pytest.approx(flops, rel=0.03), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("2 (budget columns)", f"params within 2%, flops within 3%, {elapsed:.2f}s")


def test_criterion_3_solver_oracle_equivalence():
    t0 = time.perf_counter()
    instances = [(0, s) for s in range(70)] + [(1, s) for s in range(40)]
    assert len(instances) >= 100
    checked = infeasible = 0
    for family, seed in instances:
        prob = tiny_problem(seed, family=family)
        from entromax.solver import lattice_size
        assert lattice_size(prob) <= 10_000
        opts = SolveOptions(seed=seed)
        try:
            cand, ev = brute_force(prob)
        except InfeasibleProblem:
            assert not solve(prob, opts).feasible
            infeasible += 1
            continue
        rep = solve(prob, opts)
        assert rep.best == cand, f"family {family} seed {seed}"
        assert rep.objective == ev.objective, f"family {family} seed {seed}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("3 (oracle equivalence)",
            f"{checked} exact argmax matches, {infeasible} agreed-infeasible, "
            f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def desk_scale_runs(tmp_path_factory):
    """Two identical CLI solves of the shipped ResNet-18-scale problem."""
    runs = []
    for tag in ("a", "b"):
        out_dir = tmp_path_factory.mktemp(f"desk_{tag}")
        arch = out_dir / "arch.json"
        report = out_dir / "report.json"
        t0 = time.perf_counter()
        code = cli_main(["solve", "--problem", "resnet18_scale", "--seed", "0",
                         "--out", str(arch), "--report", str(report)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        runs.append({"arch": arch.read_bytes(), "report": report.read_bytes(),
                     "arch_path": str(arch), "elapsed": elapsed})
    return runs


def test_criterion_4_desk_scale_solve(desk_scale_runs):
    from importlib import resources

    from entromax.fileio import read_problem

    with resources.as_file(resources.files("entromax.data.problems")
                           .joinpath("resnet18_scale.json")) as p:
        prob = read_problem(p)
    doc = json.loads(desk_scale_runs[0]["report"])
    assert doc["feasible"] is True
    cand = Candidate(tuple(doc["best"]["widths"]), tuple(doc["best"]["depths"]))
    ev = evaluate(cand, prob)  # independent recheck, not solver internals
    assert ev.feasible
    assert all(v >= 0 for v in ev.slacks.values())
    budget_slacks = {"params": ev.slacks["params"] / prob.max_params,
                     "flops": ev.slacks["flops"] / prob.max_flops}
    assert min(budget_slacks.values()) <= 0.02
    baseline = evaluate(Candidate((64, 128, 256, 512), (2, 2, 2, 2)), prob)
    assert ev.objective > baseline.objective
    assert ev.q <= math.exp(4.0)
    # the solved net sits in the deeper-thinner regime: higher rho and
    # higher entropy than the like-budget reference
    base_spec = catalog.reference("resnet18").spec
    assert ev.rho - effectiveness(base_spec) > 0
    elapsed = desk_scale_runs[0]["elapsed"]
    assert elapsed < 600.0
    _report("4 (desk-scale solve)",
            f"objective {ev.objective:.0f} > baseline {baseline.objective:.0f}, "
            f"min budget slack {min(budget_slacks.values()):.2%}, "
            f"Q {ev.q:.2f} <= e^4, {elapsed:.0f}s single-core")


def test_criterion_5_variance_law():
    t0 = time.perf_counter()
    for widths in ((16, 32), (8, 8, 8)):
        cfg = SimulationConfig(widths=widths, n_samples=100_000, seed=2024)
        var, mean = check_variance_law(cfg)
        assert var.passed, f"{widths}: {var}"
        assert abs(var.empirical - var.theoretical) <= 5 * var.stderr
        assert mean.passed, f"{widths}: {mean}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("5 (variance law)", f"both width sets inside the 5-SE band, {elapsed:.1f}s")


def test_criterion_6_average_width_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        widths = np.exp(rng.uniform(0.0, math.log(4096.0), size=n)).tolist()
        lhs = n * math.log(average_width(widths))
        rhs = math.fsum(math.log(w) for w in widths)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("6 (geometric-mean identity)", f"1000 random width lists, {elapsed:.2f}s")


def test_criterion_7_metric_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    # Q permutation invariance and Q = 1 iff uniform
    for _ in range(200):
        depths = rng.integers(1, 20, size=int(rng.integers(1, 8))).tolist()
        q = depth_uniformity_penalty(depths)
        perm = rng.permutation(depths).tolist()
        assert depth_uniformity_penalty(perm) == pytest.approx(q, rel=1e-12)
        assert (q == 1.0) == (len(set(depths)) == 1)

    # scale law on projected widths: widths x s  =>  rho x 1/s
    for _ in range(200):
        n = int(rng.integers(1, 40))
        widths = np.exp(rng.uniform(0.0, 8.0, size=n)).tolist()
        s = float(np.exp(rng.uniform(-3.0, 3.0)))
        rho = n / average_width(widths)
        rho_scaled = n / average_width([w * s for w in widths])
        assert rho_scaled == pytest.approx(rho / s, rel=1e-12)

    # flops x4 under r x2 for the spatial layers (no underflow at 448)
    for name in ("resnet50", "mobilenet_v2"):
        spec = catalog.reference(name).spec
        doubled = dataclasses.replace(spec, input_resolution=448)
        spatial = lambda net: [l for l in expand(net)
                               if l.role not in ("se", "classifier")]
        assert flops_of_layers(spatial(doubled)) == 4 * flops_of_layers(spatial(spec))

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("7 (metric invariants)", f"Q, scale law, spatial flops x4, {elapsed:.1f}s")


def test_criterion_8_solve_determinism(desk_scale_runs):
    a, b = desk_scale_runs
    assert a["arch"] == b["arch"]
    assert a["report"] == b["report"]
    _report("8 (determinism)",
            f"architecture and report files byte-identical across runs, "
            f"{len(a['arch'])}+{len(a['report'])} bytes")


def test_compare_solved_net_against_reference(desk_scale_runs, capsys):
    # supporting check for the compare surface: the solved net moves rho
    # and entropy upward relative to the like-budget reference
    code = cli_main(["compare", "resnet18", desk_scale_runs[0]["arch_path"],
                     "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"]["rho"] > 0
    assert doc["delta"]["weighted_entropy"] > 0
