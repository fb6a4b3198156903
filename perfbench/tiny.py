"""Seeded tiny instances and the oracle operation run on each.

The generator follows the acceptance suite's recipe: family 0 has 2-3
plain stages with small axes, family 1 has 2 plain or residual stages with
lattices up to about 1e4, all at 32 px; budgets are drawn between the costs
of the cheapest and the most expensive corner so they bind on a fair share
of instances.

Calls into entromax go through module attributes at call time, so the
traced pass sees them through its wrappers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time


def tiny_problem(seed: int, family: int = 0):
    import numpy as np

    from entromax import solver
    from entromax.blocks import BlockKind
    from entromax.model import StemSpec

    rng = np.random.default_rng([family, seed])
    g = 8
    if family == 0:
        m = int(rng.integers(2, 4))
        width_bounds = []
        for _ in range(m):
            lo = int(rng.integers(1, 3)) * g
            width_bounds.append((lo, lo + (int(rng.integers(2, 5)) - 1) * g))
        depth_bounds = [(1, int(rng.integers(2, 4))) for _ in range(m)]
        sched = tuple(bool(rng.integers(0, 2)) if i else False for i in range(m))
        block = BlockKind.plain()
    else:
        m = 2
        width_bounds = []
        for _ in range(m):
            lo = int(rng.integers(1, 3)) * g
            width_bounds.append((lo, lo + (int(rng.integers(6, 11)) - 1) * g))
        depth_bounds = [(1, int(rng.integers(4, 9))) for _ in range(m)]
        sched = (False, True)
        block = BlockKind.resnet_basic() if rng.uniform() < 0.4 else BlockKind.plain()

    prob = solver.ProblemSpec(
        block=block,
        stages=m,
        alphas=tuple(float(rng.uniform(0.5, 4)) for _ in range(m)),
        rho0=1.0,
        max_flops=10 ** 14,
        max_params=10 ** 12,
        input_resolution=32,
        downsample_schedule=sched,
        width_bounds=tuple(width_bounds),
        depth_bounds=tuple(depth_bounds),
        beta=float(rng.choice([0.0, 10.0])),
        width_granularity=g,
        num_classes=10,
        stem=StemSpec(channels=8, kernel=3, stride=2, pool=False),
    )

    lo_w = [b[0] for b in prob.width_bounds]
    for i in range(1, m):
        lo_w[i] = max(lo_w[i], lo_w[i - 1])
    lo_c = solver.Candidate(tuple(lo_w), tuple(b[0] for b in prob.depth_bounds))
    hi_c = solver.Candidate(
        tuple(min(b[1] for b in prob.width_bounds[i:]) for i in range(m)),
        tuple(b[1] for b in prob.depth_bounds))
    e_lo, e_hi = solver.evaluate(lo_c, prob), solver.evaluate(hi_c, prob)
    u1, u2, u3 = rng.uniform(), rng.uniform(), rng.uniform()
    max_params = (int(e_lo.params + u1 * (e_hi.params - e_lo.params))
                  if u1 > 0.25 else 10 ** 12)
    max_flops = (int(e_lo.flops + u2 * (e_hi.flops - e_lo.flops))
                 if u2 > 0.25 else 10 ** 14)
    rho_floor = max(e_lo.rho, solver.evaluate(
        solver.Candidate(hi_c.widths, lo_c.depths), prob).rho)
    return dataclasses.replace(
        prob, max_params=max_params, max_flops=max_flops,
        rho0=float(rho_floor * (1.0 + 3 * u3)))


def report_digest(report) -> str:
    """Digest of the canonical solve report, for the rerun check."""
    from entromax import fileio

    return hashlib.sha256(
        fileio.dumps(fileio.solve_report_to_dict(report)).encode()).hexdigest()


def oracle(prob, seed: int) -> dict:
    """One operation: `brute_force`, then `solve`, then compare them.

    The record holds the operation's seconds, the errors found, and the
    objective with its exact reference (None when the lattice is infeasible).
    """
    from entromax import solver

    t0 = time.perf_counter()
    try:
        best, best_ev = solver.brute_force(prob)
    except solver.InfeasibleProblem:
        best = best_ev = None
    report = solver.solve(prob, solver.SolveOptions(seed=seed))
    seconds = time.perf_counter() - t0

    errors = []
    if best is None:
        if report.feasible:
            errors.append("solve reports a design where brute_force proves none")
    elif not report.feasible:
        errors.append("solve reports infeasible where brute_force finds a design")
    elif report.best != best or report.objective != best_ev.objective:
        errors.append(f"solve returned {report.best} ({report.objective!r}), "
                      f"brute_force {best} ({best_ev.objective!r})")
    return {
        "seconds": seconds,
        "errors": errors,
        "objective": report.objective if report.feasible else None,
        "reference": None if best_ev is None else best_ev.objective,
        "digest": report_digest(report),
    }
