"""The benchmark's workloads: the operation list of one pass, made from a seed.

One client runs the operations in a closed loop: each one starts after the
previous one returned.  An operation is a dict:

  {"kind": "cli", "argv": [...], "check": "solve" | "variance" | "analyze"
   | "exit0", "dir": <op directory>, ...}      one `entromax` command
  {"kind": "tiny", "instances": [[family, seed, solve_seed], ...], "dir": ...}
                                               a chunk of oracle instances,
                                               one operation per instance

Why these four workloads:

- solve-resnet: deep basic and bottleneck stages make every candidate's
  `expand` long, so `solver.evaluate` -> `model.expand` -> `metrics` does
  nearly all the work and the continuous ascent's share is small.
- solve-mobile-par: 7-stage SE inverted bottlenecks with cheap evaluations,
  so the ascent and the O(m^2) polish neighbourhoods weigh more; the only
  workload on the process-pool restart path (`--threads 2`).
- oracle-tiny: exhaustive enumeration evaluates each lattice point once, so
  a per-candidate cache gains nothing while per-call overhead dominates;
  every operation has an exact answer.  The instances are the acceptance
  suite's (generator seeds 0-69 of family 0, 0-39 of family 1) and the
  benchmark seed drives their solves: the median instance's lattice size
  swings by 22% (IQR over median, generator seeds 0-9) from one generated
  set to the next, which would swamp the per-operation median.
- analyzers: bypasses the solver; numpy chunk sampling, process start-up,
  parsing, `validate`/`expand` and `metric_report` do the work.

The solves run under an evaluation cap (`--max-evals`), an equal share per
restart.  At the default cap a solve's work swings by about 40% with the
seed, because restarts stop as soon as their polish converges; under the
cap nearly every restart spends its share, so a pass costs about the same
on every seed and fits the run length.  The objective reached under the
cap is the design-quality metric.
"""

from __future__ import annotations

import os

WORKLOADS = ("solve-resnet", "solve-mobile-par", "oracle-tiny", "analyzers")

SOLVES = {
    "solve-resnet": {"problems": ("resnet18_scale", "resnet50_scale"),
                     "threads": 1, "max_evals": 3000},
    "solve-mobile-par": {"problems": ("mobilenet_scale", "efficientnet_b0_scale"),
                         "threads": 2, "max_evals": 3600},
}

# Seconds one pass took when the benchmark was defined (2-core x86 VM,
# Python 3.11, numpy 2.4).  A run makes at most round(--seconds / this)
# passes, at least one, so that a faster commit does the same work and the
# tail percentile is taken over the same number of samples.
NOMINAL_PASS_S = {"solve-resnet": 5.4, "solve-mobile-par": 5.4,
                  "oracle-tiny": 24.0, "analyzers": 5.0}

CATALOG_NETS = ("resnet18", "resnet34", "resnet50", "mobilenet_v2", "efficientnet_b0")

# (family, instance count) of the oracle set: the acceptance suite's
TINY_SET = ((0, 70), (1, 40))
# processes per oracle pass; each one is a set-up sample
TINY_CHUNKS = 4


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k of a run: every pass draws fresh solver restarts.
    Non-negative, as numpy seeds must be."""
    return (seed % 2 ** 32) * 1000 + k


def tiny_instances(seed: int, k: int) -> list[list[int]]:
    """[family, generator seed, solver seed] of every oracle instance."""
    pairs = [(family, i) for family, count in TINY_SET for i in range(count)]
    base = pass_seed(seed, k) * 1000
    return [[family, i, base + j] for j, (family, i) in enumerate(pairs)]


def solve_argv(problem: str, threads: int, seed: int, max_evals: int,
               out: str, report: str) -> list[str]:
    return ["solve", "--problem", problem, "--threads", str(threads),
            "--seed", str(seed), "--max-evals", str(max_evals),
            "--out", out, "--report", report]


def ops(workload: str, seed: int, k: int, pass_dir: str) -> list[dict]:
    """Operation list of pass k; each operation writes under its own dir."""
    s = pass_seed(seed, k)
    out: list[dict] = []

    def op(**fields) -> None:
        out.append(dict(fields, dir=next_dir()))

    def next_dir() -> str:
        return os.path.join(pass_dir, f"op{len(out):03d}")

    if workload in SOLVES:
        spec = SOLVES[workload]
        for problem in spec["problems"]:
            d = next_dir()
            op(kind="cli", check="solve", problem=problem,
               argv=solve_argv(problem, spec["threads"], s, spec["max_evals"],
                               os.path.join(d, "design.json"),
                               os.path.join(d, "report.json")))
    elif workload == "oracle-tiny":
        instances = tiny_instances(seed, k)
        size = -(-len(instances) // TINY_CHUNKS)
        for i in range(0, len(instances), size):
            op(kind="tiny", instances=instances[i:i + size])
    elif workload == "analyzers":
        op(kind="cli", check="variance",
           argv=["verify-variance", "--widths", "16,32", "--samples", "100000",
                 "--seed", str(s), "--json"])
        op(kind="cli", check="exit0", argv=["calibrate"])
        for net in CATALOG_NETS:
            op(kind="cli", check="analyze", argv=["analyze", net])
        op(kind="cli", check="exit0", argv=["compare", "resnet18", "resnet34"])
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return out
