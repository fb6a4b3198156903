"""Pin the reference objectives that `objective_ratio` is measured against.

For every shipped problem the solve workloads use, the reference is the best
objective over a few seeds of a long solve: 4x the default restarts and 4x
the default evaluation cap.  Next to it the file records the objective at
default options and at the benchmark's cap (seed 0), and every command that
produced a number.

    python3 perfbench/make_references.py      # from the repository root

It takes several minutes on two cores and rewrites perfbench/references.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from workloads import SOLVES

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "references.json"
DEFAULT_RESTARTS = 12
DEFAULT_MAX_EVALS = 200_000
REFERENCE_SEEDS = (0, 1, 2)


def jobs() -> list[tuple[str, str, list[str]]]:
    out = []
    for spec in SOLVES.values():
        for problem in spec["problems"]:
            for seed in REFERENCE_SEEDS:
                out.append((problem, "reference", [
                    "solve", "--problem", problem, "--threads", "1",
                    "--seed", str(seed), "--restarts", str(4 * DEFAULT_RESTARTS),
                    "--max-evals", str(4 * DEFAULT_MAX_EVALS)]))
            out.append((problem, "default", [
                "solve", "--problem", problem, "--threads", "1", "--seed", "0"]))
            out.append((problem, "benchmark_cap", [
                "solve", "--problem", problem, "--threads", str(spec["threads"]),
                "--seed", "0", "--max-evals", str(spec["max_evals"])]))
    # longest first, so the two workers finish together
    return sorted(out, key=lambda j: (j[1] != "reference", j[0] != "resnet50_scale"))


def run(index: int, job, tmp: str) -> dict:
    problem, role, argv = job
    report = os.path.join(tmp, f"{index}.json")
    cmd = [sys.executable, "-m", "entromax.cli", *argv, "--report", report]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ENTROMAX_THREADS", None)
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    doc = json.loads(Path(report).read_text())
    return {"problem": problem, "role": role,
            "command": "PYTHONPATH=src python3 -m entromax.cli " + " ".join(argv),
            "objective": doc["objective"], "evaluations": doc["evaluations"]}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        results = list(pool.map(lambda ij: run(*ij, tmp), enumerate(jobs())))
    problems = {}
    for r in results:
        entry = problems.setdefault(r["problem"], {"reference_runs": []})
        if r["role"] == "reference":
            entry["reference_runs"].append(
                {k: r[k] for k in ("command", "objective", "evaluations")})
        else:
            entry[r["role"]] = {k: r[k] for k in ("command", "objective", "evaluations")}
    for entry in problems.values():
        entry["reference"] = max(run["objective"] for run in entry["reference_runs"])
    doc = {"generated_by": "python3 perfbench/make_references.py",
           "problems": problems}
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    for name, entry in problems.items():
        print(f"{name}: reference {entry['reference']:.6f}  default "
              f"{entry['default']['objective']:.6f}  benchmark cap "
              f"{entry['benchmark_cap']['objective']:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
