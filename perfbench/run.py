"""entromax benchmark: time-to-design, design quality and per-layer cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One client runs each workload's operation list (see workloads.py)
in a closed loop, every operation in a fresh process as a user would run
the `entromax` command.  With `--trace 0` the run makes as many passes as
fit in `--seconds` at the speed measured when the benchmark was defined
(workloads.NOMINAL_PASS_S), so faster code does the same work rather than
more, and fewer when the host is slow; each pass draws fresh seeds derived
from `--seed`.  The run then reports the end-to-end metrics:

  wall_s           median seconds of one pass of the operation list
  op_p50_s         median seconds of one operation: the median over passes
                   of each pass's median, which stays put when a pass mixes
                   two kinds of operation of different cost
  op_tail_s        highest percentile of operation seconds with at least
                   ten samples beyond it (the maximum with twenty or fewer,
                   where that percentile would not lie above the median)
  cpu_s            median user+sys CPU seconds of a pass, child processes
                   and solver workers included
  setup_s          median seconds from process spawn until the work
                   begins: interpreter start, imports, document parsing
  peak_rss_mb      highest resident memory of any process in the run
  objective_ratio  1 - objective_gap, where objective_gap is the mean of
                   (reference - objective) / |reference| over the run's
                   solves; 1 on workloads without solves

With `--trace 1` one child process runs pass 0 in-process twice, plain and
then with spans around the calls into every layer, and the run reports the
per-layer metrics (spans.py).  Failed operations are counted in the result's
`failed`; on single-process solves the traced `evaluate` count must equal
the solver's own counter, or the run exits 1.

Every result is preceded by a `detail` line: the environment (python,
numpy, nproc, git SHA, src/ line count, convention fingerprint, seed),
objective_gap and failed_frac, objectives against their references, and
the first failures.  Machine settings are left alone: no CPU pinning,
frequency governor or cache dropping.  Working files go under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import tiny
import workloads
from child import now

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CHILD = str(HERE / "child.py")
# a run still going after this long has hung: stop it and fail
DEADLINE_S = 170


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout(f"run exceeded {DEADLINE_S} s")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("ENTROMAX_THREADS", None)
    return env


def spawn(args: list[str], out_dir: str) -> dict:
    """Run one child to completion; wall, CPU and peak RSS from its rusage."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        t0 = now()
        proc = subprocess.Popen([sys.executable, CHILD, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        t1 = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t0": t0, "seconds": t1 - t0, "rc": proc.returncode,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024}


def _read_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def run_op(op: dict) -> dict:
    """One operation in fresh processes; returns the process record with
    the operation records (one per CLI command or oracle instance)."""
    timing = os.path.join(op["dir"], "timing.json")
    if op["kind"] == "cli":
        proc = spawn(["cli", timing, *op["argv"]], op["dir"])
        marks = _read_json(timing) or {}
        if marks.get("entered") is not None:
            proc["setup"] = marks["entered"] - proc["t0"] + marks["parse_s"]
        proc["ops"] = [{"seconds": proc["seconds"], "rc": proc["rc"]}]
        return proc
    records_path = os.path.join(op["dir"], "records.json")
    proc = spawn(["tiny", timing, records_path,
                  *(":".join(map(str, inst)) for inst in op["instances"])], op["dir"])
    marks = _read_json(timing) or {}
    if "ready" in marks:
        proc["setup"] = marks["ready"] - proc["t0"]
    records = _read_json(records_path)
    if proc["rc"] != 0 or records is None:
        records = [{"seconds": proc["seconds"], "rc": proc["rc"],
                    "errors": [f"oracle chunk exit code {proc['rc']}"]}
                   for _ in op["instances"]]
    proc["ops"] = records
    return proc


def check(op: dict, records: list[dict], checker, references: dict,
          solves: list) -> list[dict]:
    """Attach `errors` to every operation record; collect (objective, reference)."""
    for record in records:
        if op["kind"] == "cli":
            errors, objective = checker.cli(op, record["rc"])
            record["errors"] = errors
            if objective is not None:
                solves.append((op["problem"], objective,
                               references["problems"][op["problem"]]["reference"]))
        else:
            record.setdefault("errors", [])
            if record.get("objective") is not None:
                solves.append(("tiny", record["objective"], record["reference"]))
    return records


def rerun_identical(workload: str, seed: int, work: str, first_pass_ops: list[dict],
                    first_records: list[dict]) -> list[str] | None:
    """A second solve with the same seed must give byte-identical output.

    Returns the errors found, or None for a workload without solves."""
    if workload in workloads.SOLVES:
        again = workloads.ops(workload, seed, 0, os.path.join(work, "rerun"))[0]
        proc = spawn(["cli", os.path.join(again["dir"], "timing.json"), *again["argv"]],
                     again["dir"])
        if proc["rc"] != 0:
            return [f"rerun exit code {proc['rc']}"]
        errors = []
        for name in ("design.json", "report.json"):
            a = Path(first_pass_ops[0]["dir"], name).read_bytes()
            b = Path(again["dir"], name).read_bytes()
            if a != b:
                errors.append(f"rerun of {again['problem']} gave a different {name}")
        return errors
    if workload == "oracle-tiny":
        from entromax import solver

        family, inst, solve_seed = first_pass_ops[0]["instances"][0]
        report = solver.solve(tiny.tiny_problem(inst, family),
                              solver.SolveOptions(seed=solve_seed))
        if tiny.report_digest(report) != first_records[0].get("digest"):
            return [f"rerun of tiny instance {family}:{inst} gave a different report"]
        return []
    return None


def environment(seed: int) -> dict:
    import numpy

    from entromax.conventions import PINNED

    sha = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10)
            sha = out.stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_lines": src_lines,
        "conventions": PINNED.fingerprint(),
        "seed": seed,
        "machine_settings": "untouched: no CPU pinning, frequency governor or cache dropping",
    }


def timed_run(workload: str, seed: int, seconds: float, work: str, references: dict):
    checker = checks.Checker()
    passes, records, setups, rss, solves = [], [], [], [], []
    first_ops = first_records = None
    start = now()
    for k in range(workloads.passes(workload, seconds)):
        ops = workloads.ops(workload, seed, k, os.path.join(work, f"pass{k:03d}"))
        t0 = now()
        procs = [run_op(op) for op in ops]
        passes.append({"wall": now() - t0, "cpu": sum(p["cpu"] for p in procs),
                       "op_p50": statistics.median(r["seconds"] for p in procs
                                                   for r in p["ops"])})
        for op, proc in zip(ops, procs):
            records.extend(check(op, proc["ops"], checker, references, solves))
            setups.extend([proc["setup"]] if "setup" in proc else [])
            rss.append(proc["rss_mb"])
        if k == 0:
            first_ops, first_records = ops, procs[0]["ops"]
        # a slow host gets fewer passes rather than a much longer run
        if now() - start + statistics.median(p["wall"] for p in passes) > 1.25 * seconds:
            break

    if not setups:
        raise RuntimeError("no operation got as far as its command handler")
    rerun_errors = rerun_identical(workload, seed, work, first_ops, first_records)
    if rerun_errors is not None:
        records.append({"seconds": None, "errors": rerun_errors})
    attempted, failed = checks.tally(records)
    op_seconds = [r["seconds"] for r in records if r["seconds"] is not None]
    tail, percentile, n = checks.tail(op_seconds)
    gap = checks.objective_gap([(obj, ref) for _, obj, ref in solves])
    metrics = {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "op_p50_s": (statistics.median(p["op_p50"] for p in passes), "s"),
        "op_tail_s": (tail, "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "objective_ratio": (1.0 - (gap or 0.0), "ratio"),
    }
    detail = {
        "passes": len(passes),
        "pass_walls_s": [p["wall"] for p in passes],
        "op_tail": {"percentile": percentile, "samples": n},
        "setup_samples": len(setups),
        "objective_gap": gap,
        "failed_frac": failed / attempted,
        "objectives": _objective_table(solves, references),
        "failures": [e for r in records for e in r["errors"]][:10],
    }
    return failed == 0, attempted, failed, metrics, detail


def _objective_table(solves: list, references: dict) -> dict:
    """Per shipped problem: objectives reached, the reference, and the
    objective at default options."""
    table = {}
    for problem, objective, reference in solves:
        if problem == "tiny":
            continue
        entry = table.setdefault(problem, {
            "reference": reference,
            "default_options": references["problems"][problem]["default"]["objective"],
            "reached": []})
        entry["reached"].append(objective)
    return table


def traced_run(workload: str, seed: int, work: str, references: dict):
    spec = {
        "untraced": workloads.ops(workload, seed, 0, os.path.join(work, "untraced")),
        "traced": workloads.ops(workload, seed, 0, os.path.join(work, "traced")),
        "spans_path": str(ROOT / ".perfbench" / f"spans-{workload}.npz"),
    }
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    os.makedirs(work, exist_ok=True)
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    proc = spawn(["traced", spec_path, result_path], os.path.join(work, "traced-child"))
    result = _read_json(result_path)
    if proc["rc"] != 0 or result is None:
        stderr = Path(work, "traced-child", "stderr.txt").read_text()[-2000:]
        raise RuntimeError(f"traced pass failed with exit code {proc['rc']}:\n{stderr}")
    if result["disagreements"]:
        raise RuntimeError("traced evaluate counts disagree with SolveReport.evaluations: "
                           + "; ".join(result["disagreements"]))

    checker = checks.Checker()
    records, solves = [], []
    for label in ("untraced", "traced"):
        for op, res in zip(spec[label], result["results"][label]):
            recs = res.get("records") or [{"rc": res["rc"]}]
            records.extend(check(op, recs, checker, references, solves))
    attempted, failed = checks.tally(records)
    metrics = {name: tuple(value) for name, value in result["metrics"].items()}
    detail = {
        "absent": result["absent"],
        "spans": result["spans"],
        "untraced_wall_s": result["untraced_wall"],
        "traced_wall_s": result["traced_wall"],
        "spans_file": spec["spans_path"],
        "failed_frac": failed / attempted,
        "failures": [e for r in records for e in r["errors"]][:10],
    }
    return failed == 0, attempted, failed, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")
    if not (ROOT / "src" / "entromax" / "__init__.py").is_file():
        print(f"error: no entromax sources under {ROOT / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with open(HERE / "references.json") as f:
        references = json.load(f)

    work = str(ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}")
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    try:
        if args.trace:
            ok, attempted, failed, metrics, detail = traced_run(
                args.workload, args.seed, work, references)
        else:
            ok, attempted, failed, metrics, detail = timed_run(
                args.workload, args.seed, args.seconds, work, references)
    except (Timeout, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    detail = {"workload": args.workload, "environment": environment(args.seed), **detail}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
