"""Child processes of the benchmark.

    child.py cli <timing.json> <entromax argv...>       one CLI command
    child.py tiny <timing.json> <records.json> <family:seed:solve_seed>...
                                                        one chunk of oracle instances
    child.py traced <spec.json> <result.json>           one traced pass, in-process

Set-up ends where the operation's work begins.  For a CLI command that is
entry to the subcommand handler, plus the time the handler spends parsing
its documents; for an oracle chunk, the moment its instances are generated.
Times come from CLOCK_MONOTONIC, which the parent reads too.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import sys
import time

# the CLI's document readers, whose time counts as set-up
PARSERS = ("_read_document", "problem_from_dict", "network_from_dict")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def run_cli(timing_path: str, argv: list[str]) -> int:
    from entromax import cli

    marks = {"entered": None, "parse_s": 0.0}

    def parse_timer(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t = now()
            try:
                return fn(*args, **kwargs)
            finally:
                marks["parse_s"] += now() - t
        return timed

    def entry_marker(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            marks["entered"] = now()
            return fn(*args, **kwargs)
        return marked

    for name in PARSERS:
        if hasattr(cli, name):
            setattr(cli, name, parse_timer(getattr(cli, name)))
    for name in list(vars(cli)):
        if name.startswith("cmd_"):
            setattr(cli, name, entry_marker(getattr(cli, name)))
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = _exit_code(exc)
    with open(timing_path, "w") as f:
        json.dump(marks, f)
    return rc


def run_tiny(timing_path: str, records_path: str, instances: list[str]) -> int:
    import tiny

    triples = [[int(x) for x in item.split(":")] for item in instances]
    probs = [(tiny.tiny_problem(seed, family), solve_seed)
             for family, seed, solve_seed in triples]
    ready = now()
    records = [tiny.oracle(prob, seed) for prob, seed in probs]
    with open(records_path, "w") as f:
        json.dump(records, f)
    with open(timing_path, "w") as f:
        json.dump({"ready": ready}, f)
    return 0


def _run_pass(ops: list[dict], problems: dict) -> tuple[float, list[dict]]:
    """All operations of a pass in this process; returns (wall, results)."""
    from entromax import cli

    import tiny

    results = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        os.makedirs(op["dir"], exist_ok=True)
        if op["kind"] == "cli":
            with open(os.path.join(op["dir"], "stdout.txt"), "w") as out, \
                    contextlib.redirect_stdout(out):
                try:
                    rc = cli.main(op["argv"])
                except SystemExit as exc:
                    rc = _exit_code(exc)
            results.append({"rc": rc})
        else:
            results.append({"rc": 0, "records": [tiny.oracle(prob, seed)
                                                 for prob, seed in problems[i]]})
    return time.perf_counter() - t0, results


def run_traced(spec_path: str, result_path: str) -> int:
    t0 = time.perf_counter()
    import entromax.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0

    import spans
    import tiny

    with open(spec_path) as f:
        spec = json.load(f)

    def instances(ops):
        return {i: [(tiny.tiny_problem(seed, family), solve_seed)
                    for family, seed, solve_seed in op["instances"]]
                for i, op in enumerate(ops) if op["kind"] == "tiny"}

    untraced_ops, traced_ops = spec["untraced"], spec["traced"]
    untraced_wall, untraced_results = _run_pass(untraced_ops, instances(untraced_ops))

    problems = instances(traced_ops)
    tracer = spans.Tracer()
    tracer.install()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    traced_wall, traced_results = _run_pass(traced_ops, problems)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)

    layer = spans.layer_metrics(
        tracer, traced_wall=traced_wall, untraced_wall=untraced_wall,
        worker_cpu=worker_cpu, import_s=import_s,
        verify_commands=sum(op.get("argv", [""])[0] == "verify-variance"
                            for op in traced_ops))
    result = {
        "metrics": layer["metrics"],
        "absent": layer["absent"],
        "disagreements": spans.counter_agreement(tracer),
        "untraced_wall": untraced_wall,
        "traced_wall": traced_wall,
        "spans": len(tracer.kind),
        "results": {"untraced": untraced_results, "traced": traced_results},
    }
    tracer.save(spec["spans_path"])
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return run_cli(rest[0], rest[1:])
    if mode == "tiny":
        return run_tiny(rest[0], rest[1], rest[2:])
    if mode == "traced":
        return run_traced(rest[0], rest[1])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
