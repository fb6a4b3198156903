"""Correctness checks on operation outputs, and the statistics the run reports."""

from __future__ import annotations

import json
import os
import statistics

OBJECTIVE_RTOL = 1e-9


class Checker:
    """Checks the outputs one CLI operation left in its directory."""

    def __init__(self):
        self._problems: dict = {}

    def problem(self, name: str):
        if name not in self._problems:
            from importlib import resources

            from entromax import fileio

            ref = resources.files("entromax.data.problems").joinpath(f"{name}.json")
            with resources.as_file(ref) as path:
                self._problems[name] = fileio.read_problem(path)
        return self._problems[name]

    def cli(self, op: dict, rc: int) -> tuple[list[str], float | None]:
        """(errors, objective reached); the objective only for solves."""
        if rc != 0:
            return [f"{' '.join(op['argv'][:3])}: exit code {rc}"], None
        stdout = os.path.join(op["dir"], "stdout.txt")
        try:
            if op["check"] == "solve":
                return self.solve(op)
            if op["check"] == "variance":
                with open(stdout) as f:
                    doc = json.load(f)
                return ([] if doc.get("passed") is True
                        else ["verify-variance did not report passed"]), None
            if op["check"] == "analyze":
                with open(stdout) as f:
                    doc = json.load(f)
                missing = {"weighted_entropy", "rho", "params", "flops"} - set(doc)
                return ([f"analyze report lacks {sorted(missing)}"] if missing else []), None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{op['check']}: unreadable output: {exc}"], None
        return [], None

    def solve(self, op: dict) -> tuple[list[str], float | None]:
        """The design parses, validates, and matches the report within budgets."""
        from entromax import fileio, metrics, model

        prob = self.problem(op["problem"])
        with open(os.path.join(op["dir"], "report.json")) as f:
            report = json.load(f)
        if not report.get("feasible"):
            return [f"{op['problem']}: solve reported no feasible design"], None
        net = fileio.read_network(os.path.join(op["dir"], "design.json"))
        errors = [f"{op['problem']}: design invalid: {v}" for v in model.validate(net)]
        if errors:
            return errors, None
        if ([s.width for s in net.stages] != report["best"]["widths"]
                or [s.depth for s in net.stages] != report["best"]["depths"]):
            errors.append(f"{op['problem']}: design differs from the reported best")
        rep = metrics.metric_report(net, prob.alphas)
        objective = rep.weighted_entropy - prob.beta * rep.q
        reported = report["objective"]
        if abs(objective - reported) > OBJECTIVE_RTOL * abs(reported):
            errors.append(f"{op['problem']}: objective {objective!r} != reported {reported!r}")
        for name, value, budget in (("params", rep.params, prob.max_params),
                                    ("flops", rep.flops, prob.max_flops)):
            solver_value = budget - report["slacks"][name]
            if not value == solver_value == report["metrics"][name]:
                errors.append(f"{op['problem']}: {name} {value} != solver {solver_value} "
                              f"/ report {report['metrics'][name]}")
            if value > budget:
                errors.append(f"{op['problem']}: {name} {value} over budget {budget}")
        if rep.rho > prob.rho0:
            errors.append(f"{op['problem']}: rho {rep.rho} over cap {prob.rho0}")
        return errors, reported


def tail(values: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count).  With 2 * `beyond` samples or
    fewer that percentile would not lie above the median, so the maximum is
    returned as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * beyond:
        return ordered[-1], 100.0, n
    i = n - beyond - 1
    return ordered[i], 100.0 * (i + 1) / n, n


def objective_gap(pairs: list[tuple[float, float]]) -> float | None:
    """Mean of (reference - objective) / |reference|; None without solves."""
    gaps = [(ref - obj) / abs(ref) for obj, ref in pairs]
    return statistics.fmean(gaps) if gaps else None


def tally(ops: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over operation records carrying an `errors` list."""
    return len(ops), sum(1 for op in ops if op["errors"])
