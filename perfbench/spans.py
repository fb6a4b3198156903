"""In-memory spans around calls into entromax, and the per-layer numbers.

A span is (name, start, end, parent span).  The tracer wraps module-level
functions at every site that imported them, keeps spans in flat arrays
while the pass runs, and derives the per-layer metrics afterwards.  Self
time is a span's duration minus the time its child spans cover.

A target that no longer exists is recorded as absent, so functions the
solver may drop (the relaxation, the ascent, the polish, `mean_check`)
leave a gap in the report rather than a crash.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, attribute); "cmd_*" wraps every CLI subcommand handler
TARGETS = (
    ("cli.command", "entromax.cli", "cmd_*"),
    ("fileio.load_json", "entromax.fileio", "load_json"),
    ("fileio.network_from_dict", "entromax.fileio", "network_from_dict"),
    ("fileio.problem_from_dict", "entromax.fileio", "problem_from_dict"),
    ("model.validate", "entromax.model", "validate"),
    ("model.expand", "entromax.model", "expand"),
    ("metrics.metric_report", "entromax.metrics", "metric_report"),
    ("metrics.weighted_entropy", "entromax.metrics", "weighted_entropy"),
    ("metrics.effectiveness", "entromax.metrics", "effectiveness"),
    ("solver.solve", "entromax.solver", "solve"),
    ("solver.evaluate", "entromax.solver", "evaluate"),
    ("solver.brute_force", "entromax.solver", "brute_force"),
    ("solver.ascent", "entromax.solver", "_continuous_ascent"),
    ("solver.relaxed", "entromax.solver", "_Relaxed.evaluate"),
    ("solver.repair", "entromax.solver", "round_and_repair"),
    ("solver.polish", "entromax.solver", "_polish"),
    ("solver.neighbors", "entromax.solver", "_neighbors"),
    ("variance.simulate_mlp_variance", "entromax.variance", "simulate_mlp_variance"),
    ("variance.mean_check", "entromax.variance", "mean_check"),
    ("variance.simulate", "entromax.variance", "_simulate"),
    ("variance.chunk", "entromax.variance", "_chunk_sums"),
    ("catalog.reference", "entromax.catalog", "reference"),
    ("catalog.calibrate", "entromax.catalog", "calibrate"),
)

# per-layer metric -> (unit, span names it is derived from)
LAYER_METRICS = {
    "fileio.parse_calls": ("count", ("fileio.load_json",)),
    "fileio.parse_s": ("s", ("fileio.load_json", "fileio.network_from_dict",
                             "fileio.problem_from_dict")),
    "model.expand_calls": ("count", ("model.expand",)),
    "model.expand_s": ("s", ("model.expand",)),
    "model.layers_emitted": ("count", ("model.expand",)),
    "model.validate_calls": ("count", ("model.validate",)),
    "model.validate_s": ("s", ("model.validate",)),
    "metrics.report_calls": ("count", ("metrics.metric_report",)),
    "metrics.report_s": ("s", ("metrics.metric_report",)),
    "metrics.entropy_s": ("s", ("metrics.weighted_entropy", "metrics.effectiveness")),
    "solver.evaluate_calls": ("count", ("solver.evaluate",)),
    "solver.evaluate_self_s": ("s", ("solver.evaluate",)),
    "solver.evaluate_us": ("us", ("solver.evaluate",)),
    "solver.evaluate_frac": ("ratio", ("solver.evaluate",)),
    "solver.distinct_ratio": ("ratio", ("solver.evaluate",)),
    "solver.feasible_ratio": ("ratio", ("solver.evaluate",)),
    "solver.ascent_s": ("s", ("solver.ascent",)),
    "solver.relaxed_calls": ("count", ("solver.relaxed",)),
    "solver.repair_s": ("s", ("solver.repair",)),
    "solver.repair_evals": ("count", ("solver.repair", "solver.evaluate")),
    "solver.polish_s": ("s", ("solver.polish",)),
    "solver.polish_scans": ("count", ("solver.neighbors",)),
    "solver.polish_evals": ("count", ("solver.polish", "solver.evaluate")),
    "solver.brute_force_s": ("s", ("solver.brute_force",)),
    "solver.worker_cpu_s": ("s", ("solver.solve",)),
    "variance.simulate_calls": ("count", ("variance.simulate",)),
    "variance.chunk_calls": ("count", ("variance.chunk",)),
    "variance.samples_per_s": ("1/s", ("variance.simulate",)),
    "catalog.reference_calls": ("count", ("catalog.reference",)),
    "catalog.calibrate_s": ("s", ("catalog.calibrate",)),
    "cli.import_s": ("s", ()),
    "cli.command_s": ("s", ("cli.command",)),
    "trace.overhead_frac": ("ratio", ()),
}


class Tracer:
    """Spans of one process, kept in flat arrays until the pass ends."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.solves: list[tuple[int, int, bool, int]] = []
        self.candidates: set = set()  # (problem id, widths, depths) evaluated
        self._keep_alive: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, on_return=None):
        nid = self.name_id(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if on_return is not None:
                on_return(sid, args, kwargs, result)
            return result

        return traced

    # hooks: counts that need the call's arguments or result

    def _on_expand(self, sid, args, kwargs, result):
        self.counters["layers"] += len(result)

    def _on_evaluate(self, sid, args, kwargs, result):
        cand = args[0] if args else kwargs["cand"]
        prob = args[1] if len(args) > 1 else kwargs["prob"]
        self._keep_alive[id(prob)] = prob  # keeps ids unique for the whole pass
        self.candidates.add((id(prob), cand.widths, cand.depths))
        self.counters["feasible"] += bool(result.feasible)

    def _on_simulate(self, sid, args, kwargs, result):
        cfg = args[0] if args else kwargs["cfg"]
        self.counters["samples"] += cfg.n_samples

    def _on_solve(self, sid, args, kwargs, result):
        opts = args[1] if len(args) > 1 else kwargs.get("opts")
        threads = 1 if opts is None else opts.threads
        self.solves.append((sid, result.evaluations, bool(result.feasible), threads))

    def install(self, targets=TARGETS) -> None:
        hooks = {"model.expand": self._on_expand, "solver.evaluate": self._on_evaluate,
                 "variance.simulate": self._on_simulate, "solver.solve": self._on_solve}
        modules = {}
        for _, module_name, _ in targets:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        # every module is loaded before wrapping, so no later import can
        # copy an unwrapped function
        installed = set()
        for name, module_name, attr in targets:
            module = modules.get(module_name)
            if module is None:
                self.absent.append(name)
                continue
            if attr.endswith("*"):
                attrs = [a for a in vars(module) if a.startswith(attr[:-1])
                         and callable(getattr(module, a))]
            else:
                attrs = [attr]
            for a in attrs:
                owner_path, _, leaf = a.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None) if owner is not None else None
                if fn is None:
                    continue
                wrapped = self.wrap(fn, name, hooks.get(name))
                if owner is module:
                    _replace_everywhere(fn, wrapped)
                else:
                    setattr(owner, leaf, wrapped)
                installed.add(name)
            if name not in installed:
                self.absent.append(name)

    def arrays(self) -> dict:
        return {
            "kind": np.array(self.kind, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _replace_everywhere(fn, wrapped) -> None:
    """Point every entromax module attribute bound to `fn` at `wrapped`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "entromax" or mod_name.startswith("entromax.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapped)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of it and their durations add up to the time they cover.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(parent))
    return duration - covered


def nearest_ancestor(parent: np.ndarray, is_target: np.ndarray) -> np.ndarray:
    """For each span, the id of its closest ancestor marked in `is_target`, or -1."""
    found = np.full(len(parent), -1, dtype=np.int64)
    cursor = parent.copy()
    while True:
        live = (cursor >= 0) & (found < 0)
        if not live.any():
            return found
        hit = live.copy()
        hit[live] = is_target[cursor[live]]
        found[hit] = cursor[hit]
        step = live & ~hit
        cursor[~step] = -1
        cursor[step] = parent[cursor[step]]


def layer_metrics(tracer: Tracer, *, traced_wall: float, untraced_wall: float,
                  worker_cpu: float, import_s: float, verify_commands: int) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    a = tracer.arrays()
    kind, parent = a["kind"], a["parent"]
    duration = a["end"] - a["start"]
    selfs = self_times(parent, duration)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name: str) -> np.ndarray:
        return kind == ids[name] if name in ids else np.zeros(len(kind), bool)

    def calls(name: str) -> int:
        return int(mask(name).sum())

    def inclusive(*names: str) -> float:
        """Time inside the named spans, not counting one nested in another."""
        m = np.zeros(len(kind), bool)
        for name in names:
            m |= mask(name)
        inner = m & (nearest_ancestor(parent, m) >= 0)
        return float(duration[m & ~inner].sum())

    def under(name: str, ancestor: str) -> np.ndarray:
        return mask(name) & (nearest_ancestor(parent, mask(ancestor)) >= 0)

    evaluate = mask("solver.evaluate")
    n_eval = int(evaluate.sum())
    sim = inclusive("variance.simulate")
    entropy = under("metrics.weighted_entropy", "solver.evaluate") | \
        under("metrics.effectiveness", "solver.evaluate")
    values = {
        "fileio.parse_calls": calls("fileio.load_json"),
        "fileio.parse_s": inclusive("fileio.load_json", "fileio.network_from_dict",
                                    "fileio.problem_from_dict"),
        "model.expand_calls": calls("model.expand"),
        "model.expand_s": float(selfs[mask("model.expand")].sum()),
        "model.layers_emitted": tracer.counters["layers"],
        "model.validate_calls": calls("model.validate"),
        "model.validate_s": inclusive("model.validate"),
        "metrics.report_calls": calls("metrics.metric_report"),
        "metrics.report_s": inclusive("metrics.metric_report"),
        "metrics.entropy_s": float(selfs[entropy].sum()),
        "solver.evaluate_calls": n_eval,
        "solver.evaluate_self_s": float(selfs[evaluate].sum()),
        "solver.evaluate_us": 1e6 * float(duration[evaluate].mean()) if n_eval else 0.0,
        "solver.evaluate_frac": inclusive("solver.evaluate") / traced_wall,
        "solver.distinct_ratio": len(tracer.candidates) / n_eval if n_eval else 0.0,
        "solver.feasible_ratio": tracer.counters["feasible"] / n_eval if n_eval else 0.0,
        "solver.ascent_s": inclusive("solver.ascent"),
        "solver.relaxed_calls": calls("solver.relaxed"),
        "solver.repair_s": inclusive("solver.repair"),
        "solver.repair_evals": int(under("solver.evaluate", "solver.repair").sum()),
        "solver.polish_s": inclusive("solver.polish"),
        "solver.polish_scans": calls("solver.neighbors"),
        "solver.polish_evals": int(under("solver.evaluate", "solver.polish").sum()),
        "solver.brute_force_s": inclusive("solver.brute_force"),
        "solver.worker_cpu_s": worker_cpu,
        "variance.simulate_calls": (calls("variance.simulate") / verify_commands
                                    if verify_commands else 0),
        "variance.chunk_calls": calls("variance.chunk"),
        "variance.samples_per_s": tracer.counters["samples"] / sim if sim else 0.0,
        "catalog.reference_calls": calls("catalog.reference"),
        "catalog.calibrate_s": inclusive("catalog.calibrate"),
        "cli.import_s": import_s,
        "cli.command_s": inclusive("cli.command"),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    absent = sorted(metric for metric, (_, sources) in LAYER_METRICS.items()
                    if any(s in tracer.absent for s in sources))
    metrics = {name: (values[name], unit) for name, (unit, _) in LAYER_METRICS.items()}
    return {"metrics": metrics, "absent": absent}


def counter_agreement(tracer: Tracer) -> list[str]:
    """Solves whose traced `evaluate` count differs from their own counter.

    Only single-process solves with a feasible verdict are compared: worker
    processes keep their spans, and an infeasible verdict costs one probe
    evaluation that `SolveReport.evaluations` does not count.
    """
    a = tracer.arrays()
    if "solver.evaluate" not in tracer.names or not tracer.solves:
        return []
    solve_mask = a["kind"] == tracer.name_id("solver.solve")
    owner = nearest_ancestor(a["parent"], solve_mask)
    per_solve = Counter(owner[a["kind"] == tracer.name_id("solver.evaluate")].tolist())
    problems = []
    for sid, evaluations, feasible, threads in tracer.solves:
        if threads == 1 and feasible and per_solve.get(sid, 0) != evaluations:
            problems.append(f"solve span {sid}: {per_solve.get(sid, 0)} traced "
                            f"evaluate calls, SolveReport.evaluations = {evaluations}")
    return problems
