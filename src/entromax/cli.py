"""Command-line interface.

Machine-readable documents go to stdout, logs and human summaries to
stderr, so the data stream always carries exactly one well-formed JSON
document.  Exit codes: 0 success, 1 domain failure (infeasible problem,
validation or parse error, failed verification), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from . import __version__, catalog
from .conventions import PINNED, Conventions
from .fileio import (
    ParseError,
    dumps,
    metrics_to_dict,
    network_from_dict,
    network_to_dict,
    load_json,
    problem_from_dict,
    solve_report_to_dict,
)
from .metrics import metric_report
from .model import NetworkSpec, ValidationError, validate

_PROBLEM_DIR = "entromax.data.problems"


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _fail(msg: str, code: int = 1) -> "NoReturn":  # noqa: F821
    _log(f"error: {msg}")
    raise SystemExit(code)


def _read_document(path_or_name: str, kind: str) -> dict:
    """Resolve a path, catalog name, or shipped problem name to a document."""
    from importlib import resources

    path = Path(path_or_name)
    if not path.exists():
        pkg = "entromax.data.architectures" if kind == "architecture" else _PROBLEM_DIR
        candidate = resources.files(pkg).joinpath(f"{path_or_name}.json")
        if candidate.is_file():
            with resources.as_file(candidate) as p:
                return load_json(p)
        _fail(f"{path_or_name}: no such file or known {kind} name", 2)
    if not path.is_file():
        _fail(f"{path}: not a regular file", 2)
    if path.stat().st_size == 0:
        _fail(f"{path}: empty input file", 2)
    return load_json(path)


def _load_network(path_or_name: str, allow_unknown: bool) -> NetworkSpec:
    """The parsed network, validated: its metric reports need not check it again."""
    net = network_from_dict(_read_document(path_or_name, "architecture"),
                            allow_unknown=allow_unknown)
    violations = validate(net)
    if violations:
        _fail("invalid architecture:\n  " + "\n  ".join(str(v) for v in violations))
    return net


def _conventions(args) -> Conventions:
    overrides = {}
    if args.no_bn_params:
        overrides["params_include_bn"] = False
    if args.bn_flops_cost is not None:
        overrides["flops_bn_cost"] = args.bn_flops_cost
    return dataclasses.replace(PINNED, **overrides) if overrides else PINNED


def _alphas(args, stages: int) -> list[float] | None:
    """--alphas as a list, or None for `metric_report`'s default."""
    if args.alphas is None:
        return None
    try:
        alphas = [float(a) for a in args.alphas.split(",")]
    except ValueError:
        _fail(f"cannot parse --alphas {args.alphas!r}", 2)
    if not all(map(math.isfinite, alphas)):
        _fail(f"--alphas must be finite, got {args.alphas!r}", 2)
    if len(alphas) != stages:
        _fail(f"--alphas has {len(alphas)} entries but the network has {stages} stages")
    return alphas


def _add_convention_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-bn-params", action="store_true",
                   help="exclude batch-norm affine pairs from the parameter count")
    p.add_argument("--bn-flops-cost", type=int, choices=(0, 1, 2), default=None,
                   help="ops charged per batch-norm output element")


def cmd_analyze(args) -> int:
    net = _load_network(args.architecture, args.allow_unknown)
    conv = _conventions(args)
    alphas = _alphas(args, len(net.stages))
    report = metric_report(net, alphas, conv, check=False)
    doc = dumps(metrics_to_dict(report, conv))
    if args.out:
        Path(args.out).write_text(doc)
        _log(f"wrote {args.out}")
    else:
        sys.stdout.write(doc)
    return 0


def cmd_solve(args) -> int:
    # the solver loads here, so the other commands start without it; a solve
    # loads no numpy, and with more than one thread it forks its workers
    from .solver import SolveOptions, realize, solve

    prob = problem_from_dict(_read_document(args.problem, "problem"),
                             allow_unknown=args.allow_unknown)
    conv = _conventions(args)
    # an option left out keeps its default, which only SolveOptions states
    given = {name: getattr(args, name) for name in ("restarts", "max_evals")
             if getattr(args, name) is not None}
    threads = args.threads
    if threads is None:
        env = os.environ.get("ENTROMAX_THREADS", "1")
        try:
            threads = int(env)
        except ValueError:
            _fail(f"ENTROMAX_THREADS must be an integer, got {env!r}")
    opts = SolveOptions(seed=args.seed, threads=threads, trace=args.trace,
                        **given)
    report = solve(prob, opts, conv)
    _log(f"solved in {report.wall_time:.1f}s, {report.evaluations} evaluations"
         + (" (budget exhausted)" if report.budget_exhausted else ""))
    doc = solve_report_to_dict(report, conv)
    if report.feasible and report.best is not None:
        net = realize(report.best, prob)
        doc["metrics"] = metrics_to_dict(
            metric_report(net, prob.alphas, conv), conv)
        if args.out:
            Path(args.out).write_text(dumps(network_to_dict(net)))
            _log(f"wrote architecture {args.out}")
    if args.report:
        Path(args.report).write_text(dumps(doc))
        _log(f"wrote report {args.report}")
    else:
        sys.stdout.write(dumps(doc))
    if not report.feasible:
        _log(f"infeasible: tightest violated constraint is {report.infeasibility}"
             if report.infeasibility else f"no feasible point found within "
             f"{report.evaluations} evaluations"
             + (" (budget exhausted)" if report.budget_exhausted else ""))
        return 1
    return 0


def cmd_compare(args) -> int:
    net_a = _load_network(args.arch_a, args.allow_unknown)
    net_b = _load_network(args.arch_b, args.allow_unknown)
    conv = _conventions(args)
    a, b = (metric_report(net, _alphas(args, len(net.stages)), conv, check=False)
            for net in (net_a, net_b))
    fields = [
        ("weighted_entropy", a.weighted_entropy, b.weighted_entropy),
        ("rho", a.rho, b.rho),
        ("q", a.q, b.q),
        ("params", a.params, b.params),
        ("flops", a.flops, b.flops),
    ]
    if args.json:
        doc = {
            "format": "entromax-compare",
            "version": 1,
            "a": metrics_to_dict(a, conv),
            "b": metrics_to_dict(b, conv),
            "delta": {name: vb - va for name, va, vb in fields},
        }
        sys.stdout.write(dumps(doc))
    else:
        print(f"{'metric':18s} {'a':>16s} {'b':>16s} {'delta (b-a)':>16s}")
        for name, va, vb in fields:
            if isinstance(va, int):
                print(f"{name:18s} {va:>16,} {vb:>16,} {vb - va:>+16,}")
            else:
                print(f"{name:18s} {va:>16.4f} {vb:>16.4f} {vb - va:>+16.4f}")
    return 0


def cmd_verify_variance(args) -> int:
    from .variance import SimulationConfig, check_variance_law

    try:
        widths = tuple(int(w) for w in args.widths.split(","))
    except ValueError:
        _fail(f"cannot parse --widths {args.widths!r}", 2)
    cfg = SimulationConfig(widths=widths, n_samples=args.samples,
                           seed=args.seed, out_width=args.out_width,
                           quenched=args.quenched, threads=args.threads)
    var_report, mean_report = check_variance_law(cfg)
    ok = var_report.passed and mean_report.passed
    if args.json:
        doc = {
            "format": "entromax-variance",
            "version": 1,
            "widths": list(widths),
            "n_samples": cfg.n_samples,
            "seed": cfg.seed,
            "quenched": cfg.quenched,
            "theoretical": var_report.theoretical,
            "log_theoretical": var_report.log_theoretical,
            "empirical": var_report.empirical,
            "ratio": var_report.ratio,
            "stderr": var_report.stderr,
            "mean": mean_report.mean,
            "mean_bound": mean_report.bound,
            "passed": ok,
        }
        sys.stdout.write(dumps(doc))
    else:
        print(str(var_report))
        print(str(mean_report))
    if cfg.quenched:
        _log("note: quenched mode (fixed weights) is report-only; the product "
             "law holds in expectation over weight draws")
        return 0
    return 0 if ok else 1


def cmd_catalog(args) -> int:
    if args.name is None:
        print(f"{'name':18s} {'params':>12s} {'flops':>14s} {'rho':>6s}")
        for name in catalog.names():
            e = catalog.reference(name).expected
            print(f"{name:18s} {e.params:>12,} {e.flops:>14,} {e.rho:>6.2f}")
        return 0
    try:
        entry = catalog.reference(args.name)
    except KeyError as exc:
        _fail(exc.args[0], 2)
    if args.analyze:
        conv = _conventions(args)
        report = metric_report(entry.spec, None, conv, check=False)  # validated on load
        sys.stdout.write(dumps(metrics_to_dict(report, conv)))
    else:
        sys.stdout.write(dumps(network_to_dict(entry.spec)))
    return 0


def cmd_calibrate(args) -> int:
    report = catalog.calibrate()
    text = report.to_markdown()
    if args.write:
        Path(args.write).write_text(text)
        _log(f"wrote {args.write}")
    else:
        print(text)
    if not report.pinned_passes:
        _log("calibration FAILED: the pinned convention does not reproduce "
             "the reference table")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entromax",
        description="maximum-entropy CNN architecture design toolkit")
    parser.add_argument(
        "--version", action="version",
        version=f"entromax {__version__} (conventions {PINNED.fingerprint()})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute metrics for an architecture file")
    p.add_argument("architecture", help="architecture file or catalog name")
    p.add_argument("--alphas", default=None,
                   help="per-stage entropy weights, comma separated")
    p.add_argument("--allow-unknown", action="store_true",
                   help="accept documents with unknown fields")
    p.add_argument("--out", default=None, help="write the report to a file")
    _add_convention_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="solve a width/depth design problem")
    p.add_argument("--problem", required=True,
                   help="problem file or shipped problem name")
    p.add_argument("--seed", type=int, default=0,
                   help="unused, must be non-negative: restarts start at fixed points")
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="processes that run restarts, this one included "
                        "(default: env ENTROMAX_THREADS, else 1)")
    p.add_argument("--max-evals", type=int, default=None)
    p.add_argument("--trace", action="store_true",
                   help="include per-restart details in the report")
    p.add_argument("--out", default=None, help="write the solved architecture here")
    p.add_argument("--report", default=None, help="write the solve report here")
    p.add_argument("--allow-unknown", action="store_true")
    _add_convention_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="side-by-side metrics for two architectures")
    p.add_argument("arch_a")
    p.add_argument("arch_b")
    p.add_argument("--alphas", default=None,
                   help="per-stage entropy weights for both networks, comma separated")
    p.add_argument("--json", action="store_true")
    p.add_argument("--allow-unknown", action="store_true")
    _add_convention_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify-variance",
                       help="Monte-Carlo check of the variance product law")
    p.add_argument("--widths", required=True, help="layer widths, comma separated")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-width", type=int, default=1)
    p.add_argument("--quenched", action="store_true",
                   help="fixed weight draw across samples (report-only)")
    p.add_argument("--threads", type=int,
                   default=(len(os.sched_getaffinity(0))
                            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1),
                   help="sampling threads (default: every available core); "
                        "the output is the same for any count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_variance)

    p = sub.add_parser("catalog", help="list or show reference architectures")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--analyze", action="store_true",
                   help="print the metric report instead of the spec")
    _add_convention_flags(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("calibrate",
                       help="sweep convention flags against the catalog")
    p.add_argument("--write", default=None, help="write the markdown report here")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
