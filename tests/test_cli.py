import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entromax
from entromax.cli import build_parser, main
from entromax.fileio import dumps, network_to_dict, problem_to_dict
from entromax.catalog import names, reference
from entromax.conventions import PINNED
from entromax.model import validate

from conftest import tiny_problem
from entromax.solver import brute_force


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_prints_convention_fingerprint():
    out = subprocess.run([sys.executable, "-m", "entromax.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "entromax 0.1.0" in out.stdout
    assert "conventions" in out.stdout


def test_analyze_catalog_name_emits_single_json_document(capsys):
    code, out, err = run_cli(["analyze", "resnet50"], capsys)
    assert code == 0
    doc = json.loads(out)  # exactly one well-formed document on stdout
    assert doc["format"] == "entromax-metrics"
    assert doc["rho"] == pytest.approx(0.09, abs=0.01)
    assert doc["params"] == 25_557_032


def test_analyze_stable_field_order(capsys):
    _, out1, _ = run_cli(["analyze", "resnet18"], capsys)
    _, out2, _ = run_cli(["analyze", "resnet18"], capsys)
    assert out1 == out2
    keys = list(json.loads(out1).keys())
    assert keys.index("rho") < keys.index("params") < keys.index("flops")


def test_analyze_empty_file_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(SystemExit) as err:
        run_cli(["analyze", str(empty)], capsys)
    assert err.value.code == 2


def test_analyze_malformed_json_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json}\n")
    code, _, err = run_cli(["analyze", str(bad)], capsys)
    assert code == 1
    assert "line" in err


def test_analyze_alpha_mismatch_is_domain_error(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["analyze", "resnet18", "--alphas", "1,2"], capsys)
    assert err.value.code == 1


def test_analyze_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["analyze", "resnet999"], capsys)
    assert err.value.code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "resnet18", "--frobnicate"])
    assert err.value.code == 2


def test_solve_writes_architecture_and_report(tmp_path, capsys):
    prob_file = tmp_path / "tiny.json"
    prob_file.write_text(dumps(problem_to_dict(tiny_problem(0))))
    arch = tmp_path / "arch.json"
    report = tmp_path / "report.json"
    code, out, err = run_cli(
        ["solve", "--problem", str(prob_file), "--seed", "3",
         "--out", str(arch), "--report", str(report)], capsys)
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["format"] == "entromax-solve-report"
    assert doc["feasible"] is True
    assert doc["metrics"]["format"] == "entromax-metrics"
    net_doc = json.loads(arch.read_text())
    assert net_doc["format"] == "entromax-architecture"
    assert [s["width"] for s in net_doc["stages"]] == doc["best"]["widths"]


def test_solve_same_seed_byte_identical(tmp_path, capsys):
    prob_file = tmp_path / "tiny.json"
    prob_file.write_text(dumps(problem_to_dict(tiny_problem(1))))
    outs = []
    for tag in ("a", "b"):
        arch = tmp_path / f"arch_{tag}.json"
        report = tmp_path / f"report_{tag}.json"
        code, _, _ = run_cli(
            ["solve", "--problem", str(prob_file), "--seed", "11",
             "--out", str(arch), "--report", str(report)], capsys)
        assert code == 0
        outs.append((arch.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]


def test_solve_infeasible_budget_exits_one(tmp_path, capsys):
    import dataclasses

    prob = dataclasses.replace(tiny_problem(0), max_params=10)
    prob_file = tmp_path / "impossible.json"
    prob_file.write_text(dumps(problem_to_dict(prob)))
    code, out, err = run_cli(["solve", "--problem", str(prob_file)], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["infeasibility"] == "params"


def test_starved_solve_names_no_constraint_it_cannot_prove(tmp_path, capsys):
    # rho alone binds at the cheapest point, which proves nothing: 100
    # evaluations find a feasible design
    report = tmp_path / "report.json"
    code, _, err = run_cli(["solve", "--problem", "mobilenet_scale", "--max-evals", "1",
                            "--report", str(report)], capsys)
    doc = json.loads(report.read_text())
    assert code == 1 and doc["feasible"] is False and doc["budget_exhausted"] is True
    assert doc["infeasibility"] is None
    assert err.splitlines()[-1] == (
        "no feasible point found within 1 evaluations (budget exhausted)")
    code, _, _ = run_cli(["solve", "--problem", "mobilenet_scale", "--max-evals", "100",
                          "--report", str(report)], capsys)
    assert code == 0 and json.loads(report.read_text())["feasible"] is True


def test_starved_solve_names_a_params_excess_at_the_cheapest_point(tmp_path, capsys):
    import dataclasses

    prob_file = tmp_path / "impossible.json"
    prob_file.write_text(dumps(problem_to_dict(
        dataclasses.replace(tiny_problem(0), max_params=10))))
    code, out, err = run_cli(["solve", "--problem", str(prob_file), "--restarts", "4",
                              "--max-evals", "4"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["budget_exhausted"] is True
    assert doc["infeasibility"] == "params"
    assert err.splitlines()[-1] == "infeasible: tightest violated constraint is params"


def test_solve_threads_without_fork_is_one_error_line(monkeypatch, tmp_path, capsys):
    monkeypatch.delattr(os, "fork")
    report = tmp_path / "report.json"
    code, out, err = run_cli(["solve", "--problem", "resnet18_scale", "--threads", "2",
                              "--report", str(report)], capsys)
    assert code == 1 and out == "" and not report.exists()
    assert err.count("error:") == 1 and "os.fork" in err


def test_solve_max_evals_one_flags_exhaustion(tmp_path, capsys):
    prob_file = tmp_path / "tiny.json"
    prob_file.write_text(dumps(problem_to_dict(tiny_problem(2))))
    code, out, _ = run_cli(
        ["solve", "--problem", str(prob_file), "--max-evals", "1"], capsys)
    doc = json.loads(out)
    assert doc["budget_exhausted"] is True
    assert doc["evaluations"] <= 1


def test_solve_trace_does_not_change_result(tmp_path, capsys):
    prob_file = tmp_path / "tiny.json"
    prob_file.write_text(dumps(problem_to_dict(tiny_problem(3))))
    code, plain, _ = run_cli(["solve", "--problem", str(prob_file), "--seed", "4"],
                             capsys)
    code, traced, _ = run_cli(["solve", "--problem", str(prob_file), "--seed", "4",
                               "--trace"], capsys)
    a, b = json.loads(plain), json.loads(traced)
    assert a["best"] == b["best"]
    assert a["objective"] == b["objective"]
    assert "trace" in b and "trace" not in a
    assert len(traced) > len(plain)


def test_compare_self_is_all_zero_deltas(capsys):
    code, out, _ = run_cli(["compare", "resnet18", "resnet18", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(v == 0 for v in doc["delta"].values())


def test_compare_across_block_kinds(capsys):
    code, out, _ = run_cli(["compare", "resnet50", "mobilenet_v2", "--json"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"]["params"] == 3_504_872 - 25_557_032


def test_compare_human_table(capsys):
    code, out, _ = run_cli(["compare", "resnet18", "resnet34"], capsys)
    assert code == 0
    assert "rho" in out and "delta" in out


def test_verify_variance_json(capsys):
    code, out, _ = run_cli(
        ["verify-variance", "--widths", "16,32", "--samples", "20000",
         "--seed", "2024", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["theoretical"] == 512.0
    assert doc["passed"] is True


def test_verify_variance_text_mode(capsys):
    code, out, _ = run_cli(
        ["verify-variance", "--widths", "8,8", "--samples", "20000",
         "--seed", "2024"], capsys)
    assert code == 0
    assert "pass" in out
    assert "theoretical" in out


def test_verify_variance_default_threads_use_every_core(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    argv = ["verify-variance", "--widths", "16,32", "--samples", "20000",
            "--seed", "7", "--json"]
    assert build_parser().parse_args(argv).threads == 4
    assert run_cli(argv, capsys)[:2] == run_cli(argv + ["--threads", "1"], capsys)[:2]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_verify_variance_rejects_threads_below_one(threads, capsys):
    code, out, err = run_cli(["verify-variance", "--widths", "8,8", "--threads",
                              threads], capsys)
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "threads" in err


def test_catalog_listing_and_show(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    assert "resnet50" in out
    code, out, _ = run_cli(["catalog", "resnet34"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == network_to_dict(reference("resnet34").spec)


def test_catalog_unknown_name_is_one_plain_error_line(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["catalog", "nosuch"], capsys)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: unknown catalog entry 'nosuch'; "
                            f"known: {', '.join(names())}\n")


def test_catalog_analyze(capsys):
    code, out, _ = run_cli(["catalog", "efficientnet_b0", "--analyze"], capsys)
    assert code == 0
    assert json.loads(out)["rho"] == pytest.approx(0.6, abs=0.1)


def test_catalog_analyze_matches_analyze(capsys):
    _, catalog_out, _ = run_cli(["catalog", "resnet50", "--analyze"], capsys)
    _, analyze_out, _ = run_cli(["analyze", "resnet50"], capsys)
    catalog_doc, analyze_doc = json.loads(catalog_out), json.loads(analyze_out)
    assert catalog_doc["weighted_entropy"] == analyze_doc["weighted_entropy"]
    assert catalog_doc["conventions"] == analyze_doc["conventions"] == PINNED.fingerprint()


def test_calibrate_passes_and_writes(tmp_path, capsys):
    target = tmp_path / "calibration.md"
    code, _, err = run_cli(["calibrate", "--write", str(target)], capsys)
    assert code == 0
    assert "forced to 2" in target.read_text()


def test_committed_calibration_report_is_current(tmp_path, capsys):
    target = tmp_path / "calibration.md"
    assert run_cli(["calibrate", "--write", str(target)], capsys)[0] == 0
    committed = Path(__file__).parents[1] / "docs" / "calibration.md"
    assert committed.read_text() == target.read_text()


@pytest.mark.parametrize("command", [["analyze", "resnet18"], ["compare", "resnet18", "resnet34"]])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_alphas_are_usage_errors(command, value, capsys):
    with pytest.raises(SystemExit) as err:
        main(command + ["--alphas", f"1,{value},1,8"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1


@pytest.mark.parametrize("flag", ["--stagewise-entropy", "--shortcut-entropy",
                                  "--no-stem-entropy"])
def test_entropy_path_has_no_flags(flag, capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "resnet18", flag])
    assert err.value.code == 2


def test_compare_alphas_weigh_both_networks(capsys):
    code, out, _ = run_cli(["compare", "resnet18", "resnet34", "--json",
                            "--alphas", "1,2,3,4"], capsys)
    assert code == 0
    doc = json.loads(out)
    for side, name in (("a", "resnet18"), ("b", "resnet34")):
        _, analyzed, _ = run_cli(["analyze", name, "--alphas", "1,2,3,4"], capsys)
        assert doc[side] == json.loads(analyzed)
    _, plain, _ = run_cli(["compare", "resnet18", "resnet34", "--json"], capsys)
    assert json.loads(plain)["a"]["weighted_entropy"] != doc["a"]["weighted_entropy"]


@pytest.mark.parametrize("alphas, code", [("1,2", 1), ("1,x,1,8", 2)])
def test_compare_bad_alphas_fail_with_one_error_line(alphas, code, capsys):
    with pytest.raises(SystemExit) as err:
        main(["compare", "resnet18", "resnet34", "--alphas", alphas])
    assert err.value.code == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1


def test_analyzer_commands_do_not_load_the_solver_or_numpy():
    """Only `solve` and `verify-variance` need numpy and the process pool; the
    check runs in a fresh interpreter because this one already holds them."""
    script = """
import contextlib, io, sys
from entromax.cli import main
for argv in (["analyze", "resnet18"], ["compare", "resnet18", "resnet34"],
             ["catalog"], ["catalog", "resnet18", "--analyze"], ["calibrate"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(" ".join(m for m in ("numpy", "concurrent.futures", "entromax.solver",
                           "entromax.variance") if m in sys.modules))
"""
    src = str(Path(entromax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


def test_solve_loads_numpy_only_for_brute_force(tmp_path):
    """A solve draws its restart starts in pure Python, so it loads no numpy
    (about 0.1 s of start-up), and forks its workers, so it loads no process
    pool (about 27 ms) at any thread count; `brute_force` still loads numpy
    on demand."""
    prob_file = tmp_path / "tiny.json"
    prob_file.write_text(dumps(problem_to_dict(tiny_problem(0))))
    script = """
import contextlib, io, json, sys
from entromax.cli import main
from entromax.fileio import problem_from_dict
from entromax.solver import brute_force
for threads in ("1", "2"):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["solve", "--problem", "resnet18_scale", "--max-evals", "200",
                     "--threads", threads]) == 0
    print(" ".join(m for m in ("numpy", "concurrent.futures.process", "multiprocessing")
                   if m in sys.modules))
cand, ev = brute_force(problem_from_dict(json.loads(open(sys.argv[1]).read())))
print("numpy" in sys.modules, cand.widths, cand.depths, repr(ev.objective))
"""
    src = str(Path(entromax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script, str(prob_file)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    cand, ev = brute_force(tiny_problem(0))
    assert out.stdout.split("\n") == [
        "", "", f"True {cand.widths} {cand.depths} {ev.objective!r}", ""]


@pytest.mark.parametrize("restarts", [["--restarts", "3"], []])
def test_solve_negative_seed_fails_before_any_restart(restarts, tmp_path, capsys,
                                                      monkeypatch):
    from entromax import solver

    ran = []
    monkeypatch.setattr(solver, "_run_restart", lambda *args: ran.append(args))
    arch, report = tmp_path / "arch.json", tmp_path / "report.json"
    code, out, err = run_cli(
        ["solve", "--problem", "resnet18_scale", "--seed", "-1", *restarts,
         "--out", str(arch), "--report", str(report)], capsys)
    assert code == 1 and out == "" and ran == []
    assert err.count("error:") == 1 and "seed" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", [["--restarts", "0"], ["--restarts", "-2"],
                                    ["--max-evals", "-5"], ["--threads", "0"]])
def test_solve_rejects_counts_below_one(option, tmp_path, capsys):
    arch, report = tmp_path / "arch.json", tmp_path / "report.json"
    code, out, err = run_cli(
        ["solve", "--problem", "resnet18_scale", *option,
         "--out", str(arch), "--report", str(report)], capsys)
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and option[0][2:].replace("-", "_") in err
    assert list(tmp_path.iterdir()) == []


def test_bad_thread_variable_fails_only_solve(monkeypatch, capsys):
    monkeypatch.setenv("ENTROMAX_THREADS", "two")
    code, out, _ = run_cli(["analyze", "resnet18"], capsys)
    assert code == 0 and json.loads(out)["format"] == "entromax-metrics"
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--problem", "resnet18_scale"], capsys)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "ENTROMAX_THREADS" in err
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    assert "ENTROMAX_THREADS" in capsys.readouterr().out


@pytest.mark.parametrize("argv, validations", [
    (["analyze", "resnet18"], 1),
    (["catalog", "resnet50", "--analyze"], 1),
    (["compare", "resnet18", "mobilenet_v2", "--json"], 2),
    (["calibrate"], 5),
])
def test_analyzers_validate_each_network_once(argv, validations, monkeypatch, capsys):
    calls = []

    def counting(net):
        calls.append(net)
        return validate(net)

    for module in ("entromax.model", "entromax.cli", "entromax.catalog"):
        monkeypatch.setattr(f"{module}.validate", counting)
    assert main(argv) == 0
    assert len(calls) == validations
