"""Tests of the benchmark's own rules: the tail percentile, self time,
the sign of objective_gap, and failure counting."""

import os
import time

import numpy as np
import pytest

import checks
import spans


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(110)]
    value, percentile, n = checks.tail(list(reversed(values)))
    assert (value, n) == (99.0, 110)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * 100 / 110)

    value, percentile, n = checks.tail([float(v) for v in range(21)])
    assert (value, n) == (10.0, 21)


def test_tail_falls_back_to_maximum_below_the_median():
    assert checks.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert checks.tail([float(v) for v in range(20)]) == (19.0, 100.0, 20)


def test_self_time_subtracts_direct_children():
    # 0 contains 1 and 3; 1 contains 2
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 4.0, 1.0, 3.0])
    assert spans.self_times(parent, duration).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_nearest_ancestor_skips_unmarked_levels():
    parent = np.array([-1, 0, 1, 2, 0])
    marked = np.array([True, False, True, False, False])
    assert spans.nearest_ancestor(parent, marked).tolist() == [-1, 0, 0, 2, 0]


def test_traced_nested_calls_give_consistent_self_time():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_t = tracer.wrap(leaf, "leaf")

    def inner():
        leaf_t()
        time.sleep(0.002)

    inner_t = tracer.wrap(inner, "inner")

    def outer():
        inner_t()
        inner_t()
        time.sleep(0.002)

    tracer.wrap(outer, "outer")()
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    selfs = spans.self_times(a["parent"], duration)
    names = [tracer.names[k] for k in a["kind"]]
    assert names == ["outer", "inner", "leaf", "inner", "leaf"]
    assert a["parent"].tolist() == [-1, 0, 1, 0, 3]
    assert selfs.sum() == pytest.approx(duration[0])
    assert selfs[0] == pytest.approx(duration[0] - duration[1] - duration[3])
    assert (selfs > 0).all()


def test_objective_gap_is_positive_when_below_reference():
    assert checks.objective_gap([(90.0, 100.0)]) == pytest.approx(0.1)
    assert checks.objective_gap([(110.0, 100.0)]) == pytest.approx(-0.1)
    # negative references: a lower objective is still a positive gap
    assert checks.objective_gap([(-12.0, -10.0)]) == pytest.approx(0.2)
    assert checks.objective_gap([]) is None


def test_missing_target_is_reported_absent():
    tracer = spans.Tracer()
    tracer.install([("solver.gone", "entromax.solver", "_no_such_function"),
                    ("solver.relaxed", "entromax.solver", "_NoSuchClass.evaluate")])
    assert tracer.absent == ["solver.gone", "solver.relaxed"]
    layer = spans.layer_metrics(tracer, traced_wall=1.0, untraced_wall=1.0,
                                worker_cpu=0.0, import_s=0.0, verify_commands=0)
    assert "solver.relaxed_calls" in layer["absent"]
    assert layer["metrics"]["solver.relaxed_calls"] == (0, "count")


def test_failed_operation_is_counted(tmp_path):
    import run

    good = {"kind": "cli", "check": "analyze", "argv": ["analyze", "resnet18"],
            "dir": os.path.join(tmp_path, "good")}
    bad = {"kind": "cli", "check": "solve", "problem": "resnet18_scale",
           "argv": ["solve", "--problem", "no_such_problem"],
           "dir": os.path.join(tmp_path, "bad")}
    checker = checks.Checker()
    records = []
    for op in (good, bad):
        records.extend(run.check(op, run.run_op(op)["ops"], checker, {}, []))
    records.append({"seconds": 0.1, "errors": ["solve returned the wrong argmax"]})
    attempted, failed = checks.tally(records)
    assert (attempted, failed) == (3, 2)
    assert records[0]["errors"] == []
    assert "exit code 2" in records[1]["errors"][0]
