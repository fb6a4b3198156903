"""Oracle-free relations the solver must keep.

Units: scaling every entropy weight and beta by a power of two scales the
objective, and so the ascent's penalty weight, exactly; nothing else in a
solve depends on them, so the design and the evaluation count stay put and
the objective moves by exactly the factor.
"""

import dataclasses
import functools
from importlib import resources

import pytest

from conftest import tiny_problem
from entromax.fileio import read_problem
from entromax.solver import SolveOptions, solve


def _shipped(name):
    path = resources.files("entromax.data.problems").joinpath(f"{name}.json")
    with resources.as_file(path) as p:
        return read_problem(p)


CASES = {
    "tiny-0-1": (lambda: tiny_problem(1, family=0), SolveOptions()),
    "tiny-1-27": (lambda: tiny_problem(27, family=1), SolveOptions()),
    "tiny-1-3": (lambda: tiny_problem(3, family=1), SolveOptions()),
    "tiny-0-5": (lambda: tiny_problem(5), SolveOptions()),
    "tiny-1-13": (lambda: tiny_problem(13, family=1), SolveOptions()),
    "resnet18_scale": (lambda: _shipped("resnet18_scale"), SolveOptions(max_evals=3000)),
}


@functools.lru_cache(maxsize=None)
def _solved(case, factor):
    make, opts = CASES[case]
    prob = make()
    scaled = dataclasses.replace(prob, alphas=tuple(a * factor for a in prob.alphas),
                                 beta=prob.beta * factor)
    return solve(scaled, opts)


@pytest.mark.parametrize("factor", [2.0 ** -14, 2.0 ** 10], ids=["2^-14", "2^10"])
@pytest.mark.parametrize("case", CASES)
def test_scaling_the_weights_scales_only_the_objective(case, factor):
    base, scaled = _solved(case, 1.0), _solved(case, factor)
    assert base.feasible and scaled.best == base.best
    assert scaled.evaluations == base.evaluations
    assert scaled.objective == base.objective * factor
