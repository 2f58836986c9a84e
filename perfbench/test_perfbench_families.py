"""Tests of the benchmark's program generators.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import families  # noqa: E402
import spans  # noqa: E402
from rmcfence import arch, constraints, encode, ir, solver  # noqa: E402
from rmcfence.deps import DepAnalysis  # noqa: E402

SMALL = [("chain", 5), ("diamonds", 3), ("span", 3), ("walk", 1)]
ARCHES = ("x86", "armv7", "armv8", "power")
SEEDS = (0, 1, 7, 12345)


def solve(text, arch_name):
    (func,) = ir.parse(text)
    cfg = ir.normalize(func)
    edges, boundaries = constraints.resolve(func, cfg)
    closed = constraints.close(edges, cfg.actions)
    profile = arch.builtin_profile(arch_name)
    costs, _ = arch.load_costs(profile)
    problem = encode.build(cfg, closed, boundaries, DepAnalysis(cfg), profile, costs)
    return problem, solver.solve_min(problem)


@pytest.mark.parametrize(
    "family,size", SMALL + [("chain", 40), ("diamonds", 20), ("span", 9), ("walk", 3)]
)
def test_generated_functions_validate(family, size):
    for seed in SEEDS:
        funcs = ir.parse(families.generate(family, size, seed))
        assert len(funcs) == 1
        assert ir.validate(funcs[0]) == []


@pytest.mark.parametrize("family,size", SMALL)
def test_same_seed_same_bytes_other_seed_other_names(family, size):
    a = families.generate(family, size, 3)
    assert a == families.generate(family, size, 3)
    b = families.generate(family, size, 4)
    assert a != b
    assert len(a) == len(b)


@pytest.mark.parametrize("family,size", SMALL)
def test_plan_cost_and_sizes_do_not_depend_on_seed(family, size):
    for arch_name in ARCHES:
        seen = set()
        for seed in SEEDS:
            problem, asg = solve(families.generate(family, size, seed), arch_name)
            seen.add((asg.cost, asg.decisions, len(problem.outputs), len(problem.defs)))
        assert len(seen) == 1, (arch_name, seen)


def test_walk_definitions_are_cyclic():
    """The deps workload relies on self-ordering making the defs cyclic."""
    problem, _ = solve(families.generate("walk", 1, 0), "armv8")
    assert spans.has_cycle(problem.defs)
    problem, _ = solve(families.generate("chain", 5, 0), "armv8")
    assert not spans.has_cycle(problem.defs)
