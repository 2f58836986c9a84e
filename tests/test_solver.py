"""Tests of the exact search.

`solver_nodes.json` holds the search nodes of the corpus and of the
walks (`test_node_counts_unchanged`). Rewrite it only when a change to
the search is meant to move them:

    PYTHONPATH=src python tests/test_solver.py --write
"""

import gc
import json
import pathlib
import random
import sys
import weakref

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from rmcfence import encode, solver, verify
from conftest import (
    ARCHES, CORPUS_NAMES, analyze, analyze_corpus, load_corpus, naive_optima, naive_satisfies,
    parse_valid, random_problem, reference_dominated, walk_source,
)

# Search nodes (`Assignment.decisions`) per "<file> <arch> <function>" of the
# corpus and per "walk<n> <arch>" of `walk_source(n)`. A change that means
# to alter node counts regenerates the fixture and says why.
NODES_FILE = pathlib.Path(__file__).resolve().parent / "solver_nodes.json"
NODES = json.loads(NODES_FILE.read_text())


def test_matches_exhaustive_on_corpus():
    for name in CORPUS_NAMES:
        for arch_name in ("armv7", "power"):
            for a in analyze_corpus(name, arch_name):
                if len(a.problem.outputs) > 16:
                    continue
                got = solver.solve_min(a.problem)
                ref = verify.brute_min(a.problem)
                assert got.cost == ref.cost, (name, a.func.name, arch_name)


def test_matches_exhaustive_on_random_problems():
    # The plan and the optimum are judged by the naive fixpoint, not by
    # the compiled evaluator the solver searches with.
    for cyclic in (False, True):
        rng = random.Random(1234)
        for _ in range(60):
            p = random_problem(rng, cyclic=cyclic)
            got = solver.solve_min(p)
            assert got.cost == naive_optima(p)[0]
            assert naive_satisfies(p, got.true_vars)
            if cyclic:
                assert any(cycle for _rows, cycle in encode.compiled(p).steps)


def _lex_least_optimum(p):
    """Among all optima of `p` by the naive reference, the one whose
    membership vector over the canonical variable order is least
    (False < True)."""
    return min(naive_optima(p)[1], key=lambda trues: [v in trues for v in p.outputs])


def test_result_is_lexicographically_least_among_optima():
    for cyclic in (False, True):
        rng = random.Random(99)
        for _ in range(100):
            p = random_problem(rng, max_vars=10, cyclic=cyclic)
            assert solver.solve_min(p).true_vars == _lex_least_optimum(p)


def _outs(*names):
    return [encode.OutputVar("barrier", ("k", name, "c")) for name in names]


def _or(*vs):
    return ("or", tuple(("out", v) for v in vs))


def _problem(name, outputs, asserts, weights):
    return encode.Problem(function=name, arch="none", outputs=outputs, defs={}, asserts=asserts,
                          weights=weights)


def test_dominance_needs_a_strictly_cheaper_output():
    # a and b share their one row at the same cost, so neither dominates
    # the other: {a} and {b} are both optimal at 5, and {b} is the
    # lexicographically least. One less on a makes b dominated.
    a, b = _outs("a", "b")
    p = _problem("tie", [a, b], [("ab", _or(a, b))], [5, 5])
    assert solver.dominated(encode.compiled(p), p.weights) == 0
    got = solver.solve_min(p)
    assert got.true_vars == frozenset([b]) == _lex_least_optimum(p)
    assert got.cost == 5
    cheaper = _problem("cheaper", [a, b], [("ab", _or(a, b))], [4, 5])
    assert solver.dominated(encode.compiled(cheaper), cheaper.weights) == 0b10


def test_an_output_inside_an_and_is_not_dominated():
    # x is named beside the cheaper y, but also inside an and, where y
    # cannot stand in for it; the optimum sets x.
    x, y, z, w = _outs("x", "y", "z", "w")
    p = _problem("and", [x, y, z, w], [
        ("xy", _or(x, y)),
        ("xz_or_w", ("or", (("and", (("out", x), ("out", z))), ("out", w)))),
    ], [5, 3, 1, 100])
    assert solver.dominated(encode.compiled(p), p.weights) == 0
    got, ref = solver.solve_min(p), verify.brute_min(p)
    assert (got.true_vars, got.cost) == (ref.true_vars, ref.cost) == (frozenset([x, z]), 6)


def test_equal_costs_from_an_override_turn_dominance_off():
    (func,) = [f for f in parse_valid(load_corpus("mp")) if f.name == "recv"]

    def solve(costs_text=None):
        p = analyze(func, "armv8", costs_text=costs_text).problem
        never = solver.dominated(encode.compiled(p), p.weights)
        got = solver.solve_min(p)
        assert got.true_vars == _lex_least_optimum(p)
        detail = lambda vs: sorted(v.detail[0] for v in vs)
        return detail(v for i, v in enumerate(p.outputs) if never >> i & 1), detail(got.true_vars)

    assert solve() == (["a0", "dmb", "dmb_ldst"], ["dmb_ld"])
    # dmb_ld and dmb_ldst sit on the same edge; at equal cost neither
    # dominates the other, and the lexicographically least optimum is dmb_ldst.
    assert solve("dmb_ld = 50\n") == (["a0", "dmb"], ["dmb_ldst"])


def test_dominated_equals_the_row_walk_reference():
    # solver.dominated reads the facts Compiled gathered while building its
    # rows; the reference walks the rows. Random problems (both weight
    # ranges, with and without and rows), every corpus problem and the
    # walks must give the same mask.
    problems = []
    rng = random.Random(2024)
    for k in range(600):
        problems.append(random_problem(rng, max_weight=(3, 50)[k % 2], and_rows=k % 3 == 0))
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            for synth in (False, True):
                problems += [a.problem for a in analyze_corpus(name, arch_name, synth_deps=synth)]
    for n in (1, 2, 3):
        (func,) = parse_valid(walk_source(n))
        problems += [analyze(func, a).problem for a in ("armv7", "armv8", "power")]
    some = 0
    for p in problems:
        formula = encode.compiled(p)
        got = solver.dominated(formula, p.weights)
        assert got == reference_dominated(formula, p.weights), p.function
        some += got != 0
    assert some >= 100


def test_each_node_evaluates_the_formula_at_most_once(monkeypatch):
    # A False child reuses its parent's evaluation; the one extra call is
    # the all-devices check before the search.
    calls = 0
    values = encode.Compiled.values

    def counted(self, m):
        nonlocal calls
        calls += 1
        return values(self, m)

    monkeypatch.setattr(encode.Compiled, "values", counted)
    problems = []
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            problems += [(name, arch_name, a.problem) for a in analyze_corpus(name, arch_name)]
    for n in (2, 3):
        (func,) = parse_valid(walk_source(n))
        problems += [(f"walk{n}", a, analyze(func, a).problem) for a in ARCHES]
    for name, arch_name, p in problems:
        calls = 0
        got = solver.solve_min(p)
        assert calls <= got.decisions + 1, (name, arch_name, p.function)


def node_counts():
    """The search nodes of every problem `solver_nodes.json` holds."""
    got = {}
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            for a in analyze_corpus(name, arch_name):
                got[f"{name} {arch_name} {a.func.name}"] = solver.solve_min(a.problem).decisions
    for n in (2, 3):
        (func,) = parse_valid(walk_source(n))
        for arch_name in ARCHES:
            a = analyze(func, arch_name)
            if arch_name != "x86":
                # The walk exercises cyclic definitions.
                assert any(cycle for _rows, cycle in encode.compiled(a.problem).steps)
            got[f"walk{n} {arch_name}"] = solver.solve_min(a.problem).decisions
    return got


def test_node_counts_unchanged():
    assert node_counts() == NODES


@pytest.mark.parametrize("n, arch_name, cost", [(4, "armv8", 960), (4, "power", 1160),
                                                (5, "armv8", 1905), (6, "armv8", 3922)])
def test_walks_are_proven_optimal_within_two_seconds(n, arch_name, cost):
    (func,) = parse_valid(walk_source(n))
    got = solver.solve_min(analyze(func, arch_name).problem, 2000)
    assert (got.cost, got.optimal) == (cost, True)


def test_deterministic_across_runs():
    for a in analyze_corpus("ringbuf", "armv8"):
        first = solver.solve_min(a.problem)
        second = solver.solve_min(a.problem)
        assert first == second


def test_unsatisfiable_is_reported():
    p = _problem("t", [], [("impossible", ("const", False))], [])
    with pytest.raises(solver.Unsatisfiable):
        solver.solve_min(p)


def test_budget_exhaustion():
    rng = random.Random(5)
    p = random_problem(rng, max_vars=14)
    with pytest.raises(solver.BudgetExceeded) as exc:
        solver.solve_min(p, budget_ms=0)
    # out of time before any incumbent: all devices placed, proved satisfiable
    inc = exc.value.incumbent
    assert inc.true_vars == frozenset(p.outputs)
    assert inc.cost == p.objective(inc.true_vars)
    assert encode.satisfies(p, inc.true_vars)


def test_deep_search_does_not_recurse():
    # Each output is one level of the search; a recursive search raises
    # RecursionError about 1,000 outputs deep.
    outputs = [encode.OutputVar("barrier", ("k", f"b{i:04}", "c")) for i in range(1200)]
    p = _problem("deep", outputs, [("all", ("and", tuple(("out", v) for v in outputs)))],
                 [1] * len(outputs))
    got = solver.solve_min(p)
    assert got.true_vars == frozenset(outputs)
    assert got.cost == 1200


def test_problem_is_freed_without_cyclic_gc():
    p = random_problem(random.Random(3))
    ref = weakref.ref(p)
    gc.disable()
    try:
        solver.solve_min(p)
        del p
        assert ref() is None
    finally:
        gc.enable()


def _chain(n):
    """n writes in a straight line with `vo w_i -> w_{i+2}`."""
    decls = "".join(f"  edge vo l{i:03} -> l{i + 2:03};\n" for i in range(n - 2))
    body = "".join(f"    write @g{i:03} {i} label l{i:03}\n" for i in range(n))
    (func,) = parse_valid(f"func chain{n} {{\n{decls}  block b:\n{body}    ret\n}}\n")
    return func


def test_lower_bound_cuts_the_search():
    # Without the bound the search took 13,457 nodes on chain(24) armv7.
    p = analyze(_chain(24), "armv7").problem
    got = solver.solve_min(p)
    assert got.decisions <= 1346
    assert got.cost == 715
    small = analyze(_chain(16), "armv7").problem
    assert solver.solve_min(small).cost == verify.brute_min(small).cost


def test_never_worse_than_greedy_or_all_barriers():
    for name in CORPUS_NAMES:
        for arch_name in ("armv7", "armv8", "power"):
            for a in analyze_corpus(name, arch_name):
                got = solver.solve_min(a.problem)
                assert got.cost <= a.problem.objective(frozenset(a.problem.outputs))
                gp = verify.greedy(a.cfg, a.closed, a.boundaries, a.profile, a.costs)
                assert got.cost <= gp.cost, (name, a.func.name, arch_name)


if HAVE_HYPOTHESIS:

    @given(st.integers(0, 2**32), st.data())
    @settings(max_examples=300, deadline=None)
    def test_lower_bound_never_exceeds_cheapest_completion(seed, data):
        p = random_problem(random.Random(seed), max_vars=10)
        n = len(p.outputs)
        i = data.draw(st.integers(0, n))
        mask = data.draw(st.integers(0, (1 << i) - 1))
        trues = frozenset(v for j, v in enumerate(p.outputs[:i]) if mask >> j & 1)
        bound = solver.bound_data(p)
        lb = solver.lower_bound(bound, i, encode.failed_assertions(p, trues))
        rest = p.outputs[i:]
        cheapest = None
        for m in range(1 << len(rest)):
            full = trues | {v for j, v in enumerate(rest) if m >> j & 1}
            if encode.satisfies(p, full):
                c = p.objective(full)
                cheapest = c if cheapest is None else min(cheapest, c)
        if cheapest is None:
            return
        assert lb is not None
        assert p.objective(trues) + lb <= cheapest

    @given(st.integers(0, 2**32), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_result_is_the_lexicographically_least_optimum_with_dominance(seed, and_rows, cyclic):
        # Weights 1..3 make both strict dominance and equal-cost ties
        # common; and rows turn it off for their outputs.
        # A ring of definitions puts cyclic steps through the search.
        p = random_problem(random.Random(seed), max_vars=10, max_weight=3, and_rows=and_rows,
                           cyclic=cyclic)
        assert solver.solve_min(p).true_vars == _lex_least_optimum(p)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_solver.py --write")
    counts = node_counts()
    NODES_FILE.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(counts)} node counts to {NODES_FILE}")
