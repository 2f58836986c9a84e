"""Tests of the exact search.

`solver_nodes.json` holds the search nodes of the corpus, of the walks
and of the diamonds (`test_node_counts_unchanged`). Rewrite it only when
a change to the search is meant to move them:

    PYTHONPATH=src python tests/test_solver.py --write

which prints an old -> new table of every count that moved.
"""

import gc
import json
import pathlib
import random
import sys
import weakref

import pytest

try:
    from hypothesis import assume, given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from rmcfence import encode, solver, verify
from conftest import (
    ARCHES, CORPUS_NAMES, analyze, analyze_corpus, load_corpus, naive_optima, naive_satisfies,
    nested_diamonds_source, parse_valid, random_cut_source, random_problem, reference_dominated,
    walk_source,
)

# Search nodes (`Assignment.decisions`) per "<file> <arch> <function>" of the
# corpus, per "walk<n> <arch>" of `walk_source(n)` and per "diamonds<n>
# <arch>" of `_diamonds(n)`. A change that means to alter node counts
# regenerates the fixture and says why.
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
    for n in (5, 8):
        for arch_name in ("armv7", "power"):
            got[f"diamonds{n} {arch_name}"] = solver.solve_min(
                analyze(_diamonds(n), arch_name).problem).decisions
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


def _diamonds(n):
    """`_chain(n)` with an if/else diamond between each pair of writes."""
    decls = "".join(f"  edge vo l{i:03} -> l{i + 2:03};\n" for i in range(n - 2))
    lines = ["  block b000:", "    write @g000 0 label l000"]
    for i in range(n - 1):
        b = 3 * i
        then, els, join = f"b{b + 1:03}", f"b{b + 2:03}", f"b{b + 3:03}"
        lines += [f"    %c{i} = op cond{i}()", f"    br %c{i} ? {then} : {els}",
                  f"  block {then}:", f"    jmp {join}", f"  block {els}:", f"    jmp {join}",
                  f"  block {join}:", f"    write @g{i + 1:03} {i + 1} label l{i + 1:03}"]
    body = "\n".join(lines)
    (func,) = parse_valid(f"func diamonds{n} {{\n{decls}{body}\n    ret\n}}\n")
    return func


def test_diamonds_sixteen_is_proven_optimal_within_a_second():
    # Each diamond's two arms tie with the edge before it; without the
    # cut bound the search doubled at every diamond and ran out of 20 s.
    got = solver.solve_min(analyze(_diamonds(16), "armv7").problem, 1000)
    assert (got.cost, got.optimal) == (14909440, True)


def test_diamonds_return_the_lexicographically_least_optimum():
    p = analyze(_diamonds(3), "armv7").problem
    assert solver.solve_min(p).true_vars == _lex_least_optimum(p)


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


def _check_bound(p, i, mask):
    """`lower_bound` at the node that has decided outputs 0..i-1 as
    `mask` never exceeds what the cheapest satisfying completion adds.
    Returns the bound, or None when no completion satisfies."""
    formula = encode.compiled(p)
    lb = solver.lower_bound(solver.bound_data(p), i, formula.failing(formula.values(mask)))
    # Every completion, as a mask over outputs i.., and its added cost.
    rest = len(p.outputs) - i
    added = [0] * (1 << rest)
    cheapest = None
    for m in range(1, 1 << rest):
        low = m & -m
        added[m] = added[m ^ low] + p.weights[i + low.bit_length() - 1]
    for m in range(1 << rest):
        if (cheapest is None or added[m] < cheapest) and formula.values(
                mask | m << i) & formula.holds == formula.holds:
            cheapest = added[m]
    if cheapest is None:
        return None
    assert lb is not None
    assert lb <= cheapest, (p.function, p.arch, i, bin(mask), lb, cheapest)
    return lb


def test_the_cut_bound_is_what_prunes_the_diamonds():
    # One vo across two diamonds: one device pays 130 of its 260, the
    # min cut all of it; that is the cheapest completion.
    p = analyze(_diamonds(3), "armv7").problem
    data = solver.bound_data(p)
    (label,) = data.joins
    assert data.suffix[label][0][0] == 130
    assert _check_bound(p, 0, 0) == 260 == solver.solve_min(p).cost


def test_an_or_of_two_children_gets_no_cut():
    # (a and b) or (c and d): the cheapest pair is c, d at 2, but an edge
    # from the first child alone would charge a + b = 20.
    a, b, c, d = _outs("a", "b", "c", "d")
    both = lambda x, y: ("and", (("out", x), ("out", y)))
    p = _problem("fork", [a, b, c, d], [("ab_or_cd", ("or", (both(a, b), both(c, d))))],
                 [10, 10, 1, 1])
    assert solver.bound_data(p).joins == {"ab_or_cd"}
    assert _check_bound(p, 0, 0) == 1


def test_an_output_on_two_edges_pays_once():
    # (a or b) and (a or c): a cuts both arms for 3, so the cut may charge
    # each arm only half of a.
    a, b, c = _outs("a", "b", "c")
    p = _problem("shared", [a, b, c], [("arms", ("and", (_or(a, b), _or(a, c))))], [3, 9, 9])
    assert _check_bound(p, 0, 0) == 3


if HAVE_HYPOTHESIS:

    @given(st.integers(0, 2**32), st.booleans(), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_lower_bound_never_exceeds_cheapest_completion(seed, and_rows, cyclic, data):
        p = random_problem(random.Random(seed), max_vars=10, and_rows=and_rows, cyclic=cyclic)
        i = data.draw(st.integers(0, len(p.outputs)))
        _check_bound(p, i, data.draw(st.integers(0, (1 << i) - 1)))

    @given(st.integers(0, 2**32), st.sampled_from(("armv7", "armv8", "power")), st.data())
    @settings(max_examples=200, deadline=None)
    def test_the_cut_bound_never_exceeds_cheapest_completion_on_programs(seed, arch_name, data):
        # pu and vo cuts over loops, self-loops and irreducible regions.
        (func,) = parse_valid(random_cut_source(random.Random(seed)))
        p = analyze(func, arch_name).problem
        if len(p.outputs) > 12:
            return
        # At 0 nothing is decided, so every join's cut counts.
        i = data.draw(st.one_of(st.just(0), st.integers(0, len(p.outputs))))
        _check_bound(p, i, data.draw(st.integers(0, (1 << i) - 1)))

    # Sizes that keep most problems within `_check_bound`'s 12 outputs: an
    # edge of a path costs a variable per barrier kind that cuts it, and
    # power and armv8 have more kinds than armv7 (armv8 three for an xo).
    _DIAMOND_SIZES = {
        "armv7": {},
        "power": dict(regions=(1,)),
        "armv8": dict(regions=(1,), kinds=("pu", "vo")),
    }

    @given(st.integers(0, 2**32), st.sampled_from(("armv7", "armv8", "power")), st.data())
    @settings(max_examples=1000, deadline=None)
    def test_the_cut_bound_never_exceeds_cheapest_completion_on_nested_diamonds(
            seed, arch_name, data):
        # Tied cuts: both arms of a diamond cost what one barrier before it
        # does. A join's cut counts at a node no later than its first
        # output, so try each such node: there another join may already
        # have decided outputs.
        source = nested_diamonds_source(random.Random(seed), **_DIAMOND_SIZES[arch_name])
        p = analyze(parse_valid(source)[0], arch_name).problem
        assume(len(p.outputs) <= 12)
        bound = solver.bound_data(p)
        for i in sorted({0, *(bound.support[label][0] for label in bound.joins)}):
            _check_bound(p, i, data.draw(st.integers(0, (1 << i) - 1)))

    @given(st.integers(0, 2**32), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_result_is_the_lexicographically_least_optimum_with_dominance(seed, and_rows, cyclic):
        # Weights 1..3 make both strict dominance and equal-cost ties
        # common; and rows turn it off for their outputs.
        # A ring of definitions puts cyclic steps through the search.
        p = random_problem(random.Random(seed), max_vars=10, max_weight=3, and_rows=and_rows,
                           cyclic=cyclic)
        assert solver.solve_min(p).true_vars == _lex_least_optimum(p)


def moved_table(old, new):
    """The rows of `old` and `new` whose node counts differ, as a
    Markdown table (a missing row reads "-"), or None if none moved."""
    moved = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    if not moved:
        return None
    lines = ["| row | before | after |", "|---|---|---|"]
    lines += [f"| {key} | {old.get(key, '-')} | {new.get(key, '-')} |" for key in moved]
    return "\n".join(lines)


def test_moved_table_lists_changed_added_and_removed_rows():
    assert moved_table({"a": 1}, {"a": 1}) is None
    assert moved_table({"a": 1, "b": 2, "c": 3}, {"a": 1, "b": 5, "d": 4}).splitlines()[2:] == [
        "| b | 2 | 5 |", "| c | 3 | - |", "| d | - | 4 |"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_solver.py --write")
    counts = node_counts()
    NODES_FILE.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(counts)} node counts to {NODES_FILE}")
    print(moved_table(NODES, counts) or "no node count moved")
