import random

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from types import SimpleNamespace

from rmcfence import arch, emit, encode, graph, ir, solver, verify
from conftest import (
    ARCHES, CORPUS_NAMES, analyze, analyze_corpus, parse_valid, random_cut_source,
    random_problem, span_source,
)


def _solved(name, arch_name):
    for a in analyze_corpus(name, arch_name):
        asg = solver.solve_min(a.problem)
        yield a, emit.to_plan(a.problem, a.cfg, asg)


def _check(a, plan):
    return verify.check_plan(a.cfg, a.closed, a.boundaries, a.profile, plan)


def test_solver_plans_pass_the_checker():
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            for a, plan in _solved(name, arch_name):
                assert _check(a, plan) == [], (name, a.func.name, arch_name)


def test_greedy_plans_pass_the_checker():
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            for a in analyze_corpus(name, arch_name):
                plan = verify.greedy(a.cfg, a.closed, a.boundaries, a.profile, a.costs)
                assert _check(a, plan) == [], (name, a.func.name, arch_name)


# default, --synth-deps, --no-ctrl-deps, --no-data-deps
FLAG_SETS = ({}, {"synth_deps": True}, {"ctrl_deps": False}, {"data_deps": False})


def test_formula_agrees_with_the_checker_on_every_plan():
    # Every corpus problem of at most 12 outputs, on every architecture and
    # flag set: an output subset satisfies the formula exactly when the
    # checker accepts its plan.
    problems = subsets = 0
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            for flags in FLAG_SETS:
                for a in analyze_corpus(name, arch_name, **flags):
                    p = a.problem
                    if len(p.outputs) > 12:
                        continue
                    problems += 1
                    for mask in range(1 << len(p.outputs)):
                        trues = frozenset(v for i, v in enumerate(p.outputs) if mask >> i & 1)
                        asg = solver.Assignment(trues, p.objective(trues))
                        accepted = _check(a, emit.to_plan(p, a.cfg, asg)) == []
                        assert encode.satisfies(p, trues) == accepted, (
                            name, arch_name, flags, a.func.name, sorted(map(str, trues)))
                        subsets += 1
    # 241 of the 272 problems, 25,848 subsets when this test was written
    assert problems > 200 and subsets > 20000


def _uncut_constraints(violations):
    """The constraint labels of UNCUT lines, once each, in order."""
    labels = (v[len("UNCUT "):].split(" via ")[0].split(" at ")[0] for v in violations)
    return list(dict.fromkeys(labels))


def test_each_mode_device_fails_the_same_constraints_in_formula_and_checker():
    # Plans of one device, drawn from the checker's side: acquire on each
    # action that reads a value, release on each write, where the profile
    # has the mode. A device the encoder never offers fails here, since the
    # formula then counts it as absent.
    plans = 0
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            for flags in FLAG_SETS:
                for a in analyze_corpus(name, arch_name, **flags):
                    for action in a.cfg.actions.values():
                        for mode, has in (("acquire", action.reads_value),
                                          ("release", action.is_write)):
                            if not has or mode not in a.profile.modes:
                                continue
                            plan = emit.PlacementPlan(a.func.name, arch_name, 0)
                            plan.modes = [emit.ModeUse(mode, action.id)]
                            want = _uncut_constraints(_check(a, plan))
                            got = encode.failed_assertions(
                                a.problem, {encode.OutputVar(mode, (action.id,))})
                            assert list(dict.fromkeys(got)) == want, (
                                name, arch_name, flags, a.func.name, mode, action.id)
                            plans += 1
    # 168 plans when this test was written
    assert plans > 150


def test_empty_plan_rejected_when_work_is_needed():
    for a in analyze_corpus("mp", "armv7"):
        empty = emit.PlacementPlan(a.func.name, "armv7", 0)
        violations = _check(a, empty)
        assert violations
        assert all(v.startswith("UNCUT") for v in violations)


def test_violations_name_the_edge_and_path():
    (a,) = analyze_corpus("overlap", "armv7")
    empty = emit.PlacementPlan("overlap", "armv7", 0)
    violations = _check(a, empty)
    assert any("vo" in v and "->" in v and "via [" in v for v in violations)


def test_mutations_are_caught():
    for name in ("mp", "overlap", "widget", "spinlock"):
        for arch_name in ("armv7", "armv8"):
            for a, plan in _solved(name, arch_name):
                for field in ("barriers", "ctrl_uses", "data_uses", "modes"):
                    items = getattr(plan, field)
                    for i in range(len(items)):
                        mutated = emit.PlacementPlan(
                            plan.function, plan.arch, plan.cost, plan.status, plan.barriers,
                            plan.ctrl_uses, plan.data_uses, plan.modes)
                        setattr(mutated, field, items[:i] + items[i + 1 :])
                        assert _check(a, mutated), (name, a.func.name, arch_name, field)


def test_uncut_witness_is_a_real_path():
    # 2^8 paths; a dmb on both arms of the fourth diamond cuts them all
    (func,) = parse_valid(span_source(8))
    a = analyze(func, "armv7")
    (edge,) = a.closed
    plan = emit.PlacementPlan(func.name, "armv7", 0)
    for arm in ("t3", "e3"):
        anchor, pos = emit.edge_anchor(a.cfg, arm, "j3")
        plan.barriers.append(emit.BarrierPlacement("dmb", arm, "j3", anchor, pos))
    assert _check(a, plan) == []

    del plan.barriers[1]
    (violation,) = _check(a, plan)
    head, via = violation.split(" via ")
    assert head == f"UNCUT vo {edge.src}->{edge.dst}"
    path = via.strip("[]").split(",")
    assert path[0] == a.cfg.action_block[edge.src]
    assert path[-1] == a.cfg.action_block[edge.dst]
    steps = set(zip(path, path[1:]))
    assert steps <= {(s, d) for s, d, _ in a.cfg.edges}
    assert len(set(path)) == len(path)
    assert ("e3", "j3") in steps and ("t3", "j3") not in steps


def test_uncut_lines_name_the_binding():
    # A scoped and an unscoped constraint on one pair, both uncut by the
    # same loop: each line says which one it is, as the encoder's labels do.
    (func,) = parse_valid(
        "func loop {\n  edge pu here(top) l1 -> l1;\n  edge pu l1 -> l1;\n"
        "  block b0:\n    bind top\n    jmp b1\n"
        "  block b1:\n    write @g 1 label l1\n    %c = op more()\n    br %c ? b1 : b2\n"
        "  block b2:\n    ret\n}\n"
    )
    a = analyze(func, "armv7")
    scoped, unscoped = a.closed
    assert (scoped.bind, unscoped.bind) == ("b0", None)
    found = _check(a, emit.PlacementPlan(func.name, "armv7", 0))
    via = " via [b1,b1.s1,crit.b1.s1.b1,b1]"
    assert found == [f"UNCUT pu a0->a0 @b0{via}", f"UNCUT pu a0->a0{via}"]


if HAVE_HYPOTHESIS:

    @given(st.integers(0, 2**32), st.sampled_from(ARCHES))
    @settings(max_examples=300, deadline=None)
    def test_pu_vo_check_equals_per_path_check(seed, arch_name):
        """On random CFGs and plans, a pu/vo constraint is reported exactly
        when some simple path is uncut, and its witness is such a path."""
        rng = random.Random(seed)
        (func,) = parse_valid(random_cut_source(rng))
        a = analyze(func, arch_name)
        for _ in range(4):
            p = rng.random()
            plan = emit.PlacementPlan(func.name, arch_name, 0)
            for s, d in sorted({(s, d) for s, d, _ in a.cfg.edges}):
                for k in a.profile.barriers:
                    if rng.random() < p:
                        anchor, pos = emit.edge_anchor(a.cfg, s, d)
                        plan.barriers.append(emit.BarrierPlacement(k.id, s, d, anchor, pos))
            if "release" in a.profile.modes:
                plan.modes = [emit.ModeUse("release", t) for t in a.cfg.actions if rng.random() < p]
            placed = {(b.kind, b.src, b.dst) for b in plan.barriers}
            for edge in a.closed:
                scope = f" @{edge.bind}" if edge.bind else ""
                head = f"UNCUT {edge.kind} {edge.src}->{edge.dst}{scope} via "
                found = verify.check_plan(a.cfg, [edge], [], a.profile, plan)
                assert all(v.startswith(head) for v in found)
                level = arch.PUSH if edge.kind == "pu" else arch.VIS
                strong = [k.id for k in a.profile.kinds_cutting(level)]
                paths = graph.simple_paths(
                    a.cfg, a.cfg.action_block[edge.src], a.cfg.action_block[edge.dst],
                    excluded=edge.bind, cap=1 << 20,
                )
                uncut = lambda path: not any(
                    (k, u, v) in placed for u, v in zip(path, path[1:]) for k in strong
                )
                exempt = edge.kind == "vo" and (
                    a.profile.vis_exec_free or emit.ModeUse("release", edge.dst) in plan.modes
                )
                assert len(found) == (not exempt and any(map(uncut, paths)))
                if found:
                    witness = tuple(found[0][len(head):].strip("[]").split(","))
                    assert witness in paths and uncut(witness)


def test_misplaced_barrier_rejected():
    (a,) = analyze_corpus("overlap", "armv7")
    # a dmb after the second ordered write cuts neither constraint
    wd_block = a.cfg.action_block[a.closed[1].dst]
    (out_edge,) = [(wd_block, d) for d in a.cfg.succ[wd_block]]
    plan = emit.PlacementPlan("overlap", "armv7", 65)
    plan.barriers.append(
        emit.BarrierPlacement("dmb", out_edge[0], out_edge[1], out_edge[0], "end")
    )
    assert _check(a, plan)


def test_greedy_is_order_sensitive_on_overlap():
    (a,) = analyze_corpus("overlap", "armv7")
    fwd = verify.greedy(a.cfg, a.closed, a.boundaries, a.profile, a.costs)
    rev = verify.greedy(a.cfg, list(reversed(a.closed)), a.boundaries, a.profile, a.costs)
    assert fwd.cost < rev.cost
    assert _check(a, rev) == []  # wasteful but still sound


def test_greedy_never_beats_the_solver():
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            for a, plan in _solved(name, arch_name):
                gp = verify.greedy(a.cfg, a.closed, a.boundaries, a.profile, a.costs)
                assert gp.cost >= plan.cost


def test_brute_min_cap():
    rng = random.Random(0)
    p = random_problem(rng, max_vars=14)
    with pytest.raises(verify.CapExceeded):
        verify.brute_min(p, cap=2)


SYNTH_SOURCE = """\
func f {
  edge xo r -> w;
  block entry:
    jmp b
  block b:
    %v = read @x label r
    jmp m
  block m:
    jmp c
  block c:
    write @y 1 label w
    ret
}
"""


@pytest.mark.parametrize("arch_name", ["armv7", "armv8", "power"])
def test_synth_ctrl_use_needs_strict_domination(arch_name):
    (f,) = parse_valid(SYNTH_SOURCE)
    a = analyze(f, arch_name)
    r, w = a.cfg.actions["a0"], a.cfg.actions["a1"]
    assert (a.cfg.action_block[r.id], a.cfg.action_block[w.id]) == ("b", "c")

    def plan(src, dst, mode):
        p = emit.PlacementPlan("f", arch_name, 0)
        p.ctrl_uses.append(emit.CtrlUse(r.id, src, dst, mode))
        return p

    # b strictly dominates m: a branch on %v can be added there
    assert _check(a, plan("m", "c", "synth")) == []
    # b does not strictly dominate itself, and no block branches on %v
    assert _check(a, plan("b", "m", "synth")) == ["UNCUT xo a0->a1 via [b,m,c]"]
    assert _check(a, plan("m", "c", "existing")) == ["UNCUT xo a0->a1 via [b,m,c]"]


def test_greedy_computes_no_weights_when_it_places_nothing(monkeypatch):
    def unwanted(*args, **kwargs):
        raise AssertionError("edge weights computed with no barrier to cost")

    monkeypatch.setattr(graph, "edge_weights", unwanted)
    for a in analyze_corpus("mp", "x86"):
        plan = verify.greedy(a.cfg, a.closed, a.boundaries, a.profile, a.costs)
        assert plan.barriers == [] and plan.cost == 0


def recursive_depends(defs, src_action, operand, region, stack=frozenset()):
    """Reference: the checker's dependence walk as it was written first,
    one recursive call per value, a value on the current chain counting
    as carrying the dependency."""
    if not isinstance(operand, str):
        return False
    ins = defs.get(operand)
    if ins is None:
        return False
    if isinstance(ins, ir.Action):
        return ins is src_action
    if operand in stack:
        return True
    st = stack | {operand}
    if isinstance(ins, ir.PureOp):
        return any(recursive_depends(defs, src_action, a, region, st) for a in ins.args)
    if isinstance(ins, ir.Phi):
        arms = [o for p, o in ins.arms if p in region]
        return bool(arms) and all(recursive_depends(defs, src_action, o, region, st) for o in arms)
    return False


def random_value_graph(rng):
    """Values %v0.. defined by the source read, other reads, ops and phis
    over blocks b0..b3, each using any value (so phis and ops form
    cycles), an undefined name or a constant."""
    n = rng.randint(1, 8)
    names = [f"%v{i}" for i in range(n)]
    operands = names + ["%undef", 7]
    src = ir.Action("a0", "read", defines="%src")
    defs = {}
    for name in names:
        kind = rng.choice(["src", "read", "op", "op", "phi", "phi"])
        if kind == "src":
            defs[name] = src
        elif kind == "read":
            defs[name] = ir.Action(f"r{name}", "read", defines=name)
        elif kind == "op":
            args = tuple(rng.choice(operands) for _ in range(rng.randint(0, 3)))
            defs[name] = ir.PureOp(name, "f", args)
        else:
            arms = tuple((f"b{rng.randint(0, 3)}", rng.choice(operands))
                         for _ in range(rng.randint(1, 3)))
            defs[name] = ir.Phi(name, arms)
    region = {f"b{i}" for i in range(4) if rng.random() < 0.7}
    return defs, src, operands, region


if HAVE_HYPOTHESIS:

    @given(st.integers(0, 2**32))
    @settings(max_examples=500, deadline=None)
    def test_depends_equals_the_recursive_walk(seed):
        defs, src, operands, region = random_value_graph(random.Random(seed))
        checker = SimpleNamespace(defs=defs)
        for v in operands:
            assert verify.PlanChecker.depends(checker, src, v, region) == recursive_depends(
                defs, src, v, region
            ), (v, defs, region)
