"""Acceptance gate: ten end-to-end criteria, one verdict line each."""

import json
import random
import time

from rmcfence import cli, emit, encode, graph, ir, solver, verify
from conftest import (
    ARCHES,
    CORPUS_NAMES,
    analyze_corpus,
    corpus_path,
    random_problem,
)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def _solve(a):
    asg = solver.solve_min(a.problem)
    return asg, emit.to_plan(a.problem, a.cfg, asg)


def test_criterion_1_overlap_single_straddling_barrier():
    t0 = time.monotonic()
    (a,) = analyze_corpus("overlap", "armv7")
    asg, plan = _solve(a)
    assert len(plan.barriers) == 1
    (b,) = plan.barriers
    assert b.kind == "dmb"
    assert b.src == a.cfg.action_block["a1"]  # after the second write
    assert b.dst == a.cfg.action_block["a2"]  # before the third
    rev = verify.greedy(a.cfg, list(reversed(a.closed)), a.boundaries, a.profile, a.costs)
    assert asg.cost < rev.cost
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"overlap/armv7: one dmb between wb and wc, cost {asg.cost} < "
               f"reversed-order greedy {rev.cost} ({elapsed:.2f}s)")


def test_criterion_2_conditional_barrier_inside_the_arm():
    t0 = time.monotonic()
    (a,) = analyze_corpus("cond", "armv7")
    _asg, plan = _solve(a)
    (b,) = plan.barriers
    succ = a.cfg.real_succ
    branch_block = next(bb for bb in a.cfg.blocks if len(succ[bb]) == 2)
    assert ir.dominance(a.cfg.entry, succ.__getitem__)(branch_block, b.dst)
    assert a.cfg.block_origin[b.dst][0] == "hot"  # lands in the taken arm
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, f"cond/armv7: barrier on {b.src}->{b.dst}, inside the conditional arm "
               f"({elapsed:.2f}s)")


def test_criterion_3_loop_barrier_hoisted_out():
    t0 = time.monotonic()
    (a,) = analyze_corpus("loop", "armv7")
    _asg, plan = _solve(a)
    (b,) = plan.barriers
    depths = graph.weights_and_depths(a.cfg)[1]
    assert depths[(b.src, b.dst)] == 0
    assert b.dst == "head"  # the preheader edge into the loop header
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(3, f"loop/armv7: barrier on preheader edge {b.src}->{b.dst}, depth 0 "
               f"({elapsed:.2f}s)")


def test_criterion_4_x86_orders_come_for_free():
    for name in CORPUS_NAMES:
        for a in analyze_corpus(name, "x86"):
            asg, plan = _solve(a)
            if name == "sb_push":
                assert plan.barriers and asg.cost > 0
                assert {b.kind for b in plan.barriers} == {"mfence"}
                assert not plan.ctrl_uses and not plan.data_uses and not plan.modes
            else:
                assert asg.cost == 0
                assert not (plan.barriers or plan.ctrl_uses or plan.data_uses or plan.modes)
    _report(4, "x86: all non-push programs cost 0; sb_push uses mfence only")


def test_criterion_5_widget_rides_existing_data_dependencies():
    for arch_name in ("armv7", "power"):
        use = next(a for a in analyze_corpus("widget", arch_name)
                   if a.func.name == "use_widget")
        asg, plan = _solve(use)
        assert plan.barriers == [] and plan.modes == []
        assert len(plan.data_uses) == 2
    scoped = next(a for a in analyze_corpus("widget", "armv7")
                  if a.func.name == "use_widget")
    unscoped = next(a for a in analyze_corpus("widget_unscoped", "armv7")
                    if a.func.name == "use_widget")
    s_cost = solver.solve_min(scoped.problem).cost
    u_cost = solver.solve_min(unscoped.problem).cost
    assert s_cost < u_cost
    _report(5, f"widget: zero barriers + 2 data uses on armv7/power; "
               f"unscoped cost {u_cost} > scoped {s_cost}")


def test_criterion_6_control_dependency_needs_self_ordering(monkeypatch):
    # Sound build: whatever the plan uses, the independent checker accepts it.
    (a,) = analyze_corpus("selfdep", "armv7")
    _asg, plan = _solve(a)
    assert verify.check_plan(a.cfg, a.closed, a.boundaries, a.profile, plan) == []
    # Unsound build (side condition stripped: a control dependency's
    # source counts as ordered with its own next occurrence): the
    # optimizer grabs the cheap control dependency and the checker
    # rejects the result.
    monkeypatch.setattr(encode.Encoder, "_ctrl_self", lambda self, bind, s_action: encode.TRUE)
    (bad,) = analyze_corpus("selfdep", "armv7")
    _asg2, plan2 = _solve(bad)
    assert plan2.ctrl_uses
    violations = verify.check_plan(bad.cfg, bad.closed, bad.boundaries, bad.profile, plan2)
    assert violations and all(v.startswith("UNCUT") for v in violations)
    _report(6, "selfdep: side condition enforced; stripped build's ctrl-only plan "
               "rejected by check_plan")


def test_criterion_7_armv8_uses_one_sided_devices():
    plans = {}
    for a in analyze_corpus("mp", "armv8"):
        _asg, plans[a.func.name] = _solve(a)
    recv, send = plans["recv"], plans["send"]
    recv_devices = {b.kind for b in recv.barriers} | {m.mode for m in recv.modes}
    assert recv_devices and recv_devices <= {"dmb_ld", "acquire"}
    send_devices = {b.kind for b in send.barriers} | {m.mode for m in send.modes}
    assert send_devices and send_devices <= {"dmb_ldst", "release"}
    _report(7, f"mp/armv8: recv via {sorted(recv_devices)}, send via "
               f"{sorted(send_devices)}, no full dmb")


def test_criterion_8_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            for a in analyze_corpus(name, arch_name):
                if len(a.problem.outputs) > 16:
                    continue
                assert solver.solve_min(a.problem).cost == verify.brute_min(a.problem).cost
                checked += 1
    rng = random.Random(20260823)
    for _ in range(200):
        p = random_problem(rng, max_vars=14)
        assert solver.solve_min(p).cost == verify.brute_min(p).cost
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(8, f"exhaustive search agrees on {checked} problems ({elapsed:.1f}s)")


def test_criterion_9_soundness_and_mutation():
    t0 = time.monotonic()
    plans = 0
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            for a in analyze_corpus(name, arch_name):
                _asg, plan = _solve(a)
                check = lambda p: verify.check_plan(
                    a.cfg, a.closed, a.boundaries, a.profile, p
                )
                assert check(plan) == []
                gp = verify.greedy(a.cfg, a.closed, a.boundaries, a.profile, a.costs)
                assert check(gp) == []
                plans += 2
                for field in ("barriers", "ctrl_uses", "data_uses", "modes"):
                    items = getattr(plan, field)
                    for i in range(len(items)):
                        mutated = emit.PlacementPlan(
                            plan.function, plan.arch, plan.cost, plan.status, plan.barriers,
                            plan.ctrl_uses, plan.data_uses, plan.modes)
                        setattr(mutated, field, items[:i] + items[i + 1 :])
                        assert check(mutated), (name, a.func.name, arch_name, field, i)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(9, f"checker validated {plans} plans and caught every single-element "
               f"deletion ({elapsed:.1f}s)")


def test_criterion_10_byte_identical_compiles(capsys):
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            outs = []
            for _ in range(2):
                code = cli.main(["compile", str(corpus_path(name)), "--arch", arch_name])
                assert code == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], (name, arch_name)
            json.loads(outs[0])
    with capsys.disabled():
        pass
    _report(10, "compile output byte-identical across runs for every corpus/arch pair")
