import json

from rmcfence import emit, ir, solver
from conftest import ARCHES, CORPUS_NAMES, analyze_corpus


def _plans(name, arch_name):
    for a in analyze_corpus(name, arch_name):
        asg = solver.solve_min(a.problem)
        yield a, emit.to_plan(a.problem, a.cfg, asg)


def test_json_round_trip_exact():
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            plans = [p for _a, p in _plans(name, arch_name)]
            text = emit.plans_to_json(plans)
            back = emit.plans_from_json(text)
            assert back == sorted(plans, key=lambda p: p.function)
            assert emit.plans_to_json(back) == text


def test_json_is_sorted_and_stable():
    plans = [p for _a, p in _plans("mp", "armv8")]
    doc = json.loads(emit.plans_to_json(plans))
    assert [d["function"] for d in doc] == sorted(d["function"] for d in doc)
    assert emit.plans_to_json(plans) == emit.plans_to_json(list(reversed(plans)))


def test_single_object_plan_document_accepted():
    (plan,) = [p for _a, p in _plans("overlap", "armv7")]
    text = json.dumps(emit.plan_to_dict(plan))
    assert emit.plans_from_json(text) == [plan]


def test_edge_anchor_realization():
    for name in ("cond", "selfdep", "mp"):
        for a, plan in _plans(name, "armv7"):
            for b in plan.barriers:
                if b.position == "end":
                    assert b.anchor == b.src
                    assert len(a.cfg.succ[b.src]) == 1
                else:
                    assert b.anchor == b.dst
                    assert len(a.cfg.succ[b.src]) > 1


def test_annotate_round_trips_through_parser():
    for name in CORPUS_NAMES:
        for arch_name in ("armv7", "armv8"):
            for a, plan in _plans(name, arch_name):
                text = emit.annotate(a.func, a.cfg, plan)
                (back,) = ir.parse(text)
                assert ir.print_function(back) == ir.print_function(a.func)


def test_annotate_mentions_every_plan_element():
    for a, plan in _plans("mp", "armv8"):
        text = emit.annotate(a.func, a.cfg, plan)
        for b in plan.barriers:
            assert f";; BARRIER {b.kind}" in text
        for m in plan.modes:
            assert f";; {m.mode.upper()} {m.action}" in text
    for a, plan in _plans("widget", "armv7"):
        text = emit.annotate(a.func, a.cfg, plan)
        for u in plan.data_uses:
            assert f";; USE-DATA {u.source} -> {u.target}" in text


def test_plan_elements_are_sorted():
    for name in CORPUS_NAMES:
        for _a, plan in _plans(name, "armv8"):
            assert plan.barriers == sorted(
                plan.barriers, key=lambda b: (b.src, b.dst, b.kind)
            )
            assert plan.data_uses == sorted(
                plan.data_uses, key=lambda u: (u.source, u.target, u.bind)
            )
