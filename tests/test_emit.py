import functools
import json

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from rmcfence import emit, ir, solver, verify
from conftest import ARCHES, CORPUS_NAMES, analyze_corpus

FLAG_SETS = ({}, {"synth_deps": True}, {"ctrl_deps": False}, {"data_deps": False})


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


# ---------------------------------------------------------------------------
# The plan format and annotated text as written before plan items were
# tuples and `annotate` printed through `ir.print_function`; the current
# code must give equal dicts, equal plans and equal text.

# The keys the plan format reads from each item of each list.
REFERENCE_ITEM_KEYS = {
    "barriers": ("kind", "src", "dst", "anchor", "position"),
    "ctrl_uses": ("source", "src", "dst", "mode"),
    "data_uses": ("bind", "source", "target"),
    "modes": ("mode", "action"),
}


def reference_plan_to_dict(plan):
    return {
        "function": plan.function,
        "arch": plan.arch,
        "cost": plan.cost,
        "status": plan.status,
        "barriers": [
            {"kind": b.kind, "src": b.src, "dst": b.dst, "anchor": b.anchor, "position": b.position}
            for b in plan.barriers
        ],
        "ctrl_uses": [
            {"source": u.source, "src": u.src, "dst": u.dst, "mode": u.mode}
            for u in plan.ctrl_uses
        ],
        "data_uses": [
            {"bind": u.bind, "source": u.source, "target": u.target} for u in plan.data_uses
        ],
        "modes": [{"mode": m.mode, "action": m.action} for m in plan.modes],
    }


def reference_plan_from_dict(d):
    return emit.PlacementPlan(
        function=d["function"],
        arch=d["arch"],
        cost=d["cost"],
        status=d.get("status", "optimal"),
        barriers=[
            emit.BarrierPlacement(b["kind"], b["src"], b["dst"], b["anchor"], b["position"])
            for b in d["barriers"]
        ],
        ctrl_uses=[emit.CtrlUse(u["source"], u["src"], u["dst"], u["mode"])
                   for u in d["ctrl_uses"]],
        data_uses=[emit.DataUse(u["bind"], u["source"], u["target"]) for u in d["data_uses"]],
        modes=[emit.ModeUse(m["mode"], m["action"]) for m in d["modes"]],
    )


def reference_annotate(func, cfg, plan):
    notes = {}  # (orig block, index) -> [str]

    def note(block, position, text):
        key = emit._resolve_anchor(cfg, block, position)
        notes.setdefault(key, []).append(text)

    for b in plan.barriers:
        note(b.anchor, b.position, f";; BARRIER {b.kind} on edge {b.src}->{b.dst}")
    for u in plan.ctrl_uses:
        anchor, pos = emit.edge_anchor(cfg, u.src, u.dst)
        note(anchor, pos, f";; USE-CTRL {u.source} ({u.mode}) on edge {u.src}->{u.dst}")
    for u in plan.data_uses:
        note(cfg.action_block[u.target], "begin", f";; USE-DATA {u.source} -> {u.target}")
    for m in plan.modes:
        note(cfg.action_block[m.action], "begin", f";; {m.mode.upper()} {m.action}")

    lines = [f"func {func.name} {{  ;; arch {plan.arch}, cost {plan.cost}"]
    for d in func.decls:
        here = f"here({d.bind}) " if d.bind else ""
        lines.append(f"  edge {d.kind} {here}{d.src} -> {d.dst};")
    for blk in func.blocks.values():
        lines.append(f"  block {blk.id}:")
        for i, ins in enumerate(blk.instrs):
            for text in notes.get((blk.id, i), ()):
                lines.append(f"    {text}")
            lines.append(f"    {ir.instr_str(ins)}")
        for text in notes.get((blk.id, len(blk.instrs)), ()):
            lines.append(f"    {text}")
        lines.append(f"    {ir.term_str(blk.term)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


@functools.cache
def _all_plans():
    """(analysis, plan) for every corpus function x arch x flag set, the
    solver's plan and the greedy one."""
    out = []
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            for flags in FLAG_SETS:
                for a in analyze_corpus(name, arch_name, **flags):
                    out.append((a, emit.to_plan(a.problem, a.cfg, solver.solve_min(a.problem))))
            for a in analyze_corpus(name, arch_name):
                out.append((a, verify.greedy(a.cfg, a.closed, a.boundaries, a.profile, a.costs)))
    return out


def _every_kind_plan():
    """A plan holding every item kind, on edges and actions of `recv` in
    mp; no corpus plan holds all four."""
    (a,) = [a for a in analyze_corpus("mp", "armv8") if a.func.name == "recv"]
    actions = sorted(a.cfg.actions)
    plan = emit.PlacementPlan("recv", "armv8", 123)
    for s, d, _pseudo in sorted(a.cfg.edges):
        plan.barriers.append(emit.BarrierPlacement("dmb_ld", s, d, *emit.edge_anchor(a.cfg, s, d)))
        plan.ctrl_uses.append(emit.CtrlUse(actions[0], s, d, "synth"))
    plan.data_uses.append(emit.DataUse("-", actions[0], actions[-1]))
    plan.modes += [emit.ModeUse(mode, x) for mode in ("acquire", "release") for x in actions]
    return a, plan


def _check_against_reference(a, plan):
    d = emit.plan_to_dict(plan)
    assert d == reference_plan_to_dict(plan)
    assert list(d) == list(reference_plan_to_dict(plan))
    assert emit.plan_from_dict(d) == reference_plan_from_dict(d) == plan
    assert emit.annotate(a.func, a.cfg, plan) == reference_annotate(a.func, a.cfg, plan)


def test_plan_format_and_annotation_equal_reference():
    kinds = set()
    for a, plan in _all_plans():
        _check_against_reference(a, plan)
        kinds.update(k for k in REFERENCE_ITEM_KEYS if getattr(plan, k))
    assert kinds == set(REFERENCE_ITEM_KEYS)


def test_every_item_kind_equals_reference():
    a, plan = _every_kind_plan()
    _check_against_reference(a, plan)
    # the same items again, with status and a second copy of each, unsorted
    plan = emit.PlacementPlan(plan.function, plan.arch, 7, "incumbent",
                              *(2 * getattr(plan, k)[::-1] for k in REFERENCE_ITEM_KEYS))
    _check_against_reference(a, plan)


def test_item_fields_are_the_json_keys():
    assert {k: cls._fields for k, cls in emit._ITEMS.items()} == REFERENCE_ITEM_KEYS
    assert list(emit._ITEMS) == list(REFERENCE_ITEM_KEYS)


ITEM_FIELDS = [(key, field) for key, fields in REFERENCE_ITEM_KEYS.items() for field in fields]


def _doc_with_every_item(spoil):
    _a, plan = _every_kind_plan()
    doc = reference_plan_to_dict(plan)
    spoil(doc)
    return json.dumps([doc]), plan.function


@pytest.mark.parametrize("key,field", ITEM_FIELDS, ids=[f"{k}.{f}" for k, f in ITEM_FIELDS])
def test_missing_item_key_message(key, field):
    text, name = _doc_with_every_item(lambda d: d[key][0].pop(field))
    with pytest.raises(emit.PlanFormatError) as exc:
        emit.plans_from_json(text)
    assert str(exc.value) == f"plan for {name}: {key}[0] has no {field!r}"


@pytest.mark.parametrize("key,field", ITEM_FIELDS, ids=[f"{k}.{f}" for k, f in ITEM_FIELDS])
def test_non_string_item_value_message(key, field):
    text, name = _doc_with_every_item(lambda d: d[key][0].update({field: 1}))
    with pytest.raises(emit.PlanFormatError) as exc:
        emit.plans_from_json(text)
    assert str(exc.value) == f"plan for {name}: {key}[0] {field!r} is not a string"


def test_first_bad_item_field_is_reported_in_key_order():
    # fields are checked in order within an item, items before later lists
    text, name = _doc_with_every_item(
        lambda d: [item.clear() for k in REFERENCE_ITEM_KEYS for item in d[k]])
    with pytest.raises(emit.PlanFormatError) as exc:
        emit.plans_from_json(text)
    assert str(exc.value) == f"plan for {name}: barriers[0] has no 'kind'"


if HAVE_HYPOTHESIS:
    # Any string: quotes, backslashes, control, line-separator, non-BMP
    # and lone surrogate characters, each more often than chance.
    _json_text = st.text(
        st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f600\ud800'),
                  st.characters(exclude_categories=())),
        max_size=6,
    )

    @st.composite
    def placement_plans(draw):
        items = {key: draw(st.lists(st.builds(cls, *[_json_text] * len(cls._fields)),
                                    max_size=3))
                 for key, cls in emit._ITEMS.items()}
        return emit.PlacementPlan(draw(_json_text), draw(_json_text), draw(st.integers()),
                                  draw(_json_text), **items)

    @given(st.lists(placement_plans(), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_plans_to_json_equals_json_dumps(plans):
        doc = [emit.plan_to_dict(p) for p in sorted(plans, key=lambda p: p.function)]
        assert emit.plans_to_json(plans) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
