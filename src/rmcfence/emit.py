"""Turning a solved assignment into a placement plan, JSON, and
annotated source.

Barriers live on CFG edges; a plan realizes each one at the source
block's end when that block has a single successor, otherwise at the
destination's start (critical edges are already broken, so one of the
two is always unambiguous). Annotated output uses `;;` comment lines,
which the parser ignores, so annotated source re-parses to the same
function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .ir import Action, instr_str, term_str


@dataclass(frozen=True)
class BarrierPlacement:
    kind: str
    src: str
    dst: str
    anchor: str  # normalized block id
    position: str  # "begin" | "end"


@dataclass(frozen=True)
class CtrlUse:
    source: str  # action whose value the branch must keep depending on
    src: str
    dst: str
    mode: str  # existing | synth


@dataclass(frozen=True)
class DataUse:
    bind: str  # binding block id or "-"
    source: str
    target: str


@dataclass(frozen=True)
class ModeUse:
    mode: str  # acquire | release
    action: str


@dataclass
class PlacementPlan:
    function: str
    arch: str
    cost: int
    status: str = "optimal"  # "optimal" | "incumbent" (budget ran out)
    barriers: list = field(default_factory=list)
    ctrl_uses: list = field(default_factory=list)
    data_uses: list = field(default_factory=list)
    modes: list = field(default_factory=list)


def edge_anchor(cfg, src, dst):
    """Where an edge barrier lands: (block, position)."""
    if len(cfg.succ[src]) == 1:
        return src, "end"
    return dst, "begin"


def to_plan(problem, cfg, assignment):
    status = "optimal" if assignment.optimal else "incumbent"
    plan = PlacementPlan(problem.function, problem.arch, assignment.cost, status)
    data_seen = set()
    for v in sorted(assignment.true_vars):
        if v.kind == "barrier":
            k, s, d = v.detail
            anchor, pos = edge_anchor(cfg, s, d)
            plan.barriers.append(BarrierPlacement(k, s, d, anchor, pos))
        elif v.kind == "use_ctrl":
            s, es, ed, mode = v.detail
            plan.ctrl_uses.append(CtrlUse(s, es, ed, mode))
        elif v.kind == "use_data":
            b, s, t, _pid = v.detail
            if (b, s, t) not in data_seen:
                data_seen.add((b, s, t))
                plan.data_uses.append(DataUse(b, s, t))
        else:
            plan.modes.append(ModeUse(v.kind, v.detail[0]))
    plan.barriers.sort(key=lambda p: (p.src, p.dst, p.kind))
    plan.ctrl_uses.sort(key=lambda u: (u.source, u.src, u.dst))
    plan.data_uses.sort(key=lambda u: (u.source, u.target, u.bind))
    plan.modes.sort(key=lambda m: (m.action, m.mode))
    return plan


def plan_to_dict(plan):
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


def plan_from_dict(d):
    return PlacementPlan(
        function=d["function"],
        arch=d["arch"],
        cost=d["cost"],
        status=d.get("status", "optimal"),
        barriers=[
            BarrierPlacement(b["kind"], b["src"], b["dst"], b["anchor"], b["position"])
            for b in d["barriers"]
        ],
        ctrl_uses=[CtrlUse(u["source"], u["src"], u["dst"], u["mode"]) for u in d["ctrl_uses"]],
        data_uses=[DataUse(u["bind"], u["source"], u["target"]) for u in d["data_uses"]],
        modes=[ModeUse(m["mode"], m["action"]) for m in d["modes"]],
    )


def plans_to_json(plans):
    """Deterministic JSON for one or more plans (always an array)."""
    doc = [plan_to_dict(p) for p in sorted(plans, key=lambda p: p.function)]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# The keys `plan_from_dict` needs in a plan, with their types.
_PLAN_KEYS = (("function", str, "a string"), ("arch", str, "a string"), ("cost", int, "an integer"))

# The keys `plan_from_dict` reads from each item of each list; every value is a string.
_ITEM_KEYS = {
    "barriers": ("kind", "src", "dst", "anchor", "position"),
    "ctrl_uses": ("source", "src", "dst", "mode"),
    "data_uses": ("bind", "source", "target"),
    "modes": ("mode", "action"),
}


class PlanFormatError(ValueError):
    """A plan document that is not JSON or not of the shape
    `plans_to_json` writes."""


def plans_from_json(text):
    """Plans from a JSON array of plan objects, or from one plan object,
    given as str or bytes. A document that is not JSON, or of any other
    shape, raises PlanFormatError."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise PlanFormatError(f"plan file is not JSON: {exc}") from None
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise PlanFormatError("plan file must hold a plan object or an array of them")
    for i, d in enumerate(doc):
        if not isinstance(d, dict):
            raise PlanFormatError(f"plan {i} in the plan file is not an object")
        for key, kind, name in _PLAN_KEYS:
            if key not in d:
                raise PlanFormatError(f"plan {i} in the plan file has no {key!r}")
            if not isinstance(d[key], kind) or isinstance(d[key], bool):
                raise PlanFormatError(f"plan {i} in the plan file: {key!r} is not {name}")
        for key, required in _ITEM_KEYS.items():
            items = d.get(key)
            if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
                raise PlanFormatError(
                    f"plan {i} in the plan file: {key!r} is not a list of objects"
                )
            for j, item in enumerate(items):
                for k in required:
                    if k not in item:
                        raise PlanFormatError(f"plan for {d['function']}: {key}[{j}] has no {k!r}")
                    if not isinstance(item[k], str):
                        raise PlanFormatError(
                            f"plan for {d['function']}: {key}[{j}] {k!r} is not a string"
                        )
    return [plan_from_dict(d) for d in doc]


# ---------------------------------------------------------------------------
# Annotated source


def _resolve_anchor(cfg, block, position):
    """Map a normalized anchor to (original block, instruction index).

    Synthetic blocks (critical-edge splitters) carry no instructions;
    follow their jump until source-attributable code appears, and mark
    the note as attached to the far end of the edge.
    """
    seen = set()
    while True:
        orig, idx = cfg.block_origin[block]
        if orig is not None:
            if position == "end":
                idx += len(cfg.blocks[block].instrs)
            return orig, idx
        seen.add(block)
        nxt = cfg.real_succ[block]
        if not nxt or nxt[0] in seen:
            return cfg.block_origin[cfg.entry][0] or cfg.entry, 0
        block, position = nxt[0], "begin"


def annotate(func, cfg, plan):
    """Source text with `;;` notes at the realized placement points."""
    notes = {}  # (orig block, index) -> [str]

    def note(block, position, text):
        key = _resolve_anchor(cfg, block, position)
        notes.setdefault(key, []).append(text)

    for b in plan.barriers:
        note(b.anchor, b.position, f";; BARRIER {b.kind} on edge {b.src}->{b.dst}")
    for u in plan.ctrl_uses:
        anchor, pos = edge_anchor(cfg, u.src, u.dst)
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
            lines.append(f"    {instr_str(ins)}")
        for text in notes.get((blk.id, len(blk.instrs)), ()):
            lines.append(f"    {text}")
        lines.append(f"    {term_str(blk.term)}")
    lines.append("}")
    return "\n".join(lines) + "\n"
