"""Turning a solved assignment into a placement plan, JSON, and
annotated source.

Barriers live on CFG edges; a plan realizes each one at the source
block's end when that block has a single successor, otherwise at the
destination's start (critical edges are already broken, so one of the
two is always unambiguous). Annotated output uses `;;` comment lines,
which the parser ignores, so annotated source re-parses to the same
function.
"""

import json
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote

from .ir import Record, print_function


# Plan items are tuples whose fields are the keys of their JSON objects,
# in order; `_ITEMS` names the plan list each one fills.
# BarrierPlacement: `anchor` is a normalized block id, `position` "begin"
# or "end". CtrlUse: `source` is the action whose value the branch must
# keep depending on, `mode` "existing" or "synth". DataUse: `bind` is the
# binding block id or "-". ModeUse: `mode` is "acquire" or "release".
BarrierPlacement = namedtuple("BarrierPlacement", "kind src dst anchor position")
CtrlUse = namedtuple("CtrlUse", "source src dst mode")
DataUse = namedtuple("DataUse", "bind source target")
ModeUse = namedtuple("ModeUse", "mode action")

_ITEMS = {"barriers": BarrierPlacement, "ctrl_uses": CtrlUse, "data_uses": DataUse,
          "modes": ModeUse}


class PlacementPlan(Record):
    """`status` is "optimal", or "incumbent" when the budget ran out; the
    four item lists are those `_ITEMS` names."""

    __slots__ = ("function", "arch", "cost", "status", "barriers", "ctrl_uses", "data_uses",
                 "modes")

    def __init__(self, function, arch, cost, status="optimal", barriers=None, ctrl_uses=None,
                 data_uses=None, modes=None):
        self.function, self.arch, self.cost, self.status = function, arch, cost, status
        self.barriers, self.ctrl_uses, self.data_uses, self.modes = (
            [] if x is None else x for x in (barriers, ctrl_uses, data_uses, modes))


def edge_anchor(cfg, src, dst):
    """Where an edge barrier lands: (block, position)."""
    if len(cfg.succ[src]) == 1:
        return src, "end"
    return dst, "begin"


def to_plan(problem, cfg, assignment):
    status = "optimal" if assignment.optimal else "incumbent"
    plan = PlacementPlan(problem.function, problem.arch, assignment.cost, status)
    for v in sorted(assignment.true_vars):
        if v.kind == "barrier":
            k, s, d = v.detail
            plan.barriers.append(BarrierPlacement(k, s, d, *edge_anchor(cfg, s, d)))
        elif v.kind == "use_ctrl":
            plan.ctrl_uses.append(CtrlUse(*v.detail))
        elif v.kind == "use_data":
            plan.data_uses.append(DataUse(*v.detail))
        else:
            plan.modes.append(ModeUse(v.kind, *v.detail))
    plan.barriers.sort(key=lambda p: (p.src, p.dst, p.kind))
    plan.ctrl_uses.sort(key=lambda u: (u.source, u.src, u.dst))
    plan.data_uses.sort(key=lambda u: (u.source, u.target, u.bind))
    plan.modes.sort(key=lambda m: (m.action, m.mode))
    return plan


def plan_to_dict(plan):
    d = {"function": plan.function, "arch": plan.arch, "cost": plan.cost, "status": plan.status}
    for key in _ITEMS:
        d[key] = [item._asdict() for item in getattr(plan, key)]
    return d


def plan_from_dict(d):
    items = {key: [cls(*(x[k] for k in cls._fields)) for x in d[key]]
             for key, cls in _ITEMS.items()}
    return PlacementPlan(d["function"], d["arch"], d["cost"], d.get("status", "optimal"), **items)


def _object_template(keys, pad):
    """A `%`-format of the JSON object with these keys, as
    `json.dumps(indent=2, sort_keys=True)` writes it at indent `pad`."""
    body = ",\n".join(f'{pad}  "{k}": %({k})s' for k in sorted(keys))
    return "{\n" + body + "\n" + pad + "}"


_PLAN_JSON = _object_template(("function", "arch", "cost", "status", *_ITEMS), "  ")
_ITEM_JSON = {key: _object_template(cls._fields, "      ") for key, cls in _ITEMS.items()}


def plans_to_json(plans):
    """Deterministic JSON for one or more plans (always an array): the
    bytes of `json.dumps([plan_to_dict(p) ...], indent=2, sort_keys=True)`
    plus a newline, written from the fixed plan shape, since `indent`
    makes `json` fall back to its pure-Python encoder."""
    out = []
    for plan in sorted(plans, key=lambda p: p.function):
        values = {"function": _quote(plan.function), "arch": _quote(plan.arch),
                  "cost": str(plan.cost), "status": _quote(plan.status)}
        for key, template in _ITEM_JSON.items():
            items = [template % dict(zip(item._fields, map(_quote, item)))
                     for item in getattr(plan, key)]
            values[key] = "[\n      " + ",\n      ".join(items) + "\n    ]" if items else "[]"
        out.append(_PLAN_JSON % values)
    if not out:
        return "[]\n"
    return "[\n  " + ",\n  ".join(out) + "\n]\n"


# The keys `plan_from_dict` needs in a plan, with their types; each item
# of each `_ITEMS` list needs its class's fields, every value a string.
_PLAN_KEYS = (("function", str, "a string"), ("arch", str, "a string"), ("cost", int, "an integer"))


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
    first = {}  # function -> index of its plan
    for i, d in enumerate(doc):
        if not isinstance(d, dict):
            raise PlanFormatError(f"plan {i} in the plan file is not an object")
        for key, kind, name in _PLAN_KEYS:
            if key not in d:
                raise PlanFormatError(f"plan {i} in the plan file has no {key!r}")
            if not isinstance(d[key], kind) or isinstance(d[key], bool):
                raise PlanFormatError(f"plan {i} in the plan file: {key!r} is not {name}")
        if d.get("status", "optimal") not in ("optimal", "incumbent"):
            raise PlanFormatError(
                f"plan {i} in the plan file: 'status' is not \"optimal\" or \"incumbent\""
            )
        j = first.setdefault(d["function"], i)
        if j != i:
            raise PlanFormatError(
                f"plan {i} in the plan file: function {d['function']!r} already has plan {j}"
            )
        for key, cls in _ITEMS.items():
            items = d.get(key)
            if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
                raise PlanFormatError(
                    f"plan {i} in the plan file: {key!r} is not a list of objects"
                )
            for j, item in enumerate(items):
                for k in cls._fields:
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

    return print_function(func, notes, f"  ;; arch {plan.arch}, cost {plan.cost}")
