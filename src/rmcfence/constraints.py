"""Constraint-edge resolution and closure through no-op actions.

Tags expand to Cartesian products of their action sets; pre/post become
boundary constraints on a single action's CFG neighborhood.

Closure. A chain is a walk of input edges that all carry the same binding
block (or are all unscoped); its kind is the strongest of its steps
(pu > vo > xo), and its midpoints are the actions strictly inside it. For
non-noop actions s and t, `close` derives the edge (k, s, t, b) iff

- some chain from s to t with binding b has kind k and a no-op midpoint,
- no chain from s to t with binding b has kind k and no no-op midpoint
  (a one-step chain is an input edge, so declared keys are never derived).

The output is the input edges whose endpoints are both non-noop, in input
order, followed by the derived edges sorted by (src, dst, strongest kind
first, bind). It does not depend on the order of the input. An input with
no no-op endpoint comes back unchanged.
"""

from collections import deque, namedtuple

STRENGTH = {"xo": 0, "vo": 1, "pu": 2}


# The constraint records are tuples, so building, hashing and comparing
# them runs in C. tests/test_constraints.py pins their fields, defaults,
# repr, equality and hash.
# ConstraintEdge: `kind` is vo | xo | pu, `src` and `dst` are action
# ids, `bind` is the binding block id (None when unscoped), `origin` is
# declared | derived, and a derived edge's `chain` holds the declared
# (kind, src, dst) steps.
class ConstraintEdge(namedtuple("ConstraintEdge", "kind src dst bind origin chain",
                                defaults=(None, "declared", ()))):
    __slots__ = ()

    def key(self):
        return self[:4]  # (kind, src, dst, bind)


# BoundaryConstraint: `kind` is vo | xo; `direction` "pre" when
# everything before must order against `action`, "post" when `action`
# orders against everything after.
BoundaryConstraint = namedtuple("BoundaryConstraint", "kind direction action")


def resolve(func, cfg):
    """Expand declarations into concrete edges and boundary constraints."""
    tags = {}  # tag -> the actions it labels, in text order
    for a in cfg.actions.values():
        for t in a.labels:
            tags.setdefault(t, []).append(a.id)
    edges, boundaries = [], []
    seen = set()
    for decl in func.decls:
        if decl.src == "pre" or decl.dst == "post":  # vo or xo: the parser rejects pu
            tag = decl.dst if decl.src == "pre" else decl.src
            direction = "pre" if decl.src == "pre" else "post"
            for a in tags.get(tag, []):
                boundaries.append(BoundaryConstraint(decl.kind, direction, a))
            continue
        kind = decl.kind
        bind_block = cfg.bind_block[decl.bind] if decl.bind else None
        for s in tags.get(decl.src, []):
            for t in tags.get(decl.dst, []):
                key = (kind, s, t, bind_block)
                if key not in seen:
                    seen.add(key)
                    edges.append(ConstraintEdge(kind, s, t, bind_block))
    return edges, boundaries


def close(edges, actions):
    """Compose edges through no-op actions; see the module docstring.

    One breadth-first search per non-noop source and binding, over states
    (action, strongest kind so far, no-op midpoint crossed). Out-edges are
    visited sorted by (dst, kind), so each derived edge's `chain` is the
    lexicographically first shortest no-op chain, whatever the input order.
    """
    noops = {a for a, act in actions.items() if act.kind == "noop"}
    if not noops or not any(e.src in noops or e.dst in noops for e in edges):
        return list(edges)
    is_noop = noops.__contains__

    succ = {}
    for e in sorted(edges, key=lambda e: (e.dst, e.kind)):
        succ.setdefault((e.src, e.bind), []).append(e)
    derived = []
    for s, b in succ:
        if is_noop(s):
            continue
        parent = {}  # state -> (previous state, input edge)
        queue = deque([(s, None, False)])
        while queue:
            state = queue.popleft()
            m, kind, crossed = state
            crossed = crossed or (kind is not None and is_noop(m))  # m is now a midpoint
            for e in succ.get((m, b), ()):
                k = e.kind if kind is None or STRENGTH[e.kind] > STRENGTH[kind] else kind
                nxt = (e.dst, k, crossed)
                if nxt not in parent:
                    parent[nxt] = (state, e)
                    queue.append(nxt)
        for state in parent:
            t, k, crossed = state
            # A one-edge chain without no-op midpoint is the declared edge itself.
            if crossed and not is_noop(t) and (t, k, False) not in parent:
                steps = []
                while state in parent:
                    state, e = parent[state]
                    steps.append(e.chain or ((e.kind, e.src, e.dst),))
                chain = tuple(step for part in reversed(steps) for step in part)
                derived.append(ConstraintEdge(k, s, t, b, origin="derived", chain=chain))

    # Input edges first, in input order, so declaration order survives closure.
    out = [e for e in edges if not (is_noop(e.src) or is_noop(e.dst))]
    derived.sort(key=lambda e: (e.src, e.dst, -STRENGTH[e.kind], e.bind or ""))
    return out + derived
