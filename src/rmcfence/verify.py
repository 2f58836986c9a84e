"""Independent validation of placement plans, plus reference baselines.

check_plan re-derives everything from scratch — its own graph searches,
its own dependence walk, direct evaluation of the cut rules — and shares
one conclusion with the encoder: no data dependency rides a pseudo edge
(`deps` docstring;
tests/test_deps.py::test_triple_fact_equals_the_per_path_rule checks it
against a per-path reference). A pu or vo edge is checked by a
breadth-first search for a path with no strong-enough barrier, reported
as the witness; an xo edge is checked path by path. A dependency counts
only where the code can carry it: a data one, decided once per (scope,
source, target), on a path with no pseudo edge; an existing control one
at a branch on the source's value, a synthesized one at a block the
source's block strictly dominates. check_claims compares what a plan
states about itself with the function, `emit.edge_anchor` and
`plan_cost`, the encoder's cost rule restated here: the edges, actions
and blocks it names, its barrier anchors and its cost. brute_min is the
exhaustive optimization oracle for small problems; greedy is the
deliberately simple baseline the optimizer is measured against.
"""

from collections import deque

from . import graph
from .arch import EXEC, EXEC_FROM_READ, PUSH, VIS
from .emit import BarrierPlacement, PlacementPlan, edge_anchor
from .ir import Branch, Phi, PureOp, dominance


class CapExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# Plan checking


class PlanChecker:
    def __init__(self, cfg, profile, plan, path_cap=graph.DEFAULT_MAX_PATHS):
        self.cfg = cfg
        self.profile = profile
        self.cap = path_cap
        self.levels = {}  # (src, dst) -> the strongest capability level placed on it
        for b in plan.barriers:
            e = (b.src, b.dst)
            self.levels[e] = max(self.levels.get(e, -1), profile.kind(b.kind).level)
        self.ctrl_uses = set(plan.ctrl_uses)
        self.data_uses = set(plan.data_uses)
        self.modes = set(plan.modes)
        self.defs = {}
        for blk in cfg.blocks.values():
            for ins in blk.instrs:
                if getattr(ins, "defines", None):
                    self.defs[ins.defines] = ins
        self._dominates = None
        self._self_memo = {}
        self._data_memo = {}

    # -- independent path walk (depth-first; cycles when a == b) --

    def paths(self, a, b, excluded=None):
        if a == excluded or b == excluded:
            return []
        found = []
        trail, on_trail = [a], {a}
        # one iterator per trail block, each successor once (`br %c ? x : x`)
        succ = lambda x: iter(dict.fromkeys(self.cfg.succ[x]))
        todo = [succ(a)]
        while todo:
            for nxt in todo[-1]:
                if nxt == excluded:
                    continue
                if nxt == b:
                    found.append(tuple(trail) + (nxt,))
                    if len(found) > self.cap:
                        raise graph.PathExplosion(a, b, self.cap)
                elif nxt not in on_trail:
                    trail.append(nxt)
                    on_trail.add(nxt)
                    todo.append(succ(nxt))
                    break
            else:
                todo.pop()
                on_trail.discard(trail.pop())
        return found

    # -- independent dependence walk (coinductive: on-chain counts as yes) --

    def depends(self, src_action, operand, region):
        """Does `operand` carry src_action's value? An op does when one of
        its arguments does, a phi when it has arms from `region` and every
        one of them does. Coinductive: a value met again on the chain it
        is being asked through counts as carrying it, so the answer is the
        greatest solution of those rules. It is found by marking false
        every value that cannot carry it and spreading that to the values
        using it, one pass over the values `operand` is built from."""
        seen, users = set(), {}  # users: value -> the values using it, once per use
        live = {}  # op -> its arguments not yet known to fail
        false = []  # values known not to carry it, their users still to visit
        todo = [operand]
        while todo:
            v = todo.pop()
            if v in seen:
                continue
            seen.add(v)
            ins = self.defs.get(v) if isinstance(v, str) else None
            args = ()
            if isinstance(ins, PureOp):
                args = ins.args
            elif isinstance(ins, Phi):
                args = [o for p, o in ins.arms if p in region]
            for a in args:
                users.setdefault(a, []).append(v)
            todo.extend(args)
            if isinstance(ins, PureOp) and args:
                live[v] = len(args)
            elif not (isinstance(ins, Phi) and args) and ins is not src_action:
                false.append(v)
        dead = set(false)
        while false:
            for u in users.get(false.pop(), ()):
                if u in dead:
                    continue
                if u in live:
                    live[u] -= 1
                    if live[u]:
                        continue
                dead.add(u)
                false.append(u)
        return operand not in dead

    def _grow(self, start, nbr, avoid):
        out, todo = set(), [start]
        while todo:
            x = todo.pop()
            if x in out or x == avoid:
                continue
            out.add(x)
            todo.extend(nbr[x])
        return out

    # -- direct rule evaluation --

    def _level(self, e):
        return self.levels.get(e, -1)

    def vo_released(self, t_action):
        return t_action.is_write and ("release", t_action.id) in self.modes

    def uncut_path(self, a, b, excluded, level):
        """A path a->b avoiding `excluded` with no barrier cutting `level`
        on it, or None."""
        return _uncut_path(self.cfg.succ, a, b, excluded, lambda e: self._level(e) >= level)

    def xo_path_cut(self, bind, s_action, t_action, path, assume_self=False):
        reads = s_action.reads_value
        level = EXEC_FROM_READ if reads else EXEC  # below VIS: cuts what vo's barriers cut
        if self.vo_released(t_action) or any(self._level(e) >= level for e in zip(path, path[1:])):
            return True
        if not reads:
            return False
        if ("acquire", s_action.id) in self.modes:
            return True
        if t_action.is_write:
            for e in zip(path, path[1:]):
                if self._ctrl_dep(s_action, e):
                    if assume_self or self._self_ordered(bind, s_action, allow_ctrl=True):
                        return True
        key = (bind if bind is not None else "-", s_action.id, t_action.id)
        if (key in self.data_uses and self.cfg.entry not in path[1:]
                and self._data_dep(bind, s_action, t_action)):
            if assume_self or self._self_ordered(bind, s_action, allow_ctrl=False):
                return True
        return False

    def _ctrl_dep(self, s_action, e):
        """Does the plan use a control dependency on s_action's value at
        edge e that the code can carry? An existing use needs e's source
        to branch on the value; a synthesized one needs s_action's block
        to strictly dominate e's source, so a branch can be added there."""
        key = (s_action.id, e[0], e[1])
        if key + ("existing",) in self.ctrl_uses:
            term = self.cfg.blocks[e[0]].term
            if isinstance(term, Branch) and self.depends(
                s_action, term.cond, set(self.cfg.blocks)
            ):
                return True
        if key + ("synth",) in self.ctrl_uses:
            if self._dominates is None:
                self._dominates = dominance(self.cfg.entry, self.cfg.real_succ.__getitem__)
            sblk = self.cfg.action_block[s_action.id]
            return e[0] != sblk and self._dominates(sblk, e[0])
        return False

    def _data_dep(self, bind, s_action, t_action):
        """Does t_action's address, or a write's data, carry s_action's
        value on every path of real edges from s's block to t's block
        avoiding `bind`? Those paths share one region, so it is decided
        once per triple; no path through a pseudo edge carries it."""
        key = (bind, s_action.id, t_action.id)
        hit = self._data_memo.get(key)
        if hit is None:
            blk = self.cfg.action_block
            region = self._grow(blk[s_action.id], self.cfg.real_succ, bind)
            region &= self._grow(blk[t_action.id], self.cfg.real_pred, bind)
            targets = [t_action.address_operand]
            if t_action.kind in ("write", "rmw"):
                targets.append(t_action.data)
            hit = self._data_memo[key] = any(self.depends(s_action, o, region) for o in targets)
        return hit

    def _self_ordered(self, bind, s_action, allow_ctrl):
        """xcut(b,s,s) — or, for the ctrl route, ctrl(b,s,s): no cycle
        through s avoids every usable ctrl edge. The xo route is
        coinductive: a cycle may justify its own ordering, so evaluate the
        cycle paths assuming the answer is yes and accept if that holds."""
        sblk = self.cfg.action_block[s_action.id]
        key = (bind, s_action.id, allow_ctrl)
        hit = self._self_memo.get(key)
        if hit is not None:
            return hit
        if allow_ctrl and _uncut_path(
            self.cfg.succ, sblk, sblk, bind, lambda e: self._ctrl_dep(s_action, e)
        ) is None:
            self._self_memo[key] = True
            return True
        ok = all(
            self.xo_path_cut(bind, s_action, s_action, p, assume_self=True)
            for p in self.paths(sblk, sblk, excluded=bind)
        )
        self._self_memo[key] = ok
        return ok


def _uncut_path(succ, a, b, excluded, cut):
    """Breadth-first search for a shortest a->b path avoiding `excluded`
    on which no edge satisfies `cut`, or None. The path is simple; when
    a == b it is a cycle through a. Every a->b path is cut exactly when
    this finds none, since an uncut walk shortens to an uncut simple path.
    """
    if excluded in (a, b):
        return None
    parent = {a: None}
    todo = deque([a])
    while todo:
        x = todo.popleft()
        for y in succ[x]:
            if y == excluded or cut((x, y)):
                continue
            if y == b:
                path = [y]
                while x is not None:
                    path.append(x)
                    x = parent[x]
                return tuple(reversed(path))
            if y not in parent:
                parent[y] = x
                todo.append(y)
    return None


def _boundary_edges(cfg, bc):
    """The edges into (pre) or out of (post) a boundary's action block."""
    blk = cfg.action_block[bc.action]
    if bc.direction == "pre":
        return [(u, blk) for u in cfg.pred[blk]]
    return [(blk, v) for v in cfg.succ[blk]]


def _fmt_path(path):
    return "[" + ",".join(path) + "]"


def check_plan(cfg, edges, boundaries, profile, plan, path_cap=graph.DEFAULT_MAX_PATHS):
    """Violation strings for every constraint the plan fails to enforce."""
    ck = PlanChecker(cfg, profile, plan, path_cap)
    # Where visibility and execution order are free, only pu can fail.
    free = profile.vis_exec_free
    out = []
    for edge in edges:
        if free and edge.kind != "pu":
            continue
        s_action = cfg.actions[edge.src]
        t_action = cfg.actions[edge.dst]
        sblk = cfg.action_block[edge.src]
        tblk = cfg.action_block[edge.dst]
        if edge.kind == "xo":
            uncut = [
                path
                for path in ck.paths(sblk, tblk, excluded=edge.bind)
                if not ck.xo_path_cut(edge.bind, s_action, t_action, path)
            ]
        elif edge.kind == "pu":
            uncut = [ck.uncut_path(sblk, tblk, edge.bind, PUSH)]
        elif not ck.vo_released(t_action):
            uncut = [ck.uncut_path(sblk, tblk, edge.bind, VIS)]
        else:
            uncut = []
        scope = f" @{edge.bind}" if edge.bind else ""
        for path in filter(None, uncut):
            out.append(f"UNCUT {edge.kind} {edge.src}->{edge.dst}{scope} via {_fmt_path(path)}")
    for bc in () if free else boundaries:
        action = cfg.actions[bc.action]
        for e in _boundary_edges(cfg, bc):
            if bc.kind == "vo":
                ok = ck._level(e) >= VIS or (
                    bc.direction == "pre"
                    and action.is_write
                    and ("release", action.id) in ck.modes
                )
            else:
                reads = action.reads_value and bc.direction == "post"
                ok = ck._level(e) >= (EXEC_FROM_READ if reads else EXEC) or (
                    reads and ("acquire", action.id) in ck.modes
                )
            if not ok:
                out.append(f"UNCUT {bc.direction}({bc.kind}) {bc.action} at {e[0]}->{e[1]}")
    return out


def plan_cost(cfg, costs, plan):
    """The cost of what a plan places, by the encoder's rule restated
    here: a barrier or control-dependency use pays its edge's weight
    times its price, an access mode the heaviest weight of an edge into
    its action's block (1 if none), a data-dependency use its price.
    Edge weights are computed only when something placed needs them."""
    barriers = {b[:3] for b in plan.barriers}  # (kind, src, dst), whatever the anchor
    ctrl = set(plan.ctrl_uses)
    modes = set(plan.modes)
    weights = graph.edge_weights(cfg, costs.loop_factor) if barriers or ctrl or modes else {}
    cost = len(set(plan.data_uses)) * costs.dep("data_existing")
    cost += sum(weights[(s, d)] * costs.kind(k) for k, s, d in barriers)
    for _, s, d, mode in ctrl:
        cost += weights[(s, d)] * costs.dep("ctrl_existing" if mode == "existing" else "ctrl_synth")
    for mode, action in modes:
        blk = cfg.action_block[action]
        cost += max((w for (_, d), w in weights.items() if d == blk), default=1) * costs.mode(mode)
    return cost


def check_claims(cfg, costs, plan):
    """Mismatch strings for what a plan states about itself: every edge
    device on an edge of the function, every action a device names one
    of its actions and every data use's bind "-" or one of its blocks,
    every barrier at the place `emit.edge_anchor` gives its edge, and the
    cost `plan_cost` gives."""
    edges = {(s, d) for s, d, _ in cfg.edges}
    name = plan.function
    out = [f"NO EDGE {name}: {x.src}->{x.dst}" for x in plan.barriers + plan.ctrl_uses
           if (x.src, x.dst) not in edges]
    named = [m.action for m in plan.modes] + [u.source for u in plan.ctrl_uses]
    named += [a for u in plan.data_uses for a in (u.source, u.target)]
    out += [f"NO ACTION {name}: {a}" for a in named if a not in cfg.action_block]
    out += [f"NO BLOCK {name}: data use bound to {u.bind}" for u in plan.data_uses
            if u.bind != "-" and u.bind not in cfg.blocks]
    if out:
        return out
    for b in plan.barriers:
        place = edge_anchor(cfg, b.src, b.dst)
        if (b.anchor, b.position) != place:
            out.append(f"MISPLACED {name}: {b.kind} on {b.src}->{b.dst} is at {b.anchor}"
                       f" {b.position}, belongs at {' '.join(place)}")
    cost = plan_cost(cfg, costs, plan)
    if cost != plan.cost:
        out.append(f"COST {name}: plan states {plan.cost}, its devices cost {cost} at the"
                   " prices check was given (--costs/RMCFENCE_COSTS, --loop-factor);"
                   " a plan compiled at other prices differs too")
    return out


# ---------------------------------------------------------------------------
# Exhaustive oracle


def brute_min(problem, cap=16):
    """Cheapest satisfying assignment by trying every subset. Small inputs only."""
    from . import encode
    from .solver import Assignment

    outputs = problem.outputs
    if len(outputs) > cap:
        raise CapExceeded(f"{len(outputs)} output variables exceeds brute-force cap {cap}")
    best = None
    for mask in range(1 << len(outputs)):
        trues = frozenset(v for i, v in enumerate(outputs) if mask >> i & 1)
        cost = problem.objective(trues)
        if best is not None and cost >= best.cost:
            continue
        if encode.satisfies(problem, trues):
            best = Assignment(trues, cost)
    return best


# ---------------------------------------------------------------------------
# Greedy baseline


def greedy(cfg, edges, boundaries, profile, costs):
    """Barrier-only baseline: walk constraints in order, and when one is
    not yet enforced by barriers already placed, drop the cheapest
    sufficient barrier kind on every in-edge of the destination block
    (in-/out-edges of the action block for boundaries). Never uses
    dependencies or modes."""
    placed = {}  # (src, dst) -> set of kinds

    def capability(kind, s_action):
        if kind == "pu":
            return PUSH
        if kind == "vo":
            return VIS
        return EXEC_FROM_READ if s_action.reads_value else EXEC

    def cheapest(level):
        kinds = profile.kinds_cutting(level)
        if not kinds:
            return None
        return min(kinds, key=lambda k: (costs.kind(k.id), k.id)).id

    def cut(e, level):
        return any(profile.kind(k).level >= level for k in placed.get(e, ()))

    def place(e, kind_id):
        placed.setdefault(e, set()).add(kind_id)

    for edge in edges:
        s_action = cfg.actions[edge.src]
        if profile.vis_exec_free and edge.kind != "pu":
            continue
        level = capability(edge.kind, s_action)
        sblk = cfg.action_block[edge.src]
        tblk = cfg.action_block[edge.dst]
        if _uncut_path(cfg.succ, sblk, tblk, edge.bind, lambda e: cut(e, level)) is None:
            continue
        kind_id = cheapest(level)
        for s in cfg.pred[tblk]:
            place((s, tblk), kind_id)
    for bc in boundaries:
        if profile.vis_exec_free:
            continue
        action = cfg.actions[bc.action]
        level = VIS if bc.kind == "vo" else (
            EXEC_FROM_READ if bc.direction == "post" and action.reads_value else EXEC
        )
        for e in _boundary_edges(cfg, bc):
            if not cut(e, level):
                place(e, cheapest(level))

    plan = PlacementPlan(cfg.func.name, profile.name, 0)
    for (s, d), kinds in sorted(placed.items()):
        for k in sorted(kinds):
            anchor, pos = edge_anchor(cfg, s, d)
            plan.barriers.append(BarrierPlacement(k, s, d, anchor, pos))
    plan.cost = plan_cost(cfg, costs, plan)
    return plan
