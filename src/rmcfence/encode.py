"""Boolean formula and cost objective for barrier/dependency placement.

Every constraint edge becomes a root assertion over defined variables
(vcut/pcut/xcut/ctrl); output variables are the insertable devices
(barriers per CFG edge, dependency uses, per-action acquire/release
modes). The formula is positive in all output variables, and its
definitions may be cyclic; evaluation takes the greatest fixpoint.

A pu or vo edge s->t holds when every s->t walk that avoids the binding
block crosses a barrier strong enough for it (or, for vo, t releases).
That is reachability, not a path list (`Encoder._walk_cut`): `name@v`
says every walk from s to block v crosses one, defined as the AND over
v's in-edges (u, v) of (barrier on (u, v) OR name@u), with s itself
False. Only blocks on some s->t walk take part, and edges out of t are
left out, so every barrier variable sits on an edge of some s->t walk.
A block with one in-edge is inlined into the blocks after it, so a run
of such blocks is one OR row, as a path's barriers were. An xo edge is
the same cut with another per-edge term: an exec-capable barrier (the
capability levels of `arch`, push > vis > exec, make every visibility
barrier one), or a usable ctrl use with s ordered after itself, which
makes the definitions cyclic; t's release or s's acquire cuts it all.

A data-dependency use is one output per (scope, source, target), and
`deps.can_data` decides the triple once. It orders the source's last
read before t with t, in one call: no walk carries it whose stretch
after its last visit of s crosses a pseudo edge (`deps` docstring), and
a walk that passes t and re-enters reaches a later t that it does not
order. A walk cut starts afresh at every visit of s, so the use, with s
ordered after itself, orders exactly the walks of real edges: xcut =
release(t) OR acquire(s) OR ((use AND xcut(b,s,s) OR Cut_real) AND
Cut_crossing). Cut_crossing is the same builder over the CFG taken
twice: block v before the crossing, on real edges, where a walk may
pass t, and v' after it, on all edges.

Only what a plan can change is encoded. On a profile where visibility
and execution order are free (x86), every vo, xo and boundary
constraint is the constant True: `build` emits no assertion or
definition for them, and only pu is encoded. Edge weights are computed
only when there is an output to cost, unless the caller passes them.

Evaluation runs on a form compiled once per problem (`Compiled`, cached
on the `Problem`) and works on bit sets: an assignment is an int bitmask
over the positions in `problem.outputs`, and every def, nested and/or
and assertion owns a slot whose value is one bit of a second int. Each
is a flat row (slot bit, is_and, out_mask, kid_mask), so a row is two
mask tests, one on the outputs and one on its child slots, and "every
assertion holds" is one test against the assertions' slot mask. One
walk over each def yields its rows, the defs it names, and the facts
`solver.dominated` reads; the strongly connected components of those
names (`graph.sccs`) then order the rows, dependencies first. A def
that does not refer to itself, directly or through others, is evaluated
once. A cyclic component, its members in def order whatever the hash
seed, starts at True and descends locally, re-evaluating its rows and
clearing their bits until no def changes; its inputs from earlier
components are already final. The formula is monotone, so this is the
whole system's greatest fixpoint. `def_values`, `failed_assertions` and
`satisfies` take sets of OutputVars and turn them into a mask; the
solver works on the masks and slot ints themselves.

Outputs are tuples (`OutputVar` is a namedtuple), so hashing, comparing
and sorting them runs in C, and the encoder makes one `("out", v)` term
per barrier and reuses it wherever that barrier occurs.
"""

from collections import namedtuple

from . import graph
from .arch import EXEC, EXEC_FROM_READ, PUSH, VIS

TRUE = ("const", True)
FALSE = ("const", False)


class OutputVar(namedtuple("OutputVar", "kind detail")):
    """`kind` is barrier | use_ctrl | use_data | acquire | release;
    `detail` a tuple."""

    __slots__ = ()

    def __str__(self):
        if self.kind == "barrier":
            k, s, d = self.detail
            return f"barrier[{k} @ {s}->{d}]"
        if self.kind == "use_ctrl":
            s, es, ed, mode = self.detail
            return f"use_ctrl[{s} @ {es}->{ed} {mode}]"
        if self.kind == "use_data":
            b, s, t = self.detail
            return f"use_data[{b} {s}->{t}]"
        return f"{self.kind}[{self.detail[0]}]"


EncodeOptions = namedtuple("EncodeOptions", "data_deps ctrl_deps synth_deps",
                           defaults=(True, True, False))


class Problem:
    """`outputs` are sorted OutputVars, `defs` maps a name to its expr,
    `asserts` lists (label, expr) and `weights` holds the price (>= 1) of
    each output, parallel to `outputs`. `_compiled` is built on first
    evaluation."""

    __slots__ = ("function", "arch", "outputs", "defs", "asserts", "weights", "_compiled",
                 "__weakref__")

    def __init__(self, function, arch, outputs, defs, asserts, weights):
        self.function, self.arch, self.outputs, self.defs = function, arch, outputs, defs
        self.asserts, self.weights, self._compiled = asserts, weights, None

    def objective(self, true_vars):
        return sum(w for v, w in zip(self.outputs, self.weights) if v in true_vars)


def _or(parts):
    flat = []
    for p in parts:
        if p == TRUE:
            return TRUE
        if p == FALSE:
            continue
        if p[0] == "or":
            flat.extend(p[1])
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return ("or", tuple(flat))


def _and(parts):
    flat = []
    for p in parts:
        if p == FALSE:
            return FALSE
        if p == TRUE:
            continue
        if p[0] == "and":
            flat.extend(p[1])
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return ("and", tuple(flat))


class Encoder:
    def __init__(self, cfg, edges, boundaries, deps, profile, costs, options=None, weights=None):
        self.cfg = cfg
        self.edges = edges
        self.boundaries = boundaries
        self.deps = deps
        self.profile = profile
        self.costs = costs
        self.weights = weights  # graph.edge_weights at costs.loop_factor, if the caller has it
        self.opt = options or EncodeOptions()
        self.defs = {}
        self.asserts = []
        self.vars = set()
        self._barrier_terms = {}  # (kind id, src, dst) -> its ("out", v) term
        self._building = set()  # the xcut definitions being built
        self._graphs = {}  # (bind, walks) -> successor lists, see _blocks_cut

    # -- small helpers ------------------------------------------------------

    def _bstr(self, bind):
        return bind if bind is not None else "-"

    def _barrier(self, kind_id, edge):
        key = (kind_id, edge[0], edge[1])
        term = self._barrier_terms.get(key)
        if term is None:
            term = self._barrier_terms[key] = ("out", OutputVar("barrier", key))
            self.vars.add(term[1])
        return term

    def _mode_var(self, mode, action_id):
        v = OutputVar(mode, (action_id,))
        self.vars.add(v)
        return ("out", v)

    def _acquire_term(self, action):
        if "acquire" in self.profile.modes and action.reads_value:
            return self._mode_var("acquire", action.id)
        return FALSE

    def _release_term(self, action):
        if "release" in self.profile.modes and action.is_write:
            return self._mode_var("release", action.id)
        return FALSE

    def _define(self, name, expr):
        self.defs[name] = expr
        return ("def", name)

    # -- per-kind encodings -------------------------------------------------

    def _walk_cut(self, name, start, stop, succ, term):
        """Every walk from node `start` to node `stop` crosses an edge
        whose `term(u, v)` holds, for u and v the blocks of its nodes.

        `succ` maps a node to the nodes after it; a node is a block id,
        primed in the second copy of the CFG taken twice. A walk that
        comes back to the start's block is the walk from there, and edges
        out of the stop are left out. U(v), "every walk from the start to
        v crosses one", is the AND over v's in-edges (u, v) on some
        start->stop walk of (term(u, v) OR U(u)), with U(start) False. A
        node with one in-edge is inlined into the nodes after it, so a run
        of such nodes is one OR row; every other node is the definition
        `name@v`. Returns the in-edge conjunction at the stop. The
        formula's greatest fixpoint makes it exact on cycles.
        """
        again = (start, start + "'")
        ahead, ins, todo = {start}, {}, [start]
        while todo:
            u = todo.pop()
            if u == stop and u != start:
                continue
            for v in succ[u]:
                if v in again and v != stop:
                    continue
                ins.setdefault(v, {})[u] = None
                if v not in ahead:
                    ahead.add(v)
                    todo.append(v)
        live, todo = {stop}, [stop]
        while todo:
            for u in ins.get(todo.pop(), ()):
                if u not in live:
                    live.add(u)
                    if u != start:
                        todo.append(u)
        edge = lambda u, v: term(u.rstrip("'"), v.rstrip("'"))
        cut = {start: FALSE}  # node -> the expr of U(node)
        joins = []
        for v in sorted(live - {start, stop}):
            chain = []
            while v not in cut:
                before = [u for u in ins[v] if u in live]
                if len(before) > 1:
                    cut[v] = ("def", f"{name}@{v}")
                    joins.append((v, before))
                    break
                chain.append((before[0], v))
                v = before[0]
            for u, v in reversed(chain):
                cut[v] = _or([edge(u, v), cut[u]])
        in_cut = lambda v, before: _and([_or([edge(u, v), cut[u]]) for u in before])
        for v, before in joins:
            self._define(f"{name}@{v}", in_cut(v, before))
        return in_cut(stop, [u for u in ins.get(stop, ()) if u in live])

    def _blocks_cut(self, name, bind, s, t, term, walks="all"):
        """Every walk from s's block to t's that avoids `bind` crosses an
        edge whose `term` holds: every walk, every walk of real edges
        ("real"), or every walk that crosses a pseudo edge ("crossing").
        The last runs over the CFG taken twice: block v before the
        crossing, on real edges, where a walk may pass t, and v' after
        it, on all edges."""
        sblk, tblk = self.cfg.action_block[s], self.cfg.action_block[t]
        if bind in (sblk, tblk):
            return TRUE
        graph = self._graphs.get((bind, walks))
        if graph is None:
            keep = lambda vs: [v for v in vs if v != bind]
            real, succ = self.cfg.real_succ, self.cfg.succ
            graph = {u: keep(real[u] if walks == "real" else succ[u]) for u in succ}
            if walks == "crossing":  # an exit's edge leads into the second copy
                for u in succ:
                    graph[u + "'"] = [v + "'" for v in graph[u]]
                    graph[u] = keep(real[u]) or graph[u + "'"]
            self._graphs[(bind, walks)] = graph
        return self._walk_cut(name, sblk, tblk + "'" if walks == "crossing" else tblk, graph, term)

    def _cut_by(self, level):
        """The per-edge term of the barriers cutting `level`."""
        kinds = self.profile.kinds_cutting(level)
        return lambda u, v: _or([self._barrier(k.id, (u, v)) for k in kinds])

    def _pcut(self, edge):
        name = f"pcut({self._bstr(edge.bind)},{edge.src},{edge.dst})"
        if name not in self.defs:
            self._define(name, self._blocks_cut(name, edge.bind, edge.src, edge.dst,
                                                self._cut_by(PUSH)))
        return ("def", name)

    def _vcut(self, edge):
        name = f"vcut({self._bstr(edge.bind)},{edge.src},{edge.dst})"
        if name not in self.defs:
            cut = self._blocks_cut(name, edge.bind, edge.src, edge.dst, self._cut_by(VIS))
            self._define(name, _or([cut, self._release_term(self.cfg.actions[edge.dst])]))
        return ("def", name)

    def _ctrl_uses(self, s_action, e):
        """The ctrl use on s_action's value at edge e the code can carry,
        existing or, with --synth-deps, synthesized; FALSE if none."""
        if self.deps.can_ctrl(s_action, e, synth=False):
            mode = "existing"
        elif self.opt.synth_deps and self.deps.can_ctrl(s_action, e, synth=True):
            mode = "synth"
        else:
            return FALSE
        v = OutputVar("use_ctrl", (s_action.id, e[0], e[1], mode))
        self.vars.add(v)
        return ("out", v)

    def _ctrl_self(self, bind, s_action):
        s = s_action.id
        name = f"ctrl({self._bstr(bind)},{s},{s})"
        if name not in self.defs:
            uses = lambda u, v: self._ctrl_uses(s_action, (u, v))
            self._define(name, self._blocks_cut(name, bind, s, s, uses))
        return ("def", name)

    def _xcut(self, bind, s, t):
        """Every s->t walk avoiding `bind` is ordered (see the module
        docstring); builds xcut(b,s,s) and ctrl(b,s,s) when a use needs
        s ordered after itself."""
        name = f"xcut({self._bstr(bind)},{s},{t})"
        if name in self.defs or name in self._building:
            return ("def", name)
        self._building.add(name)
        s_action = self.cfg.actions[s]
        t_action = self.cfg.actions[t]
        # every vis-capable kind is exec-capable, so the barrier half of
        # the vo rule is already among these
        barriers = self._cut_by(EXEC_FROM_READ if s_action.reads_value else EXEC)
        term = barriers
        if self.opt.ctrl_deps and t_action.is_write and s_action.reads_value:
            side = None  # ctrl(b,s,s) OR xcut(b,s,s), built on the first ctrl use

            def term(u, v):
                nonlocal side
                uses = self._ctrl_uses(s_action, (u, v))
                if uses == FALSE:
                    return barriers(u, v)
                if side is None:
                    side = _or([self._ctrl_self(bind, s_action), self._xcut(bind, s, s)])
                return _or([barriers(u, v), _and([uses, side])])

        if self.opt.data_deps and self.deps.can_data(bind, s_action, t_action):
            real = self._blocks_cut(f"{name}.real", bind, s, t, term, "real")
            if real != TRUE:
                use = OutputVar("use_data", (self._bstr(bind), s, t))
                self.vars.add(use)
                real = _or([_and([("out", use), self._xcut(bind, s, s)]), real])
            cut = _and([real, self._blocks_cut(f"{name}.cross", bind, s, t, term, "crossing")])
        else:
            cut = self._blocks_cut(name, bind, s, t, term)
        if cut != TRUE:
            cut = _or([self._release_term(t_action), cut, self._acquire_term(s_action)])
        self._define(name, cut)
        self._building.discard(name)
        return ("def", name)

    # -- boundaries ---------------------------------------------------------

    def _boundary_expr(self, bc):
        action = self.cfg.actions[bc.action]
        blk = self.cfg.action_block[bc.action]
        if bc.direction == "pre":
            edges_ = [(u, blk) for u in self.cfg.pred[blk]]
        else:
            edges_ = [(blk, v) for v in self.cfg.succ[blk]]
        conj = []
        for e in edges_:
            if bc.kind == "vo":
                kinds = self.profile.kinds_cutting(VIS)
                extra = self._release_term(action) if bc.direction == "pre" else FALSE
            else:
                reads = bc.direction == "post" and action.reads_value
                kinds = self.profile.kinds_cutting(EXEC_FROM_READ if reads else EXEC)
                extra = self._acquire_term(action) if reads else FALSE
            conj.append(_or([self._barrier(k.id, e) for k in kinds] + [extra]))
        return _and(conj)

    # -- driver -------------------------------------------------------------

    def build(self):
        # Where visibility and execution order are free, only pu is encoded:
        # every other constraint is the constant True.
        free = self.profile.vis_exec_free
        for edge in self.edges:
            if free and edge.kind != "pu":
                continue
            label = f"{edge.kind} {edge.src}->{edge.dst}" + (
                f" @{edge.bind}" if edge.bind else ""
            )
            if edge.kind == "pu":
                self.asserts.append((label, self._pcut(edge)))
            elif edge.kind == "vo":
                self.asserts.append((label, self._vcut(edge)))
            else:
                self.asserts.append((label, self._xcut(edge.bind, edge.src, edge.dst)))
        for bc in () if free else self.boundaries:
            label = f"{bc.direction}({bc.kind}) {bc.action}"
            self.asserts.append((label, self._boundary_expr(bc)))
        outputs = sorted(self.vars)
        return Problem(
            function=self.cfg.func.name,
            arch=self.profile.name,
            outputs=outputs,
            defs=self.defs,
            asserts=self.asserts,
            weights=self._weights(outputs),
        )

    def _weights(self, outputs):
        """The price of each of the sorted `outputs`."""
        if not outputs:
            return []
        edge_w = self.weights
        if edge_w is None:
            edge_w = graph.edge_weights(self.cfg, self.costs.loop_factor)
        prices = []
        in_w = {}
        for s, d, _ in self.cfg.edges:
            in_w[d] = max(in_w.get(d, 0), edge_w[(s, d)])
        for v in outputs:
            if v.kind == "barrier":
                k, s, d = v.detail
                prices.append(edge_w[(s, d)] * self.costs.kind(k))
            elif v.kind == "use_ctrl":
                _, s, d, mode = v.detail
                cost = self.costs.dep("ctrl_existing" if mode == "existing" else "ctrl_synth")
                prices.append(edge_w[(s, d)] * cost)
            elif v.kind == "use_data":
                prices.append(self.costs.dep("data_existing"))
            else:  # acquire / release
                blk = self.cfg.action_block[v.detail[0]]
                prices.append(in_w.get(blk, 1) * self.costs.mode(v.kind))
        return prices


def build(cfg, edges, boundaries, deps, profile, costs, options=None, weights=None):
    return Encoder(cfg, edges, boundaries, deps, profile, costs, options, weights).build()


# ---------------------------------------------------------------------------
# Evaluation (greatest fixpoint over the defined-variable equations)


_FALSE_SLOT, _TRUE_SLOT = 0, 1


class Compiled:
    """The formula as flat rows over an output bitmask.

    Output `problem.outputs[i]` is the bit `1 << i` of a mask. Every
    definition, every nested and/or and every assertion that is not a bare
    def owns a slot, and the values of all slots are one int whose bit s
    is slot s. A row is (slot bit, is_and, out_mask, kid_mask), kid_mask
    holding the bits of its child slots: an or row is true when
    `m & out_mask` or `val & kid_mask` is non-zero, an and row when both
    equal their mask. Slots 0 and 1 hold the constants False and True.

    One walk over each definition yields its rows, children first, and the
    definitions it names. The strongly connected components of those
    references (`graph.sccs`, dependencies first) order the rows in steps
    (rows, cycle): runs of definitions that do not refer to themselves,
    with cycle 0, and cyclic components, whose members keep their
    definition order and whose def slot bits make up `cycle`. The
    assertions come last; `holds` is the mask of their slots, so every
    assertion holds under `val` when `val & holds == holds`. The same
    walk gathers what `solver.dominated` needs: per output, the mask of
    the outputs named by every or row that names it (`together`), and the
    mask of the outputs named by some and row (`in_and`). The object holds
    nothing of the `Problem`, so caching it there makes no reference cycle.
    """

    def __init__(self, problem):
        n = len(problem.outputs)
        self.index = {v: i for i, v in enumerate(problem.outputs)}
        self.def_slot = def_slot = {name: i + 2 for i, name in enumerate(problem.defs)}
        self.nslots = len(def_slot) + 2
        self.together = [(1 << n) - 1] * n
        self.in_and = 0
        rows_of, refs = {}, {}
        for name, expr in problem.defs.items():
            rows, named = [], {}
            self._row(expr, rows, named, def_slot[name])
            rows_of[name], refs[name] = rows, named
        self.steps = []  # (rows, mask of the def slots of a cyclic component or 0)
        run = []
        for comp in graph.sccs(refs, [(d, r) for d, named in refs.items() for r in named]):
            if len(comp) == 1:
                (name,) = comp
                if name not in refs[name]:
                    run += rows_of[name]
                    continue
            if run:
                self.steps.append((run, 0))
                run = []
            members = sorted(comp, key=def_slot.__getitem__)
            rows = [r for name in members for r in rows_of[name]]
            self.steps.append((rows, sum(1 << def_slot[name] for name in members)))
        if run:
            self.steps.append((run, 0))
        rows = []
        self.asserts = [(label, self._slot(expr, rows, {})) for label, expr in problem.asserts]
        self.holds = 0  # assertions may share a slot, so OR, not sum
        for _label, slot in self.asserts:
            self.holds |= 1 << slot
        self.steps.append((rows, 0))

    def _slot(self, expr, rows, named):
        tag = expr[0]
        if tag == "const":
            return _TRUE_SLOT if expr[1] else _FALSE_SLOT
        if tag == "def":
            named[expr[1]] = None
            return self.def_slot[expr[1]]
        return self._row(expr, rows, named)

    def _row(self, expr, rows, named, slot=None):
        """Append the rows of `expr` to `rows`, its own last, at `slot` or
        a fresh one, and the definitions they name to `named`; returns the
        slot."""
        tag, parts = expr if expr[0] in ("or", "and") else ("or", (expr,))
        mask, kids, outs = 0, 0, []
        for p in parts:
            if p[0] == "out":
                i = self.index[p[1]]
                mask |= 1 << i
                outs.append(i)
            else:
                kids |= 1 << self._slot(p, rows, named)
        if tag == "and":
            self.in_and |= mask
        else:
            together = self.together
            for i in outs:
                together[i] &= mask
        if slot is None:
            slot = self.nslots
            self.nslots += 1
        rows.append((1 << slot, tag == "and", mask, kids))
        return slot

    def values(self, m):
        """The slot values under the output mask `m`, as one int."""
        val = 1 << _TRUE_SLOT
        for rows, cycle in self.steps:
            if not cycle:
                for bit, is_and, mask, kids in rows:
                    if is_and:
                        if m & mask == mask and val & kids == kids:
                            val |= bit
                    elif m & mask or val & kids:
                        val |= bit
                continue
            # A cyclic component starts at True and descends until no def
            # changes; its inputs from earlier steps are final. Nested rows
            # are recomputed before use, so their changes do not count.
            val |= cycle
            while True:
                before = val & cycle
                for bit, is_and, mask, kids in rows:
                    if is_and:
                        v = m & mask == mask and val & kids == kids
                    else:
                        v = m & mask or val & kids
                    if v:
                        val |= bit
                    elif val & bit:
                        val ^= bit
                if val & cycle == before:
                    break
        return val

    def supports(self):
        """(label, output mask of its support, whether it reaches a join)
        per assertion: the outputs it reaches through rows and
        definitions, and whether one of those rows is a join, an and row
        of two or more parts. An acyclic step takes one pass. A cyclic
        component's masks grow from empty until none changes, so its
        child masks are split into slots once, before the passes."""
        join = 1 << len(self.index)
        reach = [0] * self.nslots
        for rows, cycle in self.steps:
            if not cycle:
                for bit, is_and, mask, kids in rows:
                    if is_and and mask.bit_count() + kids.bit_count() > 1:
                        mask |= join
                    while kids:
                        low = kids & -kids
                        mask |= reach[low.bit_length() - 1]
                        kids ^= low
                    reach[bit.bit_length() - 1] = mask
                continue
            links = []
            for bit, is_and, mask, kids in rows:
                if is_and and mask.bit_count() + kids.bit_count() > 1:
                    mask |= join
                slots = []
                while kids:
                    low = kids & -kids
                    slots.append(low.bit_length() - 1)
                    kids ^= low
                links.append((bit.bit_length() - 1, mask, slots))
            changed = True
            while changed:
                changed = False
                for slot, mask, slots in links:
                    for k in slots:
                        mask |= reach[k]
                    if reach[slot] != mask:
                        reach[slot] = mask
                        changed = True
        return [(label, reach[slot] & ~join, reach[slot] & join != 0)
                for label, slot in self.asserts]

    def failing(self, val):
        """Labels of the assertions false in the slot values `val`, in
        assertion order."""
        return [label for label, slot in self.asserts if not val >> slot & 1]

    def mask(self, true_vars):
        """The output mask of a set of OutputVars; others are ignored."""
        return sum(1 << self.index[v] for v in true_vars if v in self.index)


def compiled(problem):
    """The problem's `Compiled` form, built on first use."""
    if problem._compiled is None:
        problem._compiled = Compiled(problem)
    return problem._compiled


def def_values(problem, true_vars):
    """Values of all defined variables under an output assignment: the
    greatest fixpoint, one SCC at a time (see the module docstring)."""
    c = compiled(problem)
    val = c.values(c.mask(true_vars))
    return {name: bool(val >> slot & 1) for name, slot in c.def_slot.items()}


def failed_assertions(problem, true_vars):
    c = compiled(problem)
    return c.failing(c.values(c.mask(true_vars)))


def satisfies(problem, true_vars):
    c = compiled(problem)
    return c.values(c.mask(true_vars)) & c.holds == c.holds
