"""Layer tracing for the benchmark.

The benchmark times each layer from outside the program: `Tracer.install`
replaces the public functions of `ir`, `constraints`, `deps`, `graph`,
`encode`, `solver`, `emit` and `verify` with wrappers that record a span
around every call, and `Tracer.uninstall` puts the originals back.
Nothing in the program changes. The CLI reaches every layer through a
module attribute (`ir.parse`, `encode.build`, ...) or a class attribute
(`DepAnalysis.can_data`), so patching those attributes sees each call the
CLI makes, and the nested calls `encode` makes into `graph` and `deps`
and `solver` makes into `encode.satisfies`.

Spans live in flat in-memory lists (name, start, end, parent, request).
Wrappers record counts next to the spans; anything that needs more than
a `len()` is deferred to `pass_metrics`, after the timed pass, so that it
does not inflate the self time of the caller.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

ROOT_COMPILE = "cli.compile"
ROOT_CHECK = "cli.check"


def _layer_targets(rm):
    """(owner, attribute, span name, result counter) for every wrapped call."""
    d = rm.deps.DepAnalysis
    return [
        (rm.ir, "parse", "ir.parse", None),
        (rm.ir, "validate", "ir.validate", None),
        (rm.ir, "normalize", "ir.normalize",
         lambda c, cfg: (c.add("ir.blocks", len(cfg.blocks)), c.add("ir.cfg_edges", len(cfg.edges)))),
        (rm.constraints, "resolve", "constraints.resolve",
         lambda c, r: c.add("constraints.edges_declared", len(r[0]))),
        (rm.constraints, "close", "constraints.close",
         lambda c, r: c.add("constraints.edges_closed", len(r))),
        (d, "__init__", "deps.init", None),
        (d, "can_data", "deps.can_data", lambda c, r: c.add("deps.queries", 1)),
        (d, "can_ctrl", "deps.can_ctrl", lambda c, r: c.add("deps.queries", 1)),
        (rm.graph, "edge_weights", "graph.edge_weights", None),
        (rm.graph, "simple_paths", "graph.simple_paths",
         lambda c, r: (c.add("graph.paths_calls", 1), c.add("graph.paths", len(r)))),
        (rm.encode, "build", "encode.build", lambda c, r: c.problems.append(r)),
        (rm.encode, "satisfies", "encode.satisfies", lambda c, r: c.add("encode.evals", 1)),
        (rm.solver, "solve_min", "solver.solve_min",
         lambda c, r: c.add("solver.nodes", r.decisions)),
        (rm.emit, "to_plan", "emit.to_plan", None),
        (rm.emit, "plans_to_json", "emit.plans_to_json",
         lambda c, r: c.add("emit.bytes", len(r.encode("utf-8")))),
        (rm.verify, "check_plan", "verify.check_plan",
         lambda c, r: c.add("verify.violations", len(r))),
    ]


class Tracer:
    def __init__(self, rm):
        self._targets = _layer_targets(rm)
        self._saved = []
        self.reset()

    # -- recording ------------------------------------------------------------

    def reset(self):
        self.names, self.starts, self.ends, self.parents, self.reqs = [], [], [], [], []
        self.roots = []  # index of each span's root span
        self.requests = []  # (file, arch, repetition)
        self.counts = defaultdict(int)
        self.problems = []
        self._stack = []
        self._req = -1

    def add(self, name, n):
        """Add to a count, kept apart per root command (compile or check)."""
        root = self.names[self.roots[self._stack[-1]]] if self._stack else None
        self.counts[(root, name)] += n

    def begin_request(self, file, arch, rep):
        self.requests.append((file, arch, rep))
        self._req = len(self.requests) - 1

    def open(self, name):
        i = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else i)
        self.reqs.append(self._req)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args):
        i = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(i)

    # -- patching -------------------------------------------------------------

    def _wrapper(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if count is not None:
                count(tracer, result)
            return result

        return traced

    def install(self):
        assert not self._saved, "tracer already installed"
        for owner, attr, name, count in self._targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, name, count))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """Per span: (duration, self time)."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [(self.ends[i] - self.starts[i], self.ends[i] - self.starts[i] - child[i])
                for i in range(n)]

    def pass_metrics(self):
        """Per-layer metrics of the pass recorded since the last reset."""
        total = defaultdict(float)
        self_t = defaultdict(float)
        for i, (dur, own) in enumerate(self.self_times()):
            key = (self.names[self.roots[i]], self.names[i])
            total[key] += dur
            self_t[key] += own
        comp = lambda name: self_t[(ROOT_COMPILE, name)]
        c = {name: n for (root, name), n in self.counts.items() if root == ROOT_COMPILE}
        c = defaultdict(int, c)
        evals, nodes = c["encode.evals"], c["solver.nodes"]
        eval_s = comp("encode.satisfies")
        m = {
            "ir.parse_s": comp("ir.parse"),
            "ir.validate_s": comp("ir.validate"),
            "ir.normalize_s": comp("ir.normalize"),
            "ir.blocks": c["ir.blocks"],
            "ir.cfg_edges": c["ir.cfg_edges"],
            "constraints.resolve_s": comp("constraints.resolve"),
            "constraints.close_s": comp("constraints.close"),
            "constraints.edges_declared": c["constraints.edges_declared"],
            "constraints.edges_closed": c["constraints.edges_closed"],
            "deps.init_s": comp("deps.init"),
            "deps.query_s": comp("deps.can_data") + comp("deps.can_ctrl"),
            "deps.self_s": comp("deps.init") + comp("deps.can_data") + comp("deps.can_ctrl"),
            "deps.queries": c["deps.queries"],
            "graph.weights_s": comp("graph.edge_weights"),
            "graph.paths_s": comp("graph.simple_paths"),
            "graph.paths_calls": c["graph.paths_calls"],
            "graph.paths": c["graph.paths"],
            "encode.build_self_s": comp("encode.build"),
            "encode.outputs": sum(len(p.outputs) for p in self.problems),
            "encode.defs": sum(len(p.defs) for p in self.problems),
            "encode.asserts": sum(len(p.asserts) for p in self.problems),
            "encode.cyclic_funcs": sum(1 for p in self.problems if has_cycle(p.defs)),
            "encode.eval_s": eval_s,
            "encode.evals": evals,
            "encode.eval_us_per_call": eval_s / evals * 1e6 if evals else 0.0,
            "solver.solve_s": total[(ROOT_COMPILE, "solver.solve_min")],
            "solver.self_s": comp("solver.solve_min"),
            "solver.nodes": nodes,
            "solver.evals_per_node": evals / nodes if nodes else 0.0,
            "emit.plan_s": comp("emit.to_plan"),
            "emit.json_s": comp("emit.plans_to_json"),
            "emit.bytes": c["emit.bytes"],
            "verify.check_s": total[(ROOT_CHECK, "verify.check_plan")],
            "verify.violations": self.counts[(ROOT_CHECK, "verify.violations")],
            "cli.other_s": comp(ROOT_COMPILE),
            "cli.compile_s": total[(ROOT_COMPILE, ROOT_COMPILE)],
        }
        return m

    def write(self, path, t0):
        """Spans of the recorded pass as JSON lines, times relative to t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                req = self.requests[self.reqs[i]] if self.reqs[i] >= 0 else None
                fh.write(json.dumps({
                    "name": name,
                    "start": self.starts[i] - t0,
                    "end": self.ends[i] - t0,
                    "parent": self.parents[i],
                    "request": list(req) if req else None,
                }) + "\n")


def has_cycle(defs):
    """Is the graph of definitions referring to definitions cyclic?"""
    refs = {}
    for name, expr in defs.items():
        acc, stack = set(), [expr]
        while stack:
            e = stack.pop()
            if e[0] == "def":
                acc.add(e[1])
            elif e[0] in ("or", "and"):
                stack.extend(e[1])
        refs[name] = acc
    state = {}
    for start in refs:
        if start in state:
            continue
        state[start] = 1
        stack = [(start, iter(refs[start]))]
        while stack:
            node, it = stack[-1]
            for m in it:
                if state.get(m) == 1:
                    return True
                if m not in state and m in refs:
                    state[m] = 1
                    stack.append((m, iter(refs[m])))
                    break
            else:
                state[node] = 2
                stack.pop()
    return False
