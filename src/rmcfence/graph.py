"""Loop structure, edge weights, and simple-path/cycle enumeration.

Weights realize "how often does this edge run" as
pathcount(e) * loop_factor^depth(e): pathcount over the back-edge-free
DAG of real edges, depth from natural loops (SCC nesting as a fallback
for irreducible regions).
"""

from __future__ import annotations

from .ir import Ret, compute_dominators

DEFAULT_MAX_PATHS = 4096


class PathExplosion(Exception):
    def __init__(self, src, dst, cap):
        self.src, self.dst, self.cap = src, dst, cap
        super().__init__(f"more than {cap} simple paths from {src!r} to {dst!r}")


def _back_edges(cfg):
    """Back edges over real edges: (u, v) with v dominating u.

    Falls back to SCC-based edge removal when the graph is irreducible
    (dominance-based natural loops are undefined there): then the real
    edges minus the dominance back edges still hold a cycle, which a
    topological order cannot cover.
    """
    succ = cfg.real_succ
    dom = compute_dominators(list(cfg.blocks), cfg.entry, lambda b: succ[b])
    back = {(u, v) for u in cfg.blocks for v in succ[u] if v in dom[u]}
    rest = {u: [v for v in succ[u] if (u, v) not in back] for u in cfg.blocks}
    if len(_topo(cfg.blocks, rest)) == len(cfg.blocks):
        return back
    return _scc_back_edges(cfg)


def _scc_back_edges(cfg):
    """Break each non-trivial SCC at its smallest-id node, recursively."""
    succ = cfg.real_succ
    removed = set()

    def strip(nodes, edges):
        for comp in sccs(nodes, edges):
            comp_edges = {(u, v) for u, v in edges if u in comp and v in comp}
            if len(comp) == 1 and not comp_edges:
                continue
            header = min(comp)
            cut = {(u, v) for u, v in comp_edges if v == header}
            removed.update(cut)
            strip(comp, comp_edges - cut)

    all_edges = {(u, v) for u in cfg.blocks for v in succ[u]}
    strip(set(cfg.blocks), all_edges)
    return removed


def sccs(nodes, edges):
    """Tarjan over an explicit edge set.

    Components come out dependencies first: every component is emitted
    after all components reachable from it.
    """
    succ = {n: [] for n in nodes}
    for u, v in edges:
        succ[u].append(v)
    index, low, on_stack = {}, {}, set()
    stack, out = [], []
    counter = [0]

    def visit(v):
        work = [(v, 0)]
        while work:
            node, pi = work.pop()
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            for i in range(pi, len(succ[node])):
                w = succ[node][i]
                if w not in index:
                    work.append((node, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if recurse:
                continue
            for w in succ[node]:
                if w in index and w in on_stack and low.get(w, 1 << 60) < low[node]:
                    low[node] = min(low[node], low[w])
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                out.append(comp)
    for n in sorted(nodes):
        if n not in index:
            visit(n)
    return out


def _loop_bodies(cfg, back):
    """Natural-loop (or SCC-fallback) bodies, keyed by header block."""
    pred = cfg.real_pred
    bodies = {}
    for u, h in sorted(back):
        body = bodies.setdefault(h, {h})
        stack = [u]
        while stack:
            b = stack.pop()
            if b in body:
                continue
            body.add(b)
            stack.extend(pred[b])
    return bodies


def _depths(cfg, back):
    bodies = _loop_bodies(cfg, back)
    depths = {}
    for s, d, pseudo in cfg.edges:
        if pseudo:
            depths[(s, d)] = 0
        else:
            depths[(s, d)] = sum(1 for body in bodies.values() if s in body and d in body)
    return depths


def edge_weights(cfg, loop_factor=4):
    """w(e) = max(1, pathcount(e)) * loop_factor^depth(e), exact.

    pathcount counts entry->exit simple paths through e in the DAG left
    after deleting back and pseudo edges; a pseudo edge counts the full
    paths that end at its source exit. depth(e) is the number of loops
    enclosing e (0 for pseudo edges). One back-edge pass serves both.
    """
    return weights_and_depths(cfg, loop_factor)[0]


def weights_and_depths(cfg, loop_factor=4):
    """(`edge_weights`, map (src, dst) -> number of enclosing loops, 0 for
    pseudo edges) of `cfg` from one back-edge pass."""
    if loop_factor < 1:
        raise ValueError("loop_factor must be >= 1")
    back = _back_edges(cfg)
    succ = {b: [] for b in cfg.blocks}
    for s, d, pseudo in cfg.edges:
        if not pseudo and (s, d) not in back:
            succ[s].append(d)

    order = _topo(cfg.blocks, succ)
    from_entry = {b: 0 for b in cfg.blocks}
    from_entry[cfg.entry] = 1
    for b in order:
        for v in succ[b]:
            from_entry[v] += from_entry[b]
    exits = {b for b in cfg.blocks if _is_ret(cfg, b)}
    to_exit = {b: (1 if b in exits else 0) for b in cfg.blocks}
    for b in reversed(order):
        for v in succ[b]:
            to_exit[b] += to_exit[v]

    depths = _depths(cfg, back)
    weights = {}
    for s, d, pseudo in cfg.edges:
        if pseudo:
            count = from_entry[s]
        elif (s, d) in back:
            count = from_entry[s]  # executions reaching the latch
        else:
            count = from_entry[s] * to_exit[d]
        weights[(s, d)] = max(1, count) * loop_factor ** depths[(s, d)]
    return weights, depths


def _is_ret(cfg, b):
    return isinstance(cfg.blocks[b].term, Ret)


def _topo(nodes, succ):
    indeg = {b: 0 for b in nodes}
    for b in nodes:
        for v in succ[b]:
            indeg[v] += 1
    work = sorted(b for b in nodes if indeg[b] == 0)
    out = []
    while work:
        b = work.pop()
        out.append(b)
        for v in succ[b]:
            indeg[v] -= 1
            if indeg[v] == 0:
                work.append(v)
    return out


def simple_paths(cfg, src, dst, excluded=None, cap=DEFAULT_MAX_PATHS):
    """All simple paths src->dst over real+pseudo edges, avoiding `excluded`.

    src == dst yields the simple cycles through that block (endpoints
    repeated). Lexicographic by block-id sequence. Raises PathExplosion
    past `cap`.
    """
    if src == excluded or dst == excluded:
        return []
    succ = {b: sorted(set(vs)) for b, vs in cfg.succ.items()}

    out = []
    path = [src]
    on_path = {src}

    def walk(b):
        for v in succ[b]:
            if v == excluded:
                continue
            if v == dst:
                out.append(tuple(path) + (v,))
                if len(out) > cap:
                    raise PathExplosion(src, dst, cap)
                continue
            if v in on_path:
                continue
            path.append(v)
            on_path.add(v)
            walk(v)
            path.pop()
            on_path.discard(v)

    walk(src)
    return sorted(out)
