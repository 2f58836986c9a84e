"""Loop structure, edge weights, and simple-path/cycle enumeration.

Weights realize "how often does this edge run" as
pathcount(e) * loop_factor^depth(e), both read off one depth-first
search over the real edges: pathcount over the DAG left without its
retreating edges, in reverse postorder, and depth from the loops those
edges close.
"""

from __future__ import annotations

from .ir import Ret, depth_first

DEFAULT_MAX_PATHS = 4096


class PathExplosion(Exception):
    def __init__(self, src, dst, cap):
        self.src, self.dst, self.cap = src, dst, cap
        super().__init__(f"more than {cap} simple paths from {src!r} to {dst!r}")


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


def edge_weights(cfg, loop_factor=4):
    """w(e) = max(1, pathcount(e)) * loop_factor^depth(e), exact.

    pathcount counts entry->exit simple paths through e in the DAG left
    after deleting back and pseudo edges; a pseudo edge counts the full
    paths that end at its source exit. depth(e) is the number of loops
    enclosing e (0 for pseudo edges). One depth-first search serves both.
    """
    return weights_and_depths(cfg, loop_factor)[0]


def weights_and_depths(cfg, loop_factor=4):
    """(`edge_weights`, map (src, dst) -> number of enclosing loops, 0 for
    pseudo edges) of `cfg` from one depth-first search over real edges.

    The back edges are the search's retreating edges. The loop of header
    h is h plus the blocks that reach one of its latches backwards
    without passing h and lie in h's search subtree (Ramalingam, "On
    Loops, Dominators, and Dominance Frontiers", 2002). In a reducible
    CFG these are the natural loops; in an irreducible one the subtree
    bound keeps a loop from spilling out through a second entry, so only
    edges on a cycle get a depth.
    """
    if loop_factor < 1:
        raise ValueError("loop_factor must be >= 1")
    succ, pred = cfg.real_succ, cfg.real_pred
    order, pre, post, back = depth_first(cfg.entry, succ.__getitem__)
    from_entry = {b: 0 for b in cfg.blocks}
    from_entry[cfg.entry] = 1
    for b in order:
        for v in succ[b]:
            if (b, v) not in back:
                from_entry[v] += from_entry[b]
    to_exit = {b: (1 if isinstance(cfg.blocks[b].term, Ret) else 0) for b in cfg.blocks}
    for b in reversed(order):
        for v in succ[b]:
            if (b, v) not in back:
                to_exit[b] += to_exit[v]

    bodies = {}
    for u, h in back:
        body = bodies.setdefault(h, {h})
        stack = [u]
        while stack:
            b = stack.pop()
            if b not in body and pre[h] <= pre[b] and post[b] <= post[h]:
                body.add(b)
                stack.extend(pred[b])

    weights, depths = {}, {}
    for s, d, pseudo in cfg.edges:
        if pseudo:
            count, depth = from_entry[s], 0
        else:
            # a back edge counts the executions reaching its latch
            count = from_entry[s] if (s, d) in back else from_entry[s] * to_exit[d]
            depth = sum(1 for body in bodies.values() if s in body and d in body)
        weights[(s, d)] = max(1, count) * loop_factor**depth
        depths[(s, d)] = depth
    return weights, depths


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
    stack = [iter(succ[src])]  # one successor iterator per block on `path`
    while stack:
        for v in stack[-1]:
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
            stack.append(iter(succ[v]))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
    return sorted(out)
