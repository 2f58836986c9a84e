"""Loop structure, edge weights, and simple-path/cycle enumeration.

Weights realize "how often does this edge run" as
pathcount(e) * loop_factor^depth(e), both read off one depth-first
search over the real edges: pathcount over the DAG left without its
retreating edges, in reverse postorder, and depth from the loops those
edges close.
"""

from .ir import Ret, depth_first

DEFAULT_MAX_PATHS = 4096


class PathExplosion(Exception):
    def __init__(self, src, dst, cap):
        self.src, self.dst, self.cap = src, dst, cap
        super().__init__(f"more than {cap} simple paths from {src!r} to {dst!r}")


def sccs(nodes, edges):
    """Tarjan over an explicit edge set.

    Components come out dependencies first: every component is emitted
    after all components reachable from it. The search starts from the
    nodes in sorted order and follows each node's edges in the order
    given, scanning each edge once.
    """
    order = sorted(nodes)
    num = {n: i for i, n in enumerate(order)}
    succ = [[] for _ in order]
    for u, v in edges:
        succ[num[u]].append(num[v])
    index = [-1] * len(order)  # -1: not reached yet
    low = [0] * len(order)
    on_stack = [False] * len(order)
    stack, out = [], []
    counter = 0
    for root in range(len(order)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.add(order[w])
                        if w == v:
                            break
                    out.append(comp)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
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
    past `cap`. The encoder and the checker cut walks and never call it:
    it is the tests' per-path reference, and the traced benchmark wraps it
    by name.
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
