import itertools
import json
import pathlib
import random
from types import SimpleNamespace

import pytest

try:
    from hypothesis import assume, given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from rmcfence import graph, ir
from conftest import CORPUS_NAMES, load_corpus, naive_dominators, parse_valid, random_cut_source

# "<file stem> <function>" -> "src->dst" -> [weight, depth] at the default
# loop factor, for every edge of every corpus function.
CORPUS_WEIGHTS = json.loads((pathlib.Path(__file__).parent / "corpus_weights.json").read_text())


def stub_cfg(block_ids, edges):
    """Minimal object with the fields simple_paths needs."""
    succ = {b: [] for b in block_ids}
    for s, d, _ in edges:
        succ[s].append(d)
    return SimpleNamespace(succ=succ)


def brute_paths(block_ids, edges, src, dst, excluded):
    """Reference enumeration, written without shared code: extend every
    partial path by every edge until it reaches dst."""
    succ = {b: set() for b in block_ids}
    for s, d, _ in edges:
        succ[s].add(d)
    done = []
    frontier = [] if src == excluded or dst == excluded else [(src,)]
    while frontier:
        p = frontier.pop()
        for n in succ[p[-1]]:
            if n == excluded:
                continue
            if n == dst:
                done.append(p + (n,))
            elif n not in p:
                frontier.append(p + (n,))
    return sorted(done)


def test_simple_paths_matches_reference_on_random_graphs():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 6)
        ids = [f"b{i}" for i in range(n)]
        edges = [
            (a, b, False)
            for a, b in itertools.permutations(ids, 2)
            if rng.random() < 0.4
        ]
        cfg = stub_cfg(ids, edges)
        src, dst = rng.choice(ids), rng.choice(ids)
        excluded = rng.choice(ids + [None])
        assert graph.simple_paths(cfg, src, dst, excluded) == brute_paths(
            ids, edges, src, dst, excluded
        )


def test_simple_paths_cycles_at_node():
    cfg = stub_cfg(["a", "b", "c"], [("a", "b", False), ("b", "a", False), ("b", "c", False)])
    assert graph.simple_paths(cfg, "a", "a") == [("a", "b", "a")]
    assert graph.simple_paths(cfg, "c", "c") == []


def test_simple_paths_explosion():
    # layered graph with 2^10 paths
    ids = ["s"] + [f"l{i}{j}" for i in range(10) for j in (0, 1)] + ["t"]
    edges = []
    prev = ["s"]
    for i in range(10):
        layer = [f"l{i}0", f"l{i}1"]
        edges += [(p, q, False) for p in prev for q in layer]
        prev = layer
    edges += [(p, "t", False) for p in prev]
    with pytest.raises(graph.PathExplosion):
        graph.simple_paths(stub_cfg(ids, edges), "s", "t", cap=100)


def _cfg(name, func_name):
    f = next(f for f in parse_valid(load_corpus(name)) if f.name == func_name)
    return ir.normalize(f)


def test_cond_weights_favor_the_arm():
    cfg = _cfg("cond", "cond")
    w = graph.edge_weights(cfg)
    # Both entry->exit routes pass the pre-branch edges, only one passes hot.
    branch_block = next(b for b in cfg.blocks if len(cfg.real_succ[b]) == 2)
    pre = next((s, d) for s, d, p in cfg.edges if not p and d == branch_block)
    arm = (branch_block, "hot")
    assert w[pre] == 2
    assert w[arm] == 1


def test_loop_depth_and_weights():
    cfg = _cfg("loop", "loop")
    depths = graph.weights_and_depths(cfg)[1]
    w = graph.edge_weights(cfg, loop_factor=4)
    preheader = next((s, d) for s, d, p in cfg.edges if not p and d == "head" and depths[(s, d)] == 0)
    in_loop = [(e, dep) for e, dep in depths.items() if dep == 1]
    assert in_loop, "loop body edges must have depth 1"
    assert w[preheader] == 1
    for e, _ in in_loop:
        assert w[e] == 4


def test_loop_factor_scales_depth():
    cfg = _cfg("loop", "loop")
    depths = graph.weights_and_depths(cfg)[1]
    w = graph.edge_weights(cfg, loop_factor=9)
    e = next(e for e, dep in depths.items() if dep == 1)
    assert w[e] == 9


def test_nested_loop_depth_two():
    (f,) = ir.parse(
        "func f { block e: jmp outer block outer: jmp inner "
        "block inner: %c = read @c br %c ? inner : chk "
        "block chk: %d = read @d br %d ? outer : out block out: ret }"
    )
    assert not ir.validate(f)
    cfg = ir.normalize(f)
    depths = graph.weights_and_depths(cfg)[1]
    assert max(depths.values()) == 2
    w = graph.edge_weights(cfg, loop_factor=4)
    deep = next(e for e, dep in depths.items() if dep == 2)
    assert w[deep] == 16


def test_pseudo_edges_have_depth_zero():
    for name in ("mp", "mp_loop", "spinlock"):
        for f in parse_valid(load_corpus(name)):
            cfg = ir.normalize(f)
            depths = graph.weights_and_depths(cfg)[1]
            for s, d, pseudo in cfg.edges:
                if pseudo:
                    assert depths[(s, d)] == 0


def test_irreducible_fallback():
    # Two-entry cycle a <-> b, reachable from both sides of a branch.
    (f,) = ir.parse(
        "func f { block e: %c = read @c br %c ? a : b "
        "block a: %x = read @x br %x ? b : out "
        "block b: %y = read @y br %y ? a : out block out: ret }"
    )
    assert not ir.validate(f)
    cfg = ir.normalize(f)
    depths = graph.weights_and_depths(cfg)[1]  # must not loop forever or crash
    assert any(d > 0 for d in depths.values())
    # e runs once per call, and so do both edges out of it: neither lies
    # on the a <-> b cycle, whichever side the cycle is entered from.
    assert depths[("e", "crit.e.a")] == depths[("e", "crit.e.b")] == 0


def test_weights_positive_and_exact():
    for name in ("ringbuf", "selfdep", "widget"):
        for f in parse_valid(load_corpus(name)):
            assert min(graph.edge_weights(ir.normalize(f)).values()) >= 1
    # 22 diamonds in a row: 2^22 entry->exit paths, more than any clamp
    # near 2^20 would allow, so the pseudo edge must outweigh the arm edges.
    k = 22
    text = "func f { block d0: %c0 = op o() br %c0 ? t0 : e0 "
    for i in range(k):
        nxt = f"d{i + 1}"
        text += f"block t{i}: jmp {nxt} block e{i}: jmp {nxt} "
        if i + 1 < k:
            text += f"block {nxt}: %c{i + 1} = op o() br %c{i + 1} ? t{i + 1} : e{i + 1} "
    text += f"block d{k}: ret }}"
    (f,) = parse_valid(text)
    cfg = ir.normalize(f)
    w = graph.edge_weights(cfg, loop_factor=4)
    assert len(w) == 4 * k + 1
    for (s, d), wt in w.items():
        if (s, d) == (f"d{k}", "d0"):  # the exit->entry pseudo edge
            assert wt == 2**k
        else:  # every real edge lies on one arm of one diamond
            assert wt == 2 ** (k - 1), (s, d)


def test_loop_factor_below_one_rejected():
    cfg = _cfg("loop", "loop")
    with pytest.raises(ValueError):
        graph.edge_weights(cfg, loop_factor=0)


def test_spin_loop_self_cycles_include_back_and_wraparound():
    cfg = _cfg("mp", "recv")
    # The flag read spins on itself: one cycle through the loop back
    # edge, and one wrap-around cycle through the function boundary.
    s = cfg.action_block["a0"]
    cycles = graph.simple_paths(cfg, s, s)
    assert cycles
    pseudo = {(a, b) for a, b, p in cfg.edges if p}
    uses_pseudo = []
    for cyc in cycles:
        hops = list(zip(cyc, cyc[1:])) + [(cyc[-1], cyc[0])]
        uses_pseudo.append(any(h in pseudo for h in hops))
    assert any(uses_pseudo) and not all(uses_pseudo)


def test_corpus_weights_unchanged():
    got = {}
    for name in CORPUS_NAMES:
        for f in parse_valid(load_corpus(name)):
            cfg = ir.normalize(f)
            w, d = graph.weights_and_depths(cfg)
            got[f"{name} {f.name}"] = {f"{s}->{t}": [w[(s, t)], d[(s, t)]] for s, t, _ in cfg.edges}
    assert got == CORPUS_WEIGHTS


def dominance_reference(cfg, loop_factor):
    """Weights and depths the textbook way, or None for an irreducible
    CFG. Back edges are the real edges whose target dominates their
    source; Kahn's algorithm orders the other real edges, and finds a
    cycle among them exactly when the CFG is irreducible; the natural
    loop of a header is the header plus every block that reaches one of
    its latches backwards without passing it."""
    blocks, succ = list(cfg.blocks), cfg.real_succ
    dom = naive_dominators(blocks, cfg.entry, succ.__getitem__)
    back = {(u, v) for u in blocks for v in succ[u] if v in dom[u]}
    fwd = {u: [v for v in succ[u] if (u, v) not in back] for u in blocks}
    indeg = {b: 0 for b in blocks}
    for u in blocks:
        for v in fwd[u]:
            indeg[v] += 1
    order, work = [], [b for b in blocks if indeg[b] == 0]
    while work:
        u = work.pop()
        order.append(u)
        for v in fwd[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                work.append(v)
    if len(order) < len(blocks):
        return None
    from_entry = {b: int(b == cfg.entry) for b in blocks}
    for u in order:
        for v in fwd[u]:
            from_entry[v] += from_entry[u]
    to_exit = {b: int(isinstance(cfg.blocks[b].term, ir.Ret)) for b in blocks}
    for u in reversed(order):
        for v in fwd[u]:
            to_exit[u] += to_exit[v]
    bodies = {}
    for u, h in back:
        body, todo = bodies.setdefault(h, {h}), [u]
        while todo:
            b = todo.pop()
            if b not in body:
                body.add(b)
                todo.extend(cfg.real_pred[b])
    weights, depths = {}, {}
    for s, d, pseudo in cfg.edges:
        depth = 0 if pseudo else sum(s in body and d in body for body in bodies.values())
        count = from_entry[s] if pseudo or (s, d) in back else from_entry[s] * to_exit[d]
        weights[(s, d)] = max(1, count) * loop_factor**depth
        depths[(s, d)] = depth
    return weights, depths


if HAVE_HYPOTHESIS:

    def _random_cfg(rnd):
        (f,) = parse_valid(random_cut_source(rnd))
        return ir.normalize(f)

    @given(st.randoms(use_true_random=False), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_weights_equal_dominance_reference_on_reducible_cfgs(rnd, loop_factor):
        cfg = _random_cfg(rnd)
        ref = dominance_reference(cfg, loop_factor)
        assume(ref is not None)
        assert graph.weights_and_depths(cfg, loop_factor) == ref

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_an_edge_has_a_depth_exactly_when_it_lies_on_a_cycle(rnd):
        # irreducible CFGs included: a loop entered from two sides must
        # not give depth to the edges that lead into it
        cfg = _random_cfg(rnd)
        real = [(s, d) for s, d, pseudo in cfg.edges if not pseudo]
        comp = {b: i for i, c in enumerate(graph.sccs(cfg.blocks, real)) for b in c}
        depths = graph.weights_and_depths(cfg)[1]
        for s, d, pseudo in cfg.edges:
            assert (depths[(s, d)] > 0) == (not pseudo and comp[s] == comp[d]), (s, d)


def reference_sccs(nodes, edges):
    """The dict-and-set Tarjan that `graph.sccs` replaced, kept as its
    reference: it scans a node's successors once to recurse and once more
    to fold in its children's low links."""
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


def test_sccs_emits_dependencies_first():
    nodes = ["a", "b", "c", "d"]
    edges = [("a", "b"), ("b", "a"), ("b", "c"), ("d", "d"), ("d", "a")]
    assert graph.sccs(nodes, edges) == [{"c"}, {"a", "b"}, {"d"}]
    assert graph.sccs(nodes, edges) == reference_sccs(nodes, edges)


if HAVE_HYPOTHESIS:

    @st.composite
    def node_graphs(draw):
        """(nodes, edges): names given in shuffled order, as a list or as
        the keys of a dict, with self-loops, duplicate edges and cycles."""
        n = draw(st.integers(0, 14))
        names = draw(st.permutations([f"d{i:02}" for i in range(n)]))
        if not names:
            return names, []
        pick = st.sampled_from(names)
        edges = draw(st.lists(st.tuples(pick, pick), max_size=3 * n))
        if draw(st.booleans()):
            names = dict.fromkeys(names, None)
        return names, edges

    @given(node_graphs())
    @settings(max_examples=500, deadline=None)
    def test_sccs_equal_reference(graph_):
        nodes, edges = graph_
        assert graph.sccs(nodes, edges) == reference_sccs(nodes, edges)
