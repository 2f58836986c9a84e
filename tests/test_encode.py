import random
from dataclasses import dataclass

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from rmcfence import arch, encode, graph, solver
from rmcfence.deps import DepAnalysis
from conftest import (
    ARCHES, CORPUS_NAMES, analyze, analyze_corpus, naive_eval, naive_gfp, nested_diamonds_source,
    parse_valid, random_cut_source, random_dep_source,
)


def _all_problems(arch_name):
    for name in CORPUS_NAMES:
        for a in analyze_corpus(name, arch_name):
            yield name, a


@pytest.mark.parametrize("arch_name", ARCHES)
def test_all_devices_always_suffice(arch_name):
    """The formula is satisfiable by construction: turning every output
    on must satisfy every assertion on every program."""
    for name, a in _all_problems(arch_name):
        trues = frozenset(a.problem.outputs)
        assert encode.satisfies(a.problem, trues), (name, a.func.name)


@pytest.mark.parametrize("arch_name", ("armv7", "armv8", "power"))
def test_monotone_in_outputs(arch_name):
    rng = random.Random(11)
    for name, a in _all_problems(arch_name):
        outputs = a.problem.outputs
        for _ in range(10):
            small = frozenset(v for v in outputs if rng.random() < 0.5)
            big = small | frozenset(v for v in outputs if rng.random() < 0.5)
            if encode.satisfies(a.problem, small):
                assert encode.satisfies(a.problem, big), (name, a.func.name)


def test_x86_produces_no_variables_without_pushes():
    for name, a in _all_problems("x86"):
        if name == "sb_push":
            assert a.problem.outputs
            assert all(v.detail[0] == "mfence" for v in a.problem.outputs)
        else:
            assert a.problem.outputs == []
            assert encode.satisfies(a.problem, frozenset())


def test_no_edge_weights_without_outputs(monkeypatch):
    def unwanted(*args, **kwargs):
        raise AssertionError("edge weights computed with no output to cost")

    monkeypatch.setattr(graph, "edge_weights", unwanted)
    for a in analyze_corpus("mp", "x86"):
        assert a.problem.outputs == [] and a.problem.weights == []


def test_every_output_has_a_positive_price():
    for name, a in _all_problems("armv8"):
        p = a.problem
        assert len(p.weights) == len(p.outputs), (name, a.func.name)
        assert all(isinstance(w, int) and w >= 1 for w in p.weights), (name, a.func.name)
        assert p.objective(frozenset(p.outputs)) == sum(p.weights)


def test_a_data_use_is_one_output_per_scope_source_and_target():
    (a,) = [x for n, x in _all_problems("armv7") if x.func.name == "use_widget" and n == "widget"]
    # one output per (scope, source, target), priced once whatever its paths
    data = [(v, w) for v, w in zip(a.problem.outputs, a.problem.weights) if v.kind == "use_data"]
    assert [v.detail for v, _w in data] == [("entry", "a0", "a1"), ("entry", "a0", "a2")]
    assert all(w == a.costs.dep("data_existing") for _v, w in data)


def test_disabling_dependencies_never_cheapens():
    for name in ("widget", "ringbuf", "selfdep", "mp"):
        for arch_name in ("armv7", "armv8"):
            base = analyze_corpus(name, arch_name)
            nodata = analyze_corpus(name, arch_name, data_deps=False)
            noctrl = analyze_corpus(name, arch_name, ctrl_deps=False)
            for b, nd, nc in zip(base, nodata, noctrl):
                c0 = solver.solve_min(b.problem).cost
                assert solver.solve_min(nd.problem).cost >= c0
                assert solver.solve_min(nc.problem).cost >= c0


def test_cyclic_definitions_take_greatest_fixpoint():
    v = encode.OutputVar("barrier", ("k", "a", "b"))
    problem = encode.Problem(
        function="t",
        arch="none",
        outputs=[v],
        defs={"x": ("or", (("out", v), ("def", "y"))), "y": ("def", "x")},
        asserts=[("cycle", ("def", "x"))],
        weights=[1],
    )
    # A cycle with no grounded support still self-justifies under the
    # greatest fixpoint — the coinductive reading the rules rely on.
    assert encode.satisfies(problem, frozenset())


def test_acyclic_definitions_stay_grounded():
    v = encode.OutputVar("barrier", ("k", "a", "b"))
    problem = encode.Problem(
        function="t",
        arch="none",
        outputs=[v],
        defs={"x": ("or", (("out", v),))},
        asserts=[("need", ("def", "x"))],
        weights=[1],
    )
    assert not encode.satisfies(problem, frozenset())
    assert encode.satisfies(problem, frozenset([v]))


def test_components_without_references_are_one_sorted_run():
    v = encode.OutputVar("barrier", ("k", "a", "b"))
    defs = {"z": ("out", v), "b": encode.TRUE, "m": ("and", (("out", v), encode.TRUE))}
    problem = encode.Problem(
        function="t", arch="none", outputs=[v], defs=defs, asserts=[], weights=[1]
    )
    # what the SCC pass yields on an edgeless graph: singletons by name
    assert [sorted(c) for c in graph.sccs(defs, [])] == [["b"], ["m"], ["z"]]
    c = encode.compiled(problem)
    slot = c.def_slot
    # one acyclic run in that order, then the (empty) assertion step
    assert [([r[0] for r in rows], cycle) for rows, cycle in c.steps] == [
        ([1 << slot[n] for n in ("b", "m", "z")], 0),
        ([], 0),
    ]


def test_self_cycles_force_extra_cuts_when_unscoped():
    scoped = analyze_corpus("widget", "armv7")
    unscoped = analyze_corpus("widget_unscoped", "armv7")
    s = next(a for a in scoped if a.func.name == "use_widget")
    u = next(a for a in unscoped if a.func.name == "use_widget")
    assert solver.solve_min(s.problem).cost < solver.solve_min(u.problem).cost


def test_output_order_is_canonical():
    for name, a in _all_problems("armv8"):
        assert a.problem.outputs == sorted(a.problem.outputs)


@dataclass(frozen=True, order=True)
class _DataclassOutputVar:
    """The frozen dataclass `OutputVar` used to be, kept as the reference
    for what a NamedTuple must still print, order and hash like."""

    kind: str
    detail: tuple

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


def test_output_vars_print_order_and_hash_as_the_dataclass_did():
    kinds = set()
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            for synth in (False, True):
                for a in analyze_corpus(name, arch_name, synth_deps=synth):
                    outs = a.problem.outputs
                    refs = [_DataclassOutputVar(v.kind, v.detail) for v in outs]
                    assert [str(v) for v in outs] == [str(r) for r in refs]
                    assert [repr(v) for v in outs] == [
                        repr(r).replace("_DataclassOutputVar(", "OutputVar(", 1) for r in refs
                    ]
                    # the encoder sorts its outputs; so would the dataclass
                    assert refs == sorted(refs)
                    assert all(hash(v) == hash((v.kind, v.detail)) for v in outs)
                    members = set(outs)
                    assert all(encode.OutputVar(v.kind, v.detail) in members for v in outs)
                    kinds.update(v.kind for v in outs)
    assert kinds == {"barrier", "use_ctrl", "use_data", "acquire", "release"}


def test_overlap_armv7_outputs_are_the_interior_edges():
    # Straight-line code with four writes: three interior edges between
    # the ordered actions, one barrier kind, no usable dependencies.
    (a,) = analyze_corpus("overlap", "armv7")
    outs = a.problem.outputs
    assert len(outs) == 3
    assert all(v.kind == "barrier" and v.detail[0] == "dmb" for v in outs)


def _subexprs(expr):
    yield expr
    if expr[0] in ("and", "or"):
        for p in expr[1]:
            yield from _subexprs(p)


def test_def_values_equal_naive_greatest_fixpoint():
    """Random def systems with assertions over them: every def value and
    every failed assertion equals the naive reference under every
    assignment of the outputs."""
    rng = random.Random(11)
    outs = [encode.OutputVar("barrier", ("k", f"b{i}", f"b{i + 1}")) for i in range(3)]
    shapes = set()
    for _ in range(300):
        names = [f"d{i}" for i in range(rng.randint(1, 8))]

        def expr(depth):
            r = rng.random()
            if depth == 0 or r < 0.3:
                if rng.random() < 0.15:
                    return ("const", rng.random() < 0.5)
                if rng.random() < 0.5:
                    return ("out", rng.choice(outs))
                return ("def", rng.choice(names))
            tag = "or" if r < 0.65 else "and"
            return (tag, tuple(expr(depth - 1) for _ in range(rng.randint(1, 3))))

        defs = {name: expr(2) for name in names}
        # Few labels, so that assertions often share one.
        asserts = [(f"a{rng.randint(0, 2)}", expr(3)) for _ in range(rng.randint(0, 5))]
        problem = encode.Problem(
            function="t", arch="none", outputs=outs, defs=defs,
            asserts=asserts, weights=[1] * len(outs),
        )
        c = encode.compiled(problem)
        name_of = {slot: name for name, slot in c.def_slot.items()}
        cyclic = set()
        for rows, cycle in c.steps[:-1]:  # the last step holds the assertions
            if not cycle:
                shapes.add("acyclic")
            else:
                members = [name_of[slot] for slot in name_of if cycle >> slot & 1]
                assert cycle == sum(1 << c.def_slot[name] for name in members)
                shapes.add("cycle" if len(members) > 1 else "self")
                cyclic.update(members)
        for _label, e in asserts:
            refs = {x[1] for x in _subexprs(e) if x[0] == "def"}
            if refs & cyclic:
                shapes.add("assertion on a cycle")
            tags = [x[0] for x in _subexprs(e)]
            if tags[0] in ("and", "or") and {"and", "or"} & set(tags[1:]) and "const" in tags:
                shapes.add("nested with constants")
        if len({label for label, _ in asserts}) < len(asserts):
            shapes.add("shared label")
        for mask in range(2 ** len(outs)):
            true_vars = frozenset(v for i, v in enumerate(outs) if mask >> i & 1)
            env = naive_gfp(defs, true_vars)
            assert encode.def_values(problem, true_vars) == env
            want = [label for label, e in asserts if not naive_eval(e, env, true_vars)]
            assert encode.failed_assertions(problem, true_vars) == want
    assert shapes == {
        "acyclic", "self", "cycle", "assertion on a cycle", "nested with constants",
        "shared label",
    }


def _per_path_cut(a, edge, true_vars):
    """Reference: the constraint holds when every simple path carries a
    barrier of the right capability (or, for vo and xo, the target
    releases). An xo path from a write needs a barrier that orders
    execution after any action, from a read one that orders it after a
    read. Exact when `true_vars` holds no ctrl use, no acquire and no
    data use of the edge's own triple."""
    if edge.kind != "pu":
        if a.profile.vis_exec_free:
            return True
        if "release" in a.profile.modes and encode.OutputVar("release", (edge.dst,)) in true_vars:
            return True
    xo = arch.EXEC_FROM_READ if a.cfg.actions[edge.src].reads_value else arch.EXEC
    level = {"pu": arch.PUSH, "vo": arch.VIS, "xo": xo}[edge.kind]
    kinds = [k.id for k in a.profile.kinds_cutting(level)]
    paths = graph.simple_paths(
        a.cfg, a.cfg.action_block[edge.src], a.cfg.action_block[edge.dst],
        excluded=edge.bind, cap=1 << 20,
    )
    return all(
        any(
            encode.OutputVar("barrier", (k, u, v)) in true_vars
            for u, v in zip(path, path[1:])
            for k in kinds
        )
        for path in paths
    )


if HAVE_HYPOTHESIS:

    @given(st.integers(0, 2**32), st.sampled_from(ARCHES))
    @settings(max_examples=300, deadline=None)
    def test_reachability_cuts_equal_per_path_cuts(seed, arch_name):
        rng = random.Random(seed)
        (func,) = parse_valid(random_cut_source(rng, kinds=("pu", "vo", "xo")))
        a = analyze(func, arch_name)
        universe = [
            encode.OutputVar("barrier", (k.id, u, v))
            for u, v, _ in a.cfg.edges
            for k in a.profile.barriers
        ] + [encode.OutputVar("release", (t,)) for t in a.cfg.actions]
        for _ in range(8):
            p = rng.random()
            true_vars = frozenset(v for v in universe if rng.random() < p)
            failed = set(encode.failed_assertions(a.problem, true_vars))
            for edge in a.closed:
                label = f"{edge.kind} {edge.src}->{edge.dst}" + (
                    f" @{edge.bind}" if edge.bind else ""
                )
                assert (label not in failed) == _per_path_cut(a, edge, true_vars), label

    @given(st.integers(0, 2**32), st.sampled_from(("armv7", "armv8", "power")),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_xo_without_a_data_fact_equals_per_path_cuts(seed, arch_name, loops):
        """Programs whose xo edges start at reads, with data and control
        dependencies: where the triple has no data fact, the assertion
        under any set of barriers, releases and data uses (of other
        triples, so they can only order a source after itself) is the
        per-path reference. Every walk holds a simple path, so that is
        exact."""
        rng = random.Random(seed)
        source = random_dep_source(rng) if loops else nested_diamonds_source(rng)
        (func,) = parse_valid(source)
        a = analyze(func, arch_name)
        deps = DepAnalysis(a.cfg)
        universe = [
            encode.OutputVar("barrier", (k.id, u, v))
            for u, v, _ in a.cfg.edges
            for k in a.profile.barriers
        ] + [encode.OutputVar("release", (t,)) for t, x in a.cfg.actions.items() if x.is_write]
        universe += [v for v in a.problem.outputs if v.kind == "use_data"]
        edges = [e for e in a.closed if e.kind == "xo" and not deps.can_data(
            e.bind, a.cfg.actions[e.src], a.cfg.actions[e.dst])]
        for _ in range(8):
            p = rng.random()
            true_vars = frozenset(v for v in universe if rng.random() < p)
            failed = set(encode.failed_assertions(a.problem, true_vars))
            for edge in edges:
                label = f"xo {edge.src}->{edge.dst}" + (f" @{edge.bind}" if edge.bind else "")
                assert (label not in failed) == _per_path_cut(a, edge, true_vars), label
