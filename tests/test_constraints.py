import dataclasses
import itertools

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from rmcfence import cli, constraints, ir
from rmcfence.constraints import BoundaryConstraint, ConstraintEdge
from rmcfence.ir import Action
from conftest import ARCHES, CORPUS_NAMES, corpus_path, load_corpus, parse_valid


def _setup(text):
    (f,) = ir.parse(text)
    assert not ir.validate(f)
    cfg = ir.normalize(f)
    return f, cfg


def test_resolve_cartesian_product():
    f, cfg = _setup(
        "func f { edge xo a -> b; block e: "
        "%x = read @x label a %y = read @y label a "
        "write @p 1 label b write @q 1 label b ret }"
    )
    edges, boundaries = constraints.resolve(f, cfg)
    assert not boundaries
    assert {(e.src, e.dst) for e in edges} == {
        ("a0", "a2"), ("a0", "a3"), ("a1", "a2"), ("a1", "a3")
    }


def test_resolve_dedups_repeated_declarations():
    f, cfg = _setup(
        "func f { edge vo a -> b; edge vo a -> b; block e: "
        "write @x 1 label a write @y 1 label b ret }"
    )
    edges, _ = constraints.resolve(f, cfg)
    assert len(edges) == 1


def test_resolve_boundaries():
    f, cfg = _setup(
        "func f { edge vo pre -> a; edge xo b -> post; block e: "
        "write @x 1 label a %v = read @y label b ret }"
    )
    edges, boundaries = constraints.resolve(f, cfg)
    assert not edges
    assert {(b.kind, b.direction, b.action) for b in boundaries} == {
        ("vo", "pre", "a0"),
        ("xo", "post", "a1"),
    }


def test_resolve_rejects_push_boundaries():
    # the parser rejects them, so resolve never sees one
    with pytest.raises(ir.ParseError, match="pu edges do not support pre/post"):
        _setup("func f { edge pu pre -> a; block e: write @x 1 label a ret }")


def test_resolve_scoped_bind_block():
    f, cfg = _setup(
        "func f { edge xo here(h) a -> b; block e: bind h "
        "%v = read @x label a write @y %v label b ret }"
    )
    edges, _ = constraints.resolve(f, cfg)
    assert edges[0].bind == cfg.bind_block["h"]


def _acts(spec):
    # spec: {"a0": "read", "a1": "noop", ...}
    return {k: Action(id=k, kind=v) for k, v in spec.items()}


def test_close_composes_through_noop():
    acts = _acts({"a": "write", "n": "noop", "b": "write"})
    edges = [ConstraintEdge("vo", "a", "n"), ConstraintEdge("xo", "n", "b")]
    out = constraints.close(edges, acts)
    assert [(e.kind, e.src, e.dst, e.origin) for e in out] == [("vo", "a", "b", "derived")]


def test_close_strength_join_takes_stronger():
    acts = _acts({"a": "write", "n": "noop", "b": "read"})
    out = constraints.close(
        [ConstraintEdge("xo", "a", "n"), ConstraintEdge("pu", "n", "b")], acts
    )
    assert out[0].kind == "pu"


def test_close_drops_derived_with_plain_justification():
    acts = _acts({"a": "write", "b": "write", "c": "write", "n": "noop"})
    edges = [
        ConstraintEdge("vo", "a", "b"),
        ConstraintEdge("vo", "b", "c"),
        ConstraintEdge("vo", "a", "n"),
        ConstraintEdge("vo", "n", "c"),
    ]
    out = constraints.close(edges, acts)
    # a->c via b needs no noop, so no derived a->c edge is added
    assert {(e.src, e.dst) for e in out} == {("a", "b"), ("b", "c")}


def test_close_keeps_declaration_order():
    acts = _acts({"a": "write", "b": "write", "c": "write"})
    edges = [ConstraintEdge("vo", "b", "c"), ConstraintEdge("vo", "a", "b")]
    assert constraints.close(edges, acts) == edges


def test_close_respects_binds():
    acts = _acts({"a": "write", "n": "noop", "b": "write"})
    out = constraints.close(
        [ConstraintEdge("vo", "a", "n", "blk1"), ConstraintEdge("vo", "n", "b", "blk2")],
        acts,
    )
    assert out == []  # different scopes never compose


def test_close_noop_chain_of_two():
    acts = _acts({"a": "write", "n1": "noop", "n2": "noop", "b": "write"})
    out = constraints.close(
        [
            ConstraintEdge("xo", "a", "n1"),
            ConstraintEdge("xo", "n1", "n2"),
            ConstraintEdge("vo", "n2", "b"),
        ],
        acts,
    )
    assert [(e.kind, e.src, e.dst) for e in out] == [("vo", "a", "b")]


def test_close_does_not_depend_on_declaration_order():
    # d->b->b is a pu chain with no no-op midpoint, so the pu d->b that
    # d->b->n->b derives is redundant whichever edge is declared first.
    acts = _acts({"b": "write", "n": "noop", "d": "read"})
    edges = [
        ConstraintEdge("vo", "b", "n"),
        ConstraintEdge("xo", "d", "b"),
        ConstraintEdge("pu", "b", "b"),
        ConstraintEdge("pu", "n", "b"),
    ]
    swapped = [edges[1], edges[0]] + edges[2:]
    expected = [edges[1], edges[2]]
    assert constraints.close(edges, acts) == expected
    assert constraints.close(swapped, acts) == expected


def test_close_drops_derived_edge_with_plain_chain_beside_noop_detours():
    # s->x->m->t is a plain vo chain; the no-op detours s->n1->x and
    # m->n2->t must not turn it into a derived vo s->t.
    acts = _acts(
        {"s": "write", "x": "write", "m": "write", "t": "write", "n1": "noop", "n2": "noop"}
    )
    edges = [
        ConstraintEdge("vo", "s", "x"),
        ConstraintEdge("vo", "x", "m"),
        ConstraintEdge("vo", "m", "t"),
        ConstraintEdge("vo", "s", "n1"),
        ConstraintEdge("vo", "n1", "x"),
        ConstraintEdge("vo", "m", "n2"),
        ConstraintEdge("vo", "n2", "t"),
    ]
    assert constraints.close(edges, acts) == edges[:3]


STRENGTH_RANK = {"xo": 0, "vo": 1, "pu": 2}


def brute_close(edges, acts):
    """Reference closure that enumerates chains one by one.

    Cutting the cycles out of a chain while keeping its strongest step and
    one no-op midpoint leaves that step and at most three simple paths, so
    chains of up to 3 * (len(acts) - 1) + 1 steps reach every (kind, no-op
    midpoint) outcome and the shortest chain of each.
    """
    noop = lambda a: acts[a].kind == "noop"
    limit = 3 * (len(acts) - 1) + 1
    plain, best = set(), {}

    def visit(chain):
        head, last = chain[0], chain[-1]
        kind = max((e.kind for e in chain), key=STRENGTH_RANK.get)
        key = (kind, head.src, last.dst, head.bind)
        if any(noop(e.dst) for e in chain[:-1]):
            rank = (len(chain), [(e.dst, e.kind) for e in chain])
            if key not in best or rank < best[key][0]:
                best[key] = (rank, chain)
        else:
            plain.add(key)
        if len(chain) < limit:
            for e in edges:
                if e.src == last.dst and e.bind == head.bind:
                    visit(chain + [e])

    for e in edges:
        if not noop(e.src):
            visit([e])
    derived = [
        ConstraintEdge(
            k, s, t, b, origin="derived",
            chain=tuple((e.kind, e.src, e.dst) for e in chain),
        )
        for (k, s, t, b), (_, chain) in best.items()
        if not noop(t) and (k, s, t, b) not in plain
    ]
    derived.sort(key=lambda e: (e.src, e.dst, -STRENGTH_RANK[e.kind], e.bind or ""))
    return [e for e in edges if not (noop(e.src) or noop(e.dst))] + derived


if HAVE_HYPOTHESIS:

    ids = ["a", "b", "c", "n1", "n2"]
    kinds = {"a": "write", "b": "read", "c": "write", "n1": "noop", "n2": "noop"}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["vo", "xo", "pu"]),
                st.sampled_from(ids),
                st.sampled_from(ids),
                st.sampled_from([None, "blk"]),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_close_is_idempotent(raw):
        acts = _acts(kinds)
        seen, edges = set(), []
        for k, s, d, bind in raw:
            e = ConstraintEdge(k, s, d, bind)
            if e.key() not in seen:
                seen.add(e.key())
                edges.append(e)
        once = constraints.close(edges, acts)
        assert constraints.close(once, acts) == once

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["vo", "xo", "pu"]),
                st.sampled_from(ids),
                st.sampled_from(ids),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_close_output_never_touches_noops(raw):
        acts = _acts(kinds)
        edges = []
        seen = set()
        for k, s, d in raw:
            e = ConstraintEdge(k, s, d)
            if e.key() not in seen:
                seen.add(e.key())
                edges.append(e)
        for e in constraints.close(edges, acts):
            assert acts[e.src].kind != "noop"
            assert acts[e.dst].kind != "noop"

    def edge_lists(names, max_size):
        def unique(raw):
            seen, edges = set(), []
            for k, s, d, bind in raw:
                e = ConstraintEdge(k, s, d, bind)
                if e.key() not in seen:
                    seen.add(e.key())
                    edges.append(e)
            return edges

        return st.lists(
            st.tuples(
                st.sampled_from(["vo", "xo", "pu"]),
                st.sampled_from(names),
                st.sampled_from(names),
                st.sampled_from([None, "blk"]),
            ),
            max_size=max_size,
        ).map(unique)

    @given(edge_lists(ids, 8), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_close_ignores_input_order(edges, rnd):
        acts = _acts(kinds)
        shuffled = list(edges)
        rnd.shuffle(shuffled)
        assert set(constraints.close(shuffled, acts)) == set(constraints.close(edges, acts))

    # Four actions keep brute_close's chain enumeration small.
    small_ids = ["a", "b", "n1", "n2"]

    @given(edge_lists(small_ids, 7))
    @settings(max_examples=500, deadline=None)
    def test_close_matches_brute_force_chains(edges):
        acts = _acts({k: kinds[k] for k in small_ids})
        assert constraints.close(edges, acts) == brute_close(edges, acts)


# -- the record contract ----------------------------------------------------

# The frozen dataclasses the constraint records were, kept as the
# reference for their fields, defaults, repr, equality and hash.
ReferenceEdge = dataclasses.make_dataclass(
    "ConstraintEdge",
    [
        ("kind", str),
        ("src", str),
        ("dst", str),
        ("bind", "str | None", dataclasses.field(default=None)),
        ("origin", str, dataclasses.field(default="declared")),
        ("chain", tuple, dataclasses.field(default=())),
    ],
    frozen=True,
    namespace={"key": lambda self: (self.kind, self.src, self.dst, self.bind)},
)
ReferenceBoundary = dataclasses.make_dataclass(
    "BoundaryConstraint", [("kind", str), ("direction", str), ("action", str)], frozen=True
)

# Derived edges through no-ops, one of them scoped, and a boundary; no
# corpus program has a no-op.
RELAY = """
func relay {
  edge vo a -> n;
  edge xo n -> b;
  edge pu here(top) a -> m;
  edge vo here(top) m -> c;
  edge xo pre -> b;
  block e:
    bind top
    write @x 1 label a
    noop label n
    noop label m
    %v = read @y label b
    write @z %v label c
    ret
}
"""


def _records():
    """Every declared, derived and boundary record of the corpus and RELAY."""
    out = []
    for text in [load_corpus(name) for name in CORPUS_NAMES] + [RELAY]:
        for f in parse_valid(text):
            cfg = ir.normalize(f)
            edges, boundaries = constraints.resolve(f, cfg)
            out += constraints.close(edges, cfg.actions) + boundaries
    return out


def test_constraint_records_keep_the_dataclass_contract():
    for rec, ref in ((ConstraintEdge, ReferenceEdge), (BoundaryConstraint, ReferenceBoundary)):
        fields = dataclasses.fields(ref)
        assert rec._fields == tuple(f.name for f in fields)
        assert rec._field_defaults == {
            f.name: f.default for f in fields if f.default is not dataclasses.MISSING
        }
    assert ConstraintEdge("vo", "a", "b") == ConstraintEdge("vo", "a", "b", None, "declared", ())

    recs = _records()
    origins = {r.origin for r in recs if isinstance(r, ConstraintEdge)}
    assert origins == {"declared", "derived"}
    assert any(isinstance(r, BoundaryConstraint) for r in recs)
    assert any(r.bind is not None for r in recs if isinstance(r, ConstraintEdge))
    refs = [(ReferenceEdge if isinstance(r, ConstraintEdge) else ReferenceBoundary)(*r) for r in recs]
    for r, ref in zip(recs, refs):
        assert repr(r) == repr(ref)
        assert hash(r) == hash(ref)
        assert tuple(r) == dataclasses.astuple(ref)
        if isinstance(r, ConstraintEdge):
            assert r.key() == ref.key()
    for (a, ra), (b, rb) in itertools.product(zip(recs, refs), repeat=2):
        assert (a == b) == (ra == rb)
        assert (a != b) == (ra != rb)


@pytest.mark.parametrize("arch_name", ARCHES)
def test_explain_is_the_same_with_the_dataclass_records(arch_name, tmp_path, capsys, monkeypatch):
    relay = tmp_path / "relay.rmcir"
    relay.write_text(RELAY)
    paths = [corpus_path(name) for name in CORPUS_NAMES] + [relay]

    def explain_all():
        outs = []
        for p in paths:
            code = cli.main(["explain", str(p), "--arch", arch_name])
            outs.append((code, capsys.readouterr().out))
        return outs

    tuples = explain_all()
    assert "[derived]" in tuples[-1][1]
    monkeypatch.setattr(constraints, "ConstraintEdge", ReferenceEdge)
    monkeypatch.setattr(constraints, "BoundaryConstraint", ReferenceBoundary)
    assert explain_all() == tuples
