import collections
import random

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from rmcfence import arch, constraints, encode, graph, ir
from rmcfence.deps import DepAnalysis
from rmcfence.emit import DataUse, PlacementPlan
from rmcfence.verify import PlanChecker
from conftest import (
    ARCHES, CORPUS_NAMES, load_corpus, naive_dominators, parse_valid, per_path_data,
    random_dep_source, walk_source,
)


def _setup(text):
    (f,) = ir.parse(text)
    assert not ir.validate(f)
    cfg = ir.normalize(f)
    return cfg, DepAnalysis(cfg)


def _path(cfg, a_src, a_dst):
    return graph.simple_paths(cfg, cfg.action_block[a_src], cfg.action_block[a_dst])


def test_straight_line_address_dependency():
    cfg, deps = _setup(
        "func f { block e: %w = read @t label s "
        "%p = op index(%w) %v = read *%p label t ret }"
    )
    src, dst = cfg.actions["a0"], cfg.actions["a1"]
    assert deps.can_data(None, src, dst)


def test_no_dependency_through_unrelated_value():
    cfg, deps = _setup(
        "func f { block e: %w = read @t label s %u = read @u "
        "%p = op index(%u) %v = read *%p label t ret }"
    )
    src, dst = cfg.actions["a0"], cfg.actions["a2"]
    assert not deps.can_data(None, src, dst)


def test_write_data_operand_counts():
    cfg, deps = _setup(
        "func f { block e: %w = read @t label s write @out %w label t ret }"
    )
    assert deps.can_data(None, cfg.actions["a0"], cfg.actions["a1"])


def test_phi_requires_dependence_on_every_admissible_arm():
    # One phi arm carries the loaded value, the other a constant: with
    # both predecessors admissible the dependence is not guaranteed.
    cfg, deps = _setup(
        "func f { block e: %w = read @t label s br %w ? a : b "
        "block a: %x = op f(%w) jmp j block b: jmp j "
        "block j: %m = phi [a: %x], [b: 0] %v = read *%m label t ret }"
    )
    src, dst = cfg.actions["a0"], cfg.actions["a1"]
    assert not deps.can_data(None, src, dst)


def test_phi_with_all_arms_dependent():
    cfg, deps = _setup(
        "func f { block e: %w = read @t label s br %w ? a : b "
        "block a: %x = op f(%w) jmp j block b: %y = op g(%w) jmp j "
        "block j: %m = phi [a: %x], [b: %y] %v = read *%m label t ret }"
    )
    src, dst = cfg.actions["a0"], cfg.actions["a1"]
    assert deps.can_data(None, src, dst)


def _encoded_uses(cfg, deps, bind, src, dst, paths):
    """Which of `paths` the encoder lets the triple's data dependency cut:
    those whose xcut_path definition names the use_data output."""
    profile = arch.builtin_profile("armv7")
    costs, _ = arch.load_costs(profile)
    enc = encode.Encoder(cfg, [], [], deps, profile, costs, encode.EncodeOptions(max_paths=256))
    enc._xcut(bind, src.id, dst.id)
    use = ("out", encode.OutputVar("use_data", (enc._bstr(bind), src.id, dst.id)))

    def mentions(expr):
        return expr == use or expr[0] in ("and", "or") and any(map(mentions, expr[1]))

    name = f"xcut_path({enc._bstr(bind)},{src.id},{dst.id},"
    return {p: mentions(enc.defs[f"{name}{enc._path_ids[p]})"]) for p in paths}


def test_loop_carried_dependence_is_path_sensitive():
    # The phi's value depends on the previous iteration's load via the
    # latch arm. Regions are built over real edges, so the entry arm is
    # only admissible on the wrap-around path (through return and
    # re-entry), where the dependence genuinely breaks. The triple's one
    # fact holds, and the paths it serves, in the reference and in the
    # encoder's per-path cuts, are those with no pseudo edge.
    cfg, deps = _setup(
        "func f { block e: jmp head "
        "block head: %m = phi [e: 0], [latch: %x] "
        "%v = read *%m label t %w = read @q label s jmp latch "
        "block latch: %x = op f(%w) %c = read @c br %c ? head : out "
        "block out: ret }"
    )
    src = next(a for a in cfg.actions.values() if "s" in a.labels)
    dst = next(a for a in cfg.actions.values() if "t" in a.labels)
    paths = _path(cfg, src.id, dst.id)
    wrap = [p for p in paths if cfg.entry in p]
    direct = [p for p in paths if cfg.entry not in p]
    assert wrap and direct
    assert deps.can_data(None, src, dst)
    encoded = _encoded_uses(cfg, deps, None, src, dst, paths)
    for p in direct:
        assert per_path_data(cfg, None, src, dst, p, deps.value_depends)
        assert encoded[p]
    for p in wrap:
        assert not per_path_data(cfg, None, src, dst, p, deps.value_depends)
        assert not encoded[p]


def test_widget_lookup_feeds_both_field_reads():
    funcs = parse_valid(load_corpus("widget"))
    f = next(f for f in funcs if f.name == "use_widget")
    cfg = ir.normalize(f)
    deps = DepAnalysis(cfg)
    lookup = next(a for a in cfg.actions.values() if "lookup" in a.labels)
    for r in (a for a in cfg.actions.values() if "r" in a.labels):
        assert deps.can_data(None, lookup, r)


def test_can_ctrl_existing_on_ringbuf_check():
    funcs = parse_valid(load_corpus("ringbuf"))
    f = next(f for f in funcs if f.name == "buf_dequeue")
    cfg = ir.normalize(f)
    deps = DepAnalysis(cfg)
    dcheck = next(a for a in cfg.actions.values() if "dcheck" in a.labels)
    branch_block = next(
        b for b, blk in cfg.blocks.items() if isinstance(blk.term, ir.Branch)
    )
    taken = [(s, d) for s, d, p in cfg.edges if s == branch_block and not p]
    assert all(deps.can_ctrl(dcheck, e) for e in taken)


def test_can_ctrl_requires_condition_dependence():
    cfg, deps = _setup(
        "func f { block e: %w = read @t label s %u = read @u br %u ? a : b "
        "block a: write @x 1 label t jmp b block b: ret }"
    )
    src = cfg.actions["a0"]
    branch_block = next(
        b for b, blk in cfg.blocks.items() if isinstance(blk.term, ir.Branch)
    )
    for s, d, p in cfg.edges:
        if s == branch_block and not p:
            assert not deps.can_ctrl(src, (s, d))
            # but a branch could be synthesized below the read
            assert deps.can_ctrl(src, (s, d), synth=True)


def test_can_ctrl_synth_needs_strict_domination():
    cfg, deps = _setup(
        "func f { block e: br 1 ? a : b block a: %w = read @t label s jmp j "
        "block b: jmp j block j: write @x 1 label t ret }"
    )
    src = cfg.actions["a0"]
    sblk = cfg.action_block["a0"]
    for s, d, p in cfg.edges:
        if p:
            continue
        expect = s != sblk and sblk in _doms(cfg)[s]
        assert deps.can_ctrl(src, (s, d), synth=True) == expect


def _doms(cfg):
    return naive_dominators(list(cfg.blocks), cfg.entry, cfg.real_succ.__getitem__)


def test_value_depends_agrees_with_independent_walk():
    """The encoder-side fixpoint and the verifier-side recursive walk are
    separate implementations of the same relation; they must agree."""
    for name in CORPUS_NAMES:
        for f in parse_valid(load_corpus(name)):
            cfg = ir.normalize(f)
            deps = DepAnalysis(cfg)
            checker = PlanChecker(cfg, None, PlacementPlan(f.name, "none", 0))
            whole = frozenset(cfg.blocks)
            for action in cfg.actions.values():
                if not action.reads_value:
                    continue
                for value in list(checker.defs):
                    a = deps.value_depends(action, value, whole)
                    b = checker.depends(action, value, set(whole))
                    assert a == b, (name, f.name, action.id, value)


# A loop whose header phi takes the entry read on its first arm: the
# dependence from `s` to `t` holds around the loop but not through entry.
# Block `mid` is the tail of the `i -> s` paths and the head of the
# `s -> t` paths, so it is reached backward for one question and forward
# for the other.
_LOOP_ENDS = """func loop_ends {
  edge xo i -> s;
  edge xo s -> t;
  block e:
    %i = read @init label i
    jmp head
  block head:
    %m = phi [e: %i], [latch: %x]
    %v = read *%m label t
    jmp mid
  block mid:
    %w = read @q label s
    jmp latch
  block latch:
    %x = op f(%w)
    %c = read @c
    br %c ? head : out
  block out:
    ret
}
"""

# From `s`, the phi's constant arm is reached only through the bind point
# in `k`: the scoped constraint has a dependence, the unscoped one has not.
_SCOPED_DETOUR = """func detour {
  edge xo s -> t;
  edge xo here(top) s -> t;
  block a:
    %w = read @q label s
    %c = op cond()
    br %c ? p1 : k
  block k:
    bind top
    jmp p2
  block p1:
    %x = op f(%w)
    jmp j
  block p2:
    jmp j
  block j:
    %m = phi [p1: %x], [p2: 0]
    %v = read *%m label t
    ret
}
"""


class _Recording(DepAnalysis):
    """Records every question the encoder asks, with its answer."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.asked = []

    def can_data(self, *args):
        got = super().can_data(*args)
        self.asked.append(("can_data", args, got))
        return got

    def can_ctrl(self, *args, **kw):
        got = super().can_ctrl(*args, **kw)
        self.asked.append(("can_ctrl", (*args, kw.get("synth", False)), got))
        return got


def test_shared_analysis_answers_as_a_fresh_one():
    """The encoder asks one DepAnalysis every question of a function, and
    its memo tables (regions, reach per end and direction, dependence)
    carry answers from one question to the next. Each answer must equal
    what a fresh analysis gives to that question alone."""
    funcs = [f for name in CORPUS_NAMES for f in parse_valid(load_corpus(name))]
    funcs += [f for n in (1, 2, 3) for f in parse_valid(walk_source(n))]
    funcs += parse_valid(_LOOP_ENDS) + parse_valid(_SCOPED_DETOUR)
    seen = set()
    for f in funcs:
        cfg = ir.normalize(f)
        edges, boundaries = constraints.resolve(f, cfg)
        closed = constraints.close(edges, cfg.actions)
        for arch_name in ARCHES:
            profile = arch.builtin_profile(arch_name)
            costs, _ = arch.load_costs(profile)
            for synth in (False, True):
                shared = _Recording(cfg)
                options = encode.EncodeOptions(synth_deps=synth)
                encode.build(cfg, closed, boundaries, shared, profile, costs, options)
                for name, args, got in shared.asked:
                    fresh = getattr(DepAnalysis(cfg), name)(*args)
                    assert got == fresh, (f.name, arch_name, name, args)
                    scoped = name == "can_data" and args[0] is not None
                    seen.add((name, scoped, got))
    assert seen == {(n, s, g) for n, s in [("can_data", False), ("can_data", True),
                                           ("can_ctrl", False)] for g in (False, True)}


def _per_path_cases(seed):
    """On one `random_dep_source` program, every (scope, source, target)
    and every simple path between their blocks: the per-path reference
    rule must equal "the triple's fact and no pseudo edge on the path",
    as `DepAnalysis.can_data`, the encoder's per-path cut (whether it
    names the use_data output) and `PlanChecker.xo_path_cut` (given the
    use, and nothing else) decide it. Returns how often each (pseudo edge
    on the path, triple fact, reference) case was met."""
    (func,) = parse_valid(random_dep_source(random.Random(seed)))
    cfg = ir.normalize(func)
    deps = DepAnalysis(cfg)
    binds = [None, *sorted(set(cfg.bind_block.values()))]
    sources = [a for a in cfg.actions.values() if a.reads_value]
    targets = [a for a in cfg.actions.values() if a.kind in ("read", "write", "rmw")]
    plan = PlacementPlan(func.name, "none", 0)
    plan.data_uses = [DataUse(b or "-", s.id, t.id) for b in binds for s in sources
                      for t in targets]
    checker = PlanChecker(cfg, None, plan)
    cases = collections.Counter()
    for bind in binds:
        for s in sources:
            for t in targets:
                fact = deps.can_data(bind, s, t)
                sblk, tblk = cfg.action_block[s.id], cfg.action_block[t.id]
                try:
                    paths = graph.simple_paths(cfg, sblk, tblk, excluded=bind, cap=256)
                except graph.PathExplosion:
                    continue
                try:
                    encoded = _encoded_uses(cfg, deps, bind, s, t, paths)
                except graph.PathExplosion:  # the source's own self-order paths
                    encoded = None
                for path in paths:
                    pseudo = cfg.entry in path[1:]
                    ref = per_path_data(cfg, bind, s, t, path, deps.value_depends)
                    assert ref == (fact and not pseudo), (seed, bind, s.id, t.id, path)
                    assert encoded is None or encoded[path] == ref, (seed, bind, s.id, t.id, path)
                    got = checker.xo_path_cut(bind, s, t, path, assume_self=True)
                    assert per_path_data(cfg, bind, s, t, path, checker.depends) == ref
                    assert got == ref, (seed, bind, s.id, t.id, path)
                    cases[pseudo, fact, ref] += 1
    return cases


def test_per_path_cases_reach_every_kind():
    # The programs give paths through the pseudo edge whose triple holds,
    # the case the old rule had to decide path by path.
    cases = collections.Counter()
    for seed in range(60):
        cases += _per_path_cases(seed)
    assert set(cases) == {(False, False, False), (False, True, True), (True, False, False),
                          (True, True, False)}, cases


if HAVE_HYPOTHESIS:

    @given(st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_triple_fact_equals_the_per_path_rule(seed):
        _per_path_cases(seed)
