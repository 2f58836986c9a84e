from rmcfence import arch, constraints, encode, ir
from rmcfence.deps import DepAnalysis
from rmcfence.emit import PlacementPlan
from rmcfence.verify import PlanChecker
from conftest import (
    ARCHES, CORPUS_NAMES, load_corpus, naive_dominators, parse_valid, walk_source,
)


def _setup(text):
    (f,) = ir.parse(text)
    assert not ir.validate(f)
    cfg = ir.normalize(f)
    return cfg, DepAnalysis(cfg)


def _path(cfg, a_src, a_dst):
    from rmcfence import graph

    return graph.simple_paths(cfg, cfg.action_block[a_src], cfg.action_block[a_dst])


def test_straight_line_address_dependency():
    cfg, deps = _setup(
        "func f { block e: %w = read @t label s "
        "%p = op index(%w) %v = read *%p label t ret }"
    )
    src, dst = cfg.actions["a0"], cfg.actions["a1"]
    (path,) = _path(cfg, "a0", "a1")
    assert deps.can_data(None, src, dst, path)


def test_no_dependency_through_unrelated_value():
    cfg, deps = _setup(
        "func f { block e: %w = read @t label s %u = read @u "
        "%p = op index(%u) %v = read *%p label t ret }"
    )
    src, dst = cfg.actions["a0"], cfg.actions["a2"]
    for path in _path(cfg, "a0", "a2"):
        assert not deps.can_data(None, src, dst, path)


def test_write_data_operand_counts():
    cfg, deps = _setup(
        "func f { block e: %w = read @t label s write @out %w label t ret }"
    )
    (path,) = _path(cfg, "a0", "a1")
    assert deps.can_data(None, cfg.actions["a0"], cfg.actions["a1"], path)


def test_phi_requires_dependence_on_every_admissible_arm():
    # One phi arm carries the loaded value, the other a constant: with
    # both predecessors admissible the dependence is not guaranteed.
    cfg, deps = _setup(
        "func f { block e: %w = read @t label s br %w ? a : b "
        "block a: %x = op f(%w) jmp j block b: jmp j "
        "block j: %m = phi [a: %x], [b: 0] %v = read *%m label t ret }"
    )
    src, dst = cfg.actions["a0"], cfg.actions["a1"]
    for path in _path(cfg, "a0", "a1"):
        assert not deps.can_data(None, src, dst, path)


def test_phi_with_all_arms_dependent():
    cfg, deps = _setup(
        "func f { block e: %w = read @t label s br %w ? a : b "
        "block a: %x = op f(%w) jmp j block b: %y = op g(%w) jmp j "
        "block j: %m = phi [a: %x], [b: %y] %v = read *%m label t ret }"
    )
    src, dst = cfg.actions["a0"], cfg.actions["a1"]
    for path in _path(cfg, "a0", "a1"):
        assert deps.can_data(None, src, dst, path)


def test_loop_carried_dependence_is_path_sensitive():
    # The phi's value depends on the previous iteration's load via the
    # latch arm. Regions are built over real edges, so the entry arm is
    # only admissible on the wrap-around path (through return and
    # re-entry), where the dependence genuinely breaks.
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
    for p in direct:
        assert deps.can_data(None, src, dst, p)
    for p in wrap:
        assert not deps.can_data(None, src, dst, p)


def test_widget_lookup_feeds_both_field_reads():
    funcs = parse_valid(load_corpus("widget"))
    f = next(f for f in funcs if f.name == "use_widget")
    cfg = ir.normalize(f)
    deps = DepAnalysis(cfg)
    lookup = next(a for a in cfg.actions.values() if "lookup" in a.labels)
    for r in (a for a in cfg.actions.values() if "r" in a.labels):
        for path in _path(cfg, lookup.id, r.id):
            assert deps.can_data(None, lookup, r, path)


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
