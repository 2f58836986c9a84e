"""`ir.normalize` against the multi-pass version it replaced.

`reference_normalize` is that version, kept as the reference: it splits
every block, retargets every phi, counts predecessors again to break
critical edges, and then builds the edges, the adjacency lists and the
action and bind maps in passes of their own. The one-walk `normalize`
must give an equal `NormalizedCFG`, field by field, with every dict's
keys and every list in the same order, and leave its input unchanged.
"""

import copy

try:
    from hypothesis import given, settings

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from rmcfence import ir
from rmcfence.ir import Action, BasicBlock, Bind, Branch, Jump, NormalizedCFG, Phi, Ret, successors
from conftest import CORPUS_NAMES, load_corpus, parse_valid, span_source, walk_source
from test_parse_golden import mutants, sources


def _reference_split_block(blk, is_entry):
    segs = []
    cur = []
    for ins in blk.instrs:
        if isinstance(ins, Action) and ins.labels:
            if cur or (not segs and is_entry):
                segs.append((cur, False))
                cur = []
            elif not segs:
                pass  # first instruction of a non-entry block: action keeps the block id
            segs.append(([ins], True))
            cur = []
        else:
            cur.append(ins)
    if cur or not segs:
        segs.append((cur, False))
    return segs


def reference_normalize(func):
    blocks = {}
    block_origin = {}
    last_chunk = {}
    for bid, blk in func.blocks.items():
        segs = _reference_split_block(blk, is_entry=(bid == func.entry))
        ids = [bid] + [f"{bid}.s{i}" for i in range(1, len(segs))]
        last_chunk[bid] = ids[-1]
        idx = 0
        for i, (instrs, _labeled) in enumerate(segs):
            term = blk.term if i == len(segs) - 1 else Jump(ids[i + 1])
            blocks[ids[i]] = BasicBlock(id=ids[i], instrs=instrs, term=term)
            block_origin[ids[i]] = (bid, idx)
            idx += len(instrs)

    for b in blocks:
        blocks[b].instrs = [
            Phi(ins.defines, tuple((last_chunk[p], o) for p, o in ins.arms))
            if isinstance(ins, Phi)
            else ins
            for ins in blocks[b].instrs
        ]

    preds = {b: [] for b in blocks}
    for b, blk in blocks.items():
        for s in successors(blk.term):
            preds[s].append(b)
    for b in list(blocks):
        term = blocks[b].term
        succs = successors(term)
        if len(succs) <= 1:
            continue
        for s in succs:
            if len(preds[s]) <= 1:
                continue
            mid = f"crit.{b}.{s}"
            blocks[mid] = BasicBlock(id=mid, instrs=[], term=Jump(s))
            block_origin[mid] = (None, -1)
            if term.then == s:
                term = Branch(term.cond, mid, term.els)
            if term.els == s:
                term = Branch(term.cond, term.then, mid)
            blocks[b] = BasicBlock(id=b, instrs=blocks[b].instrs, term=term)
            blocks[s].instrs = [
                Phi(ins.defines, tuple((mid if p == b else p, o) for p, o in ins.arms))
                if isinstance(ins, Phi)
                else ins
                for ins in blocks[s].instrs
            ]
            preds[s] = [mid if p == b else p for p in preds[s]]
            preds[mid] = [b]

    edges = []
    for b, blk in blocks.items():
        for s in successors(blk.term):
            edges.append((b, s, False))
    for b, blk in blocks.items():
        if isinstance(blk.term, Ret):
            edges.append((b, func.entry, True))

    succ = {b: [] for b in blocks}
    pred = {b: [] for b in blocks}
    real_succ = {b: [] for b in blocks}
    real_pred = {b: [] for b in blocks}
    for s, d, pseudo in edges:
        succ[s].append(d)
        pred[d].append(s)
        if not pseudo:
            real_succ[s].append(d)
            real_pred[d].append(s)

    action_block, bind_block, actions = {}, {}, {}
    for b, blk in blocks.items():
        for ins in blk.instrs:
            if isinstance(ins, Action):
                action_block[ins.id] = b
                actions[ins.id] = ins
            elif isinstance(ins, Bind):
                bind_block[ins.id] = b

    return NormalizedCFG(
        func=func,
        blocks=blocks,
        entry=func.entry,
        edges=edges,
        action_block=action_block,
        bind_block=bind_block,
        actions=actions,
        block_origin=block_origin,
        succ=succ,
        pred=pred,
        real_succ=real_succ,
        real_pred=real_pred,
    )


def assert_normalize_equals_reference(func):
    before, text = copy.deepcopy(func), ir.print_function(func)
    got = ir.normalize(func)
    assert func == before and ir.print_function(func) == text, "normalize changed its input"
    ref = reference_normalize(func)
    assert got.func is func
    for field in NormalizedCFG.__slots__:
        g, r = getattr(got, field), getattr(ref, field)
        assert g == r, field
        if isinstance(r, dict):
            assert list(g) == list(r), f"{field}: key order"


def test_normalized_cfg_fields_are_the_compared_ones():
    # `assert_normalize_equals_reference` walks `__slots__`: a field
    # dropped from them would silently drop out of the comparison.
    assert NormalizedCFG.__slots__ == (
        "func", "blocks", "entry", "edges", "action_block", "bind_block", "actions",
        "block_origin", "succ", "pred", "real_succ", "real_pred")


# Every critical-edge and phi shape in one function: labelled actions
# open the entry (so its branch leaves chunk `e.s2`) and `k`, the
# self-loop on `loop` and the edges into `j` are critical, and `j` has a
# phi.
SHAPES = """
func shapes {
  edge vo here(top) a -> b;
  block e:
    write @x 1 label a
    bind top
    %c = op c()
    br %c ? j : loop
  block loop:
    %d = op d()
    br %d ? loop : j
  block j:
    %p = phi [e: 1], [loop: 2]
    write @y %p label b
    noop label n
    %q = read @z label r
    jmp k
  block k:
    write @w 1 label s
    ret
}
"""


def test_normalize_equals_reference_on_named_shapes():
    (f,) = parse_valid(SHAPES)
    assert_normalize_equals_reference(f)
    assert {b for b in ir.normalize(f).blocks if b.startswith("crit.")} == {
        "crit.e.s2.j", "crit.e.s2.loop", "crit.loop.loop", "crit.loop.j"
    }
    # `br %c ? j : j` into a block with another predecessor: both arms
    # and both phi arms move to one split block.
    (f,) = parse_valid(
        "func f { block e: %c = op c() br %c ? j : j "
        "block j: %p = phi [e: 1], [e: 2] write @x %p label a ret }"
    )
    assert_normalize_equals_reference(f)
    cfg = ir.normalize(f)
    assert cfg.blocks["e"].term.then == cfg.blocks["e"].term.els == "crit.e.j"
    assert cfg.blocks["j"].instrs[0].arms == (("crit.e.j", 1), ("crit.e.j", 2))


def test_normalize_equals_reference_on_corpus_and_families():
    texts = [load_corpus(name) for name in CORPUS_NAMES]
    texts += [text for _name, text in sources()]
    texts += [span_source(k) for k in range(1, 6)] + [walk_source(n) for n in range(1, 4)]
    for text in texts:
        for f in parse_valid(text):
            assert_normalize_equals_reference(f)


def test_normalize_equals_reference_on_golden_mutants():
    checked = 0
    for _mid, text in mutants():
        try:
            funcs = ir.parse(text)
        except ir.ParseError:
            continue
        for f in funcs:
            if not ir.validate(f):
                assert_normalize_equals_reference(f)
                checked += 1
    assert checked >= 300


if HAVE_HYPOTHESIS:
    from conftest import cfg_sources

    @given(cfg_sources())
    @settings(max_examples=400, deadline=None)
    def test_normalize_equals_reference_on_random_cfgs(text):
        (f,) = parse_valid(text)
        assert_normalize_equals_reference(f)
