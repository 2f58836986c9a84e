"""Textual IR: parsing, validation, printing, and CFG normalization.

The IR is a small SSA language: functions hold basic blocks of memory
actions (reads, writes, RMWs, pushes, no-ops), uninterpreted pure ops,
phis, and bind markers, plus constraint-edge declarations between label
tags. Normalization isolates labeled actions into their own blocks,
breaks critical edges, and closes the CFG with exit->entry pseudo edges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

# Operands are either SSA value ids (str, without the % sigil) or int literals.
Operand = "int | str"

EDGE_KINDS = ("vo", "xo", "pu")
RESERVED_TAGS = ("pre", "post")
RMW_OPS = ("xchg", "add")


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass(frozen=True)
class Global:
    name: str


@dataclass(frozen=True)
class Deref:
    value: str


@dataclass
class Action:
    """A memory action. reads/rmws define a value; writes carry a data operand."""

    id: str
    kind: str  # read | write | rmw | push | noop
    loc: "Global | Deref | None" = None
    data: "int | str | None" = None
    rmw_op: "str | None" = None
    defines: "str | None" = None
    labels: tuple = ()

    @property
    def is_write(self):
        # rmw is read+write, not write-only
        return self.kind == "write"

    @property
    def reads_value(self):
        return self.kind in ("read", "rmw")

    @property
    def address_operand(self):
        return self.loc.value if isinstance(self.loc, Deref) else None


@dataclass
class PureOp:
    defines: str
    op: str
    args: tuple


@dataclass
class Phi:
    defines: str
    arms: tuple  # of (pred block id, operand)


@dataclass
class Bind:
    id: str


@dataclass
class Jump:
    target: str


@dataclass
class Branch:
    cond: "int | str"
    then: str
    els: str


@dataclass
class Ret:
    value: "int | str | None" = None


@dataclass
class BasicBlock:
    id: str
    instrs: list
    term: "Jump | Branch | Ret"


@dataclass
class ConstraintDecl:
    kind: str
    src: str
    dst: str
    bind: "str | None" = None


@dataclass
class FunctionIR:
    name: str
    decls: list
    blocks: dict  # block id -> BasicBlock, in source order
    entry: str

    def actions(self):
        out = {}
        for blk in self.blocks.values():
            for ins in blk.instrs:
                if isinstance(ins, Action):
                    out[ins.id] = ins
        return out


def successors(term):
    if isinstance(term, Jump):
        return [term.target]
    if isinstance(term, Branch):
        return [term.then, term.els]
    return []


def predecessor_map(func):
    preds = {bid: [] for bid in func.blocks}
    for bid, blk in func.blocks.items():
        for s in successors(blk.term):
            preds[s].append(bid)
    return preds


# ---------------------------------------------------------------------------
# Tokenizer / parser


# Each match is the whitespace and comments before one token, then the
# token; `bad` catches any character no token can start with.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*|;;[^\n]*)*
    (?:(?P<val>%[A-Za-z_][A-Za-z_0-9]*)
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<arrow>->)
  | (?P<punct>[{}:;?,\[\]()@*=])
  | (?P<eof>\Z)
  | (?P<bad>.))
    """,
    re.VERBOSE,
)


class _Tok(NamedTuple):
    kind: str
    text: str
    pos: int  # offset into the source; line and column are derived on error


def _diagnostic_at(text, pos, msg):
    line = text.count("\n", 0, pos) + 1
    return Diagnostic(line, pos - text.rfind("\n", 0, pos), msg)


def _tokenize(text):
    new = tuple.__new__  # skips the NamedTuple constructor's Python frame
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            msg = f"unexpected character {m[kind]!r}"
            raise ParseError([_diagnostic_at(text, m.start(kind), msg)])
        toks.append(new(_Tok, (kind, m[kind], m.start(kind))))
        if kind == "eof":
            return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def error(self, tok, msg):
        raise ParseError([_diagnostic_at(self.text, tok.pos, msg)])

    def expect(self, text=None, kind=None, what=None):
        t = self.next()
        if text is not None and t.text != text:
            self.error(t, f"expected {what or text!r}, found {t.text or 'end of input'!r}")
        if kind is not None and t.kind != kind:
            self.error(t, f"expected {what or kind}, found {t.text or 'end of input'!r}")
        return t

    def at(self, text):
        return self.peek().text == text

    # -- grammar --

    def parse_file(self):
        funcs = []
        names = set()
        while self.peek().kind != "eof":
            t = self.expect("func")
            name = self.expect(kind="ident", what="function name")
            if name.text in names:
                self.error(name, f"duplicate function {name.text!r}")
            names.add(name.text)
            funcs.append(self.parse_func(name.text))
        return funcs

    def parse_func(self, name):
        self.expect("{")
        decls = []
        while self.at("edge"):
            decls.append(self.parse_decl())
        blocks = {}
        self._action_n = 0
        self._value_defs = {}
        self._bind_ids = {}
        uses = []  # (value id, tok) to resolve after the function body
        block_refs = []
        self._uses = uses
        self._block_refs = block_refs
        if not self.at("block"):
            self.error(self.peek(), "expected 'block'")
        while self.at("block"):
            blk = self.parse_block()
            if blk.id in blocks:
                self.error(self._blk_tok, f"duplicate block {blk.id!r}")
            blocks[blk.id] = blk
        self.expect("}")
        for vid, tok in uses:
            if vid not in self._value_defs:
                self.error(tok, f"undefined value %{vid}")
        for bid, tok in block_refs:
            if bid not in blocks:
                self.error(tok, f"undefined block {bid!r}")
        for decl in decls:
            if decl.bind is not None and decl.bind not in self._bind_ids:
                raise ParseError(
                    [Diagnostic(1, 1, f"undefined bind point {decl.bind!r} in function {name!r}")]
                )
        entry = next(iter(blocks))
        return FunctionIR(name=name, decls=decls, blocks=blocks, entry=entry)

    def parse_decl(self):
        self.expect("edge")
        kt = self.next()
        if kt.text not in EDGE_KINDS:
            self.error(kt, f"expected edge kind vo/xo/pu, found {kt.text!r}")
        bind = None
        if self.at("here"):
            self.next()
            self.expect("(")
            bind = self.expect(kind="ident").text
            self.expect(")")
        src = self.expect(kind="ident", what="source tag")
        self.expect("->")
        dst = self.expect(kind="ident", what="destination tag")
        self.expect(";")
        if src.text == "post":
            self.error(src, "reserved tag 'post' may only appear as a destination")
        if dst.text == "pre":
            self.error(dst, "reserved tag 'pre' may only appear as a source")
        if src.text == "pre" and dst.text == "post":
            self.error(src, "'pre' and 'post' may not appear in the same declaration")
        if bind is not None and (src.text in RESERVED_TAGS or dst.text in RESERVED_TAGS):
            self.error(src, "pre/post declarations may not carry a binding point")
        return ConstraintDecl(kind=kt.text, src=src.text, dst=dst.text, bind=bind)

    def parse_block(self):
        self.expect("block")
        self._blk_tok = self.expect(kind="ident", what="block id")
        bid = self._blk_tok.text
        self.expect(":")
        instrs = []
        while True:
            t = self.peek()
            if t.text in ("jmp", "br", "ret"):
                term = self.parse_term()
                return BasicBlock(id=bid, instrs=instrs, term=term)
            if t.text in ("block", "}") or t.kind == "eof":
                self.error(t, f"block {bid!r} is missing a terminator")
            instrs.append(self.parse_instr())

    def def_value(self, tok):
        vid = tok.text[1:]
        if vid in self._value_defs:
            self.error(tok, f"duplicate definition of %{vid}")
        self._value_defs[vid] = tok
        return vid

    def operand(self):
        t = self.next()
        if t.kind == "val":
            self._uses.append((t.text[1:], t))
            return t.text[1:]
        if t.kind == "int":
            return int(t.text)
        self.error(t, f"expected operand, found {t.text!r}")

    def parse_loc(self):
        t = self.next()
        if t.text == "@":
            return Global(self.expect(kind="ident").text)
        if t.text == "*":
            v = self.expect(kind="val", what="pointer value")
            self._uses.append((v.text[1:], v))
            return Deref(v.text[1:])
        self.error(t, "expected location (@name or *%value)")

    def parse_tag(self, required=False):
        if self.at("label"):
            self.next()
            t = self.expect(kind="ident", what="label tag")
            if t.text in RESERVED_TAGS:
                self.error(t, f"tag {t.text!r} is reserved")
            return (t.text,)
        if required:
            self.error(self.peek(), "noop requires a label")
        return ()

    def _fresh_action(self, **kw):
        aid = f"a{self._action_n}"
        self._action_n += 1
        return Action(id=aid, **kw)

    def parse_instr(self):
        t = self.peek()
        if t.text == "write":
            self.next()
            loc = self.parse_loc()
            data = self.operand()
            labels = self.parse_tag()
            return self._fresh_action(kind="write", loc=loc, data=data, labels=labels)
        if t.text == "push":
            self.next()
            return self._fresh_action(kind="push", labels=self.parse_tag())
        if t.text == "noop":
            self.next()
            return self._fresh_action(kind="noop", labels=self.parse_tag(required=True))
        if t.text == "bind":
            self.next()
            bt = self.expect(kind="ident", what="bind id")
            if bt.text in self._bind_ids:
                self.error(bt, f"duplicate bind id {bt.text!r}")
            self._bind_ids[bt.text] = bt
            return Bind(id=bt.text)
        if t.kind == "val":
            vt = self.next()
            self.expect("=")
            op = self.next()
            if op.text == "read":
                loc = self.parse_loc()
                labels = self.parse_tag()
                return self._fresh_action(
                    kind="read", loc=loc, defines=self.def_value(vt), labels=labels
                )
            if op.text == "rmw":
                loc = self.parse_loc()
                rop = self.next()
                if rop.text not in RMW_OPS:
                    self.error(rop, f"expected rmw operator xchg/add, found {rop.text!r}")
                data = self.operand()
                labels = self.parse_tag()
                return self._fresh_action(
                    kind="rmw",
                    loc=loc,
                    rmw_op=rop.text,
                    data=data,
                    defines=self.def_value(vt),
                    labels=labels,
                )
            if op.text == "op":
                name = self.expect(kind="ident", what="op name")
                self.expect("(")
                args = []
                if not self.at(")"):
                    args.append(self.operand())
                    while self.at(","):
                        self.next()
                        args.append(self.operand())
                self.expect(")")
                return PureOp(defines=self.def_value(vt), op=name.text, args=tuple(args))
            if op.text == "phi":
                arms = [self.parse_phi_arm()]
                while self.at(","):
                    self.next()
                    arms.append(self.parse_phi_arm())
                return Phi(defines=self.def_value(vt), arms=tuple(arms))
            self.error(op, f"expected read/rmw/op/phi, found {op.text!r}")
        self.error(t, f"expected instruction, found {t.text or 'end of input'!r}")

    def parse_phi_arm(self):
        self.expect("[")
        blk = self.expect(kind="ident", what="predecessor block")
        self._block_refs.append((blk.text, blk))
        self.expect(":")
        opnd = self.operand()
        self.expect("]")
        return (blk.text, opnd)

    def parse_term(self):
        t = self.next()
        if t.text == "jmp":
            tgt = self.expect(kind="ident", what="jump target")
            self._block_refs.append((tgt.text, tgt))
            return Jump(tgt.text)
        if t.text == "br":
            cond = self.operand()
            self.expect("?")
            then = self.expect(kind="ident", what="branch target")
            self.expect(":")
            els = self.expect(kind="ident", what="branch target")
            self._block_refs.append((then.text, then))
            self._block_refs.append((els.text, els))
            return Branch(cond, then.text, els.text)
        # ret
        val = None
        if self.peek().kind in ("val", "int"):
            val = self.operand()
        return Ret(val)


def parse(text):
    """Parse IR source into a list of FunctionIR. Raises ParseError on failure."""
    return _Parser(text).parse_file()


# ---------------------------------------------------------------------------
# Printing


def _opnd_str(o):
    return f"%{o}" if isinstance(o, str) else str(o)


def _loc_str(loc):
    return f"@{loc.name}" if isinstance(loc, Global) else f"*%{loc.value}"


def _label_str(labels):
    return "".join(f" label {t}" for t in labels)


def instr_str(ins):
    if isinstance(ins, Action):
        if ins.kind == "read":
            return f"%{ins.defines} = read {_loc_str(ins.loc)}{_label_str(ins.labels)}"
        if ins.kind == "write":
            return f"write {_loc_str(ins.loc)} {_opnd_str(ins.data)}{_label_str(ins.labels)}"
        if ins.kind == "rmw":
            return (
                f"%{ins.defines} = rmw {_loc_str(ins.loc)} {ins.rmw_op} "
                f"{_opnd_str(ins.data)}{_label_str(ins.labels)}"
            )
        if ins.kind == "push":
            return f"push{_label_str(ins.labels)}"
        return f"noop{_label_str(ins.labels)}"
    if isinstance(ins, PureOp):
        args = ", ".join(_opnd_str(a) for a in ins.args)
        return f"%{ins.defines} = op {ins.op}({args})"
    if isinstance(ins, Phi):
        arms = ", ".join(f"[{b}: {_opnd_str(o)}]" for b, o in ins.arms)
        return f"%{ins.defines} = phi {arms}"
    return f"bind {ins.id}"


def term_str(term):
    if isinstance(term, Jump):
        return f"jmp {term.target}"
    if isinstance(term, Branch):
        return f"br {_opnd_str(term.cond)} ? {term.then} : {term.els}"
    return "ret" if term.value is None else f"ret {_opnd_str(term.value)}"


def print_function(func):
    lines = [f"func {func.name} {{"]
    for d in func.decls:
        here = f"here({d.bind}) " if d.bind else ""
        lines.append(f"  edge {d.kind} {here}{d.src} -> {d.dst};")
    for blk in func.blocks.values():
        lines.append(f"  block {blk.id}:")
        for ins in blk.instrs:
            lines.append(f"    {instr_str(ins)}")
        lines.append(f"    {term_str(blk.term)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation


def depth_first(entry, succ):
    """One iterative depth-first search from `entry` over `succ(b)`.

    Returns (order, pre, post, retreating): the blocks reached in reverse
    postorder, each one's preorder and postorder number, and the set of
    retreating edges (u, v), those whose target v is still on the search
    stack when u reaches it, self-loops included. The reverse postorder
    is a topological order of the other edges. In a reducible graph the
    retreating edges are exactly the back edges, whose target dominates
    their source (Hecht & Ullman, "Flow Graph Reducibility", 1972).
    """
    pre, post = {entry: 0}, {}
    order, retreating = [], set()  # order: postorder, then reversed
    stack = [(entry, iter(succ(entry)))]
    while stack:
        b, it = stack[-1]
        for s in it:
            if s not in pre:
                pre[s] = len(pre)
                stack.append((s, iter(succ(s))))
                break
            if s not in post:
                retreating.add((b, s))
        else:
            stack.pop()
            post[b] = len(post)
            order.append(b)
    order.reverse()
    return order, pre, post, retreating


def compute_dominators(block_ids, entry, succ):
    """Dominator sets, dict block -> set of the blocks that dominate it.

    Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm"
    (2001): number the blocks in reverse postorder of a depth-first
    search from `entry`, iterate each block's immediate dominator with
    the two-finger intersect on those numbers until none changes, then
    build the sets in reverse postorder, each its immediate dominator's
    plus the block itself. The result is defined for the blocks reachable
    from `entry`, and every block in `block_ids` must be one: `validate`
    rejects unreachable blocks before it asks, and the real edges of a
    normalized CFG reach every block.
    """
    order = depth_first(entry, succ)[0]
    num = {b: i for i, b in enumerate(order)}
    preds = [[] for _ in order]
    for b in order:
        for s in succ(b):
            preds[num[s]].append(num[b])

    idom = [-1] * len(order)  # -1: not yet known
    idom[0] = 0
    changed = True
    while changed:
        changed = False
        for i in range(1, len(order)):
            new = -1
            for p in preds[i]:
                if idom[p] < 0:
                    continue
                if new < 0:
                    new = p
                    continue
                while p != new:  # walk the deeper finger up until they meet
                    while p > new:
                        p = idom[p]
                    while new > p:
                        new = idom[new]
            if idom[i] != new:
                idom[i] = new
                changed = True

    sets = [{entry}]
    for i in range(1, len(order)):
        d = set(sets[idom[i]])
        d.add(order[i])
        sets.append(d)
    return {b: sets[num[b]] for b in block_ids}


def validate(func):
    """Structural and SSA checks beyond the grammar. Returns a diagnostics list."""
    diags = []
    bad = lambda msg: diags.append(Diagnostic(0, 0, f"{func.name}: {msg}"))

    preds = predecessor_map(func)
    if preds[func.entry]:
        bad(f"entry block {func.entry!r} has predecessors")

    # Reachability from entry.
    seen = set()
    stack = [func.entry]
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        stack.extend(successors(func.blocks[b].term))
    for bid in func.blocks:
        if bid not in seen:
            bad(f"block {bid!r} is unreachable from entry")
    if diags:
        return diags

    dom = compute_dominators(
        list(func.blocks), func.entry, lambda b: successors(func.blocks[b].term)
    )

    # Where is each value defined?
    def_site = {}  # value -> (block, index)
    for bid, blk in func.blocks.items():
        for i, ins in enumerate(blk.instrs):
            d = getattr(ins, "defines", None)
            if d:
                def_site[d] = (bid, i)

    def check_use(vid, bid, idx, what):
        dblk, didx = def_site[vid]
        if dblk == bid:
            if didx >= idx:
                bad(f"use of %{vid} in {what} precedes its definition in block {bid!r}")
        elif dblk not in dom[bid]:
            bad(f"use of %{vid} in {what} is not dominated by its definition")

    def operand_uses(ins):
        if isinstance(ins, Action):
            if isinstance(ins.loc, Deref):
                yield ins.loc.value
            if isinstance(ins.data, str):
                yield ins.data
        elif isinstance(ins, PureOp):
            yield from (a for a in ins.args if isinstance(a, str))

    for bid, blk in func.blocks.items():
        in_phis = True
        for i, ins in enumerate(blk.instrs):
            if isinstance(ins, Phi):
                if not in_phis:
                    bad(f"phi %{ins.defines} is not at the start of block {bid!r}")
                arm_preds = [p for p, _ in ins.arms]
                if sorted(arm_preds) != sorted(preds[bid]):
                    bad(
                        f"phi %{ins.defines} arms {sorted(arm_preds)} do not match "
                        f"predecessors {sorted(preds[bid])} of block {bid!r}"
                    )
                for p, o in ins.arms:
                    if isinstance(o, str) and p in func.blocks:
                        dblk, _ = def_site[o]
                        if dblk != p and dblk not in dom.get(p, set()):
                            bad(f"phi arm %{o} from {p!r} is not dominated by its definition")
            else:
                in_phis = False
                for v in operand_uses(ins):
                    check_use(v, bid, i, instr_str(ins))
        term = blk.term
        tv = term.cond if isinstance(term, Branch) else getattr(term, "value", None)
        if isinstance(tv, str):
            check_use(tv, bid, len(blk.instrs), term_str(term))

    # Constraint declarations: every plain tag must label at least one action.
    labelled = set()
    for blk in func.blocks.values():
        for ins in blk.instrs:
            if isinstance(ins, Action):
                labelled.update(ins.labels)
    for d in func.decls:
        for tag in (d.src, d.dst):
            if tag not in RESERVED_TAGS and tag not in labelled:
                bad(f"edge declaration tag {tag!r} labels no action")

    for blk in func.blocks.values():
        for ins in blk.instrs:
            if isinstance(ins, Action) and ins.kind == "noop" and not ins.labels:
                bad("noop action without a label")
            # A push that constraints could name would need push-edge
            # semantics (vo into it, xo out of it), which nothing implements.
            if isinstance(ins, Action) and ins.kind == "push" and ins.labels:
                bad(f"labelled push (tag {ins.labels[0]!r}) is not supported")
    return diags


# ---------------------------------------------------------------------------
# Normalization


@dataclass
class NormalizedCFG:
    func: FunctionIR
    blocks: dict  # norm block id -> BasicBlock
    entry: str
    edges: list  # (src, dst, pseudo)
    action_block: dict  # action id -> norm block id
    bind_block: dict  # bind id -> norm block id
    actions: dict  # action id -> Action
    block_origin: dict  # norm block -> (orig block | None, index)
    # Adjacency, built once: per block, in `edges` order, duplicates kept
    # (`br %c ? a : a` leaves two identical edges).
    succ: dict  # block -> successors over all edges
    pred: dict  # block -> predecessors over all edges
    real_succ: dict  # block -> successors over real (non-pseudo) edges
    real_pred: dict  # block -> predecessors over real edges


def _split_block(blk, is_entry):
    """Split so labeled actions sit alone. Returns list of (suffix instrs, labeled?)."""
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


def normalize(func):
    """Produce the normalized CFG used by all later stages.

    Invariants established: every labeled action alone in its block, no
    critical edges, exit->entry pseudo edges, entry block label-free.
    """
    blocks = {}
    block_origin = {}
    last_chunk = {}
    for bid, blk in func.blocks.items():
        segs = _split_block(blk, is_entry=(bid == func.entry))
        ids = [bid] + [f"{bid}.s{i}" for i in range(1, len(segs))]
        last_chunk[bid] = ids[-1]
        idx = 0
        for i, (instrs, _labeled) in enumerate(segs):
            term = blk.term if i == len(segs) - 1 else Jump(ids[i + 1])
            blocks[ids[i]] = BasicBlock(id=ids[i], instrs=instrs, term=term)
            block_origin[ids[i]] = (bid, idx)
            idx += len(instrs)

    # Phi arms name original predecessors; splitting moved the incoming
    # edge to each predecessor's final chunk. Retarget (via copies).
    for b in blocks:
        blocks[b].instrs = [
            Phi(ins.defines, tuple((last_chunk[p], o) for p, o in ins.arms))
            if isinstance(ins, Phi)
            else ins
            for ins in blocks[b].instrs
        ]

    # Break critical edges (real edges only; every split chunk has one succ).
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
            # Retarget phi arms in the destination (copies: instrs alias the input).
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
