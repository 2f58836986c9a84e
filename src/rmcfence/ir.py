"""Textual IR: parsing, validation, printing, and CFG normalization.

The IR is a small SSA language: functions hold basic blocks of memory
actions (reads, writes, RMWs, pushes, no-ops), uninterpreted pure ops,
phis, and bind markers, plus constraint-edge declarations between label
tags. Normalization isolates labeled actions into their own blocks,
breaks critical edges, and closes the CFG with exit->entry pseudo edges.
"""

import re
from collections import namedtuple

# Operands are either SSA value ids (str, without the % sigil) or int literals.
Operand = "int | str"

EDGE_KINDS = ("vo", "xo", "pu")
RESERVED_TAGS = ("pre", "post")
RMW_OPS = ("xchg", "add")


class Diagnostic(namedtuple("Diagnostic", "line col message")):
    __slots__ = ()

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class Record:
    """A record whose fields are its `__slots__`. Records are equal when
    they are of the same class and their fields are equal, so no two
    kinds of node compare equal, and, being mutable, are unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Global(Record):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class Deref(Record):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Action(Record):
    """A memory action. reads/rmws define a value; writes carry a data operand.
    `kind` is read | write | rmw | push | noop; `loc` a Global, a Deref or
    None; `data` an operand or None."""

    __slots__ = ("id", "kind", "loc", "data", "rmw_op", "defines", "labels")

    def __init__(self, id, kind, loc=None, data=None, rmw_op=None, defines=None, labels=()):
        self.id, self.kind, self.loc, self.data = id, kind, loc, data
        self.rmw_op, self.defines, self.labels = rmw_op, defines, labels

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


class PureOp(Record):
    __slots__ = ("defines", "op", "args")

    def __init__(self, defines, op, args):
        self.defines, self.op, self.args = defines, op, args


class Phi(Record):
    __slots__ = ("defines", "arms")  # arms: (pred block id, operand) pairs

    def __init__(self, defines, arms):
        self.defines, self.arms = defines, arms


class Bind(Record):
    __slots__ = ("id",)

    def __init__(self, id):
        self.id = id


class Jump(Record):
    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target


class Branch(Record):
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond, then, els):
        self.cond, self.then, self.els = cond, then, els


class Ret(Record):
    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = value


class BasicBlock(Record):
    __slots__ = ("id", "instrs", "term")  # instrs: list; term: Jump | Branch | Ret

    def __init__(self, id, instrs, term):
        self.id, self.instrs, self.term = id, instrs, term


class ConstraintDecl(Record):
    __slots__ = ("kind", "src", "dst", "bind")

    def __init__(self, kind, src, dst, bind=None):
        self.kind, self.src, self.dst, self.bind = kind, src, dst, bind


class FunctionIR(Record):
    __slots__ = ("name", "decls", "blocks", "entry")  # blocks: id -> BasicBlock, in source order

    def __init__(self, name, decls, blocks, entry):
        self.name, self.decls, self.blocks, self.entry = name, decls, blocks, entry

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


# ---------------------------------------------------------------------------
# Tokenizer / parser


# A comment runs from `#` or `;;` to the end of its line. No token holds
# either, so every `#` and `;;` outside a comment starts one, and
# `_blank_comments` finds them all with one search. It overwrites each
# with as many spaces, so positions stay those of the source text, and
# keeps its newline, so no two tokens join.
_COMMENT_RE = re.compile(r"(?:#|;;)[^\n]*")


def _blank_comments(text):
    if "#" not in text and ";;" not in text:
        return text
    return _COMMENT_RE.sub(lambda m: " " * len(m[0]), text)


# Each match of a text with comments blanked is the whitespace before one
# token, then the token, the one group: a word, a punctuation character,
# a value, an integer, an arrow, the empty string at the end of the text,
# or any other single character, which no grammar rule accepts. No text
# matches two of the first five, so their order (most frequent first)
# does not change what matches. After trailing whitespace the end of the
# text matches twice. Whitespace is ASCII only (`re.ASCII`), as words,
# values and integers are: a Unicode space or line separator outside a
# comment is a bad character, so no line break goes uncounted in a
# diagnostic.
_TOKEN_RE = re.compile(
    r"""
    \s*
    ( [A-Za-z_][A-Za-z_0-9]*
    | [{}:;?,\[\]()@*=]
    | %[A-Za-z_][A-Za-z_0-9]*
    | -?[0-9]+
    | ->
    | \Z
    | . )
    """,
    re.VERBOSE | re.ASCII,
)
_PUNCT = "{}:;?,[]()@*="
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _is_value(t):
    return t[:1] == "%" and len(t) > 1  # a lone % is a bad character


def parse_decimal(text):
    """The integer that `text` writes as ASCII decimal digits with an
    optional leading `-` (exactly what -?[0-9]+ matches); None for any
    other text, which `int` might read: other scripts' digits, `_`, `+`,
    surrounding spaces. IR literals, cost files and integer options all
    read integers with it."""
    digits = text[1:] if text[:1] == "-" else text
    return int(text) if digits.isascii() and digits.isdecimal() else None


def _diagnostic_at(text, pos, msg):
    line = text.count("\n", 0, pos) + 1
    return Diagnostic(line, pos - text.rfind("\n", 0, pos), msg)


def _diagnostic(text, i, msg):
    """`msg` at the position of token i, unless the text holds a bad
    character: then the first of those, which is where tokenizing would
    stop before any parsing. No grammar rule accepts a bad character, so
    a text that holds one always reaches here."""
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        t = m[1]
        if len(t) == 1 and t not in _PUNCT and t not in _WORD_START and parse_decimal(t) is None:
            return _diagnostic_at(text, m.start(1), f"unexpected character {t!r}")
        if k == i:
            pos = m.start(1)
        if not t:
            break
    return _diagnostic_at(text, pos, msg)


class _Parser:
    """Recursive descent over the token strings of one source text.

    Each rule takes the index of its first token and returns the index
    after its last one. A token's kind is read from its first character,
    and the end of the text is the empty string, so a rule looks one
    token past another only once that one has been checked. Only a
    diagnostic needs a position; `fail` computes it.
    """

    def __init__(self, text):
        self.text = _blank_comments(text)
        self.toks = _TOKEN_RE.findall(self.text)

    def fail(self, i, msg):
        raise ParseError([_diagnostic(self.text, i, msg)])

    def expected(self, i, what):
        self.fail(i, f"expected {what}, found {self.toks[i] or 'end of input'!r}")

    def word(self, i, what):
        t = self.toks[i]
        if t[:1] not in _WORD_START:
            self.expected(i, what)
        return t

    # -- grammar --

    def parse_file(self):
        toks = self.toks
        funcs = []
        names = set()
        i = 0
        while toks[i]:
            if toks[i] != "func":
                self.expected(i, "'func'")
            name = self.word(i + 1, "function name")
            if name in names:
                self.fail(i + 1, f"duplicate function {name!r}")
            names.add(name)
            i = self.parse_func(i + 2, name, funcs)
        return funcs

    def parse_func(self, i, name, funcs):
        toks = self.toks
        if toks[i] != "{":
            self.expected(i, "'{'")
        i += 1
        decls = []
        binds = []  # (bind point, token index) of each scoped declaration
        while toks[i] == "edge":
            i = self.parse_decl(i + 1, decls, binds)
        blocks = {}
        self.action_n = 0
        self.value_defs = set()
        self.bind_ids = set()
        self.uses = []  # (value id, token index) to resolve after the body
        self.block_refs = []  # (block id, token index)
        if toks[i] != "block":
            self.fail(i, "expected 'block'")
        while toks[i] == "block":
            i = self.parse_block(i + 1, blocks)
        if toks[i] != "}":
            self.expected(i, "'}'")
        for vid, k in self.uses:
            if vid not in self.value_defs:
                self.fail(k, f"undefined value %{vid}")
        for bid, k in self.block_refs:
            if bid not in blocks:
                self.fail(k, f"undefined block {bid!r}")
        for bind, k in binds:
            if bind not in self.bind_ids:
                self.fail(k, f"undefined bind point {bind!r} in function {name!r}")
        funcs.append(FunctionIR(name=name, decls=decls, blocks=blocks, entry=next(iter(blocks))))
        return i + 1

    def parse_decl(self, i, decls, binds):
        toks = self.toks
        kind = toks[i]
        if kind not in EDGE_KINDS:
            self.fail(i, f"expected edge kind vo/xo/pu, found {kind!r}")
        i += 1
        bind = None
        if toks[i] == "here":
            if toks[i + 1] != "(":
                self.expected(i + 1, "'('")
            bind = self.word(i + 2, "ident")
            binds.append((bind, i + 2))
            if toks[i + 3] != ")":
                self.expected(i + 3, "')'")
            i += 4
        src = self.word(i, "source tag")
        if toks[i + 1] != "->":
            self.expected(i + 1, "'->'")
        dst = self.word(i + 2, "destination tag")
        if toks[i + 3] != ";":
            self.expected(i + 3, "';'")
        if src == "post":
            self.fail(i, "reserved tag 'post' may only appear as a destination")
        if dst == "pre":
            self.fail(i + 2, "reserved tag 'pre' may only appear as a source")
        if src == "pre" and dst == "post":
            self.fail(i, "'pre' and 'post' may not appear in the same declaration")
        if bind is not None and (src in RESERVED_TAGS or dst in RESERVED_TAGS):
            self.fail(i, "pre/post declarations may not carry a binding point")
        if kind == "pu" and (src == "pre" or dst == "post"):
            self.fail(i if src == "pre" else i + 2, "pu edges do not support pre/post")
        decls.append(ConstraintDecl(kind, src, dst, bind))
        return i + 4

    def parse_block(self, i, blocks):
        toks = self.toks
        bid = self.word(i, "block id")
        if toks[i + 1] != ":":
            self.expected(i + 1, "':'")
        id_at = i
        i += 2
        instrs = []
        while True:
            t = toks[i]
            if t == "jmp" or t == "br" or t == "ret":
                break
            if t == "block" or t == "}" or not t:
                self.fail(i, f"block {bid!r} is missing a terminator")
            i = self.parse_instr(i, instrs)
        refs = self.block_refs
        if t == "jmp":
            tgt = self.word(i + 1, "jump target")
            refs.append((tgt, i + 1))
            term = Jump(tgt)
            i += 2
        elif t == "br":
            cond = self.operand(i + 1)
            if toks[i + 2] != "?":
                self.expected(i + 2, "'?'")
            then = self.word(i + 3, "branch target")
            if toks[i + 4] != ":":
                self.expected(i + 4, "':'")
            els = self.word(i + 5, "branch target")
            refs.append((then, i + 3))
            refs.append((els, i + 5))
            term = Branch(cond, then, els)
            i += 6
        else:
            val = None
            i += 1
            if _is_value(toks[i]) or parse_decimal(toks[i]) is not None:
                val = self.operand(i)
                i += 1
            term = Ret(val)
        if bid in blocks:
            self.fail(id_at, f"duplicate block {bid!r}")
        blocks[bid] = BasicBlock(id=bid, instrs=instrs, term=term)
        return i

    def def_value(self, i):
        vid = self.toks[i][1:]
        if vid in self.value_defs:
            self.fail(i, f"duplicate definition of %{vid}")
        self.value_defs.add(vid)
        return vid

    def operand(self, i):
        t = self.toks[i]
        if _is_value(t):
            self.uses.append((t[1:], i))
            return t[1:]
        n = parse_decimal(t)
        if n is None:
            self.fail(i, f"expected operand, found {t!r}")
        return n

    def loc(self, i):
        """The two-token location at token i."""
        t = self.toks[i]
        if t == "@":
            return Global(self.word(i + 1, "ident"))
        if t == "*":
            v = self.toks[i + 1]
            if not _is_value(v):
                self.expected(i + 1, "pointer value")
            self.uses.append((v[1:], i + 1))
            return Deref(v[1:])
        self.fail(i, "expected location (@name or *%value)")

    def label(self, i):
        """The tag of the `label` at token i - 1."""
        t = self.word(i, "label tag")
        if t in RESERVED_TAGS:
            self.fail(i, f"tag {t!r} is reserved")
        return (t,)

    def parse_instr(self, i, instrs):
        toks = self.toks
        t = toks[i]
        if t == "write":
            loc = self.loc(i + 1)
            data = self.operand(i + 3)
            i += 4
            labels = ()
            if toks[i] == "label":
                labels = self.label(i + 1)
                i += 2
            instrs.append(Action(f"a{self.action_n}", "write", loc, data, None, None, labels))
            self.action_n += 1
            return i
        if t == "push" or t == "noop":
            i += 1
            labels = ()
            if toks[i] == "label":
                labels = self.label(i + 1)
                if t == "push":
                    # A push that constraints could name would need push-edge
                    # semantics (vo into it, xo out of it), which nothing implements.
                    self.fail(i + 1, f"labelled push (tag {labels[0]!r}) is not supported")
                i += 2
            elif t == "noop":
                self.fail(i, "noop requires a label")
            instrs.append(Action(f"a{self.action_n}", t, None, None, None, None, labels))
            self.action_n += 1
            return i
        if t == "bind":
            b = self.word(i + 1, "bind id")
            if b in self.bind_ids:
                self.fail(i + 1, f"duplicate bind id {b!r}")
            self.bind_ids.add(b)
            instrs.append(Bind(id=b))
            return i + 2
        if not _is_value(t):
            self.fail(i, f"expected instruction, found {t or 'end of input'!r}")
        if toks[i + 1] != "=":
            self.expected(i + 1, "'='")
        vi = i
        op = toks[i + 2]
        if op == "read" or op == "rmw":
            loc = self.loc(i + 3)
            i += 5
            if op == "rmw":
                rop = toks[i]
                if rop not in RMW_OPS:
                    self.fail(i, f"expected rmw operator xchg/add, found {rop!r}")
                data = self.operand(i + 1)
                i += 2
            labels = ()
            if toks[i] == "label":
                labels = self.label(i + 1)
                i += 2
            aid = f"a{self.action_n}"
            self.action_n += 1
            if op == "read":
                ins = Action(aid, "read", loc, None, None, self.def_value(vi), labels)
            else:
                ins = Action(aid, "rmw", loc, data, rop, self.def_value(vi), labels)
        elif op == "op":
            name = self.word(i + 3, "op name")
            if toks[i + 4] != "(":
                self.expected(i + 4, "'('")
            i += 5
            args = []
            if toks[i] != ")":
                args.append(self.operand(i))
                i += 1
                while toks[i] == ",":
                    args.append(self.operand(i + 1))
                    i += 2
            if toks[i] != ")":
                self.expected(i, "')'")
            i += 1
            ins = PureOp(defines=self.def_value(vi), op=name, args=tuple(args))
        elif op == "phi":
            arms = []
            i += 2
            while True:
                i = self.parse_phi_arm(i + 1, arms)
                if toks[i] != ",":
                    break
            ins = Phi(defines=self.def_value(vi), arms=tuple(arms))
        else:
            self.fail(i + 2, f"expected read/rmw/op/phi, found {op!r}")
        instrs.append(ins)
        return i

    def parse_phi_arm(self, i, arms):
        """The arm after token i - 1 (`phi` or `,`)."""
        toks = self.toks
        if toks[i] != "[":
            self.expected(i, "'['")
        blk = self.word(i + 1, "predecessor block")
        self.block_refs.append((blk, i + 1))
        if toks[i + 2] != ":":
            self.expected(i + 2, "':'")
        opnd = self.operand(i + 3)
        if toks[i + 4] != "]":
            self.expected(i + 4, "']'")
        arms.append((blk, opnd))
        return i + 5


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


def print_function(func, notes={}, header=""):
    """The function's source text. `notes[(block, i)]` lists lines printed
    before instruction i of the block, where i equal to the instruction
    count means the terminator; `header` follows the opening brace."""
    lines = [f"func {func.name} {{{header}"]
    for d in func.decls:
        here = f"here({d.bind}) " if d.bind else ""
        lines.append(f"  edge {d.kind} {here}{d.src} -> {d.dst};")
    for blk in func.blocks.values():
        lines.append(f"  block {blk.id}:")
        for i, node in enumerate([*blk.instrs, blk.term]):
            lines.extend(f"    {text}" for text in notes.get((blk.id, i), ()))
            lines.append(f"    {_node_str(node)}")
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


def dominance(entry, succ):
    """The dominance relation of the blocks reachable from `entry`, as a
    function `dominates(a, b)`: does every path from `entry` to b pass
    through a? Every block dominates itself.

    Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm"
    (2001): number the blocks in reverse postorder of a depth-first
    search from `entry` and iterate each block's immediate dominator with
    the two-finger intersect on those numbers until none changes. Then
    lay the dominator tree out in preorder: a block's subtree is the
    interval from its own number to the last of its descendants, and a
    dominates b exactly when b's number falls in a's interval. Both
    arguments must be reachable from `entry`: `validate` rejects
    unreachable blocks before it asks, and the real edges of a normalized
    CFG reach every block.
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

    # A block's immediate dominator comes before it in reverse postorder,
    # so one backward pass sizes every subtree and one forward pass gives
    # each child the next free slot in its parent's interval.
    size = [1] * len(order)
    for i in range(len(order) - 1, 0, -1):
        size[idom[i]] += size[i]
    first = [0] * len(order)
    free = [1] * len(order)  # next unused preorder number inside each subtree
    for i in range(1, len(order)):
        d = idom[i]
        first[i] = free[d]
        free[d] += size[i]
        free[i] = first[i] + 1
    lo = {b: first[i] for i, b in enumerate(order)}
    hi = {b: first[i] + size[i] for i, b in enumerate(order)}

    def dominates(a, b):
        return lo[a] <= lo[b] < hi[a]

    return dominates


def validate(func):
    """Structural and SSA checks beyond the grammar. Returns a diagnostics list.

    One walk over the instructions records every definition, label and
    use. The uses are checked after it, in text order, because a
    definition may follow in the text a use that it dominates. Dominance
    is computed only for a use in another block than its definition, and
    an instruction is printed only into a diagnostic.
    """
    diags = []
    bad = lambda msg: diags.append(Diagnostic(0, 0, f"{func.name}: {msg}"))
    blocks, entry = func.blocks, func.entry

    succ = {bid: successors(blk.term) for bid, blk in blocks.items()}
    preds = {bid: [] for bid in blocks}
    for bid, ss in succ.items():
        for s in ss:
            preds[s].append(bid)
    if preds[entry]:
        bad(f"entry block {entry!r} has predecessors")

    seen = {entry}
    stack = [entry]
    while stack:
        for s in succ[stack.pop()]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    if len(seen) < len(blocks):
        for bid in blocks:
            if bid not in seen:
                bad(f"block {bid!r} is unreachable from entry")
    if diags:
        return diags

    def_site = {}  # value -> (block, index)
    labelled = set()
    # In text order: a message, or a use (value, block, index, instruction
    # or terminator); a phi arm's use has the arm's block and index None.
    pending = []
    for bid, blk in blocks.items():
        in_phis = True
        for i, ins in enumerate(blk.instrs):
            if isinstance(ins, Phi):
                def_site[ins.defines] = (bid, i)
                if not in_phis:
                    pending.append(f"phi %{ins.defines} is not at the start of block {bid!r}")
                arm_preds = sorted(p for p, _ in ins.arms)
                if arm_preds != sorted(preds[bid]):
                    pending.append(
                        f"phi %{ins.defines} arms {arm_preds} do not match "
                        f"predecessors {sorted(preds[bid])} of block {bid!r}"
                    )
                for p, o in ins.arms:
                    if isinstance(o, str) and p in blocks:
                        pending.append((o, p, None, ins))
                continue
            in_phis = False
            if isinstance(ins, Action):
                if ins.defines:
                    def_site[ins.defines] = (bid, i)
                if isinstance(ins.loc, Deref):
                    pending.append((ins.loc.value, bid, i, ins))
                if isinstance(ins.data, str):
                    pending.append((ins.data, bid, i, ins))
                labelled.update(ins.labels)
            elif isinstance(ins, PureOp):
                def_site[ins.defines] = (bid, i)
                for a in ins.args:
                    if isinstance(a, str):
                        pending.append((a, bid, i, ins))
        term = blk.term
        tv = term.cond if isinstance(term, Branch) else getattr(term, "value", None)
        if isinstance(tv, str):
            pending.append((tv, bid, len(blk.instrs), term))

    dominates = None
    for item in pending:
        if isinstance(item, str):
            bad(item)
            continue
        vid, bid, idx, node = item
        dblk, didx = def_site[vid]
        if dblk == bid:
            if idx is not None and didx >= idx:
                bad(f"use of %{vid} in {_node_str(node)} precedes its definition in block {bid!r}")
            continue
        if dominates is None:
            dominates = dominance(entry, succ.__getitem__)
        if dominates(dblk, bid):
            continue
        if idx is None:
            bad(f"phi arm %{vid} from {bid!r} is not dominated by its definition")
        else:
            bad(f"use of %{vid} in {_node_str(node)} is not dominated by its definition")

    # Constraint declarations: every plain tag must label at least one action.
    for d in func.decls:
        for tag in (d.src, d.dst):
            if tag not in RESERVED_TAGS and tag not in labelled:
                bad(f"edge declaration tag {tag!r} labels no action")
    return diags


def _node_str(node):
    return term_str(node) if isinstance(node, (Jump, Branch, Ret)) else instr_str(node)


# ---------------------------------------------------------------------------
# Normalization


class NormalizedCFG(Record):
    """The normalized CFG. `blocks` maps a normalized block id to its
    BasicBlock, `edges` lists (src, dst, pseudo), `action_block` and
    `bind_block` map an action or bind id to its block, `actions` an
    action id to its Action, and `block_origin` a block to (original
    block | None, index). The adjacency lists are built once: per block,
    in `edges` order, duplicates kept (`br %c ? a : a` leaves two
    identical edges), over all edges (`succ`, `pred`) and over the real,
    non-pseudo ones (`real_succ`, `real_pred`)."""

    __slots__ = ("func", "blocks", "entry", "edges", "action_block", "bind_block", "actions",
                 "block_origin", "succ", "pred", "real_succ", "real_pred")

    def __init__(self, func, blocks, entry, edges, action_block, bind_block, actions,
                 block_origin, succ, pred, real_succ, real_pred):
        self.func, self.blocks, self.entry, self.edges = func, blocks, entry, edges
        self.action_block, self.bind_block, self.actions = action_block, bind_block, actions
        self.block_origin, self.succ, self.pred = block_origin, succ, pred
        self.real_succ, self.real_pred = real_succ, real_pred


def normalize(func):
    """Produce the normalized CFG used by all later stages.

    Invariants established: every labeled action alone in its block, no
    critical edges, exit->entry pseudo edges, entry block label-free.

    One walk over the blocks splits each into chunks, the first keeping
    the block's id and the next ones named `<id>.s1`, `<id>.s2`, ...: a
    labeled action gets a chunk of its own, and so does the run of other
    instructions before or after it (the entry gets an empty first chunk
    when a labeled action opens it). The same walk records each action's
    and bind's chunk and counts each block's predecessors. A real edge
    from a branch into a block with more than one predecessor is then
    split by a `crit.<src>.<dst>` block, and phi arms are retargeted to
    the chunk or split block that the incoming edge now leaves. The input
    is not changed: its instructions and terminators are shared, never
    modified.
    """
    entry = func.entry
    blocks, block_origin = {}, {}
    action_block, bind_block, actions = {}, {}, {}
    npred = dict.fromkeys(func.blocks, 0)
    last_chunk = {}  # original block -> the chunk its terminator ends
    branches = []  # the chunks that end in a branch, in order
    phis = []  # (chunk, its instructions, index) of every phi
    for bid, blk in func.blocks.items():
        cid, cur, start = bid, [], 0  # the open chunk: id, instructions, first index
        n = 0  # chunks of this block closed so far
        prev = None  # the last closed chunk, whose jump names the next one
        for i, ins in enumerate(blk.instrs):
            if isinstance(ins, Action):
                actions[ins.id] = ins
                if ins.labels:
                    if cur or (not n and bid == entry):
                        chunk = BasicBlock(cid, cur, None)
                        if prev is not None:
                            prev.term = Jump(cid)
                        blocks[cid] = prev = chunk
                        block_origin[cid] = (bid, start)
                        n += 1
                        cid, cur = f"{bid}.s{n}", []
                    chunk = BasicBlock(cid, [ins], None)
                    if prev is not None:
                        prev.term = Jump(cid)
                    blocks[cid] = prev = chunk
                    block_origin[cid] = (bid, i)
                    action_block[ins.id] = cid
                    n += 1
                    cid, start = f"{bid}.s{n}", i + 1
                    continue
                action_block[ins.id] = cid
            elif isinstance(ins, Bind):
                bind_block[ins.id] = cid
            elif isinstance(ins, Phi):
                phis.append((cid, cur, len(cur)))
            cur.append(ins)
        term = blk.term
        if cur or not n:
            chunk = BasicBlock(cid, cur, term)
            if prev is not None:
                prev.term = Jump(cid)
            blocks[cid] = chunk
            block_origin[cid] = (bid, start)
        else:
            chunk = prev
            chunk.term = term
        last_chunk[bid] = chunk.id
        if isinstance(term, Jump):
            npred[term.target] += 1
        elif isinstance(term, Branch):
            npred[term.then] += 1
            npred[term.els] += 1
            branches.append(chunk)

    # Break critical edges: every other chunk has one successor.
    crit = {}  # (branch chunk, target) -> the block between them
    for chunk in branches:
        b, term = chunk.id, chunk.term
        for s in (term.then, term.els):
            if npred[s] > 1:
                mid = crit[b, s] = f"crit.{b}.{s}"
                blocks[mid] = BasicBlock(mid, [], Jump(s))
                block_origin[mid] = (None, -1)
        then, els = crit.get((b, term.then), term.then), crit.get((b, term.els), term.els)
        if then != term.then or els != term.els:
            chunk.term = Branch(term.cond, then, els)

    # Phi arms name original predecessors; the incoming edge now leaves
    # the predecessor's last chunk, or the block that splits it.
    for cid, instrs, i in phis:
        ins = instrs[i]
        arms = []
        for p, o in ins.arms:
            p = last_chunk[p]
            arms.append((crit.get((p, cid), p), o))
        instrs[i] = Phi(ins.defines, tuple(arms))

    edges, rets = [], []
    succ, real_succ = {}, {}
    pred = {b: [] for b in blocks}
    real_pred = {b: [] for b in blocks}
    for b, blk in blocks.items():
        term = blk.term
        if isinstance(term, Jump):
            d = term.target
            edges.append((b, d, False))
            succ[b] = [d]
            real_succ[b] = [d]
            pred[d].append(b)
            real_pred[d].append(b)
        elif isinstance(term, Branch):
            t, e = term.then, term.els
            edges.append((b, t, False))
            edges.append((b, e, False))
            succ[b] = [t, e]
            real_succ[b] = [t, e]
            pred[t].append(b)
            real_pred[t].append(b)
            pred[e].append(b)
            real_pred[e].append(b)
        else:
            succ[b] = []
            real_succ[b] = []
            rets.append(b)
    for b in rets:
        edges.append((b, entry, True))
        succ[b].append(entry)
        pred[entry].append(b)

    return NormalizedCFG(
        func=func,
        blocks=blocks,
        entry=entry,
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
