import re
from unittest import mock

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from rmcfence import arch, ir
from conftest import CORPUS_NAMES, load_corpus, naive_dominators, parse_valid


def test_parse_mp_sender_shape():
    funcs = ir.parse(load_corpus("mp"))
    send = next(f for f in funcs if f.name == "send")
    assert len(send.blocks) == 1
    assert len(send.actions()) == 2
    assert len(send.decls) == 1
    assert send.decls[0].kind == "vo"


def test_parse_degenerate_function():
    (f,) = ir.parse("func f { block e: ret }")
    assert f.entry == "e"
    assert f.blocks["e"].instrs == []
    assert isinstance(f.blocks["e"].term, ir.Ret)


def test_undefined_value_is_rejected():
    with pytest.raises(ir.ParseError, match="undefined value"):
        ir.parse("func f { block e: write @x %v ret }")


def test_undefined_block_is_rejected():
    with pytest.raises(ir.ParseError, match="undefined block"):
        ir.parse("func f { block e: jmp nowhere }")


def test_duplicate_value_definition():
    with pytest.raises(ir.ParseError, match="duplicate definition"):
        ir.parse("func f { block e: %v = read @x %v = read @y ret }")


def test_duplicate_block():
    with pytest.raises(ir.ParseError, match="duplicate block"):
        ir.parse("func f { block e: jmp e block e: ret }")


def test_duplicate_function():
    with pytest.raises(ir.ParseError, match="duplicate function"):
        ir.parse("func f { block e: ret } func f { block e: ret }")


def test_reserved_tags_cannot_label_actions():
    with pytest.raises(ir.ParseError, match="reserved"):
        ir.parse("func f { block e: write @x 1 label pre ret }")


def test_pre_post_misuse():
    with pytest.raises(ir.ParseError, match="'post' may only appear as a destination"):
        ir.parse("func f { edge vo post -> a; block e: write @x 1 label a ret }")
    with pytest.raises(ir.ParseError, match="'pre' may only appear as a source"):
        ir.parse("func f { edge vo a -> pre; block e: write @x 1 label a ret }")
    with pytest.raises(ir.ParseError, match="same declaration"):
        ir.parse("func f { edge vo pre -> post; block e: ret }")
    with pytest.raises(ir.ParseError, match="binding point"):
        ir.parse(
            "func f { edge xo here(b) pre -> a; block e: bind b write @x 1 label a ret }"
        )


def test_noop_requires_label():
    with pytest.raises(ir.ParseError, match="noop requires a label"):
        ir.parse("func f { block e: noop ret }")


def test_missing_terminator():
    with pytest.raises(ir.ParseError, match="missing a terminator"):
        ir.parse("func f { block e: write @x 1 block g: ret }")


# Recorded from the parser before tokens carried offsets instead of
# line and column: the text of each diagnostic must not change. The
# undefined bind point, once always reported at 1:1, is now reported at
# its token in the `here(...)` of its declaration.
DIAGNOSTICS = [
    ('$func f { block e: ret }', "1:1: unexpected character '$'"),
    ('func f {\n$ block e: ret }', "2:1: unexpected character '$'"),
    ('func f {\r\n  block e:\r\n$ ret }', "3:1: unexpected character '$'"),
    ('func f {\r\n\tblock e: ret\r\n}\r\n\t!', "4:2: unexpected character '!'"),
    ('func f {\n\t\t$block e: ret }', "2:3: unexpected character '$'"),
    ('# comment $ inside is fine\nfunc f { block e: ret } ~', "2:25: unexpected character '~'"),
    (';; comment\n!func f { block e: ret }', "2:1: unexpected character '!'"),
    ('func f { block e: ret } # trailing comment\n$', "2:1: unexpected character '$'"),
    ('func f { block e: ret }\n\n\t$', "3:2: unexpected character '$'"),
    ('func f { block e: ret } $', "1:25: unexpected character '$'"),
    # integers are ASCII digits, as words and values are ASCII
    ('func f { block e: write @x ٣٤ ret }', "1:28: unexpected character '٣'"),
    # whitespace is ASCII too: a Unicode space or line separator is a bad
    # character at its own position, and no line break is counted for it
    ('func f {\u00a0block e: ret }', "1:9: unexpected character '\\xa0'"),
    ('func f {\u2028block e: ret }', "1:9: unexpected character '\\u2028'"),
    ('func f {\u3000block e: ret }', "1:9: unexpected character '\\u3000'"),
    ('func f {\u2028$ block e: ret }', "1:9: unexpected character '\\u2028'"),
    ('func f {\n # \u00a0\u2028\u3000 in a comment\n block e: ret } $', "3:17: unexpected character '$'"),
    ('func f { block e: write @x 1 label a; ret }', "1:37: expected instruction, found ';'"),
    ('func f { block e: ret', "1:22: expected '}', found 'end of input'"),
    ('func f { block e: ret }\nfunc f { block e: ret }', "2:6: duplicate function 'f'"),
    ('func f {\n  block e:\n    write @x %v\n    ret\n}', '3:14: undefined value %v'),
    ('func f {\n  block e:\n    jmp nowhere\n}', "3:9: undefined block 'nowhere'"),
    ('func f { block e: %v = read @x\n %v = read @y\n ret }', '2:2: duplicate definition of %v'),
    ('func f { block e: ret\n block e: ret }', "2:8: duplicate block 'e'"),
    ('func f { block e: write @x 1 label pre\n ret }', "1:36: tag 'pre' is reserved"),
    (
        'func f { edge vo post -> a; block e: write @x 1 label a ret }',
        "1:18: reserved tag 'post' may only appear as a destination",
    ),
    (
        'func f { edge vo a -> pre; block e: write @x 1 label a ret }',
        "1:23: reserved tag 'pre' may only appear as a source",
    ),
    (
        'func f { edge vo pre -> post; block e: ret }',
        "1:18: 'pre' and 'post' may not appear in the same declaration",
    ),
    (
        'func f { edge vo here(b) pre -> a; block e: write @x 1 label a\n bind b ret }',
        '1:26: pre/post declarations may not carry a binding point',
    ),
    ('func f { edge zz a -> b; block e: ret }', "1:15: expected edge kind vo/xo/pu, found 'zz'"),
    ('func f { block e: noop\n ret }', '2:2: noop requires a label'),
    ('func f { block e: push label p\n ret }', "1:30: labelled push (tag 'p') is not supported"),
    (
        'func f { edge pu pre -> a; block e: write @x 1 label a ret }',
        '1:18: pu edges do not support pre/post',
    ),
    (
        'func f { edge pu a -> post; block e: write @x 1 label a ret }',
        '1:23: pu edges do not support pre/post',
    ),
    (
        'func f {\n  block e:\n    write @x 1\n  block g: ret\n}',
        "4:3: block 'e' is missing a terminator",
    ),
    (
        'func f { block e: %v = rmw @x swap 1 ret }',
        "1:31: expected rmw operator xchg/add, found 'swap'",
    ),
    ('func f { block e: %v = frob @x ret }', "1:24: expected read/rmw/op/phi, found 'frob'"),
    ('func f { block e: frob ret }', "1:19: expected instruction, found 'frob'"),
    ('func f { block e: write # x\n 1 ret }', '2:2: expected location (@name or *%value)'),
    (
        'func f { block e: br 1 ? a b\n block a: ret block b: ret }',
        "1:28: expected ':', found 'b'",
    ),
    (
        'func f { edge vo here(nope) a -> b; block e: write @x 1 label a write @y 1 label b ret }',
        "1:23: undefined bind point 'nope' in function 'f'",
    ),
    (
        'func f {\n  block e:\n    ret\n}\nfunc g {\n  edge vo here(nope) a -> b;\n  block e:\n'
        '    write @x 1 label a\n    write @y 1 label b\n    ret\n}\n',
        "6:16: undefined bind point 'nope' in function 'g'",
    ),
    ('func f { block e: bind q\n bind q\n ret }', "2:7: duplicate bind id 'q'"),
    ('func f { block e: %p = phi [x: 1] ret }', "1:29: undefined block 'x'"),
    ('func f { block e: %o = op add(1 2) ret }', "1:33: expected ')', found '2'"),
    ('func 3 { block e: ret }', "1:6: expected function name, found '3'"),
    ('func f { }', "1:10: expected 'block'"),
    ('func f { block e: %v = read', '1:28: expected location (@name or *%value)'),
    ('func f {\r\n block e:\r\n  ret\r\n', "4:1: expected '}', found 'end of input'"),
    (
        'func f { block e: ret }\n# a comment\nfunc',
        "3:5: expected function name, found 'end of input'",
    ),
    ('block', "1:1: expected 'func', found 'block'"),
    ('func f { block e: write @x -> ret }', "1:28: expected operand, found '->'"),
    (
        'func f { block e: ret }\r\nfunc g {\r\n  block e:\r\n    write *%q 1\r\n    ret\r\n}',
        '4:12: undefined value %q',
    ),
    # A lone % or -, or a letter outside ASCII, is a bad character even
    # where the grammar would take the token it starts.
    ('func f { block e: % = read @x\n write @y % ret }', "1:19: unexpected character '%'"),
    ('func f { block e: write @x - ret }', "1:28: unexpected character '-'"),
    ('func f { block é: jmp é }', "1:16: unexpected character 'é'"),
]


@pytest.mark.parametrize("text,expected", DIAGNOSTICS)
def test_parse_diagnostics_golden(text, expected):
    with pytest.raises(ir.ParseError) as exc:
        ir.parse(text)
    assert [str(d) for d in exc.value.diagnostics] == [expected]


def test_ir_literals_and_parse_decimal_read_the_same_integers():
    # One rule for IR literals, cost files and integer options: the parser
    # takes exactly the operands that parse_decimal reads, as the same int.
    assert arch.parse_decimal is ir.parse_decimal
    texts = ["7", "-3", "-0", "٣", "1_0", "+5", "-", "5 5", ""]
    read = {}
    for text in texts:
        try:
            (f,) = ir.parse(f"func f {{\n  block e:\n    write @x {text}\n    ret\n}}\n")
        except ir.ParseError:
            read[text] = None
        else:
            (write,) = f.blocks["e"].instrs
            read[text] = write.data
    assert read == {text: ir.parse_decimal(text) for text in texts}
    assert read == {"7": 7, "-3": -3, "-0": 0, **{t: None for t in texts[3:]}}


def test_comments_both_styles():
    (f,) = ir.parse("func f { # hash comment\n block e: ;; semi comment\n ret }")
    assert f.blocks["e"].instrs == []


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_print_parse_round_trip(name):
    funcs = ir.parse(load_corpus(name))
    for f in funcs:
        text = ir.print_function(f)
        (f2,) = ir.parse(text)
        assert ir.print_function(f2) == text


def test_validate_clean_corpus():
    for name in CORPUS_NAMES:
        parse_valid(load_corpus(name))


def test_validate_phi_arm_mismatch():
    (f,) = ir.parse(
        "func f { block e: br 1 ? a : b block a: jmp c block b: jmp c "
        "block c: %v = phi [a: 1], [e: 2] ret }"
    )
    assert any("do not match" in d.message for d in ir.validate(f))


def test_validate_unlabelled_edge_tag():
    (f,) = ir.parse("func f { edge vo a -> b; block e: write @x 1 label a ret }")
    assert any("labels no action" in d.message for d in ir.validate(f))


def test_validate_use_not_dominated():
    (f,) = ir.parse(
        "func f { block e: br 1 ? a : b block a: %v = read @x jmp c "
        "block b: jmp c block c: write @y %v ret }"
    )
    assert any("not dominated" in d.message for d in ir.validate(f))


def test_validate_reports_in_text_order():
    # uses in text order, then declarations; a value's own instruction
    # does not define it before its operands
    (f,) = ir.parse(
        "func f { edge vo a -> zz; block e: noop label a %v = op f(%v) push "
        "write @x %w %w = op g() br %v ? l : r block l: %u = op h() jmp j "
        "block r: jmp j block j: write @y %u ret }"
    )
    assert [d.message for d in ir.validate(f)] == [
        "f: use of %v in %v = op f(%v) precedes its definition in block 'e'",
        "f: use of %w in write @x %w precedes its definition in block 'e'",
        "f: use of %u in write @y %u is not dominated by its definition",
        "f: edge declaration tag 'zz' labels no action",
    ]


def test_validate_entry_with_predecessor():
    (f,) = ir.parse("func f { block e: jmp e }")
    assert any("has predecessors" in d.message for d in ir.validate(f))


def test_validate_unreachable_block():
    (f,) = ir.parse("func f { block e: ret block dead: ret }")
    assert any("unreachable" in d.message for d in ir.validate(f))


# -- normalization ----------------------------------------------------------


def _norm_all():
    for name in CORPUS_NAMES:
        for f in parse_valid(load_corpus(name)):
            yield name, f, ir.normalize(f)


def test_normalize_labeled_actions_isolated():
    for _name, _f, cfg in _norm_all():
        for blk in cfg.blocks.values():
            labeled = [
                i for i in blk.instrs if isinstance(i, ir.Action) and i.labels
            ]
            if labeled:
                assert len(blk.instrs) == 1


def test_normalize_no_critical_edges():
    for _name, _f, cfg in _norm_all():
        succ = cfg.real_succ
        pred = cfg.real_pred
        for s, d, pseudo in cfg.edges:
            if not pseudo:
                assert len(succ[s]) == 1 or len(pred[d]) == 1, (s, d)


def test_normalize_pseudo_edges_from_every_return():
    for _name, _f, cfg in _norm_all():
        rets = [b for b, blk in cfg.blocks.items() if isinstance(blk.term, ir.Ret)]
        pseudo = [(s, d) for s, d, p in cfg.edges if p]
        assert sorted(pseudo) == sorted((b, cfg.entry) for b in rets)


def test_normalize_entry_is_label_free():
    for _name, _f, cfg in _norm_all():
        for i in cfg.blocks[cfg.entry].instrs:
            assert not (isinstance(i, ir.Action) and i.labels)


def test_normalize_preserves_actions_and_decls():
    for _name, f, cfg in _norm_all():
        assert set(cfg.actions) == set(f.actions())
        assert cfg.func.decls == f.decls


def test_normalize_stable_when_already_normal():
    (f,) = ir.parse("func f { block e: %v = read @x br %v ? a : b block a: ret block b: ret }")
    cfg = ir.normalize(f)
    assert set(cfg.blocks) == set(f.blocks)


def test_two_labeled_writes_chain():
    (f,) = ir.parse(
        "func f { block e: write @a 1 label x write @b 2 label y ret }"
    )
    cfg = ir.normalize(f)
    # entry stays label-free, each write gets its own block
    assert len([b for b in cfg.blocks if not b.startswith("crit.")]) == 3


def test_dominators_diamond():
    succ = {"e": ["a", "b"], "a": ["j"], "b": ["j"], "j": []}
    dominates = ir.dominance("e", succ.__getitem__)
    assert [a for a in succ if dominates(a, "j")] == ["e", "j"]
    assert [a for a in succ if dominates(a, "a")] == ["e", "a"]
    assert [b for b in succ if dominates("e", b)] == ["e", "a", "b", "j"]


def test_dominators_irreducible_loop():
    # e -> a, e -> b, a <-> b: a two-entry loop, neither side dominates the other
    succ = {"e": ["a", "b"], "a": ["b", "x"], "b": ["a"], "x": []}
    dominates = ir.dominance("e", succ.__getitem__)
    dom = {b: {a for a in succ if dominates(a, b)} for b in succ}
    assert dom == naive_dominators(list(succ), "e", succ.__getitem__)
    assert dom["a"] == {"e", "a"} and dom["x"] == {"e", "a", "x"}


if HAVE_HYPOTHESIS:

    @st.composite
    def reachable_graphs(draw):
        """(block ids, entry, successor lists): every block is reachable from
        the entry through a random tree; extra edges add loops (reducible or
        not), self-loops, edges into the entry and duplicates. Block ids are
        shuffled so that id order says nothing about depth-first order."""
        n = draw(st.integers(1, 12))
        ids = draw(st.permutations(range(n)))
        succ = {i: [] for i in ids}
        for i in range(1, n):
            succ[ids[draw(st.integers(0, i - 1))]].append(ids[i])
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        extra = draw(st.lists(ends, max_size=2 * n))
        for u, v in extra:
            succ[ids[u]].append(ids[v])
        rnd = draw(st.randoms(use_true_random=False))
        for i in ids:
            rnd.shuffle(succ[i])
        block_ids = draw(st.permutations(ids))
        return block_ids, ids[0], succ

    @given(reachable_graphs())
    @settings(max_examples=500, deadline=None)
    def test_dominators_equal_naive_fixpoint(graph):
        block_ids, entry, succ = graph
        dominates = ir.dominance(entry, succ.__getitem__)
        ref = naive_dominators(block_ids, entry, succ.__getitem__)
        for a in block_ids:
            for b in block_ids:
                assert dominates(a, b) == (a in ref[b]), (a, b)


def test_normalize_adjacency_lists_every_edge_in_order():
    (dup,) = parse_valid("func f { block e: %c = op c() br %c ? a : a block a: ret }")
    cfgs = [cfg for _name, _f, cfg in _norm_all()] + [ir.normalize(dup)]
    for cfg in cfgs:
        for real, got in ((False, (cfg.succ, cfg.pred)), (True, (cfg.real_succ, cfg.real_pred))):
            succ = {b: [] for b in cfg.blocks}
            pred = {b: [] for b in cfg.blocks}
            for s, d, pseudo in cfg.edges:
                if not (real and pseudo):
                    succ[s].append(d)
                    pred[d].append(s)
            assert got == (succ, pred)
    # both arms of the branch survive critical-edge splitting
    assert cfgs[-1].succ["e"] == ["crit.e.a", "crit.e.a"]


# The tokenizer before comments were blanked ahead of it: one regex that
# skipped whitespace and comments itself.
REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*|;;[^\n]*)*
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


def _parse_outcome(text):
    try:
        return "ok", ir.parse(text)
    except ir.ParseError as exc:
        return "error", exc.diagnostics


def _reference_parse_outcome(text):
    with mock.patch.multiple(ir, _TOKEN_RE=REFERENCE_TOKEN_RE, _blank_comments=lambda t: t):
        return _parse_outcome(text)


def _assert_tokenizes_as_reference(text):
    toks = ir._TOKEN_RE.findall(ir._blank_comments(text))
    assert toks == REFERENCE_TOKEN_RE.findall(text)
    assert _parse_outcome(text) == _reference_parse_outcome(text)


def test_tokenizer_equals_reference_on_the_corpus():
    for name in CORPUS_NAMES:
        _assert_tokenizes_as_reference(load_corpus(name))


if HAVE_HYPOTHESIS:
    # Comment starts, arrow and value pieces, digits, letters, ASCII and
    # Unicode spaces and line breaks, and words of the grammar.
    _FRAGMENTS = ["#", "#", ";", ";", ";;", "-", ">", "->", "%", "%v", "0", "7", "-1", "a",
                  "x_2", "\n", "\n", "\r", "\t", " ", " ", "\u00a0", "\u2028", "{", "}", ":",
                  "=", "func", "block", "edge", "ret", "jmp"]

    @st.composite
    def commented_texts(draw):
        """Fragments alone, or inserted into a corpus program at random
        places, so that comments also fall inside text that parses."""
        pieces = st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join)
        if draw(st.booleans()):
            return draw(pieces)
        text = load_corpus(draw(st.sampled_from(CORPUS_NAMES)))
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(pieces) + text[at:]
        return text

    @given(commented_texts())
    @settings(max_examples=300, deadline=None)
    def test_tokenizer_equals_reference(text):
        _assert_tokenizes_as_reference(text)
