"""Golden parse results over mutated programs.

`mutants()` derives about a thousand small edits of the corpus programs
and of a few generated chains and diamonds: a token dropped, duplicated
or swapped with its neighbour; a bad character, `\\r\\n`, a tab or a
Unicode decimal digit inserted; an integer written in Unicode digits; a
comment at the end of the file; the text cut short. Each mutant's result
under `ir.parse`, its diagnostic or the `print_function` text of every
function it returns, is recorded in `parse_golden.json`. The generator is
seeded by the source's name, so the mutants are the same on every run;
each record also keeps a digest of its mutant's text, so a change to the
generator shows as a mismatch instead of comparing other inputs.

Rewrite the file only when a change to the parser's results is meant:

    PYTHONPATH=src python tests/test_parse_golden.py --write
"""

import hashlib
import json
import pathlib
import random
import re
import sys

import pytest

from rmcfence import ir

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "parse_golden.json"
CORPUS = HERE.parent / "corpus"

# What the mutator calls a token: a value, a number or a word, an arrow,
# or any other non-space character. It is independent of the parser's.
_PIECE = re.compile(r"%?\w+|->|\S")
_BAD = "$!~`^&|\\\"'<>-%é¿\x00\u00a0\u2028"
_UNI_DIGITS = "٣۴५৬๗０９\U0001d7d8"
_EOF_COMMENTS = ("# end", ";; end", "#", "\n# end", " ;;")


def _chain(n):
    lines = ["func chain {"]
    lines += [f"  edge vo w{i} -> w{i + 2};" for i in range(n - 2)]
    lines.append("  block b0:")
    lines += [f"    write @g{i} {i} label w{i}" for i in range(n)]
    return "\n".join(lines + ["    ret", "}"]) + "\n"


def _diamonds(n):
    lines = ["func diamonds {"]
    lines += [f"  edge vo w{i} -> w{i + 2};" for i in range(n - 2)]
    lines += ["  block b0:", "    write @g0 0 label w0"]
    for i in range(n - 1):
        t, e, j = f"b{3 * i + 1}", f"b{3 * i + 2}", f"b{3 * i + 3}"
        lines += [f"    %c{i} = op cond{i}()", f"    br %c{i} ? {t} : {e}",
                  f"  block {t}:", f"    jmp {j}", f"  block {e}:", f"    jmp {j}",
                  f"  block {j}:", f"    write @g{i + 1} {i + 1} label w{i + 1}"]
    return "\n".join(lines + ["    ret", "}"]) + "\n"


def sources():
    """(name, text) of every program the mutants are made from."""
    out = [(p.stem, p.read_text()) for p in sorted(CORPUS.glob("*.rmcir"))]
    out += [("chain3", _chain(3)), ("chain6", _chain(6)),
            ("chain12", _chain(12)), ("diamonds3", _diamonds(3)),
            ("diamonds5", _diamonds(5)), ("diamonds8", _diamonds(8))]
    return out


def _mutate(rng, text):
    """(kind, mutant) pairs for one source, about 60 of them."""
    spans = [m.span() for m in _PIECE.finditer(text)]
    ints = [(a, b) for a, b in spans if re.fullmatch(r"-?\d+", text[a:b])]
    pick = lambda: spans[rng.randrange(len(spans))]
    offset = lambda: rng.randrange(len(text) + 1)
    at = lambda pos, s: text[:pos] + s + text[pos:]
    out = []
    for _ in range(8):
        a, b = pick()
        out.append(("drop", text[:a] + text[b:]))
    for _ in range(6):
        a, b = pick()
        out.append(("dup", text[:b] + " " + text[a:b] + text[b:]))
    for _ in range(6):
        k = rng.randrange(len(spans) - 1)
        (a, b), (c, d) = spans[k], spans[k + 1]
        out.append(("swap", text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]))
    for _ in range(8):
        out.append(("bad", at(offset(), rng.choice(_BAD))))
    for _ in range(3):
        out.append(("crlf", at(pick()[0], "\r\n")))
    out.append(("crlf", text.replace("\n", "\r\n")))
    for _ in range(4):
        out.append(("tab", at(offset(), "\t")))
    for _ in range(4):
        out.append(("digit", at(offset(), rng.choice(_UNI_DIGITS))))
    for _ in range(3):
        if ints:
            a, b = ints[rng.randrange(len(ints))]
            ch = rng.choice(_UNI_DIGITS)
            zero = ord(ch) - int(ch)
            digits = "".join(chr(zero + int(c)) if c.isdigit() else c for c in text[a:b])
            out.append(("digit", text[:a] + digits + text[b:]))
    for c in _EOF_COMMENTS:
        out.append(("comment", text.rstrip("\n") + c))
        out.append(("comment", text + c))
    for _ in range(9):
        out.append(("cut", text[: offset()]))
    return out


def mutants():
    """(id, mutant text) for every mutant, in a fixed order."""
    out = []
    for name, text in sources():
        rng = random.Random(name)
        seen = {}
        for kind, mutant in _mutate(rng, text):
            n = seen[kind] = seen.get(kind, -1) + 1
            out.append((f"{name}/{kind}/{n}", mutant))
    return out


def digest(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


def parse_result(text):
    try:
        funcs = ir.parse(text)
    except ir.ParseError as exc:
        return "error: " + str(exc)
    return "".join(ir.print_function(f) for f in funcs)


def _golden():
    return {r["id"]: r for r in json.loads(GOLDEN.read_text())}


def _by_source():
    groups = {}
    for mid, text in mutants():
        groups.setdefault(mid.split("/")[0], []).append((mid, text))
    return groups


def test_golden_covers_every_mutant():
    ids = [mid for mid, _ in mutants()]
    assert len(ids) == len(set(ids)) >= 1000
    assert sorted(_golden()) == sorted(ids)


@pytest.mark.parametrize("source", sorted(_by_source()))
def test_parse_results_equal_golden(source):
    golden = _golden()
    wrong = []
    for mid, text in _by_source()[source]:
        rec = golden[mid]
        assert rec["text_sha1"] == digest(text), f"{mid}: the mutant generator changed"
        got = parse_result(text)
        if got != rec["result"]:
            wrong.append((mid, rec["result"], got))
    assert not wrong, wrong[:3]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_parse_golden.py --write")
    recs = [{"id": mid, "text_sha1": digest(t), "result": parse_result(t)} for mid, t in mutants()]
    GOLDEN.write_text(json.dumps(recs, indent=1, ensure_ascii=True) + "\n")
    print(f"wrote {len(recs)} results to {GOLDEN}")
