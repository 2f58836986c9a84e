"""Seeded generators for the synthetic program families.

Each family builds one IR function as source text:

- chain(n): n writes in a straight line, with `vo w_i -> w_{i+2}`.
- diamonds(n): the same chain with an if/else diamond between each pair
  of writes.
- span(k): one `vo` from a first write to a last write across k diamonds,
  so the constraint has 2^k simple paths.
- walk(n): a linked-list walk. The next-pointer read feeds its own next
  address through a loop phi, n field reads depend on it by address, and
  each field read guards a write by a control dependency. Every `xo` can
  be served by a dependency, and self-ordering of the dependency sources
  makes the definition graph cyclic.

The seed renames labels, blocks, globals, ops and the function. Renaming
keeps the relative order of names: every block of a function gets the
same seed-chosen stem followed by a zero-padded index, and stems start
with "b", which sorts before the "crit." blocks that normalisation adds.
Output variables are sorted by block name and the search visits them in
that order, so an order-preserving rename keeps plan cost, search node
count and every other size the same across seeds; only the text
changes.
"""

from __future__ import annotations

import random
import string


class Namer:
    """Seed-chosen name stems, one per namespace."""

    def __init__(self, seed, family, size):
        rng = random.Random(f"{seed}/{family}/{size}")
        stem = lambda first: first + "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        self.func = f"{stem('f')}_{family}{size}"
        self._block = stem("b")
        self._label = stem("l")
        self._glob = stem("g")
        self._op = stem("o")

    def block(self, i):
        return f"{self._block}{i:04d}"

    def label(self, i):
        return f"{self._label}{i:04d}"

    def glob(self, i):
        return f"{self._glob}{i:04d}"

    def op(self, i):
        return f"{self._op}{i:04d}"


def _function(nm, decls, blocks):
    lines = [f"func {nm.func} {{"]
    lines += [f"  edge {d};" for d in decls]
    for bid, body in blocks:
        lines.append(f"  block {bid}:")
        lines += [f"    {ins}" for ins in body]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write(nm, i):
    return f"write @{nm.glob(i)} {i} label {nm.label(i)}"


def chain(n, seed):
    nm = Namer(seed, "chain", n)
    decls = [f"vo {nm.label(i)} -> {nm.label(i + 2)}" for i in range(n - 2)]
    body = [_write(nm, i) for i in range(n)] + ["ret"]
    return _function(nm, decls, [(nm.block(0), body)])


def _diamond_blocks(nm, k, first, last):
    """`first` writes, then k diamonds, the i-th followed by writes[i]."""
    blocks = []
    body = list(first(0))
    b = 0
    for i in range(k):
        then, els, join = nm.block(b + 1), nm.block(b + 2), nm.block(b + 3)
        body += [f"%c{i} = op {nm.op(i)}()", f"br %c{i} ? {then} : {els}"]
        blocks.append((nm.block(b), body))
        blocks.append((then, [f"jmp {join}"]))
        blocks.append((els, [f"jmp {join}"]))
        body = list(last(i))
        b += 3
    blocks.append((nm.block(b), body + ["ret"]))
    return blocks


def diamonds(n, seed):
    nm = Namer(seed, "diamonds", n)
    decls = [f"vo {nm.label(i)} -> {nm.label(i + 2)}" for i in range(n - 2)]
    blocks = _diamond_blocks(nm, n - 1, lambda _: [_write(nm, 0)], lambda i: [_write(nm, i + 1)])
    return _function(nm, decls, blocks)


def span(k, seed):
    nm = Namer(seed, "span", k)
    decls = [f"vo {nm.label(0)} -> {nm.label(1)}"]
    blocks = _diamond_blocks(
        nm, k, lambda _: [_write(nm, 0)], lambda i: [_write(nm, 1)] if i == k - 1 else []
    )
    return _function(nm, decls, blocks)


def walk(n, seed):
    nm = Namer(seed, "walk", n)
    nxt = nm.label(0)
    field = lambda i: nm.label(1 + 2 * i)
    out = lambda i: nm.label(2 + 2 * i)
    decls = [f"xo {nxt} -> {field(i)}" for i in range(n)]
    decls += [f"xo {field(i)} -> {out(i)}" for i in range(n)]
    entry, loop, done = nm.block(0), nm.block(1), nm.block(2 + 2 * n)
    latch = nm.block(1 + 2 * n)
    blocks = [(entry, [f"%h = read @{nm.glob(0)}", f"jmp {loop}"])]
    body = [
        f"%p = phi [{entry}: %h], [{latch}: %q]",
        f"%q = read *%p label {nxt}",
    ]
    cur = loop
    for i in range(n):
        hit, join = nm.block(2 + 2 * i), nm.block(3 + 2 * i)
        body += [
            f"%a{i} = op {nm.op(i)}(%q)",
            f"%f{i} = read *%a{i} label {field(i)}",
            f"br %f{i} ? {hit} : {join}",
        ]
        blocks.append((cur, body))
        blocks.append((hit, [f"write @{nm.glob(1 + i)} 1 label {out(i)}", f"jmp {join}"]))
        cur, body = join, []
    body += [f"%more = op {nm.op(n)}(%q)", f"br %more ? {loop} : {done}"]
    blocks.append((cur, body))
    blocks.append((done, ["ret"]))
    return _function(nm, decls, blocks)


FAMILIES = {"chain": chain, "diamonds": diamonds, "span": span, "walk": walk}


def generate(family, size, seed):
    return FAMILIES[family](size, seed)
