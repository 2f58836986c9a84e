import pathlib
import random
from types import SimpleNamespace

import pytest

try:
    from hypothesis import strategies as st
except ImportError:
    st = None

from rmcfence import arch, constraints, encode, ir
from rmcfence.deps import DepAnalysis

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
ARCHES = ("x86", "armv7", "armv8", "power")
CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.rmcir"))


def corpus_path(name):
    return CORPUS / f"{name}.rmcir"


def load_corpus(name):
    return corpus_path(name).read_text()


def parse_valid(text):
    funcs = ir.parse(text)
    for f in funcs:
        diags = ir.validate(f)
        assert not diags, diags
    return funcs


def naive_dominators(block_ids, entry, succ):
    """Reference: the set-intersection fixpoint over every block."""
    preds = {b: [] for b in block_ids}
    for b in block_ids:
        for s in succ(b):
            preds[s].append(b)
    dom = {b: set(block_ids) for b in block_ids}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for b in block_ids:
            if b == entry:
                continue
            ps = [dom[p] for p in preds[b]]
            new = {b} | (set.intersection(*ps) if ps else set())
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


def naive_eval(expr, env, true_vars):
    """Reference: the truth of one formula expression, reading each
    definition from `env`."""
    tag, arg = expr
    if tag == "const":
        return arg
    if tag == "out":
        return arg in true_vars
    if tag == "def":
        return env[arg]
    parts = [naive_eval(p, env, true_vars) for p in arg]
    return any(parts) if tag == "or" else all(parts)


def naive_gfp(defs, true_vars):
    """Reference: start every def at True and re-evaluate the whole system
    until nothing changes."""
    env = {name: True for name in defs}
    while True:
        nxt = {name: naive_eval(expr, env, true_vars) for name, expr in defs.items()}
        if nxt == env:
            return env
        env = nxt


def naive_satisfies(problem, true_vars):
    """Reference for `encode.satisfies`, sharing no code with `encode`'s
    compiled evaluator: every assertion holds at the greatest fixpoint."""
    env = naive_gfp(problem.defs, true_vars)
    return all(naive_eval(e, env, true_vars) for _label, e in problem.asserts)


def naive_optima(problem):
    """Reference for the exhaustive optimum: (least cost, every subset of
    the outputs at that cost that `naive_satisfies` accepts), found by
    trying every subset in mask order."""
    best, optima = None, []
    for mask in range(1 << len(problem.outputs)):
        trues = frozenset(v for i, v in enumerate(problem.outputs) if mask >> i & 1)
        cost = problem.objective(trues)
        if best is not None and cost > best or not naive_satisfies(problem, trues):
            continue
        if cost != best:
            best, optima = cost, []
        optima.append(trues)
    return best, optima


def per_path_data(cfg, bind, src, dst, path, depends):
    """Reference: the data-dependency rule as it was first decided, one
    path at a time. A path's region is the blocks reachable from its
    start and reaching its end over real edges without entering `bind`,
    plus the path itself; `depends(src, operand, region)` is the
    dependence walk under test."""

    def grow(start, nbr):
        seen, todo = set(), [start]
        while todo:
            b = todo.pop()
            if b not in seen and b != bind:
                seen.add(b)
                todo.extend(nbr[b])
        return seen

    if not src.reads_value:
        return False
    region = frozenset(grow(path[0], cfg.real_succ) & grow(path[-1], cfg.real_pred) | set(path))
    operands = [dst.address_operand]
    if dst.kind in ("write", "rmw"):
        operands.append(dst.data)
    return any(depends(src, o, region) for o in operands if o is not None)


def analyze(func, arch_name="armv7", costs_text=None, **opt_kw):
    """Full front-half pipeline for one function."""
    cfg = ir.normalize(func)
    edges, boundaries = constraints.resolve(func, cfg)
    closed = constraints.close(edges, cfg.actions)
    profile = arch.builtin_profile(arch_name)
    costs, _ = arch.load_costs(profile, text=costs_text)
    options = encode.EncodeOptions(**opt_kw)
    problem = encode.build(cfg, closed, boundaries, DepAnalysis(cfg), profile, costs, options)
    return SimpleNamespace(
        func=func,
        cfg=cfg,
        closed=closed,
        boundaries=boundaries,
        profile=profile,
        costs=costs,
        options=options,
        problem=problem,
    )


def analyze_corpus(name, arch_name="armv7", **opt_kw):
    return [analyze(f, arch_name, **opt_kw) for f in parse_valid(load_corpus(name))]


def span_source(k, kind="vo"):
    """One `kind first -> last` edge across k if/else diamonds: 2^k simple
    paths, no dependencies."""
    lines = [f"func span{k} {{", f"  edge {kind} first -> last;", "  block entry:",
             "    write @x 1 label first"]
    for i in range(k):
        lines += [f"    %c{i} = op cond{i}()", f"    br %c{i} ? t{i} : e{i}",
                  f"  block t{i}:", f"    jmp j{i}", f"  block e{i}:", f"    jmp j{i}",
                  f"  block j{i}:"]
    lines += ["    write @y 1 label last", "    ret", "}"]
    return "\n".join(lines) + "\n"


def walk_source(n):
    """A linked-list walk: the next-pointer read feeds its own address
    through a loop phi, n field reads depend on it by address, and each
    field read guards a write. Self-ordering of the dependency sources
    makes the definitions cyclic."""
    lines = [f"func walk{n} {{"]
    lines += [f"  edge xo next -> f{i};" for i in range(n)]
    lines += [f"  edge xo f{i} -> w{i};" for i in range(n)]
    lines += ["  block b00:", "    %h = read @head", "    jmp b01", "  block b01:",
              f"    %p = phi [b00: %h], [b{2 * n + 1:02}: %q]", "    %q = read *%p label next"]
    for i in range(n):
        hit, join = f"b{2 * i + 2:02}", f"b{2 * i + 3:02}"
        lines += [f"    %a{i} = op field{i}(%q)", f"    %f{i} = read *%a{i} label f{i}",
                  f"    br %f{i} ? {hit} : {join}", f"  block {hit}:",
                  f"    write @out{i} 1 label w{i}", f"    jmp {join}", f"  block {join}:"]
    lines += ["    %more = op more(%q)", f"    br %more ? b01 : b{2 * n + 2:02}",
              f"  block b{2 * n + 2:02}:", "    ret", "}"]
    return "\n".join(lines) + "\n"


def random_cut_source(rng, kinds=("pu", "vo")):
    """Blocks b1..bn each hold one labelled write. Each bi (i < n) jumps
    or branches to b(i+1), any other target is random, and bn may also
    return, so loops, self-loops and irreducible regions all occur. An
    optional `bind top` sits in a random block; the edges, of a kind
    drawn from `kinds`, pick random labels, the same one at both ends
    included."""
    n = rng.randint(1, 6)
    instrs = {0: []}
    terms = {0: "jmp b1"}
    for i in range(1, n + 1):
        instrs[i] = [f"write @g{i} 1 label l{i}"]
        targets = [f"b{i + 1}" if i < n else rng.choice(["ret", f"b{rng.randint(1, n)}"])]
        other = f"b{rng.randint(1, n)}"
        if targets[0] != "ret" and other != targets[0] and rng.random() < 0.6:
            targets.insert(rng.randint(0, 1), other)
        if len(targets) == 2:
            instrs[i].append(f"%c{i} = op cond{i}()")
            terms[i] = f"br %c{i} ? {targets[0]} : {targets[1]}"
        else:
            terms[i] = targets[0] if targets[0] == "ret" else f"jmp {targets[0]}"
    bind_at = rng.choice([None, *instrs])
    if bind_at is not None:
        instrs[bind_at].append("bind top")
    lines = ["func f {"]
    for _ in range(rng.randint(1, 3)):
        scope = "here(top) " if bind_at is not None and rng.random() < 0.7 else ""
        kind = rng.choice(kinds)
        lines.append(f"edge {kind} {scope}l{rng.randint(1, n)} -> l{rng.randint(1, n)};")
    for i in instrs:
        lines += [f"block b{i}:", *instrs[i], terms[i]]
    return "\n".join(lines + ["}"]) + "\n"


def nested_diamonds_source(rng, regions=(1, 2, 2), kinds=("pu", "vo", "xo")):
    """If/else diamonds nested up to two deep between a first labelled
    read and a last labelled write, with more labelled reads and writes
    on some arms and joins. An arm weighs half the edge into its
    diamond, so cutting both arms of a diamond costs what one barrier
    before it costs: the tied cuts of the solver's cut bound. A branch
    may test, and an access may go through or store, a value read
    earlier on every way to it, so xo paths can ride control and data
    dependencies. Edges of kinds drawn from `kinds` run from the first
    action to the last (and maybe between two others), or one over each
    of two top-level regions in a row; the number of those regions is
    drawn from `regions`. The function may end in a loop instead of
    returning."""
    lines, labels, count = ["block entry:"], [], iter(range(1 << 30))

    def pick(values):  # the first read half the time: dependency chains from it
        return values[0] if rng.random() < 0.5 else rng.choice(values)

    def action(values, write=None):
        k = next(count)
        labels.append(f"l{k}")
        at = f"*{pick(values)}" if values and rng.random() < 0.5 else f"@g{k}"
        if write is None:
            write = bool(values) and rng.random() < 0.5
        if write:
            data = pick(values) if rng.random() < 0.5 else 1
            lines.append(f"write {at} {data} label l{k}")
            return
        lines.append(f"%v{k} = read {at} label l{k}")
        values.append(f"%v{k}")

    def region(depth, values):
        if depth == 0 or rng.random() < 0.25:
            if rng.random() < 0.4:
                action(values)
            return
        k = next(count)
        if values and rng.random() < 0.5:
            cond = pick(values)
        else:
            cond = f"%c{k}"
            lines.append(f"%c{k} = op c{k}()")
        lines.extend([f"br {cond} ? t{k} : e{k}", f"block t{k}:"])
        region(depth - 1, list(values))
        lines.extend([f"jmp j{k}", f"block e{k}:"])
        region(depth - 1, list(values))
        lines.extend([f"jmp j{k}", f"block j{k}:"])
        if rng.random() < 0.3:
            action(values)

    values, ends = [], [0]
    action(values, write=False)
    for n in reversed(range(rng.choice(regions))):
        region(rng.choice((1, 1, 2)), values)
        action(values, write=True if n == 0 else None)
        ends.append(len(labels) - 1)
    if len(ends) > 2 and rng.random() < 0.6:
        spans = list(zip(ends, ends[1:]))  # one edge over each top-level region
    else:
        spans = [(0, ends[-1])]
        if rng.random() < 0.4:
            spans.append(tuple(sorted(rng.sample(range(len(labels)), 2))))
    decls = [f"edge {rng.choice(kinds)} {labels[a]} -> {labels[b]};"
             for a, b in spans]
    # Without a return no cycle passes the source, so it orders itself.
    end = ["ret"] if rng.random() < 0.5 else ["jmp end", "block end:", "jmp end"]
    return "\n".join(["func f {", *decls, *lines, *end, "}"]) + "\n"


def random_dep_source(rng):
    """A function whose values flow through loops. Block b0 reads a
    value and jumps to b1; each bi (0 < i <= n) jumps to b(i+1) or
    branches to it and another block, and b(n+1) returns, so back edges,
    self-loops and a pseudo edge occur. A block opens with up to two
    phis, one arm per in-edge, each a constant or a value whose
    definition dominates the arm's block, so arms on back edges carry
    values around loops. Its other instructions are labelled reads from
    a global or through a value (a dependent address), ops over values,
    labelled writes of a value or through one, and binds; an instruction
    uses only values whose definitions dominate it. A few `xo` edges,
    some scoped to a bind, name the labels."""
    n = rng.randint(1, 4)
    succ = {0: [1]}
    for i in range(1, n + 1):
        ts = [i + 1]
        other = rng.randint(1, n + 1)
        if other not in ts and rng.random() < 0.6:
            ts.insert(rng.randint(0, 1), other)
        succ[i] = ts
    succ[n + 1] = []
    dom = naive_dominators(list(succ), 0, succ.__getitem__)
    preds = {i: [f"b{p}" for p in succ for t in succ[p] if t == i] for i in succ}
    phis = {i: [f"%p{i}_{k}" for k in range(rng.randint(0, 2) if len(preds[i]) > 1 else 0)]
            for i in succ}
    values = {}  # block -> the values it defines, phis first
    body, labels, binds = {}, [], []
    count = iter(range(1 << 30))
    pick = lambda: rng.choice(seen[-3:])  # recent values make longer chains
    for i in succ:
        seen = [v for d in sorted(dom[i] - {i}) for v in values[d]] + phis[i]
        values[i], lines = list(phis[i]), []
        for j in range(rng.randint(1, 3)):
            k = next(count)
            kind = "rg" if i == j == 0 else rng.choice(
                ("rg", "rd", "rd", "op", "wv", "wd", "bind") if seen else ("rg", "bind"))
            if kind == "rg":
                lines.append(f"%v{k} = read @g{k} label l{k}")
            elif kind == "rd":
                lines.append(f"%v{k} = read *{pick()} label l{k}")
            elif kind == "op":
                args = ", ".join(pick() for _ in range(rng.randint(1, 2)))
                lines.append(f"%v{k} = op f{k}({args})")
            elif kind == "wv":
                lines.append(f"write @g{k} {pick()} label l{k}")
            elif kind == "wd":
                lines.append(f"write *{pick()} 1 label l{k}")
            else:
                binds.append(f"t{k}")
                lines.append(f"bind t{k}")
                continue
            if kind in ("rg", "rd", "op"):
                seen.append(f"%v{k}")
                values[i].append(f"%v{k}")
            if kind != "op":
                labels.append(f"l{k}")
        body[i] = lines
    lines = ["func f {"]
    for _ in range(rng.randint(1, 3)):
        scope = f"here({rng.choice(binds)}) " if binds and rng.random() < 0.5 else ""
        lines.append(f"edge xo {scope}{rng.choice(labels)} -> {rng.choice(labels)};")
    for i in succ:
        lines.append(f"block b{i}:")
        for name in phis[i]:
            arms = []
            for p in preds[i]:
                ok = [v for d in sorted(dom[int(p[1:])]) for v in values[d]]
                arms.append(f"[{p}: {rng.choice(ok[-2:]) if ok and rng.random() < 0.7 else 0}]")
            lines.append(f"{name} = phi {', '.join(arms)}")
        lines += body[i]
        ts = [f"b{t}" for t in succ[i]]
        if len(ts) == 2:
            k = next(count)
            lines += [f"%c{k} = op c{k}()", f"br %c{k} ? {ts[0]} : {ts[1]}"]
        else:
            lines.append(f"jmp {ts[0]}" if ts else "ret")
    return "\n".join(lines + ["}"]) + "\n"


def reentry_source(rng):
    """A loop whose read A feeds its own next address and an access B
    later in the loop, B's address or stored value. The entry may also
    reach the loop's middle through a block `y` that sets the loop value
    afresh, so that a later call reaches B without passing A: no data
    dependency orders one call's A before the next call's B. Drawn: that
    bypass, whether the loop can skip B (to its latch or to a second
    exit), B's kind, and an `xo A -> A` next to the `xo A -> B`."""
    bypass = rng.random() < 0.8
    skip = rng.choice([None, "x2", "out2"])
    access = rng.choice(["%r = read *%v", "write *%v 1", "write @o %v"])
    lines = ["func f {", "edge xo A -> B;"] + (["edge xo A -> A;"] if rng.random() < 0.3 else [])
    lines += ["block e:", "%h = read @g"]
    lines += ["%c = op pick()", "br %c ? head : y"] if bypass else ["jmp head"]
    lines += ["block head:", "%p = phi [e: %h], [x2: %v]", "%q = read *%p label A", "jmp x"]
    if bypass:
        lines += ["block y:", "%p0 = op other()", "jmp x", "block x:",
                  "%v = phi [head: %q], [y: %p0]"]
    else:
        lines += ["block x:", "%v = op same(%q)"]
    lines += ["%d = op more(%v)", f"br %d ? t : {skip}"] if skip else ["jmp t"]
    lines += ["block t:", f"{access} label B", "jmp x2", "block x2:", "%d2 = op again(%v)",
              "br %d2 ? head : out", "block out:", "ret"]
    lines += ["block out2:", "ret"] if skip == "out2" else []
    return "\n".join(lines + ["}"]) + "\n"


def random_problem(rng, max_vars=14, max_weight=50, and_rows=False, cyclic=False):
    """Synthetic monotone minimization problem (always satisfiable: the
    all-true assignment meets every clause). Each output's weight is
    drawn from 1..max_weight. With `and_rows`, a clause may instead be an
    and of its picks, an or whose last pick is joined by an and with
    one more output, or an or of two such ands, on its first and its
    last pick. With `cyclic`, one to three definitions name each other in a
    ring, each either an or of its picks and of (an output and the next
    definition), as `encode` cuts an xo path by a dependency, or an and of
    an or of its picks and the next definition; one or two assertions
    name ring members. The defaults add no draws, so a seed gives the
    same problem whether or not a caller names them."""
    n = rng.randint(3, max_vars)
    outputs = sorted(
        encode.OutputVar("barrier", (f"k{i:02}", f"b{i:02}", f"c{i:02}")) for i in range(n)
    )
    defs = {}
    asserts = []
    for j in range(rng.randint(1, 8)):
        picks = rng.sample(outputs, rng.randint(1, min(4, n)))
        clause = ("or", tuple(("out", v) for v in picks))
        if and_rows:
            shape = rng.choice(("or", "and", "nested", "fork"))
            if shape == "and":
                clause = ("and", clause[1])
            elif shape == "nested":
                joined = ("and", (clause[1][-1], ("out", rng.choice(outputs))))
                clause = ("or", clause[1][:-1] + (joined,))
            elif shape == "fork":
                clause = ("or", tuple(("and", (pick, ("out", rng.choice(outputs))))
                                      for pick in (clause[1][0], clause[1][-1])))
        if rng.random() < 0.3:
            name = f"d{j}"
            defs[name] = clause
            clause = ("def", name)
        asserts.append((f"c{j}", clause))
    if cyclic:
        ring = [f"r{j}" for j in range(rng.randint(1, 3))]
        for j, name in enumerate(ring):
            picks = tuple(("out", v) for v in rng.sample(outputs, rng.randint(1, min(3, n))))
            after = ("def", ring[(j + 1) % len(ring)])
            if rng.random() < 0.5:
                defs[name] = ("or", picks + (("and", (("out", rng.choice(outputs)), after)),))
            else:
                defs[name] = ("and", (("or", picks), after))
        for k in range(rng.randint(1, 2)):
            asserts.append((f"ring{k}", ("def", rng.choice(ring))))
    return encode.Problem(
        function="synthetic",
        arch="none",
        outputs=outputs,
        defs=defs,
        asserts=asserts,
        weights=[rng.randint(1, max_weight) for _ in outputs],
    )


def reference_dominated(formula, weights):
    """Reference for `solver.dominated`: the same rule read off the rows
    themselves. Output x is dominated when no and row names it, and every
    or row naming x also names a strictly cheaper output."""
    n = len(weights)
    bits = lambda mask: [i for i in range(n) if mask >> i & 1]
    together = [(1 << n) - 1] * n  # outputs named by every row naming x
    in_and = 0
    for rows, _cycle in formula.steps:
        for _slot, is_and, mask, _kids in rows:
            if is_and:
                in_and |= mask
            else:
                for x in bits(mask):
                    together[x] &= mask
    never = 0
    for x, w in enumerate(weights):
        if not in_and >> x & 1 and any(weights[y] < w for y in bits(together[x])):
            never |= 1 << x
    return never


if st is not None:

    @st.composite
    def cfg_sources(draw, max_blocks=8):
        """Source text of one valid function over a random CFG.

        Each block returns, jumps or branches to blocks other than the
        entry, chosen at random, so self-loops, `br %c ? a : a`, loops and
        critical edges all occur; blocks the entry cannot reach are
        dropped. A block with predecessors may open with phis, one arm per
        incoming edge, reading a constant or `%e` from the entry. The
        other instructions are labelled and plain writes, labelled reads,
        labelled no-ops, binds and ops in random order, so a labelled
        action may open the entry or any other block. A few `vo` edges,
        some scoped to a bind, name the labels."""
        n = draw(st.integers(1, max_blocks))
        targets = []
        for i in range(n):
            shape = draw(st.sampled_from(("ret", "jmp", "br") if n > 1 else ("ret",)))
            pick = st.integers(1, n - 1)
            if shape == "jmp":
                targets.append([draw(pick)])
            elif shape == "br":
                then = draw(pick)
                targets.append([then, then if draw(st.booleans()) else draw(pick)])
            else:
                targets.append([])
        reached, stack = {0}, [0]
        while stack:
            for t in targets[stack.pop()]:
                if t not in reached:
                    reached.add(t)
                    stack.append(t)
        preds = {i: [] for i in reached}
        for i in sorted(reached):
            for t in targets[i]:
                preds[t].append(f"b{i}")

        labels, binds, lines = [], [], []
        count = iter(range(1 << 30))
        for i in sorted(reached):
            lines.append(f"block b{i}:")
            for _ in range(draw(st.integers(0, 2)) if preds[i] else 0):
                arms = draw(st.permutations(preds[i]))
                opnds = [draw(st.sampled_from(("1", "%e"))) for _ in arms]
                body = ", ".join(f"[{p}: {o}]" for p, o in zip(arms, opnds))
                lines.append(f"%v{next(count)} = phi {body}")
            kinds = ("lwrite", "write", "lread", "lnoop", "bind", "op")
            body = draw(st.lists(st.sampled_from(kinds), max_size=4))
            if i == 0:
                body.insert(draw(st.integers(0, len(body))), "entry")
            for kind in body:
                k = next(count)
                if kind in ("lwrite", "lread", "lnoop"):
                    labels.append(f"l{k}")
                if kind == "lwrite":
                    lines.append(f"write @g{k} 1 label l{k}")
                elif kind == "write":
                    lines.append(f"write @g{k} 2")
                elif kind == "lread":
                    lines.append(f"%v{k} = read @g{k} label l{k}")
                elif kind == "lnoop":
                    lines.append(f"noop label l{k}")
                elif kind == "bind":
                    binds.append(f"t{k}")
                    lines.append(f"bind t{k}")
                elif kind == "op":
                    lines.append(f"%v{k} = op f{k}()")
                else:
                    lines.append("%e = op e()")
            ts = [f"b{t}" for t in targets[i]]
            if len(ts) == 2:
                k = next(count)
                lines += [f"%c{k} = op c{k}()", f"br %c{k} ? {ts[0]} : {ts[1]}"]
            else:
                lines.append(f"jmp {ts[0]}" if ts else "ret")
        decls = []
        for _ in range(draw(st.integers(0, 2)) if labels else 0):
            src, dst = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
            scope = f"here({draw(st.sampled_from(binds))}) " if binds and draw(st.booleans()) else ""
            decls.append(f"edge vo {scope}{src} -> {dst};")
        return "\n".join(["func f {", *decls, *lines, "}"]) + "\n"
