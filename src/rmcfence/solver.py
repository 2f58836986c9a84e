"""Exact minimization over the placement formula.

Branch-and-bound DFS over output variables in canonical order, trying
False before True. The formula is monotone in the outputs, which gives
two strong moves: if the current partial assignment already satisfies
everything with the rest False, that completion is the subtree's best;
if even setting the rest True fails, the subtree is dead.

Once an incumbent exists, a node is also pruned by a lower bound on the
cost its completions must still pay. Each failing assertion needs some
output of its support (the outputs it reaches through the definitions)
that is not yet decided. Failing assertions whose undecided outputs are
pairwise disjoint each pay separately, so the sum of their cheapest
weights is a bound. This is the independent-clause bound of weighted
MaxSAT and set-cover branch-and-bound. The undecided outputs of a node
are a suffix of each assertion's sorted support, so `bound_data`
tabulates, per assertion and suffix, the cheapest weight and the output
mask; a node looks its entry up by bisection.

One device is too little where an assertion's rows join. A `pu` or `vo`
assertion needs a whole cut of the walks from its source to its target,
and past a diamond that is one device per arm. So a failing assertion
none of whose outputs is decided yet pays at least its min cut (Ford &
Fulkerson, *Maximal flow through a network*, 1956). That is a max-flow
over its own rows read as a network. A row is a node, slot 0 (the
constant False) is the source and the assertion's slot is the sink. An
or row with at most one child slot is one edge, from that child or from
the source, which its cheapest output cuts. An and row takes an
uncuttable edge from each child slot and one edge from the source per
output it names. A row is then true exactly when every path to it from
the source crosses a placed output; on cyclic rows that is the greatest
fixpoint too. An or row of two or more child slots has no such reading,
so an assertion whose rows include one gets no cut. An output on several
edges cuts them all for one price, so each edge charges only its
output's weight divided by the number of edges naming it, rounded down.

The cut is memoised per solve and computed only on first need: for
assertions whose rows reach a join (an and row of two or more parts),
at nodes the one-device bound did not already prune. A problem without
a join pays one int comparison per node.

Two exact moves keep the search where an optimum can be. First, an
output that no optimum sets True is never decided at all (`dominated`):
every row of the formula that names it is an or row, and all of those
rows also name another output that is strictly cheaper. Swapping the
two keeps every row true and lowers the cost, so such an output stays
False, and the "rest True" check leaves it out. `encode.Compiled`
gathers the facts this needs while it builds the rows, so finding the
dominated outputs takes one AND per output and walks no row. Second, a
False child has its parent's mask, so it takes its parent's slot values
(one int) instead of evaluating the formula again. Only the root and
True children evaluate their mask, and only False children run the
"rest True" check (a True child's is its parent's; the root's holds
because all devices satisfy and every row naming a dominated output
names an undominated one), so each node evaluates the formula at most
once.

The search is a loop over an explicit stack of (next output, mask of the
true outputs, their cost, the parent's slot values for a False child),
so its depth is not limited by Python's recursion. Output i is the bit
`1 << i`, `encode.Compiled.values` evaluates the formula on that mask
into an int with one bit per slot, and a node is satisfied when that
int covers the assertions' mask (`Compiled.holds`); the labels of the
failing assertions are built only for the lower bound. Setting output
i True adds its weight, `problem.weights[i]`. Only the result becomes a
frozenset `Assignment`. Dominance drops only assignments that are not
optimal and reuse drops none, so with strict >=-pruning the first
optimum found is still the lexicographically smallest one, and results
are deterministic.
"""

import math
import time
from bisect import bisect_left
from collections import namedtuple
from operator import itemgetter

from . import encode


class Unsatisfiable(Exception):
    """Even the all-devices assignment fails: the encoding is broken."""


class BudgetExceeded(Exception):
    def __init__(self, incumbent):
        self.incumbent = incumbent
        super().__init__("solve budget exhausted")


# `true_vars` is a frozenset of OutputVars.
Assignment = namedtuple("Assignment", "true_vars cost optimal decisions", defaults=(True, 0))

# What the lower bound needs of a problem, computed once per solve.
# `support` maps an assertion label to the sorted indices of the outputs
# it reaches; `suffix` maps it to, per position p in its support,
# (cheapest weight, output mask) of the outputs support[p:]. `joins` is
# the set of labels whose rows reach a join, `last_join` the greatest
# first support index among them (-1 if none), and `cut(label)` the
# label's min cut, memoised.
BoundData = namedtuple("BoundData", "support suffix joins last_join cut")

_CHEAPEST = itemgetter(0)


def _bits(mask):
    """The indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def bound_data(problem):
    """The `BoundData` of `problem`."""
    weights = problem.weights
    formula = encode.compiled(problem)
    support, joins = {}, set()
    for label, mask, join in formula.supports():
        # Assertions that share a label share the union of their supports:
        # a larger support only weakens the bound.
        support[label] = support.get(label, 0) | mask
        if join and mask:
            joins.add(label)
    support = {label: _bits(mask) for label, mask in support.items()}
    suffix = {}
    for label, outs in support.items():
        table, cheapest, mask = [None] * len(outs), math.inf, 0
        for p in range(len(outs) - 1, -1, -1):
            x = outs[p]
            if weights[x] < cheapest:
                cheapest = weights[x]
            mask |= 1 << x
            table[p] = (cheapest, mask)
        suffix[label] = table
    if not joins:
        return BoundData(support, suffix, joins, -1, None)
    rows, cuts = {}, {}  # slot -> row and label -> min cut, filled on first need

    def cut(label):
        got = cuts.get(label)
        if got is None:
            if not rows:
                rows.update((row[0].bit_length() - 1, row) for step, _ in formula.steps
                            for row in step)
            # A failing label may fail in any of its assertions, so it
            # pays the least of their cuts.
            got = cuts[label] = min(_min_cut(rows, weights, slot)
                                    for name, slot in formula.asserts if name == label)
        return got

    last_join = max(support[label][0] for label in joins)
    return BoundData(support, suffix, joins, last_join, cut)


def _min_cut(rows, weights, sink):
    """The min cut of the assertion at slot `sink` (see the module
    docstring), or 0 if its rows include an or row of two or more child
    slots. `rows` maps a slot to its `encode.Compiled` row."""
    if sink not in rows:  # a constant
        return 0
    # (tail, head, the outputs that cut it); no outputs: uncuttable
    edges = []
    seen, todo = {sink}, [sink]
    while todo:
        head = todo.pop()
        _bit, is_and, mask, kids = rows[head]
        tails = _bits(kids)
        if is_and:
            edges += [(k, head, ()) for k in tails]
            edges += [(0, head, (x,)) for x in _bits(mask)]
        elif len(tails) > 1:
            return 0
        else:
            edges.append((tails[0] if tails else 0, head, _bits(mask)))
        for k in tails:
            if k > 1 and k not in seen:  # slots 0 and 1 are the constants
                seen.add(k)
                todo.append(k)
    named = [0] * len(weights)
    for _tail, _head, outs in edges:
        for x in outs:
            named[x] += 1
    cap = {}  # tail -> head -> residual capacity
    for tail, head, outs in edges:
        c = math.inf
        for x in outs:
            share = weights[x] // named[x]
            if share < c:
                c = share
        out = cap.get(tail)
        if out is None:
            out = cap[tail] = {}
        out[head] = out.get(head, 0) + c
    # Edmonds-Karp: augment along shortest residual paths from slot 0.
    flow, no_edges = 0, {}
    while True:
        back, todo = {0: 0}, [0]
        for u in todo:
            for v, c in cap.get(u, no_edges).items():
                if c and v not in back:
                    back[v] = u
                    todo.append(v)
            if sink in back:
                break
        else:
            return flow
        path, v = [], sink
        while v:
            path.append((back[v], v))
            v = back[v]
        push = min(cap[u][v] for u, v in path)
        if push == math.inf:
            return push
        for u, v in path:
            cap[u][v] -= push
            rev = cap.setdefault(v, {})
            rev[u] = rev.get(u, 0) + push
        flow += push


def dominated(formula, weights):
    """The output mask of the outputs that no optimum sets True.

    Output x is dominated when every row that names x is an or row, and
    all those rows also name some strictly cheaper y. Setting y True and
    x False then keeps every row true that was, and costs strictly less.
    Dominance is transitive along strictly falling costs, so every row
    naming a dominated output also names an undominated one.

    The rows are not walked here: `formula.together[x]` is the mask of the
    outputs named by every or row naming x, and `formula.in_and` the mask
    of the outputs some and row names. Taken in order of weight, each
    output is tested with one AND against the mask of the strictly
    cheaper ones.
    """
    together, in_and = formula.together, formula.in_and
    never = seen = cheaper = 0
    last = None
    for w, x in sorted((w, x) for x, w in enumerate(weights)):
        if w != last:
            cheaper, last = seen, w
        if together[x] & cheaper and not in_and >> x & 1:
            never |= 1 << x
        seen |= 1 << x
    return never


def _pack(needs):
    """The sum of the (cheapest weight, output mask) entries taken
    greedily, dearest first, while their masks stay disjoint."""
    needs.sort(key=_CHEAPEST, reverse=True)
    lb, used = 0, 0
    for cheapest, outs in needs:
        if not used & outs:
            lb += cheapest
            used |= outs
    return lb


def lower_bound(data, i, failed, enough=math.inf):
    """A lower bound on the cost that any satisfying completion setting
    only outputs i.. True adds, given the labels of the assertions the
    current assignment fails; None if one of them can no longer be
    satisfied.

    Each failing assertion needs one of its undecided outputs, and those
    whose undecided outputs are disjoint pay separately. Once that bound
    is below `enough`, a failing label that reaches a join and has no
    decided output pays at least its min cut instead. It does so as a
    second entry with the same mask: the packing takes the dearer of the
    two and never both."""
    support, suffix = data.support, data.suffix
    needs = []
    for label in failed:
        outs = support[label]
        p = bisect_left(outs, i)
        if p == len(outs):
            return None
        needs.append(suffix[label][p])
    lb = _pack(needs)
    if i > data.last_join or lb >= enough:
        return lb
    for label in failed:
        if label in data.joins and support[label][0] >= i:
            needs.append((data.cut(label), suffix[label][0][1]))
    # Packing is greedy, so more weight can pack worse: keep the larger.
    return max(lb, _pack(needs))


def solve_min(problem, budget_ms=None):
    """Cheapest satisfying assignment of the output variables.

    Raises Unsatisfiable if no assignment works (a bug upstream) and
    BudgetExceeded when budget_ms runs out. Its incumbent is the best
    assignment found so far, or all devices placed if none was.
    """
    outputs = problem.outputs
    n = len(outputs)
    formula = encode.compiled(problem)
    holds = formula.holds
    everything = (1 << n) - 1
    if formula.values(everything) & holds != holds:
        raise Unsatisfiable(
            f"{problem.function}/{problem.arch}: constraints uncuttable with every device placed"
        )
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    weights = problem.weights
    live = everything & ~dominated(formula, weights)
    # The first undominated output at or after position i: the one its
    # node decides.
    nxt = [n] * (n + 1)
    for i in reversed(range(n)):
        nxt[i] = i if live >> i & 1 else nxt[i + 1]

    def assignment(m, cost):
        trues = frozenset(v for j, v in enumerate(outputs) if m >> j & 1)
        return Assignment(trues, cost, decisions=decisions)

    best = None  # (mask, cost)
    data = None  # BoundData, built when the first incumbent can prune
    decisions = 0
    # (next output, mask of the true outputs, their cost, the parent's slot
    # values for a False child or None if not yet evaluated)
    stack = [(nxt[0], 0, 0, None)]
    while stack:
        i, m, cost, val = stack.pop()
        decisions += 1
        if deadline is not None and time.monotonic() > deadline:
            if best is None:
                best = (everything, sum(weights))
            raise BudgetExceeded(assignment(*best))
        if best is not None and cost >= best[1]:
            continue
        # A False child has its parent's mask, and so its slot values.
        false_child = val is not None
        if not false_child:
            val = formula.values(m)
            if val & holds == holds:
                best = (m, cost)
                continue
        if i == n:
            continue
        if best is not None:
            if data is None:
                data = bound_data(problem)
            lb = lower_bound(data, i, formula.failing(val), best[1] - cost)
            if lb is None or cost + lb >= best[1]:
                continue
        # A True child's "rest True" is its parent's, already satisfiable;
        # the root's is every undominated device, satisfiable because all
        # devices are.
        if false_child and formula.values(m | live >> i << i) & holds != holds:
            continue
        # The False child is pushed last, so it is searched first.
        stack.append((nxt[i + 1], m | 1 << i, cost + weights[i], None))
        stack.append((nxt[i + 1], m, cost, val))
    assert best is not None  # all-true satisfied, so something must
    return assignment(*best)
