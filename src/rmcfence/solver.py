"""Exact minimization over the placement formula.

Branch-and-bound DFS over output variables in canonical order, trying
False before True. The formula is monotone in the outputs, which gives
two strong moves: if the current partial assignment already satisfies
everything with the rest False, that completion is the subtree's best;
if even setting the rest True fails, the subtree is dead.

Once an incumbent exists, a node is also pruned by a lower bound on the
cost its completions must still pay. Each failing assertion needs some
output of its support (the outputs it reaches through the definitions)
that is not yet decided, and that output's cost group. Failing
assertions whose undecided groups are pairwise disjoint each pay
separately, so the sum of their cheapest group weights is a bound; an
assertion whose group is already paid for by a true output adds
nothing. This is the independent-clause bound of weighted MaxSAT and
set-cover branch-and-bound, with disjointness taken over cost groups,
not variables, because `use_data` outputs share one cost term. The
undecided outputs of a node are a suffix of each assertion's sorted
support, so `bound_data` tabulates, per assertion and suffix, the cost
groups as a bitmask, the cheapest of their weights, the output mask of
their members (a true member means paid) and whether an output is
costless; a node looks its entry up by bisection.

The search is a loop over an explicit stack of (next output, mask of the
true outputs, their cost), so its depth is not limited by Python's
recursion. Output i is the bit `1 << i`, the formula is evaluated by
`encode.Compiled` on that mask, and setting an output True adds its cost
group's weight unless a member is already True. Only the result becomes
a frozenset `Assignment`. With strict >=-pruning the first optimum found
is the lexicographically smallest one, so results are deterministic.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass

from . import encode


class Unsatisfiable(Exception):
    """Even the all-devices assignment fails: the encoding is broken."""


class BudgetExceeded(Exception):
    def __init__(self, incumbent):
        self.incumbent = incumbent
        super().__init__("solve budget exhausted")


@dataclass(frozen=True)
class Assignment:
    true_vars: frozenset
    cost: int
    optimal: bool = True
    decisions: int = 0


@dataclass(frozen=True)
class BoundData:
    """What the lower bound needs of a problem, computed once."""

    support: dict  # assertion label -> sorted indices of the outputs it reaches
    # assertion label -> per position p in its support, for the outputs
    # support[p:]: None if one of them is costless, else (cheapest weight,
    # bitmask of their cost groups, output mask of those groups' members)
    suffix: dict


def _cost_groups(problem, index):
    """(output mask of its members, weight) per cost group, and each
    output's group index (None if the output is costless)."""
    groups, group = [], [None] * len(problem.outputs)
    for g, (w, members) in enumerate(problem.cost_terms):
        groups.append((sum(1 << index[v] for v in members), w))
        for v in members:
            group[index[v]] = g
    return groups, group


def bound_data(problem):
    index = encode.compiled(problem).index
    groups, group = _cost_groups(problem, index)
    support = {}
    for label, expr in problem.asserts:
        # Definitions can be cyclic: walk them once each, without recursion.
        outs, seen, stack = set(support.get(label, ())), set(), [expr]
        while stack:
            e = stack.pop()
            tag = e[0]
            if tag == "out":
                outs.add(index[e[1]])
            elif tag == "def":
                if e[1] not in seen:
                    seen.add(e[1])
                    stack.append(problem.defs[e[1]])
            elif tag != "const":
                stack.extend(e[1])
        # Assertions that share a label share the union of their supports:
        # a larger support only weakens the bound.
        support[label] = sorted(outs)
    suffix = {}
    for label, outs in support.items():
        table, entry = [None] * len(outs), (math.inf, 0, 0)
        for p in reversed(range(len(outs))):
            g = group[outs[p]]
            if g is None:
                entry = None
            elif entry is not None:
                members, w = groups[g]
                entry = (min(entry[0], w), entry[1] | 1 << g, entry[2] | members)
            table[p] = entry
        suffix[label] = table
    return BoundData(support, suffix)


def lower_bound(data, i, m, failed):
    """A lower bound on the cost that any satisfying completion of the
    output mask `m` setting only outputs i.. True adds to `m`'s own, given
    the labels of the assertions `m` fails; None if one of them can no
    longer be satisfied."""
    needs = []
    for label in failed:
        support = data.support[label]
        p = bisect.bisect_left(support, i)
        if p == len(support):
            return None
        free = data.suffix[label][p]
        # Nothing to add if a free output is costless or a true output
        # already paid for one of the free groups.
        if free is not None and not m & free[2]:
            needs.append(free)
    needs.sort(key=lambda n: -n[0])
    lb, used = 0, 0
    for marginal, groups, _members in needs:
        if not used & groups:
            lb += marginal
            used |= groups
    return lb


def solve_min(problem, budget_ms=None):
    """Cheapest satisfying assignment of the output variables.

    Raises Unsatisfiable if no assignment works (a bug upstream) and
    BudgetExceeded when budget_ms runs out. Its incumbent is the best
    assignment found so far, or all devices placed if none was.
    """
    outputs = problem.outputs
    n = len(outputs)
    formula = encode.compiled(problem)
    everything = (1 << n) - 1
    if formula.failed(everything):
        raise Unsatisfiable(
            f"{problem.function}/{problem.arch}: constraints uncuttable with every device placed"
        )
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    groups, group = _cost_groups(problem, formula.index)
    # Setting output i True adds its group's weight unless a member is True.
    charge = [(0, 0) if g is None else groups[g] for g in group]

    def assignment(m, cost):
        trues = frozenset(v for j, v in enumerate(outputs) if m >> j & 1)
        return Assignment(trues, cost, decisions=decisions)

    best = None  # (mask, cost)
    data = None  # BoundData, built when the first incumbent can prune
    decisions = 0
    stack = [(0, 0, 0)]  # (next output, mask of the true outputs, their cost)
    while stack:
        i, m, cost = stack.pop()
        decisions += 1
        if deadline is not None and time.monotonic() > deadline:
            if best is None:
                best = (everything, problem.objective(frozenset(outputs)))
            raise BudgetExceeded(assignment(*best))
        if best is not None and cost >= best[1]:
            continue
        failed = formula.failed(m)
        if not failed:
            best = (m, cost)
            continue
        if i == n:
            continue
        if best is not None:
            if data is None:
                data = bound_data(problem)
            lb = lower_bound(data, i, m, failed)
            if lb is None or cost + lb >= best[1]:
                continue
        # A True child's "rest True" is its parent's, already satisfiable;
        # the root's is all devices.
        if i and not m >> (i - 1) & 1 and formula.failed(m | everything >> i << i):
            continue
        # The False child is pushed last, so it is searched first.
        members, w = charge[i]
        stack.append((i + 1, m | 1 << i, cost if m & members else cost + w))
        stack.append((i + 1, m, cost))
    assert best is not None  # all-true satisfied, so something must
    return assignment(*best)
