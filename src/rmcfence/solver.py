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
not variables, because `use_data` outputs share one cost term.

The search is a loop over an explicit stack of (next output, true
outputs), so its depth is not limited by Python's recursion. With
strict >=-pruning the first optimum found is the lexicographically
smallest one, so results are deterministic.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, replace

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

    position: dict  # OutputVar -> index in problem.outputs
    group: list  # output index -> cost-group index, None if the output is free
    weight: list  # cost-group index -> weight
    support: dict  # assertion label -> sorted indices of the outputs it reaches


def bound_data(problem):
    position = {v: i for i, v in enumerate(problem.outputs)}
    group = [None] * len(problem.outputs)
    for g, (_w, members) in enumerate(problem.cost_terms):
        for v in members:
            group[position[v]] = g
    support = {}
    for label, expr in problem.asserts:
        # Definitions can be cyclic: walk them once each, without recursion.
        outs, seen, stack = set(support.get(label, ())), set(), [expr]
        while stack:
            e = stack.pop()
            tag = e[0]
            if tag == "out":
                outs.add(position[e[1]])
            elif tag == "def":
                if e[1] not in seen:
                    seen.add(e[1])
                    stack.append(problem.defs[e[1]])
            elif tag != "const":
                stack.extend(e[1])
        # Assertions that share a label share the union of their supports:
        # a larger support only weakens the bound.
        support[label] = sorted(outs)
    return BoundData(position, group, [w for w, _ in problem.cost_terms], support)


def lower_bound(data, i, trues, failed):
    """A lower bound on the cost that any satisfying completion of `trues`
    setting only outputs i.. True adds to `trues`' own, given the labels
    of the assertions `trues` fails; None if one of them can no longer be
    satisfied."""
    paid = {data.group[data.position[v]] for v in trues}
    needs = []
    for label in failed:
        support = data.support[label]
        free = support[bisect.bisect_left(support, i):]
        if not free:
            return None
        groups = {data.group[j] for j in free}
        if None in groups or not groups.isdisjoint(paid):
            continue
        needs.append((min(data.weight[g] for g in groups), groups))
    needs.sort(key=lambda n: -n[0])
    lb, used = 0, set()
    for marginal, groups in needs:
        if used.isdisjoint(groups):
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
    all_vars = frozenset(outputs)
    if not encode.satisfies(problem, all_vars):
        raise Unsatisfiable(
            f"{problem.function}/{problem.arch}: constraints uncuttable with every device placed"
        )
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0

    best = None  # Assignment
    data = None  # BoundData, built when the first incumbent can prune
    decisions = 0
    stack = [(0, frozenset())]
    while stack:
        i, trues = stack.pop()
        decisions += 1
        if deadline is not None and time.monotonic() > deadline:
            incumbent = best or Assignment(all_vars, problem.objective(all_vars))
            raise BudgetExceeded(replace(incumbent, decisions=decisions))
        cost = problem.objective(trues)
        if best is not None and cost >= best.cost:
            continue
        failed = encode.failed_assertions(problem, trues)
        if not failed:
            best = Assignment(trues, cost)
            continue
        if i == len(outputs):
            continue
        if best is not None:
            if data is None:
                data = bound_data(problem)
            lb = lower_bound(data, i, trues, failed)
            if lb is None or cost + lb >= best.cost:
                continue
        # A True child's "rest True" is its parent's, already satisfiable;
        # the root's is all devices.
        if i and outputs[i - 1] not in trues and not encode.satisfies(
            problem, trues | frozenset(outputs[i:])
        ):
            continue
        # The False child is pushed last, so it is searched first.
        stack.append((i + 1, trues | {outputs[i]}))
        stack.append((i + 1, trues))
    assert best is not None  # all-true satisfied, so something must
    return replace(best, decisions=decisions)
