"""Reproduce the reference rows of ROADMAP item 1 on the current code.

    python3 perfbench/table.py > rows.json

Builds each family at the size of the reference table with seed 0, runs
the front end, encoder and solver through the public layer functions,
and prints one JSON object per row: problem sizes, search nodes, cost,
seconds per stage and status. The rows that the reference table lists
as "budget hit" get its 20 s solve budget; the others run to the end.
Takes about four minutes; it is not part of the timed benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import families  # noqa: E402
from rmcfence import arch, constraints, encode, graph, ir, solver  # noqa: E402
from rmcfence.deps import DepAnalysis  # noqa: E402

BUDGET_MS = 20000

# (family, size, arch, solve budget in ms or None)
ROWS = [
    ("chain", 12, "armv8", None),
    ("chain", 16, "armv8", BUDGET_MS),
    ("chain", 24, "armv7", None),
    ("diamonds", 8, "armv7", BUDGET_MS),
    ("span", 12, "armv7", None),
    ("span", 13, "armv7", None),
    ("chain", 200, "x86", None),
    ("chain", 400, "x86", None),
]


def row(family, size, arch_name, budget_ms):
    out = {"family": family, "size": size, "arch": arch_name, "budget_ms": budget_ms}
    (func,) = ir.parse(families.generate(family, size, 0))
    t0 = time.perf_counter()
    cfg = ir.normalize(func)
    edges, boundaries = constraints.resolve(func, cfg)
    t1 = time.perf_counter()
    closed = constraints.close(edges, cfg.actions)
    t2 = time.perf_counter()
    out.update(blocks=len(cfg.blocks), edges_closed=len(closed),
               resolve_s=t1 - t0, close_s=t2 - t1)
    profile = arch.builtin_profile(arch_name)
    costs, _ = arch.load_costs(profile)
    try:
        problem = encode.build(cfg, closed, boundaries, DepAnalysis(cfg), profile, costs)
    except graph.PathExplosion as exc:
        out.update(status="PathExplosion", error=str(exc), encode_s=time.perf_counter() - t2)
        return out
    t3 = time.perf_counter()
    out.update(outputs=len(problem.outputs), defs=len(problem.defs), encode_s=t3 - t2)
    try:
        asg = solver.solve_min(problem, budget_ms)
        out.update(status="optimal", nodes=asg.decisions, cost=asg.cost)
    except solver.BudgetExceeded as exc:
        inc = exc.incumbent
        out.update(status="budget hit" if inc is None else "budget hit, incumbent",
                   nodes=None if inc is None else inc.decisions,
                   cost=None if inc is None else inc.cost)
    out["solve_s"] = time.perf_counter() - t3
    return out


def main():
    for family, size, arch_name, budget_ms in ROWS:
        print(json.dumps(row(family, size, arch_name, budget_ms)), flush=True)


if __name__ == "__main__":
    main()
