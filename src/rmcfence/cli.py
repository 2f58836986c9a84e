"""Command-line driver.

Subcommands: compile (optimize placements, emit JSON or annotated
source), check (validate a plan against its source), explain (show the
closed constraints, weights, and cost breakdown), oracle (cross-check
the optimizer against exhaustive search and the greedy baseline).

Exit codes: 0 success/valid, 1 invalid input or usage error, 3 budget
exhausted, 4 invalid plan / oracle mismatch, 5 internal error. 2 is no
longer produced: it meant path explosion, and every constraint is now
cut by reachability.
"""

import functools
import gc
import os
import stat
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import arch, constraints, emit, encode, graph, ir, solver
from .deps import DepAnalysis

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 3
EXIT_INVALID = 4
EXIT_INTERNAL = 5


# The command line, said once. Each command has a help line, its
# positionals as (dest, help), and its options; `build_parser` builds the
# argparse parser from this table and `parse_args` reads plain argv from
# it. An option that takes no value is a store-true flag; `at_least`,
# when set, makes the value an ASCII decimal integer of at least it.
Option = namedtuple("Option", "flag dest takes_value at_least choices default help")


def _option(flag, takes_value=True, at_least=None, choices=None, default=None, help=None):
    dest = flag[2:].replace("-", "_")
    return Option(flag, dest, takes_value, at_least, choices,
                  default if takes_value else False, help)


def _int_at_least(text, low):
    """`text` as an ASCII decimal integer of at least `low`, else None."""
    n = ir.parse_decimal(text)
    return None if n is None or n < low else n


_COMMON = (
    _option("--arch", default="armv8", choices=arch.PROFILE_NAMES),
    _option("--costs", help="cost override file (key = integer lines)"),
    _option("--no-data-deps", takes_value=False, help="never rely on data dependencies"),
    _option("--no-ctrl-deps", takes_value=False, help="never rely on control dependencies"),
    _option("--synth-deps", takes_value=False,
            help="allow synthesizing new control dependencies"),
    _option("--loop-factor", at_least=1, help="per-loop-level weight multiplier"),
)
_BUDGET = _option("--budget-ms", at_least=0)
_FILE = ("file", "IR source file")

COMMANDS = {
    "compile": ("compute a minimal placement plan", (_FILE,), _COMMON + (
        _BUDGET,
        _option("--format", choices=("json", "annotated"), default="json"),
        _option("--out", help="write output here instead of stdout"),
    )),
    "check": ("validate a placement plan", (_FILE, ("plan", "plan JSON produced by compile")),
              _COMMON),
    "explain": ("show constraints, weights, and cost breakdown", (_FILE,), _COMMON + (
        _BUDGET,
        _option("--dump-problem", takes_value=False, help="also print the raw formula"),
    )),
    "oracle": ("cross-check optimizer vs exhaustive search", (_FILE,), _COMMON + (
        _option("--max-vars", at_least=0, default=16,
                help="exhaustive-search variable limit"),
    )),
}


@functools.cache
def build_parser():
    """The argparse parser of `COMMANDS`, built once per process and
    shared by every call; `parse_args` returns a fresh namespace each
    time. Do not modify the returned parser."""
    import argparse  # only help and usage errors need it; see parse_args

    class ArgumentParser(argparse.ArgumentParser):
        """Usage errors exit EXIT_INPUT, not argparse's 2, which meant
        path explosion here and is left unused. Subparsers are built from
        the same class."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    def int_type(low):
        def parse(text):
            n = _int_at_least(text, low)
            if n is None:
                raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
            return n

        return parse

    ap = ArgumentParser(prog="rmcfence", description="memory-barrier placement optimizer")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (help_line, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for dest, help_text in positionals:
            p.add_argument(dest, help=help_text)
        for o in options:
            if o.takes_value:
                kind = None if o.at_least is None else int_type(o.at_least)
                p.add_argument(o.flag, dest=o.dest, type=kind, choices=o.choices,
                               default=o.default, help=o.help)
            else:
                p.add_argument(o.flag, dest=o.dest, action="store_true", help=o.help)
    return ap


# Per command: its positional dests, its options by flag, and the
# namespace fields of an argv that gives no option.
_INDEX = {
    name: (tuple(dest for dest, _ in positionals), {o.flag: o for o in options},
           {"cmd": name, **{o.dest: o.default for o in options}})
    for name, (_, positionals, options) in COMMANDS.items()
}


def _read_plain(argv):
    """The namespace of an argv that names a command and holds only its
    exact long options, each value not starting with `-` and of the
    option's integer range or choices, and exactly its positionals; None
    for any other argv. On such an argv it equals argparse's namespace."""
    command = _INDEX.get(argv[0]) if argv else None
    if command is None:
        return None
    positionals, options, defaults = command
    values, found = dict(defaults), []
    rest = iter(argv[1:])
    for arg in rest:
        if arg[:1] != "-":
            found.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        o = options.get(flag)
        if o is None:  # -h, --, an abbreviation, an unknown option
            return None
        if not o.takes_value:
            if eq:
                return None
            values[o.dest] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None:
                return None
        if value[:1] == "-":
            return None
        if o.at_least is not None:
            value = _int_at_least(value, o.at_least)
            if value is None:
                return None
        if o.choices is not None and value not in o.choices:
            return None
        values[o.dest] = value
    if len(found) != len(positionals):
        return None
    values.update(zip(positionals, found))
    return SimpleNamespace(**values)


def parse_args(argv):
    """The fields `build_parser().parse_args(argv)` gives. A plain argv
    (see `_read_plain`) is read from `COMMANDS` without argparse; any
    other goes to argparse, which prints help, usage and errors."""
    args = _read_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def _load_inputs(args):
    """Parse + validate + per-function analysis structures."""
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ir.ParseError([f"{args.file}: not UTF-8 text ({exc.reason} at byte {exc.start})"])
    funcs = ir.parse(text)
    diags = []
    for f in funcs:
        diags.extend(ir.validate(f))
    if diags:
        raise ir.ParseError(diags)

    profile = arch.builtin_profile(args.arch)
    cost_path = args.costs or os.environ.get("RMCFENCE_COSTS") or None
    costs, warnings = arch.load_costs(profile, path=cost_path)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.loop_factor is not None:
        costs = costs._replace(loop_factor=args.loop_factor)

    options = encode.EncodeOptions(
        data_deps=not args.no_data_deps,
        ctrl_deps=not args.no_ctrl_deps,
        synth_deps=args.synth_deps,
    )

    units = []
    for f in sorted(funcs, key=lambda f: f.name):
        cfg = ir.normalize(f)
        edges, boundaries = constraints.resolve(f, cfg)
        closed = constraints.close(edges, cfg.actions)
        units.append((f, cfg, closed, boundaries))
    return units, profile, costs, options


def _encode_unit(unit, profile, costs, options, weights=None):
    f, cfg, closed, boundaries = unit
    deps = DepAnalysis(cfg)
    return encode.build(cfg, closed, boundaries, deps, profile, costs, options, weights)


def _solve(problem, budget_ms):
    """The cheapest plan, or when the budget runs out the incumbent,
    marked as not proven optimal."""
    try:
        return solver.solve_min(problem, budget_ms)
    except solver.BudgetExceeded as exc:
        return exc.incumbent._replace(optimal=False)


def _budget_warning(name):
    print(f"warning: budget exhausted on {name}; plan may be suboptimal", file=sys.stderr)
    return EXIT_BUDGET


def _write_in_place(path, text):
    """Write `text` to `path` without emptying the file first: overwrite
    it from the start, then cut a regular file to the written length.
    Truncating a file to zero before rewriting it makes ext4
    (`auto_da_alloc`) start writeback of the new data when it is closed,
    a cost every compile that rewrites its plan would pay."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(len(data))


def cmd_compile(args):
    units, profile, costs, options = _load_inputs(args)
    plans, cfgs = [], {}
    budget_note = None
    for unit in units:
        problem = _encode_unit(unit, profile, costs, options)
        cfgs[unit[0].name] = unit[1]
        asg = _solve(problem, args.budget_ms)
        if not asg.optimal:
            budget_note = unit[0].name
        plans.append(emit.to_plan(problem, unit[1], asg))

    if args.format == "json":
        text = emit.plans_to_json(plans)
    else:
        text = "".join(
            emit.annotate(cfgs[p.function].func, cfgs[p.function], p)
            for p in sorted(plans, key=lambda p: p.function)
        )
    if args.out:
        _write_in_place(args.out, text)
    else:
        sys.stdout.write(text)
    if budget_note is not None:
        return _budget_warning(budget_note)
    return EXIT_OK


def cmd_check(args):
    from . import verify  # only check and oracle need the checker

    units, profile, costs, _options = _load_inputs(args)
    with open(args.plan, "rb") as fh:
        plans = {p.function: p for p in emit.plans_from_json(fh.read())}
    kinds = {k.id for k in profile.barriers}
    violations = []
    for f, cfg, closed, boundaries in units:
        plan = plans.get(f.name)
        if plan is None:
            violations.append(f"no plan for function {f.name}")
            continue
        if plan.arch != profile.name:
            print(
                f"error: plan for {f.name} targets {plan.arch}, not {profile.name}",
                file=sys.stderr,
            )
            return EXIT_INPUT
        lacks = f"which {profile.name} does not have"
        unknown = [f"barriers[{j}] has kind {b.kind!r}, {lacks}"
                   for j, b in enumerate(plan.barriers) if b.kind not in kinds]
        unknown += [f"modes[{j}] has mode {m.mode!r}, {lacks}"
                    for j, m in enumerate(plan.modes) if m.mode not in profile.modes]
        unknown += [f"ctrl_uses[{j}] has mode {u.mode!r}, not 'existing' or 'synth'"
                    for j, u in enumerate(plan.ctrl_uses) if u.mode not in ("existing", "synth")]
        if unknown:
            print(f"error: plan for {f.name}: {unknown[0]}", file=sys.stderr)
            return EXIT_INPUT
        violations.extend(verify.check_claims(cfg, costs, plan))
        violations.extend(verify.check_plan(cfg, closed, boundaries, profile, plan))
    defined = {f.name for f, _, _, _ in units}
    violations += [f"plan for function {name}, which the source does not define"
                   for name in plans if name not in defined]
    if violations:
        for v in violations:
            print(v)
        return EXIT_INVALID
    print("OK")
    return EXIT_OK


def _expr_str(expr):
    tag = expr[0]
    if tag == "const":
        return "true" if expr[1] else "false"
    if tag == "out":
        return str(expr[1])
    if tag == "def":
        return expr[1]
    sep = " | " if tag == "or" else " & "
    return "(" + sep.join(_expr_str(p) for p in expr[1]) + ")"


def cmd_explain(args):
    units, profile, costs, options = _load_inputs(args)
    out = []
    budget_note = None
    for unit in units:
        f, cfg, closed, boundaries = unit
        out.append(f"function {f.name} ({profile.name})")
        out.append("  constraints:")
        for e in closed:
            scope = f" here({e.bind})" if e.bind else ""
            mark = "" if e.origin == "declared" else "  [derived]"
            out.append(f"    {e.kind} {e.src} -> {e.dst}{scope}{mark}")
        for bc in boundaries:
            out.append(f"    {bc.direction}({bc.kind}) {bc.action}")
        out.append("  edges:")
        weights, depths = graph.weights_and_depths(cfg, costs.loop_factor)
        for s, d, pseudo in cfg.edges:
            tag = " pseudo" if pseudo else ""
            out.append(f"    {s} -> {d}{tag}  depth={depths[(s, d)]} weight={weights[(s, d)]}")
        problem = _encode_unit(unit, profile, costs, options, weights)
        if args.dump_problem:
            out.append("  outputs:")
            for v in problem.outputs:
                out.append(f"    {v}")
            out.append("  definitions:")
            for name in sorted(problem.defs):
                out.append(f"    {name} = {_expr_str(problem.defs[name])}")
            out.append("  assertions:")
            for label, expr in problem.asserts:
                out.append(f"    {label}: {_expr_str(expr)}")
        asg = _solve(problem, args.budget_ms)
        if not asg.optimal:
            budget_note = f.name
        mark = "" if asg.optimal else ", not proven optimal"
        out.append(f"  plan (cost {asg.cost}, {asg.decisions} search nodes{mark}):")
        for v, w in zip(problem.outputs, problem.weights):
            if v in asg.true_vars:
                out.append(f"    {v}  cost {w}")
        if not asg.true_vars:
            out.append("    (nothing to insert)")
    print("\n".join(out))
    if budget_note is not None:
        return _budget_warning(budget_note)
    return EXIT_OK


def cmd_oracle(args):
    from . import verify

    units, profile, costs, options = _load_inputs(args)
    ok = True
    for unit in units:
        f, cfg, closed, boundaries = unit
        problem = _encode_unit(unit, profile, costs, options)
        asg = solver.solve_min(problem)
        gp = verify.greedy(cfg, closed, boundaries, profile, costs)
        line = f"{f.name}: solver={asg.cost} greedy={gp.cost}"
        try:
            ref = verify.brute_min(problem, args.max_vars)
            line += f" exhaustive={ref.cost}"
            if ref.cost != asg.cost:
                line += "  MISMATCH"
                ok = False
        except verify.CapExceeded:
            line += " exhaustive=skipped"
        print(line)
    return EXIT_OK if ok else EXIT_INVALID


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    handler = {
        "compile": cmd_compile,
        "check": cmd_check,
        "explain": cmd_explain,
        "oracle": cmd_oracle,
    }[args.cmd]
    # No request makes a reference cycle: all it allocates is freed by
    # reference counting, and tests/test_cyclic_gc.py checks that
    # gc.collect() finds nothing after every command and exit code. So the
    # cyclic collector, which would only rescan the request's live
    # objects, is paused while the handler runs and left as it was found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handler(args)
    except ir.ParseError as exc:
        for d in exc.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_INPUT
    except (arch.CostConfigError, OSError, emit.PlanFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault of rmcfence, not of its input
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
