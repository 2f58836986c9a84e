"""Closed-loop compile benchmark for rmcfence.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One client, one thread, one
process: each request is `rmcfence compile FILE --arch A --out PLAN`
followed by `rmcfence check FILE PLAN --arch A`, both through
`rmcfence.cli.main` in-process, and the next request starts only when
the previous one returned. The seed renames the generated programs and
shuffles the order of every pass; it never changes sizes, so seeds are
comparable. See perfbench/README.md for the workloads, the metrics and
what each layer metric is expected to move.

With --trace 0 the run reports the end-to-end metrics. With --trace 1
it alternates untraced passes with passes traced by `spans.Tracer`, and
reports per-layer metrics, each the median over traced passes of its
value for one pass, plus the ratio of traced to untraced pass time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import families  # noqa: E402
import spans  # noqa: E402

ARCHES = ("x86", "armv7", "armv8", "power")
ORACLE_CAP = 16  # brute_min's own default output-variable cap
SETUP_REPS = 3
TAIL_BEYOND = 10

# The benchmark was built on a shared VM whose interpreter speed switches
# between a fast and a slow state, about 1.8x apart, from one fraction of
# a second to the next and for minutes at a time, much the same for every
# kind of Python work. Raw wall times of two runs are then not
# comparable, and a median flips with the share of time spent slow. So
# every timed call is bracketed by a fixed pure-Python calibration unit
# that shares no code with rmcfence, and reported in reference seconds:
# wall seconds x REFERENCE_UNIT_S / mean of the two unit times around the
# call. Raw wall values are printed next to them.
REFERENCE_UNIT_S = 0.001

# (family, size, arch). Each list has an odd number of problems whose
# latencies are either spread apart or close together, so that the median
# compile falls inside a latency distribution, not on the gap between two
# problems.
WORKLOADS = {
    "corpus": None,  # every corpus/*.rmcir file on every arch
    "search": [
        ("chain", 8, "power"),
        ("chain", 7, "armv8"),
        ("chain", 16, "armv7"),
        ("diamonds", 5, "armv7"),
        ("diamonds", 5, "armv8"),
    ],
    "paths": [
        ("span", 6, "armv7"),
        ("span", 7, "armv8"),
        ("span", 4, "power"),
    ],
    "deps": [
        ("walk", 1, "armv7"),
        ("walk", 1, "power"),
        ("walk", 1, "armv8"),
    ],
    "frontend": [
        ("chain", 70, "x86"),
        ("chain", 80, "x86"),
        ("diamonds", 60, "x86"),
    ],
}

# Compiled once per pass outside the timed region; each is expected to
# exit 2 (PathExplosion) until the defect is fixed, and counts into
# failed_ratio, not into the timed latencies.
KNOWN_DEFECTS = {"paths": [("span", 13, "armv7")]}

# Counts that must repeat exactly from pass to pass.
EXACT_COUNTS = ("solver.nodes", "encode.defs", "encode.evals", "graph.paths",
                "deps.queries", "constraints.edges_closed")


class Sink:
    """Discards the CLI's console output during timed passes."""

    def write(self, s):
        return len(s)

    def flush(self):
        pass


class Item:
    def __init__(self, label, arch, text, path, known_defect=False):
        self.label, self.arch, self.text, self.path = label, arch, text, path
        self.known_defect = known_defect
        self.reference = None  # plan JSON of the gate compile

    def __repr__(self):
        return f"{self.label}/{self.arch}"


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    src = ROOT / "src"
    if not (src / "rmcfence" / "cli.py").is_file():
        fail(f"no rmcfence sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    os.environ.pop("RMCFENCE_COSTS", None)
    cli = importlib.import_module("rmcfence.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"imported rmcfence from {cli.__file__}, not from {src}")
    return cli


def calibration_unit():
    """Fixed pure-Python work: tuples, dicts, sets and a loop."""
    acc = 0
    table = {}
    for i in range(1000):
        key = ("v", i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        group = frozenset((i % 11, i % 7, i % 5))
        if group & {3, 5}:
            acc += len(group)
    return acc + len(table)


class SpeedClock:
    """Times calls in reference seconds (see REFERENCE_UNIT_S).

    `start` times a fresh calibration unit; each `time` then times its
    call and one more unit, so back-to-back calls share the unit between
    them."""

    def __init__(self):
        self.units = []

    def start(self):
        t0 = time.perf_counter()
        calibration_unit()
        self.units.append(time.perf_counter() - t0)

    def time(self, fn, *args):
        """(result, wall seconds, reference seconds) of fn(*args)."""
        before = self.units[-1]
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.start()
        return result, wall, wall * 2 * REFERENCE_UNIT_S / (before + self.units[-1])

    def factor(self, since=0):
        """Mean unit time over the reference, for units from index `since`."""
        return statistics.mean(self.units[since:]) / REFERENCE_UNIT_S


def import_rmcfence_in_child():
    """Seconds to import rmcfence.cli, measured in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import rmcfence.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def make_items(workload, seed, inputs):
    """Generate the workload's programs and write them under `inputs`."""
    inputs.mkdir(parents=True, exist_ok=True)
    items = []
    if workload == "corpus":
        corpus = sorted((ROOT / "corpus").glob("*.rmcir"))
        if not corpus:
            fail(f"no corpus programs under {ROOT / 'corpus'}")
        for src in corpus:
            path = inputs / src.name
            text = src.read_text(encoding="utf-8")
            path.write_text(text, encoding="utf-8")
            items += [Item(src.stem, a, text, path) for a in ARCHES]
        return items
    specs = [(s, False) for s in WORKLOADS[workload]]
    specs += [(s, True) for s in KNOWN_DEFECTS.get(workload, [])]
    for n, ((family, size, arch), known) in enumerate(specs):
        text = families.generate(family, size, seed)
        path = inputs / f"{n:02d}-{family}{size}-{arch}.rmcir"
        path.write_text(text, encoding="utf-8")
        items.append(Item(f"{family}({size})", arch, text, path, known))
    return items


class Runner:
    def __init__(self, cli, plan_dir):
        self.cli = cli
        self.plan_dir = plan_dir

    def plan_path(self, item):
        return self.plan_dir / (item.path.stem + f".{item.arch}.json")

    def _main(self, argv):
        try:
            return self.cli.main(argv)
        except Exception:  # noqa: BLE001 - an internal error is a failed request
            return "exception"

    def compile(self, item):
        """Exit code, or 'exception'."""
        return self._main(["compile", str(item.path), "--arch", item.arch,
                           "--out", str(self.plan_path(item))])

    def check(self, item):
        return self._main(["check", str(item.path), str(self.plan_path(item)),
                           "--arch", item.arch])

    def read_plan(self, item):
        try:
            return self.plan_path(item).read_text(encoding="utf-8")
        except OSError:
            return None


def failure_kind(rc, check_rc=0, plan=None, reference=None):
    if rc == "exception":
        return "exception"
    if rc != 0:
        return f"exit{rc}"
    if check_rc == "exception":
        return "exception"
    if check_rc != 0:
        return "violation"
    if reference is not None and plan != reference:
        return "nondeterministic"
    return None


def oracle_problems(rm, item):
    """The item's problems built through the public layer functions."""
    from rmcfence.deps import DepAnalysis

    profile = rm.arch.builtin_profile(item.arch)
    costs, _ = rm.arch.load_costs(profile)
    for f in sorted(rm.ir.parse(item.text), key=lambda f: f.name):
        cfg = rm.ir.normalize(f)
        edges, boundaries = rm.constraints.resolve(f, cfg)
        closed = rm.constraints.close(edges, cfg.actions)
        yield rm.encode.build(cfg, closed, boundaries, DepAnalysis(cfg), profile, costs,
                              rm.encode.EncodeOptions())


def gate(rm, runner, items, failures):
    """Untimed correctness gate: every plan passes `check`, and its cost
    equals `verify.brute_min` wherever that fits its cap. Stores each
    item's plan as the reference later passes must reproduce byte for
    byte. Returns (plan_cost, oracle_checked)."""
    plan_cost = oracle_checked = 0
    for item in items:
        rc = runner.compile(item)
        if item.known_defect and rc == 2:
            continue
        kind = failure_kind(rc, runner.check(item) if rc == 0 else None)
        if kind is not None:
            failures.append((item, kind, "gate"))
            continue
        item.reference = runner.read_plan(item)
        plans = {p["function"]: p for p in json.loads(item.reference)}
        plan_cost += sum(p["cost"] for p in plans.values())
        for problem in oracle_problems(rm, item):
            try:
                ref = rm.verify.brute_min(problem, ORACLE_CAP)
            except rm.verify.CapExceeded:
                continue
            oracle_checked += 1
            if ref.cost != plans[problem.function]["cost"]:
                failures.append((item, "oracle", f"{problem.function}: {ref.cost}"))
    return plan_cost, oracle_checked


class Stats:
    """What the timed passes record."""

    def __init__(self):
        self.compile, self.check = [], []  # reference seconds, untraced passes
        self.raw_compile, self.raw_check = [], []  # wall seconds, same samples
        self.by_item = {}
        self.attempted = self.ok = self.known_defect = self.probes = 0
        self.failures = []


def one_pass(runner, clock, order, rep, st, tracer=None):
    """Compile and check every item once. Returns (reference, wall) busy
    seconds. Latencies of traced passes are not recorded: tracing slows
    them."""
    busy = wall_busy = 0.0
    compile_fn, check_fn = runner.compile, runner.check
    if tracer is not None:
        compile_fn = lambda item: tracer.call(spans.ROOT_COMPILE, runner.compile, item)
        check_fn = lambda item: tracer.call(spans.ROOT_CHECK, runner.check, item)
    clock.start()
    for item in order:
        if tracer is not None:
            tracer.begin_request(item.label, item.arch, rep)
        rc, w_c, t_c = clock.time(compile_fn, item)
        check_rc, w_k, t_k = clock.time(check_fn, item) if rc == 0 else (None, 0.0, 0.0)
        if item.known_defect:
            st.probes += 1
            if rc == 2:
                st.known_defect += 1
            else:
                kind = failure_kind(rc, check_rc)
                if kind is not None:
                    st.failures.append((item, kind, f"pass {rep}"))
            continue
        busy += t_c + t_k
        wall_busy += w_c + w_k
        st.attempted += 1
        kind = failure_kind(rc, check_rc, runner.read_plan(item) if rc == 0 else None,
                            item.reference)
        if kind is not None:
            st.failures.append((item, kind, f"pass {rep}"))
            continue
        st.ok += 1
        if tracer is None:
            st.compile.append(t_c)
            st.check.append(t_k)
            st.raw_compile.append(w_c)
            st.raw_check.append(w_k)
            st.by_item.setdefault(item, []).append(t_c)
    return busy, wall_busy


def tail(samples):
    """(value, percentile): the highest sample with TAIL_BEYOND above it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wall0 = time.perf_counter()
    cli = load_program()
    rm = sys.modules["rmcfence"]  # cli imports every layer module into the package

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        return run(args, cli, rm, work, out_dir, wall0)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, cli, rm, work, out_dir, wall0):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sink = Sink()
    runner = Runner(cli, work / "plans")
    runner.plan_dir.mkdir()
    clock = SpeedClock()

    # Set-up: import in a fresh interpreter, then generate and write the
    # inputs and warm up on the smallest request. Each part is repeated;
    # set-up is the sum of the two medians.
    def setup_once(r):
        items = make_items(args.workload, args.seed, work / f"inputs{r}")
        warm = min((i for i in items if not i.known_defect),
                   key=lambda i: (len(i.text), ARCHES.index(i.arch), i.label))
        with redirect_stdout(sink), redirect_stderr(sink):
            runner.compile(warm)
            runner.check(warm)
        return items

    imports, reps = [], []
    clock.start()
    for r in range(SETUP_REPS):
        child_s, wall, ref = clock.time(import_rmcfence_in_child)
        imports.append((child_s, child_s * ref / wall))
        items, wall, ref = clock.time(setup_once, r)
        reps.append((wall, ref))
    setup_raw = statistics.median(w for w, _ in imports) + statistics.median(w for w, _ in reps)
    setup_s = statistics.median(r for _, r in imports) + statistics.median(r for _, r in reps)

    st = Stats()
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = time.perf_counter()
        plan_cost, oracle_checked = gate(rm, runner, items, st.failures)
        gate_s = time.perf_counter() - t0

    rng = random.Random(args.seed)
    tracer = spans.Tracer(rm) if args.trace else None
    pass_times = {False: [], True: []}  # reference seconds per pass
    wall_busy = 0.0
    layer = []
    rep = 0
    loop0 = time.perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        while rep == 0 or time.perf_counter() - loop0 < args.seconds or (
                args.trace and not layer):
            order = items[:]
            rng.shuffle(order)
            traced = bool(args.trace) and rep % 2 == 1
            first_unit = len(clock.units)
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    busy, wall = one_pass(runner, clock, order, rep, st, tracer)
                finally:
                    tracer.uninstall()
                m = tracer.pass_metrics()
                factor = clock.factor(first_unit)
                for name in m:
                    if name.endswith("_s") or name.endswith("_us_per_call"):
                        m[name] /= factor
                layer.append(m)
                if len(layer) == 1:
                    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", loop0)
            else:
                busy, wall = one_pass(runner, clock, order, rep, st)
                wall_busy += wall
            pass_times[traced].append(busy)
            rep += 1
    loop_s = time.perf_counter() - loop0

    ok = len(st.compile)  # successful compiles of untraced passes
    unexpected = len(st.failures)
    failed_ratio = (unexpected + st.known_defect) / (st.attempted + st.probes)
    e2e, raw = {}, {}
    for out, (comp, chk, busy) in ((e2e, (st.compile, st.check, sum(pass_times[False]))),
                                   (raw, (st.raw_compile, st.raw_check, wall_busy))):
        out["compile_s.p50"] = statistics.median(comp) if ok else 0.0
        out["compile_s.tail"], tail_p = tail(comp) if ok else (0.0, 0.0)
        out["compiles_per_s"] = ok / busy
        out["check_s.p50"] = statistics.median(chk) if ok else 0.0
    e2e["setup_s"], raw["setup_s"] = setup_s, setup_raw
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len([i for i in items if not i.known_defect])} requests/pass  {rep} passes  "
          f"loop {loop_s:.2f} s  gate {gate_s:.2f} s  total {time.perf_counter() - wall0:.2f} s")
    u = clock.units
    print(f"  speed factor {clock.factor():.4f}: mean of {len(u)} calibration units "
          f"(median {statistics.median(u) * 1e3:.3f} ms, {min(u) * 1e3:.3f}..{max(u) * 1e3:.3f})"
          f" over {REFERENCE_UNIT_S * 1e3:g} ms. Times in reference seconds; [wall]")
    notes = {
        "setup_s": f"import {statistics.median(r for _, r in imports):.4f} + inputs and "
                   f"warm-up {statistics.median(r for _, r in reps):.4f}, medians of "
                   f"{SETUP_REPS}",
        "compile_s.p50": f"n={ok}",
        "compile_s.tail": f"p{tail_p:.2f}, {min(TAIL_BEYOND, max(ok - 1, 0))} of {ok} "
                          f"samples beyond",
        "compiles_per_s": f"over {sum(pass_times[False]):.2f} s of untraced passes",
        "check_s.p50": "",
    }
    for name, note in notes.items():
        unit = "1/s" if name == "compiles_per_s" else "s"
        print(f"  {name:<16}{e2e[name]:>14.6f} {unit:<4} [{raw[name]:.6f}]  {note}")
    print(f"  {'plan_cost':<16}{plan_cost:>14d} cost  one pass")
    print(f"  {'failed_ratio':<16}{failed_ratio:>14.4f}       {unexpected} unexpected + "
          f"{st.known_defect} known-defect of {st.attempted + st.probes} compiles")
    print(f"  {'peak_rss_mb':<16}{e2e['peak_rss_mb']:>14.2f} MiB")
    print(f"  oracle: {oracle_checked} functions compared with brute_min")
    for item, ts in sorted(st.by_item.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"    {str(item):<24} compile p50 {statistics.median(ts):.6f} s  n={len(ts)}")
    for item in items:
        if item.known_defect:
            print(f"  known defect {item}: exits 2 (PathExplosion) on every pass"
                  if st.known_defect == st.probes else
                  f"  known defect {item}: now compiles on some passes")
    for item, kind, where in st.failures[:20]:
        print(f"  FAILED {item} {kind} ({where})")

    if args.trace:
        metrics = {}
        for name in layer[0]:
            vals = [m[name] for m in layer]
            metrics[name] = vals[0] if isinstance(vals[0], int) else statistics.median(vals)
        repeat = {n: len({m[n] for m in layer}) == 1 for n in EXACT_COUNTS}
        metrics["trace.overhead_ratio"] = (statistics.median(pass_times[True])
                                           / statistics.median(pass_times[False]))
        metrics["verify.oracle_checked"] = oracle_checked
        metrics["plan_cost"] = plan_cost
        metrics["failed_ratio"] = failed_ratio
        print_layers(metrics, spec["per_layer"], len(layer), repeat)
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    else:
        out = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}

    result = {
        "correct": unexpected == 0 and ok > 0,
        "attempted": st.attempted,
        "failed": st.attempted - st.ok,
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


def print_layers(m, spec, passes, repeat):
    total = m["cli.compile_s"]
    print(f"  per-layer metrics, per pass, median of {passes} traced passes "
          f"(compile {total:.6f} s per pass):")
    groups = [
        ("ir", ["ir.parse_s", "ir.validate_s", "ir.normalize_s"]),
        ("constraints", ["constraints.resolve_s", "constraints.close_s"]),
        ("deps", ["deps.init_s", "deps.query_s"]),
        ("graph", ["graph.weights_s", "graph.paths_s"]),
        ("encode", ["encode.build_self_s", "encode.eval_s"]),
        ("solver", ["solver.self_s"]),
        ("emit", ["emit.plan_s", "emit.json_s"]),
        ("cli", ["cli.other_s"]),
    ]
    own = {layer: sum(m[n] for n in names) for layer, names in groups}
    in_layers = total - own["cli"]
    for layer, s in own.items():
        share = f"{100 * s / in_layers:5.1f}% of layer time" if layer != "cli" else ""
        print(f"    {layer:<12} self {s:.6f} s  {100 * s / total:5.1f}% of compile  {share}")
    units = {n["name"]: n["unit"] for n in spec}
    for name in list(units) + sorted(set(m) - set(units)):
        unit = units.get(name, "s")
        note = ""
        if name in repeat:
            note = "  repeats" if repeat[name] else "  DIFFERS between passes"
        v = m[name]
        text = f"{v:d}" if isinstance(v, int) else f"{v:.6g}"
        print(f"    {name:<28}{text:>16} {unit}{note}")


if __name__ == "__main__":
    sys.exit(main())
