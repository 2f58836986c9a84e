"""`cli.main` runs each request with the cyclic collector paused.

That is sound only because no request makes a reference cycle: what a
request allocates is freed by reference counting, so pausing the
collector saves its scans and moves no work to whatever runs next. The
first tests hold that invariant on every command and exit code; the
rest hold the pause itself and that the caller's collector state comes
back as it was.
"""

import contextlib
import gc
import io
import itertools
import json
from types import SimpleNamespace

import pytest

from rmcfence import cli, encode, solver
from conftest import CORPUS_NAMES, corpus_path, walk_source


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture
def collector_off():
    """The collector disabled and emptied, and restored afterwards, so
    that each `gc.collect()` counts only the cycles a request left."""
    was = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        if was:
            gc.enable()


@pytest.fixture
def collector(request):
    """The collector in the state the test is parametrized with, restored
    afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was else gc.disable)()


def cyclic_garbage_after(argv):
    """(exit code, objects `gc.collect()` finds unreachable) of one request."""
    gc.collect()
    code = quiet_main(argv)
    return code, gc.collect()


def compiled_plan(tmp_path, name, arch_name):
    dest = tmp_path / f"{name}-{arch_name}.json"
    assert quiet_main(["compile", str(corpus_path(name)), "--arch", arch_name,
                       "--out", str(dest)]) == cli.EXIT_OK
    return dest


def _source(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return str(path)


def _gutted_plan(tmp_path):
    dest = compiled_plan(tmp_path, "mp", "armv7")
    doc = json.loads(dest.read_text())
    for plan in doc:
        plan["barriers"], plan["modes"] = [], []
    dest.write_text(json.dumps(doc))
    return str(dest)


MP = str(corpus_path("mp"))
RINGBUF = str(corpus_path("ringbuf"))

# (id, exit code, argv from tmp_path): one request per way out of main
# but the internal error, which needs a broken layer.
REQUESTS = [
    ("compile-annotated", 0, lambda t: ["compile", RINGBUF, "--arch", "power",
                                        "--format", "annotated"]),
    ("compile-synth", 0, lambda t: ["compile", RINGBUF, "--arch", "armv7", "--synth-deps"]),
    ("compile-walk3", 0, lambda t: ["compile", _source(t, "walk3.rmcir", walk_source(3)),
                                    "--arch", "armv8"]),
    ("explain-dump", 0, lambda t: ["explain", RINGBUF, "--arch", "armv8", "--dump-problem"]),
    ("oracle", 0, lambda t: ["oracle", RINGBUF, "--arch", "armv7"]),
    ("parse-error", 1, lambda t: ["compile", _source(t, "bad.rmcir", "func f { block e: ret"),
                                  "--arch", "armv7"]),
    ("ssa-error", 1, lambda t: ["compile", _source(
        t, "ssa.rmcir", "func f { block e: write @x %undefined ret }"), "--arch", "armv7"]),
    ("not-utf8", 1, lambda t: ["compile", _source(t, "latin1.rmcir", b"func f\xe9 {}"),
                               "--arch", "armv7"]),
    ("missing-file", 1, lambda t: ["compile", str(t / "missing.rmcir"), "--arch", "armv7"]),
    ("bad-cost-file", 1, lambda t: ["compile", MP, "--arch", "armv7", "--costs",
                                    _source(t, "costs.txt", "dmb = lots\n")]),
    ("malformed-plan", 1, lambda t: ["check", MP, _source(t, "plan.json", "[{"),
                                     "--arch", "armv7"]),
    ("plan-for-another-arch", 1, lambda t: ["check", MP, str(compiled_plan(t, "mp", "armv7")),
                                            "--arch", "power"]),
    ("compile-budget", 3, lambda t: ["compile", RINGBUF, "--arch", "armv8", "--budget-ms", "0"]),
    ("explain-budget", 3, lambda t: ["explain", RINGBUF, "--arch", "armv8", "--budget-ms", "0"]),
    ("check-violations", 4, lambda t: ["check", MP, _gutted_plan(t), "--arch", "armv7"]),
]


def _broken_build(*args, **kwargs):
    raise KeyError("b0.s1")


def _unsatisfiable_build(build):
    def broken(*args, **kwargs):
        problem = build(*args, **kwargs)
        problem.asserts.append(("broken", encode.FALSE))
        return problem

    return broken


@pytest.mark.parametrize("arch_name", ["x86", "armv7", "armv8", "power"])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_requests_leave_no_cyclic_garbage(tmp_path, collector_off, name, arch_name):
    src, dest = str(corpus_path(name)), str(tmp_path / "plan.json")
    assert cyclic_garbage_after(["compile", src, "--arch", arch_name, "--out", dest]) == (0, 0)
    assert cyclic_garbage_after(["check", src, dest, "--arch", arch_name]) == (0, 0)


@pytest.mark.parametrize("code,argv", [(c, a) for _, c, a in REQUESTS],
                         ids=[i for i, _, _ in REQUESTS])
def test_every_exit_leaves_no_cyclic_garbage(tmp_path, collector_off, code, argv):
    argv = argv(tmp_path)
    assert cyclic_garbage_after(argv) == (code, 0)


@pytest.mark.parametrize("broken", ["key-error", "unsatisfiable"])
def test_internal_errors_leave_no_cyclic_garbage(collector_off, monkeypatch, broken):
    build = _broken_build if broken == "key-error" else _unsatisfiable_build(encode.build)
    monkeypatch.setattr(encode, "build", build)
    argv = ["compile", MP, "--arch", "armv7"]
    assert cyclic_garbage_after(argv) == (cli.EXIT_INTERNAL, 0)


def test_a_budget_run_out_mid_search_leaves_no_cyclic_garbage(tmp_path, collector_off,
                                                               monkeypatch):
    # A clock that moves 1 ms per reading, one reading per search node,
    # runs a 100 ms budget out in the middle of walk(4)'s search on armv8,
    # holding an incumbent dearer than the optimum (960).
    ticks = itertools.count()
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: next(ticks) / 1000))
    src = _source(tmp_path, "walk4.rmcir", walk_source(4))
    dest = tmp_path / "plan.json"
    argv = ["compile", src, "--arch", "armv8", "--budget-ms", "100", "--out", str(dest)]
    assert cyclic_garbage_after(argv) == (cli.EXIT_BUDGET, 0)
    (plan,) = json.loads(dest.read_text())
    assert (plan["status"], plan["cost"]) == ("incumbent", 1077)


def long_x86_source(n=400):
    """n writes in a straight line, each ordered before the next by vo."""
    decls = "".join(f"  edge vo l{i:03} -> l{i + 1:03};\n" for i in range(n - 1))
    body = "".join(f"    write @g{i:03} {i} label l{i:03}\n" for i in range(n))
    return f"func chain{n} {{\n{decls}  block b:\n{body}    ret\n}}\n"


@pytest.mark.parametrize("collector", [True], ids=["enabled"], indirect=True)
def test_a_long_request_runs_no_collection(tmp_path, collector):
    # With the collector running, this compile allocates enough to set off
    # several collections; main pauses it, so there must be none.
    src = _source(tmp_path, "chain400.rmcir", long_x86_source())
    argv = ["compile", src, "--arch", "x86", "--out", str(tmp_path / "plan.json")]
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        code = quiet_main(argv)
    finally:
        gc.callbacks.remove(record)
    assert code == cli.EXIT_OK
    assert started == []


@pytest.mark.parametrize("collector", [True, False], ids=["enabled", "disabled"], indirect=True)
@pytest.mark.parametrize("code,argv", [(c, a) for _, c, a in REQUESTS],
                         ids=[i for i, _, _ in REQUESTS])
def test_main_restores_the_collector_state(tmp_path, collector, code, argv):
    argv = argv(tmp_path)
    assert quiet_main(argv) == code
    assert gc.isenabled() is collector


@pytest.mark.parametrize("collector", [True, False], ids=["enabled", "disabled"], indirect=True)
def test_internal_error_restores_the_collector_state(monkeypatch, collector):
    monkeypatch.setattr(encode, "build", _broken_build)
    assert quiet_main(["compile", MP, "--arch", "armv7"]) == cli.EXIT_INTERNAL
    assert gc.isenabled() is collector


@pytest.mark.parametrize("collector", [True, False], ids=["enabled", "disabled"], indirect=True)
def test_an_escaping_exception_restores_the_collector_state(monkeypatch, collector):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(encode, "build", interrupted)
    with pytest.raises(KeyboardInterrupt):
        quiet_main(["compile", MP, "--arch", "armv7"])
    assert gc.isenabled() is collector


@pytest.mark.parametrize("argv", [["--help"], ["compile", "--help"], ["compile"],
                                  ["compile", MP, "--arch", "bogus"]],
                         ids=["help", "command-help", "missing-file", "bad-choice"])
def test_help_and_usage_errors_leave_the_collector_untouched(monkeypatch, argv):
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(gc, "enable", lambda: calls.append("enable"))
    with pytest.raises(SystemExit):
        quiet_main(argv)
    assert calls == []
