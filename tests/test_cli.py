import contextlib
import io
import json
import os
import pathlib
import stat
import subprocess
import sys

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from rmcfence import cli, encode, graph, ir
from conftest import ARCHES, CORPUS_NAMES, corpus_path, span_source, walk_source


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_overlap_armv7(capsys):
    code, out, _ = run(capsys, "compile", str(corpus_path("overlap")), "--arch", "armv7")
    assert code == 0
    (plan,) = json.loads(out)
    assert [b["kind"] for b in plan["barriers"]] == ["dmb"]


def test_compile_writes_out_file(tmp_path, capsys):
    dest = tmp_path / "plan.json"
    code, out, _ = run(
        capsys, "compile", str(corpus_path("mp")), "--arch", "armv8", "--out", str(dest)
    )
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())


def test_check_accepts_own_plan(tmp_path, capsys):
    dest = tmp_path / "plan.json"
    run(capsys, "compile", str(corpus_path("mp")), "--arch", "x86", "--out", str(dest))
    code, out, _ = run(capsys, "check", str(corpus_path("mp")), str(dest), "--arch", "x86")
    assert code == 0
    assert out.strip() == "OK"


def test_check_rejects_gutted_plan(tmp_path, capsys):
    dest = tmp_path / "plan.json"
    run(capsys, "compile", str(corpus_path("mp")), "--arch", "armv7", "--out", str(dest))
    doc = json.loads(dest.read_text())
    for plan in doc:
        plan["barriers"] = []
        plan["modes"] = []
    dest.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(corpus_path("mp")), str(dest), "--arch", "armv7")
    assert code == 4
    assert "UNCUT" in out


def test_check_arch_mismatch(tmp_path, capsys):
    dest = tmp_path / "plan.json"
    run(capsys, "compile", str(corpus_path("mp")), "--arch", "armv7", "--out", str(dest))
    code, _, err = run(capsys, "check", str(corpus_path("mp")), str(dest), "--arch", "power")
    assert code == 1
    assert "targets armv7" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.rmcir"
    bad.write_text("func f { block e: write @x %undefined ret }")
    code, _, err = run(capsys, "compile", str(bad), "--arch", "armv7")
    assert code == 1
    assert "undefined value" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "compile", "/nonexistent.rmcir", "--arch", "armv7")
    assert code == 1
    assert err


def test_path_explosion_exit_code(capsys):
    code, _, err = run(
        capsys, "compile", str(corpus_path("selfdep")), "--arch", "armv7", "--max-paths", "1"
    )
    assert code == 2
    assert "max-paths" in err


@pytest.mark.parametrize(
    "kind,arch_name,max_paths",
    [
        pytest.param("vo", "armv7", None, id="None"),
        pytest.param("vo", "armv7", "1", id="1"),
        pytest.param("xo", "x86", None, id="xo-x86"),
    ],
)
def test_many_paths_without_dependencies_compile(tmp_path, capsys, kind, arch_name, max_paths):
    # 2^13 paths, more than the default cap, but a vo is a reachability cut,
    # and x86 orders execution for free, so its xo is no constraint at all
    src = tmp_path / "span13.rmcir"
    src.write_text(span_source(13, kind))
    dest = tmp_path / "plan.json"
    extra = ["--max-paths", max_paths] if max_paths else []
    code, _, err = run(capsys, "compile", str(src), "--arch", arch_name, "--out", str(dest), *extra)
    assert code == 0, err
    code, out, _ = run(capsys, "check", str(src), str(dest), "--arch", arch_name, *extra)
    assert code == 0 and out.strip() == "OK"
    code, out, _ = run(capsys, "oracle", str(src), "--arch", arch_name, *extra)
    assert code == 0 and "MISMATCH" not in out


def test_check_walks_a_branch_to_one_block_once(tmp_path, capsys):
    # `br %c ? m : m` makes two edges but one path, so six such branches
    # leave one path for the xo, within --max-paths 2 for compile and check
    lines = ["func same {", "  edge xo r -> w;", "  block e:", "    %v = read @x label r"]
    for i in range(6):
        lines += [f"    %c{i} = op c{i}()", f"    br %c{i} ? m{i} : m{i}", f"  block m{i}:"]
    src = tmp_path / "same.rmcir"
    src.write_text("\n".join(lines + ["    write @y 1 label w", "    ret", "}"]) + "\n")
    dest = tmp_path / "plan.json"
    flags = ("--arch", "armv7", "--max-paths", "2")
    code, _, err = run(capsys, "compile", str(src), *flags, "--out", str(dest))
    assert code == 0, err
    code, out, err = run(capsys, "check", str(src), str(dest), *flags)
    assert (code, out.strip()) == (0, "OK"), err


# The barrier that orders u before s also orders s after itself (every
# cycle through s passes u), so s -> t can ride the data dependency.
_STORES_THE_READ = """func f {
  edge xo u -> s;
  edge xo s -> t;
  block e:
    write @c 1 label u
    %w = read @a label s
    write @b %w label t
    ret
}
"""


def test_a_write_of_the_read_value_rides_its_data_dependency(tmp_path, capsys):
    src = tmp_path / "stores.rmcir"
    src.write_text(_STORES_THE_READ)
    dest = tmp_path / "plan.json"
    code, _, err = run(capsys, "compile", str(src), "--arch", "armv7", "--out", str(dest))
    assert code == 0, err
    (plan,) = json.loads(dest.read_text())
    assert plan["data_uses"] == [{"bind": "-", "source": "a1", "target": "a2"}]
    assert len(plan["barriers"]) == 1 and plan["modes"] == []
    code, out, _ = run(capsys, "check", str(src), str(dest), "--arch", "armv7")
    assert (code, out.strip()) == (0, "OK")
    # The same plan for a write of a constant claims a use the code lacks.
    const = tmp_path / "const.rmcir"
    const.write_text(_STORES_THE_READ.replace("@b %w", "@b 1"))
    code, out, _ = run(capsys, "check", str(const), str(dest), "--arch", "armv7")
    assert code == 4 and out.startswith("UNCUT xo a1->a2 via ")


def test_budget_exit_code(tmp_path, capsys):
    dest = tmp_path / "plan.json"
    code, _, err = run(
        capsys, "compile", str(corpus_path("ringbuf")), "--arch", "armv8", "--budget-ms", "0",
        "--out", str(dest),
    )
    assert code == 3
    # out of time before any incumbent, the plan places every device
    plans = json.loads(dest.read_text())
    assert plans and all(p["status"] == "incumbent" for p in plans)
    code, out, _ = run(capsys, "check", str(corpus_path("ringbuf")), str(dest), "--arch", "armv8")
    assert code == 0 and out.strip() == "OK"


def test_cost_file_and_env(tmp_path, capsys, monkeypatch):
    costs = tmp_path / "costs.txt"
    costs.write_text("dmb = 100\n")
    code, out, _ = run(
        capsys, "compile", str(corpus_path("overlap")), "--arch", "armv7",
        "--costs", str(costs),
    )
    assert code == 0
    (plan,) = json.loads(out)
    assert plan["cost"] == 100

    env_costs = tmp_path / "env_costs.txt"
    env_costs.write_text("dmb = 200\n")
    monkeypatch.setenv("RMCFENCE_COSTS", str(env_costs))
    code, out, _ = run(capsys, "compile", str(corpus_path("overlap")), "--arch", "armv7")
    (plan,) = json.loads(out)
    assert plan["cost"] == 200
    # explicit flag outranks the environment
    code, out, _ = run(
        capsys, "compile", str(corpus_path("overlap")), "--arch", "armv7",
        "--costs", str(costs),
    )
    (plan,) = json.loads(out)
    assert plan["cost"] == 100


def test_bad_cost_file_exit_code(tmp_path, capsys):
    costs = tmp_path / "costs.txt"
    costs.write_text("nonsense = 1\n")
    code, _, err = run(
        capsys, "compile", str(corpus_path("mp")), "--arch", "armv7", "--costs", str(costs)
    )
    assert code == 1
    assert "unknown cost key" in err


@pytest.mark.parametrize("value", ["\u0663", "1_0", "+5", "5 5"])
def test_cost_file_integers_are_ascii_decimal(tmp_path, capsys, value):
    # int() reads the first three; spaces around a value are the file's
    # syntax and stripped, so " 5" is a plain 5 there
    costs = tmp_path / "costs.txt"
    costs.write_text(f"dmb = {value}\n", encoding="utf-8")
    code, _, err = run(
        capsys, "compile", str(corpus_path("mp")), "--arch", "armv7", "--costs", str(costs)
    )
    assert (code, err) == (cli.EXIT_INPUT, f"error: line 1: {value!r} is not an integer\n")


def test_annotated_format_reparses(capsys):
    code, out, _ = run(
        capsys, "compile", str(corpus_path("widget")), "--arch", "armv7",
        "--format", "annotated",
    )
    assert code == 0
    funcs = ir.parse(out)
    assert {f.name for f in funcs} == {"update_widget", "use_widget"}
    assert ";; USE-DATA" in out


def test_explain_output(capsys):
    code, out, _ = run(capsys, "explain", str(corpus_path("loop")), "--arch", "armv7")
    assert code == 0
    assert "constraints:" in out and "weight=" in out and "plan (cost 65" in out


def test_explain_budget_exit_code(capsys):
    code, out, err = run(
        capsys, "explain", str(corpus_path("ringbuf")), "--arch", "armv8", "--budget-ms", "0"
    )
    assert code == 3
    assert "not proven optimal" in out and "budget exhausted" in err
    assert "Traceback" not in err


def test_explain_dump_problem(capsys):
    code, out, _ = run(
        capsys, "explain", str(corpus_path("mp")), "--arch", "armv7", "--dump-problem"
    )
    assert code == 0
    assert "assertions:" in out and "vcut" in out


@pytest.mark.parametrize("arch_name", ARCHES)
def test_explain_weighs_each_function_once(capsys, monkeypatch, arch_name):
    calls = []
    real = graph.weights_and_depths

    def counted(cfg, *args):
        calls.append(cfg.func.name)
        return real(cfg, *args)

    monkeypatch.setattr(graph, "weights_and_depths", counted)
    code, _, _ = run(capsys, "explain", str(corpus_path("mp")), "--arch", arch_name)
    assert code == 0
    assert sorted(calls) == sorted(f.name for f in ir.parse(corpus_path("mp").read_text()))


def test_oracle_agreement(capsys):
    code, out, _ = run(capsys, "oracle", str(corpus_path("overlap")), "--arch", "armv7")
    assert code == 0
    assert "MISMATCH" not in out


def test_compile_deterministic(capsys):
    for name in ("mp", "ringbuf"):
        for arch_name in ARCHES:
            runs = []
            for _ in range(2):
                code, out, _ = run(
                    capsys, "compile", str(corpus_path(name)), "--arch", arch_name
                )
                assert code == 0
                runs.append(out)
            assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["compile", "ARG", "--arch", "bogus"], "invalid choice: 'bogus'"),
        (["check", "ARG", "--arch", "armv7"], "required: plan"),
        (["compile"], "required: file"),
        ([], "required: cmd"),
    ],
)
def test_usage_errors_exit_input(capsys, argv, message):
    argv = [str(corpus_path("mp")) if a == "ARG" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: rmcfence") and message in err


@pytest.mark.parametrize(
    "cmd,option,value,low",
    [
        ("compile", "--max-paths", "-1", 1),
        ("check", "--max-paths", "0", 1),
        ("compile", "--budget-ms", "-1", 0),
        ("explain", "--budget-ms", "-5", 0),
        ("oracle", "--max-vars", "-1", 0),
        ("compile", "--loop-factor", "0", 1),
        ("oracle", "--loop-factor", "-3", 1),
        ("compile", "--max-paths", "many", 1),
        # ASCII decimal only, as IR literals: int() would read each of these
        ("compile", "--max-paths", "\u0663", 1),
        ("check", "--loop-factor", "1_0", 1),
        ("explain", "--budget-ms", "+5", 0),
        ("oracle", "--max-vars", " 5", 0),
    ],
)
def test_out_of_range_integer_options_are_usage_errors(capsys, cmd, option, value, low):
    argv = [cmd, str(corpus_path("mp")), *(["PLAN"] if cmd == "check" else []), option, value]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: rmcfence")
    assert f"argument {option}: expected an integer >= {low}, got '{value}'" in err


def test_lowest_integer_options_are_accepted(capsys):
    code, out, _ = run(capsys, "oracle", str(corpus_path("mp")), "--arch", "armv7",
                       "--max-vars", "0", "--max-paths", "1", "--loop-factor", "1")
    assert code == 0 and out.count("exhaustive=skipped") == 2


@pytest.mark.parametrize("argv", [["--help"], ["compile", "--help"]])
def test_help_exits_ok(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rmcfence")


def test_no_state_leaks_between_calls(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; options and cost files are not
    src = str(corpus_path("widget"))
    costs = tmp_path / "costs.txt"
    costs.write_text("dmb = 100\n")
    plain = run(capsys, "compile", src, "--arch", "armv7")
    flagged = run(
        capsys, "compile", src, "--arch", "armv7", "--no-data-deps", "--loop-factor", "2",
        "--costs", str(costs),
    )
    assert flagged[0] == 0 and flagged[1] != plain[1]
    assert run(capsys, "compile", src, "--arch", "armv7") == plain

    for cost in (200, 300):
        env_costs = tmp_path / f"env{cost}.txt"
        env_costs.write_text(f"dmb = {cost}\n")
        monkeypatch.setenv("RMCFENCE_COSTS", str(env_costs))
        code, out, _ = run(capsys, "compile", str(corpus_path("overlap")), "--arch", "armv7")
        (plan,) = json.loads(out)
        assert code == 0 and plan["cost"] == cost


DEP_FLAGS = {
    "default": [],
    "synth": ["--synth-deps"],
    "no-ctrl": ["--no-ctrl-deps"],
    "no-data": ["--no-data-deps"],
}


@pytest.mark.parametrize("flags", list(DEP_FLAGS), ids=list(DEP_FLAGS))
@pytest.mark.parametrize("arch_name", ["armv7", "armv8", "power"])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_compiled_plan_passes_check(tmp_path, capsys, name, arch_name, flags):
    src, dest = str(corpus_path(name)), tmp_path / "plan.json"
    extra = DEP_FLAGS[flags]
    code, _, err = run(capsys, "compile", src, "--arch", arch_name, "--out", str(dest), *extra)
    assert code == 0, err
    code, out, _ = run(capsys, "check", src, str(dest), "--arch", arch_name, *extra)
    assert (code, out.strip()) == (0, "OK")


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param([1], id="not-an-object"),
        pytest.param({"function": "send", "arch": "armv7", "cost": 0, "barriers": None,
                      "ctrl_uses": [], "data_uses": [], "modes": []}, id="null-barriers"),
    ],
)
def test_malformed_plan_file_is_an_input_error(tmp_path, capsys, doc):
    dest = tmp_path / "plan.json"
    dest.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(corpus_path("mp")), str(dest), "--arch", "armv7")
    assert code == cli.EXIT_INPUT and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def _bogus_ctrl_use(plan):
    # a copy of a ctrl use in a mode no encoder makes, at the cost that
    # `verify.plan_cost` gives it, so only the mode is wrong
    plan["ctrl_uses"].append(dict(plan["ctrl_uses"][0], mode="bogus"))
    plan["cost"] = 77


@pytest.mark.parametrize(
    "name, function, spoil, message",
    [
        pytest.param("mp", "recv", lambda p: p["barriers"][0].update(kind="bogus"),
                     "error: plan for recv: barriers[0] has kind 'bogus', which armv7 does not have\n",
                     id="unknown-kind"),
        pytest.param("mp", "recv", lambda p: p["barriers"][0].pop("src"),
                     "error: plan for recv: barriers[0] has no 'src'\n", id="missing-key"),
        pytest.param("mp", "recv",
                     lambda p: p["modes"].append({"mode": "acquire", "action": "a0"}),
                     "error: plan for recv: modes[0] has mode 'acquire', which armv7 does not have\n",
                     id="unknown-mode"),
        pytest.param("ringbuf", "buf_enqueue", _bogus_ctrl_use,
                     "error: plan for buf_enqueue: ctrl_uses[2] has mode 'bogus',"
                     " not 'existing' or 'synth'\n", id="unknown-ctrl-mode"),
    ],
)
def test_bad_plan_item_names_itself(tmp_path, capsys, name, function, spoil, message):
    src, dest = str(corpus_path(name)), tmp_path / "plan.json"
    run(capsys, "compile", src, "--arch", "armv7", "--out", str(dest))
    doc = json.loads(dest.read_text())
    (plan,) = [plan for plan in doc if plan["function"] == function]
    spoil(plan)
    dest.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", src, str(dest), "--arch", "armv7")
    assert (code, out, err) == (cli.EXIT_INPUT, "", message)


DUPLICATE_TARGETS = """\
func dup {
  edge vo w1 -> w2;
  block entry:
    %c = op cond()
    write @x 1 label w1
    br %c ? a : a
  block a:
    write @y 1 label w2
    ret
}
"""


def test_branch_to_one_block_twice_keeps_both_edges(tmp_path, capsys):
    # `br %c ? a : a` leaves two identical edges into its critical-edge
    # splitter, so the source has two out-edges and the barrier lands at
    # the splitter's start, not at the source's end
    src = tmp_path / "dup.rmcir"
    src.write_text(DUPLICATE_TARGETS)
    code, out, _ = run(capsys, "compile", str(src), "--arch", "armv7")
    assert code == 0
    assert json.loads(out) == [
        {
            "arch": "armv7",
            "barriers": [
                {"anchor": "crit.entry.s1.a", "dst": "crit.entry.s1.a", "kind": "dmb",
                 "position": "begin", "src": "entry.s1"}
            ],
            "cost": 65,
            "ctrl_uses": [],
            "data_uses": [],
            "function": "dup",
            "modes": [],
            "status": "optimal",
        }
    ]


def _add(key, item, cost):
    """A spoiler that adds `item` to a plan's `key` list and raises its cost
    by `cost`, what the item would cost if its function had it."""
    return lambda p: (p[key].append(item), p.update(cost=p["cost"] + cost))


@pytest.mark.parametrize(
    "name, function, spoil, lines",
    [
        pytest.param("mp", "recv",
                     lambda p: p["barriers"][0].update(anchor="entry", position="end"),
                     ["MISPLACED recv: dmb on loop->done is at entry end, belongs at done begin"],
                     id="anchor"),
        pytest.param("mp", "recv", lambda p: p.update(cost=1),
                     ["COST recv: plan states 1, its devices cost 65 at the prices check was"
                      " given (--costs/RMCFENCE_COSTS, --loop-factor); a plan compiled at"
                      " other prices differs too"], id="cost"),
        pytest.param("mp", "recv", lambda p: p["barriers"][0].update(src="done"),
                     ["NO EDGE recv: done->done"], id="no-edge"),
        pytest.param("mp", "recv",
                     _add("ctrl_uses",
                          {"source": "zz", "src": "loop", "dst": "done", "mode": "existing"}, 2),
                     ["NO ACTION recv: zz"], id="ctrl-source"),
        pytest.param("widget", "use_widget",
                     _add("data_uses", {"bind": "nowhere", "source": "zz", "target": "qq"}, 1),
                     ["NO ACTION use_widget: zz", "NO ACTION use_widget: qq",
                      "NO BLOCK use_widget: data use bound to nowhere"], id="data-use"),
    ],
)
def test_check_verifies_what_a_plan_claims(tmp_path, capsys, name, function, spoil, lines):
    # every constraint is still cut, so only the claim is wrong
    src, dest = str(corpus_path(name)), tmp_path / "plan.json"
    run(capsys, "compile", src, "--arch", "armv7", "--out", str(dest))
    doc = json.loads(dest.read_text())
    (plan,) = [plan for plan in doc if plan["function"] == function]
    spoil(plan)
    dest.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", src, str(dest), "--arch", "armv7")
    assert (code, out.splitlines()[: len(lines)], err) == (cli.EXIT_INVALID, lines, "")


def test_labelled_push_is_rejected(tmp_path, capsys):
    src = tmp_path / "push.rmcir"
    src.write_text(
        "func sb { edge vo wx -> P; edge xo P -> ry; block entry: write @x 1 label wx "
        "push label P %r = read @y label ry ret %r }"
    )
    code, out, err = run(capsys, "compile", str(src), "--arch", "power")
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "error: 1:89: labelled push (tag 'P') is not supported\n"


def test_xo_across_a_long_jump_chain(tmp_path, capsys):
    # every path walk must survive more blocks than Python's recursion limit
    n = 1200
    lines = ["func chain {", "edge xo r -> w;", "block b0:", "%v = read @x label r", "jmp b1"]
    for i in range(1, n):
        lines += [f"block b{i}:", f"jmp b{i + 1}"]
    lines += [f"block b{n}:", "write @y 1 label w", "ret", "}"]
    src, dest = tmp_path / "chain.rmcir", tmp_path / "plan.json"
    src.write_text("\n".join(lines))
    code, _, err = run(capsys, "compile", str(src), "--arch", "armv7", "--out", str(dest))
    assert code == 0, err
    code, out, _ = run(capsys, "check", str(src), str(dest), "--arch", "armv7")
    assert (code, out) == (0, "OK\n")


def test_cost_priced_at_other_prices_names_the_prices(tmp_path, capsys):
    src, dest = str(corpus_path("ringbuf")), tmp_path / "plan.json"
    costs = tmp_path / "costs.txt"
    costs.write_text("dmb = 90\n")
    code, _, _ = run(capsys, "compile", src, "--arch", "armv7", "--costs", str(costs),
                     "--out", str(dest))
    assert code == 0
    code, out, _ = run(capsys, "check", src, str(dest), "--arch", "armv7", "--costs", str(costs))
    assert (code, out) == (0, "OK\n")
    code, out, _ = run(capsys, "check", src, str(dest), "--arch", "armv7")
    (line,) = [v for v in out.splitlines() if v.startswith("COST buf_dequeue")]
    assert code == cli.EXIT_INVALID
    assert line.startswith("COST buf_dequeue: plan states 180, its devices cost 130 ")
    assert "--costs" in line and "--loop-factor" in line


def test_xo_data_use_through_a_long_op_chain(tmp_path, capsys):
    # the checker's dependence walk must survive more values than Python's
    # recursion limit; the dmb on the wrap-around edge orders r with itself
    n = 1200
    lines = ["func chain {", "edge xo r -> t;", "block b0:", "%v0 = read @x label r"]
    lines += [f"%v{i} = op f(%v{i - 1})" for i in range(1, n + 1)]
    lines += [f"%d = read *%v{n} label t", "ret %d", "}"]
    src, dest = tmp_path / "ops.rmcir", tmp_path / "plan.json"
    src.write_text("\n".join(lines))
    dest.write_text(json.dumps([{
        "arch": "armv7", "cost": 66, "function": "chain", "status": "optimal",
        "barriers": [{"anchor": "b0.s3", "dst": "b0", "kind": "dmb", "position": "end",
                      "src": "b0.s3"}],
        "ctrl_uses": [], "data_uses": [{"bind": "-", "source": "a0", "target": "a1"}],
        "modes": [],
    }]))
    code, out, err = run(capsys, "check", str(src), str(dest), "--arch", "armv7")
    assert (code, out, err) == (0, "OK\n", "")


# -- --out writes the file in place --


@pytest.mark.parametrize("fmt", ["json", "annotated"])
def test_out_over_a_longer_file_holds_exactly_stdout(tmp_path, capsys, fmt):
    # without the truncate, the old file's tail would survive
    src, dest = str(corpus_path("widget")), tmp_path / "plan.out"
    dest.write_bytes(b"x" * 100_000)
    code, out, _ = run(capsys, "compile", src, "--arch", "armv7", "--format", fmt)
    assert code == 0
    code, _, _ = run(capsys, "compile", src, "--arch", "armv7", "--format", fmt,
                     "--out", str(dest))
    assert code == 0 and dest.read_bytes() == out.encode("utf-8")


def test_out_to_dev_null(capsys):
    # /dev/null cannot be truncated (EINVAL); only regular files are
    code, out, err = run(
        capsys, "compile", str(corpus_path("mp")), "--arch", "armv7", "--out", os.devnull
    )
    assert (code, out, err) == (0, "", "")


def test_out_creates_a_file_with_the_mode_open_gives(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        ref = tmp_path / "ref.json"
        with open(ref, "w"):
            pass
        dest = tmp_path / "plan.json"
        code, _, _ = run(
            capsys, "compile", str(corpus_path("mp")), "--arch", "armv7", "--out", str(dest)
        )
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(dest.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode) == 0o640


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_out_that_cannot_be_written_is_an_input_error(tmp_path, capsys, where):
    dest = tmp_path if where == "directory" else tmp_path / "missing" / "plan.json"
    code, out, err = run(
        capsys, "compile", str(corpus_path("mp")), "--arch", "armv7", "--out", str(dest)
    )
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# -- exit codes: bad input 1, a fault of rmcfence 5 --


@pytest.mark.parametrize("which", ["source", "costs", "plan"])
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, which):
    src, dest = tmp_path / "mp.rmcir", tmp_path / "plan.json"
    src.write_bytes(corpus_path("mp").read_bytes())
    run(capsys, "compile", str(src), "--arch", "armv7", "--out", str(dest))
    costs = tmp_path / "costs.txt"
    costs.write_text("dmb = 65\n")
    {"source": src, "costs": costs, "plan": dest}[which].write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run(capsys, "check", str(src), str(dest), "--arch", "armv7",
                         "--costs", str(costs))
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1


BAD_STATUS = ''''status' is not "optimal" or "incumbent"'''


@pytest.mark.parametrize(
    "spoil, message",
    [
        pytest.param(lambda p: p.update(cost="65"), "'cost' is not an integer", id="cost-string"),
        pytest.param(lambda p: p.update(function=["recv"]), "'function' is not a string",
                     id="function-list"),
        pytest.param(lambda p: p["barriers"][0].update(kind=["dmb"]), "'kind' is not a string",
                     id="kind-list"),
        pytest.param(lambda p: p.update(status=5), BAD_STATUS, id="status-int"),
        pytest.param(lambda p: p.update(status="best"), BAD_STATUS, id="status-other"),
    ],
)
def test_plan_field_of_the_wrong_type_is_an_input_error(tmp_path, capsys, spoil, message):
    src, dest = str(corpus_path("mp")), tmp_path / "plan.json"
    run(capsys, "compile", src, "--arch", "armv7", "--out", str(dest))
    doc = json.loads(dest.read_text())
    (recv,) = [plan for plan in doc if plan["function"] == "recv"]
    spoil(recv)
    dest.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", src, str(dest), "--arch", "armv7")
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_two_plans_for_one_function_are_an_input_error(tmp_path, capsys):
    # a gutted copy of each plan ahead of the real one must not pass as
    # the real one
    src, dest = str(corpus_path("mp")), tmp_path / "plan.json"
    run(capsys, "compile", src, "--arch", "armv7", "--out", str(dest))
    doc = json.loads(dest.read_text())
    gutted = [{**plan, "barriers": [], "modes": []} for plan in doc]
    dest.write_text(json.dumps(gutted + doc))
    code, out, err = run(capsys, "check", src, str(dest), "--arch", "armv7")
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == (f"error: plan {len(doc)} in the plan file: function"
                   f" {doc[0]['function']!r} already has plan 0\n")


def test_plan_for_a_function_the_source_lacks_is_a_violation(tmp_path, capsys):
    src, dest = str(corpus_path("mp")), tmp_path / "plan.json"
    run(capsys, "compile", src, "--arch", "armv7", "--out", str(dest))
    doc = json.loads(dest.read_text())
    doc.insert(1, {**doc[0], "function": "ghost"})
    dest.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", src, str(dest), "--arch", "armv7")
    assert (code, out) == (cli.EXIT_INVALID,
                           "plan for function ghost, which the source does not define\n")


def test_internal_key_error_exits_internal(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("b0.s1")

    monkeypatch.setattr(encode, "build", broken)
    code, out, err = run(capsys, "compile", str(corpus_path("mp")), "--arch", "armv7")
    assert (code, out, err) == (cli.EXIT_INTERNAL, "", "internal error: KeyError: 'b0.s1'\n")


def test_unsatisfiable_encoding_exits_internal(capsys, monkeypatch):
    build = encode.build

    def broken(*args, **kwargs):
        problem = build(*args, **kwargs)
        problem.asserts.append(("broken", encode.FALSE))
        return problem

    monkeypatch.setattr(encode, "build", broken)
    code, out, err = run(capsys, "compile", str(corpus_path("mp")), "--arch", "armv7")
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err.startswith("internal error: Unsatisfiable: ") and err.count("\n") == 1


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Sets and dicts keyed by strings iterate in an order that the hash
    # seed decides; nothing printed may follow it.
    walk = tmp_path / "walk2.rmcir"
    walk.write_text(walk_source(2))
    runs = [
        [cmd, str(path), "--arch", "armv8", *extra]
        for path in (corpus_path("ringbuf"), corpus_path("widget"), walk)
        for cmd, extra in (("compile", []), ("explain", ["--dump-problem"]))
    ]
    script = (
        "import json, sys\n"
        "from rmcfence import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print('exit', cli.main(argv))\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("exit 0\n") == len(runs)
    # one problem dump per function: ringbuf and widget hold two each
    assert outs[0].count("  definitions:\n") == 5


DISPATCH_ARGVS = [
    ["compile", "f.ir"],
    ["check", "f.ir", "p.json", "--arch", "x86"],
    ["explain", "f.ir", "--dump-problem", "--synth-deps"],
    ["oracle", "f.ir", "--max-vars", "3"],
    ["compile", "f.ir", "--arch=power", "--budget-ms=5", "--out=o.json"],
    ["compile", "f.ir", "--ar", "armv7", "--for", "annotated", "--no-d"],
    ["compile", "f.ir", "--no"],  # ambiguous abbreviation
    ["compile", "--", "f.ir"],
    ["compile", "f.ir", "--", "--arch"],
    ["compile", "f.ir", "--bogus"],
    ["compile", "--bogus", "f.ir", "x"],
    ["compile", "f.ir", "g.ir"],
    ["oracle", "a", "b", "c"],
    ["compile"],
    ["compile", "f.ir", "--arch", "sparc"],
    ["compile", "f.ir", "--max-paths", "-1"],
    ["check", "f.ir", "--costs"],
    ["-h"],
    ["--help"],
    ["-h", "compile"],
    ["compile", "-h"],
    ["check", "f.ir", "-h"],
    ["explain", "f.ir", "--arch", "x86", "--he"],
    ["oracle", "--bogus", "-h"],
    [],
    ["bogus"],
    ["bogus", "f.ir"],
    ["Compile", "f.ir"],
    ["--arch", "x86", "compile", "f.ir"],
]


def _parse_outcome(parse, argv, capsys):
    """The fields of the namespace `parse(argv)` returns, or its exit
    code, stdout and stderr."""
    try:
        return vars(parse(list(argv)))
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
def test_argv_dispatch_equals_full_parser(argv, capsys):
    got = _parse_outcome(cli.parse_args, argv, capsys)
    assert got == _parse_outcome(cli.build_parser().parse_args, argv, capsys)


def test_dispatch_covers_every_command():
    assert sorted(cli.COMMANDS) == sorted({a[0] for a in DISPATCH_ARGVS[:4]})


if HAVE_HYPOTHESIS:
    _OPTIONS = {o.flag: o for _, _, options in cli.COMMANDS.values() for o in options}
    _WORDS = ("f.ir", "p.json", "compile", "x86", "7", "", "a=b", "\u0663")  # no leading -

    def _valid_values(o):
        if o.choices is not None:
            return st.sampled_from(o.choices)
        if o.at_least is not None:
            return st.sampled_from(("1", "2", "16", "40"))
        return st.sampled_from(_WORDS)

    def _any_values(o):
        """Mostly valid values of option `o`, and some that are not."""
        if o.choices is not None:
            return st.sampled_from((*o.choices, "sparc", "JSON", ""))
        if o.at_least is not None:
            return st.sampled_from(("0", "1", "2", "16", "-1", "-3", "\u0663", "1_0", "+5", " 5",
                                    "5 ", "x"))
        return st.sampled_from(_WORDS)

    @st.composite
    def _option_args(draw, options, values):
        o = draw(st.sampled_from(options))
        if not o.takes_value:
            return [o.flag]
        value = draw(values(o))
        return [f"{o.flag}={value}"] if draw(st.booleans()) else [o.flag, value]

    @st.composite
    def plain_argvs(draw):
        """A command, its positionals and any of its options with valid
        values, each once or more, in any order: what `cli._read_plain`
        reads."""
        name = draw(st.sampled_from(sorted(cli.COMMANDS)))
        _, positionals, options = cli.COMMANDS[name]
        picks = draw(st.lists(_option_args(options, _valid_values), max_size=6))
        picks += [[draw(st.sampled_from(_WORDS))] for _ in positionals]
        return [name, *(a for pick in draw(st.permutations(picks)) for a in pick)]

    # The pieces of any argv: options of every command, their `=` forms
    # and abbreviations (some of them ambiguous), -h, --, negative
    # numbers, other scripts' digits and junk.
    _PIECES = st.one_of(
        _option_args(list(_OPTIONS.values()), _any_values),
        st.sampled_from([[f[:k]] for f in _OPTIONS for k in range(3, len(f))]),
        st.sampled_from([[f[:k] + "=x86"] for f in _OPTIONS for k in range(3, len(f) + 1)]),
        st.sampled_from([["-h"], ["--help"], ["--"], ["-"], ["-1"], ["-x"], ["--bogus"]]),
        st.sampled_from(_WORDS).map(lambda w: [w]),
        st.text(max_size=4).map(lambda w: [w]),
    )

    @st.composite
    def noisy_argvs(draw):
        head = draw(st.sampled_from((*sorted(cli.COMMANDS), "bogus", "-h", "--arch")))
        rest = draw(st.lists(_PIECES, max_size=6))
        return [head, *(a for piece in rest for a in piece)][:draw(st.integers(0, 14))]

    @given(st.one_of(plain_argvs(), noisy_argvs(), st.sampled_from(DISPATCH_ARGVS)))
    @settings(max_examples=600, deadline=None)
    def test_plain_argv_reading_equals_the_full_parser(argv):
        def outcome(parse):
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return vars(parse(list(argv)))
            except SystemExit as exc:
                return (exc.code, out.getvalue(), err.getvalue())

        assert outcome(cli.parse_args) == outcome(cli.build_parser().parse_args)

    @given(plain_argvs())
    @settings(max_examples=200, deadline=None)
    def test_plain_argvs_are_read_without_argparse(argv):
        assert cli._read_plain(argv) is not None
