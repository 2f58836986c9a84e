"""Golden CLI outputs over the corpus.

For every corpus file on every architecture, `corpus_outputs.json` holds
a SHA-256 digest of the exit code and standard output of:

- `compile` under the default flags, `--synth-deps`, `--no-ctrl-deps`
  and `--no-data-deps`;
- `explain --dump-problem` under the same four;
- `check` of each of those compiled plans, under the flags it was
  compiled with;
- `oracle` at the default flags.

`test_corpus_plans.py` keeps the default compile output in full; this
file pins the rest, so a change to the solver's node counts, the
problem dump, the checker or the oracle shows here.

Rewrite the file only when a change to these outputs is meant:

    PYTHONPATH=src python tests/test_corpus_outputs.py --write

which prints the "<file> <command> <flags> <arch>" of every digest that
moved.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from rmcfence import cli
from conftest import ARCHES, CORPUS_NAMES, corpus_path

GOLDEN = pathlib.Path(__file__).resolve().parent / "corpus_outputs.json"
FLAGS = ((), ("--synth-deps",), ("--no-ctrl-deps",), ("--no-data-deps",))


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()


def outputs(name):
    """{"<command> <flags> <arch>": digest} for one corpus file."""
    src = corpus_path(name)
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        plan = pathlib.Path(tmp) / "plan.json"
        for arch_name in ARCHES:
            for flags in FLAGS:
                common = (src, "--arch", arch_name, *flags)
                tag = " ".join(("default",) if not flags else flags)
                code, out = _run("compile", *common)
                got[f"compile {tag} {arch_name}"] = _digest(code, out)
                plan.write_text(out)
                got[f"check {tag} {arch_name}"] = _digest(*_run("check", *common, plan))
                got[f"explain {tag} {arch_name}"] = _digest(
                    *_run("explain", *common, "--dump-problem"))
            got[f"oracle default {arch_name}"] = _digest(*_run("oracle", src, "--arch", arch_name))
    return got


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus():
    assert sorted(_golden()) == CORPUS_NAMES
    assert all(len(v) == len(ARCHES) * (3 * len(FLAGS) + 1) for v in _golden().values())


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_outputs_equal_golden(name):
    want = _golden()[name]
    got = outputs(name)
    wrong = sorted(k for k in want if got.get(k) != want[k])
    assert not wrong and sorted(got) == sorted(want), wrong


def moved(old, new):
    """The "<file> <key>" of every digest that differs between two
    recordings, those only one of them has included, sorted."""
    return sorted(f"{name} {key}" for name in old.keys() | new.keys()
                  for key in old.get(name, {}).keys() | new.get(name, {}).keys()
                  if old.get(name, {}).get(key) != new.get(name, {}).get(key))


def test_moved_lists_changed_added_and_removed_digests():
    old = {"mp": {"compile default x86": "a", "check default x86": "b"}, "sb": {"k": "c"}}
    assert moved(old, old) == []
    new = {"mp": {"compile default x86": "a", "check default x86": "z", "oracle x": "d"}}
    assert moved(old, new) == ["mp check default x86", "mp oracle x", "sb k"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus_outputs.py --write")
    before = _golden()
    recs = {name: outputs(name) for name in CORPUS_NAMES}
    GOLDEN.write_text(json.dumps(recs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, recs.values()))} digests to {GOLDEN}")
    print("\n".join(moved(before, recs)) or "no digest moved")
