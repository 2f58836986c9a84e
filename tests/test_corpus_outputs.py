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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus_outputs.py --write")
    recs = {name: outputs(name) for name in CORPUS_NAMES}
    GOLDEN.write_text(json.dumps(recs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, recs.values()))} digests to {GOLDEN}")
