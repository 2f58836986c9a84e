"""Golden corpus plans: `rmcfence compile` JSON for every corpus file on
every architecture must stay byte-identical to `corpus_plans.json`.

The fixture maps "<file stem> <arch>" to the compile output. A change
that means to alter a plan (a documented correctness fix) regenerates
the entry and says why.
"""

import json
import pathlib

import pytest

from rmcfence import cli
from conftest import ARCHES, CORPUS_NAMES, corpus_path

GOLDEN = json.loads((pathlib.Path(__file__).parent / "corpus_plans.json").read_text())


def test_golden_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(f"{n} {a}" for n in CORPUS_NAMES for a in ARCHES)


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("arch_name", ARCHES)
def test_corpus_plan_unchanged(capsys, name, arch_name):
    code = cli.main(["compile", str(corpus_path(name)), "--arch", arch_name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN[f"{name} {arch_name}"]


def test_compile_writes_json_without_the_pure_python_encoder(capsys, monkeypatch):
    """`json.dumps(indent=...)` would build its encoder with
    `_make_iterencode`; `compile` writes the same bytes without it."""

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for name in CORPUS_NAMES:
        for arch_name in ARCHES:
            code = cli.main(["compile", str(corpus_path(name)), "--arch", arch_name])
            assert (code, capsys.readouterr().out) == (0, GOLDEN[f"{name} {arch_name}"])
