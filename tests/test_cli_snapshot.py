"""CLI output over the `tests/data` corpus, byte for byte against a record.

`cli_snapshot.json` holds the stdout, stderr and exit code of a fixed set of
invocations per document: `check`, `classes`, `translate` to every kind with
and without `--prune`, `revise` by a few formulas with both operators, `leq`
on fixed model pairs, and `equiv` on every pair of documents over the same
variables.  Rewrite the record only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_snapshot.py > tests/cli_snapshot.json
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from doxastic.cli import KINDS, load_order, main

HERE = Path(__file__).parent
DATA = HERE / "data"
RECORD = HERE / "cli_snapshot.json"
CORPUS = sorted(p.name for p in DATA.glob("*.ord"))


def invocations(name: str) -> list[list[str]]:
    """The argument lists recorded for one document; document names stand
    for their paths, and `equiv` pairs a document with those after it."""
    alphabet = load_order(DATA / name, validate=False).alphabet
    first, last, width = alphabet.vars[0], alphabet.vars[-1], len(alphabet)
    argvs = [["check", name], ["classes", name]]
    for target in KINDS:
        argvs += [["translate", "--to", target, name], ["translate", "--to", target, "--prune", name]]
    for formula in (first, f"!{first} | {last}", "false", "undeclared"):
        for op in (["natural"], ["lex"], ["lex", "--prune"]):
            argvs.append(["revise", "--op", *op, "--formula", formula, name])
    models = sorted({format(p, f"0{width}b") for p in (0, 1, (1 << width) - 1)})
    argvs += [["leq", name, i, j] for i in models for j in models]
    argvs.append(["leq", name, models[0] + "0", models[0]])
    for other in CORPUS[CORPUS.index(name) :]:
        if load_order(DATA / other, validate=False).alphabet.vars == alphabet.vars:
            argvs.append(["equiv", name, other])
    return argvs


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(DATA / a) if a in CORPUS else a for a in argv])
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> dict[str, list[dict]]:
    return {name: [run(argv) for argv in invocations(name)] for name in CORPUS}


@pytest.fixture(scope="module")
def recorded() -> dict[str, list[dict]]:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_the_record_covers_the_corpus(recorded):
    assert sorted(recorded) == CORPUS
    for name in CORPUS:
        assert [entry["argv"] for entry in recorded[name]] == invocations(name)


@pytest.mark.parametrize("name", CORPUS)
def test_output_matches_the_record(recorded, name):
    for entry in recorded[name]:
        assert run(entry["argv"]) == entry


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")
