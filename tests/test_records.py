"""Formula nodes and records against a record of how they printed, compared,
hashed and pickled when they were generated classes.

`records_snapshot.json` holds, for a fixed set of samples (formulas, every
order kind built publicly, by `_trusted` and by translation or revision,
and the other records): each sample's `repr`, the pairs of samples that
compare equal, the pairs with equal hashes, and pickles of the formulas,
alphabets and orders at protocols 0, 2 and 4.  Rewrite the record only for
an intended change of behaviour:

    PYTHONPATH=src python tests/test_records.py > tests/records_snapshot.json
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import doxastic as dx
from doxastic.cli import load_document
from doxastic.orders import _trusted

RECORD = Path(__file__).parent / "records_snapshot.json"
PROTOCOLS = (0, 2, 4)
PICKLED = ("formula", "alphabet", "order")  # the sample kinds whose pickles are kept
FIELDS = {
    dx.Alphabet: ("vars", "cap"),
    dx.ExplicitOrder: ("alphabet", "pairs"),
    dx.LevelOrder: ("alphabet", "levels", "normalized"),
    dx.LexOrder: ("alphabet", "history"),
    dx.NaturalOrder: ("alphabet", "history"),
    dx.ClassPartition: ("alphabet", "classes"),
    dx.Violation: ("kind", "models"),
    dx.SizeReport: ("kind", "formulas", "nodes", "classes"),
    dx.BlowupRow: ("n", "lex_size", "classes", "level_len", "millis"),
}


def samples() -> dict[str, object]:
    """Sample name, prefixed by its kind, to a freshly built sample."""
    ab, abc = dx.Alphabet(("a", "b")), dx.Alphabet(vars=["a", "b", "c"], cap=5)
    a, b = dx.Var("a"), dx.Var(name="b")
    parsed = dx.parse("a & !b -> (c <-> true) | false", abc)
    formulas = {
        "var": a,
        "var_keyword": b,
        "true": dx.TRUE,
        "false": dx.FalseConst(),
        "not": dx.Not(a),
        "and": dx.And(a, b),
        "and_keyword": dx.And(left=dx.Var("a"), right=dx.Var("b")),
        "or": dx.Or(a, dx.Not(b)),
        "implies": dx.Implies(a, b),
        "iff": dx.Iff(dx.Not(a), b),
        "parsed": parsed,
        "shared": dx.And(parsed, dx.Or(parsed, dx.Not(parsed))),
    }
    level = dx.LevelOrder(ab, (dx.And(a, b), a, dx.Not(b)))
    lex = dx.LexOrder(ab, (a, dx.Or(a, b)))
    natural = dx.NaturalOrder(alphabet=ab, history=(b, dx.Not(a)))
    models = ab.models()
    ranks = {m: m.position % 2 for m in models}
    explicit = dx.ExplicitOrder(
        ab, frozenset((i, j) for i in models for j in models if ranks[i] <= ranks[j])
    )
    broken = dx.ExplicitOrder(ab, frozenset({(models[0], models[1]), (models[1], models[2])}))
    lex._bitmaps, natural._promotion  # memos that pickles may carry
    orders = {
        "level": level,
        "level_normalized": dx.LevelOrder(ab, (a, dx.Not(a)), normalized=True),
        "level_keyword": dx.LevelOrder(alphabet=ab, levels=[dx.And(a, b), a, dx.Not(b)]),
        "lex": lex,
        "natural": natural,
        "explicit": explicit,
        "explicit_broken": broken,
        "trusted_level": _trusted(dx.LevelOrder, ab, level.levels),
        "trusted_normalized": _trusted(dx.LevelOrder, ab, (a, dx.Not(a)), normalized=True),
        "trusted_lex": _trusted(dx.LexOrder, ab, lex.history),
        "trusted_natural": _trusted(dx.NaturalOrder, ab, natural.history),
        "loaded_level": load_document("doxastic v1\nkind: level\nvars: a b\nformula: a & b\n"),
        "lex_to_level": dx.lex_to_level(lex),
        "natural_to_level": dx.natural_to_level(natural),
        "normalized": dx.normalize_level(level),
        "level_to_lex": dx.level_to_lex(dx.normalize_level(level)),
        "level_to_natural": dx.level_to_natural(dx.normalize_level(level)),
        "to_explicit": dx.to_explicit(lex),
        "explicit_to_level": dx.explicit_to_level(explicit),
        "revised_lex": dx.revise_lex_history(lex, b),
        "revised_natural": dx.revise_natural_history(natural, a),
        "revised_level_natural": dx.revise_level_naturally(dx.normalize_level(level), b),
        "revised_level_lex": dx.revise_level_lexicographically(dx.normalize_level(level), b),
    }
    others = {
        "partition_lex": dx.classes_of(lex),
        "partition_level": dx.classes_of(level),
        "partition_explicit": dx.classes_of(explicit),
        "violation_found": dx.validate_explicit(broken)[0],
        "violation": dx.Violation("reflexivity", (models[3],)),
        "size_lex": dx.size_report(lex),
        "size_keyword": dx.SizeReport(kind="lexicographic", formulas=2, nodes=4, classes=4),
        "blowup_row": dx.BlowupRow(2, 3, 4, 4, 0.5),
        "blowup_keyword": dx.BlowupRow(n=2, lex_size=3, classes=4, level_len=4, millis=0.5),
    }
    alphabets = {"ab": ab, "abc": abc, "ab_again": dx.Alphabet(["a", "b"])}
    groups = {"formula": formulas, "alphabet": alphabets, "order": orders, "other": others}
    return {f"{kind}:{name}": value for kind, group in groups.items() for name, value in group.items()}


def record() -> dict:
    built = samples()
    names = list(built)
    pairs = [(x, y) for k, x in enumerate(names) for y in names[k + 1 :]]
    pickles = {
        name: {
            str(protocol): base64.b64encode(pickle.dumps(value, protocol=protocol)).decode()
            for protocol in PROTOCOLS
        }
        for name, value in built.items()
        if name.split(":")[0] in PICKLED
    }
    return {
        "repr": {name: repr(value) for name, value in built.items()},
        "equal": [[x, y] for x, y in pairs if built[x] == built[y]],
        "equal_hash": [[x, y] for x, y in pairs if hash(built[x]) == hash(built[y])],
        "pickles": pickles,
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current() -> dict:
    return record()


def test_every_sample_prints_as_recorded(recorded, current):
    assert current["repr"] == recorded["repr"]


def test_the_same_samples_compare_equal(recorded, current):
    assert current["equal"] == recorded["equal"]


def test_equal_samples_hash_alike_and_the_same_others_collide(recorded, current):
    # A lexicographic and a natural history with the same members hash alike.
    assert current["equal_hash"] == recorded["equal_hash"]
    assert {tuple(pair) for pair in current["equal"]} <= {tuple(pair) for pair in current["equal_hash"]}


@pytest.mark.parametrize("name", [n for n in samples() if not n.startswith("formula:")])
def test_a_record_hashes_as_the_tuple_of_its_fields(name):
    value = samples()[name]
    assert hash(value) == hash(tuple(getattr(value, field) for field in FIELDS[type(value)]))


@pytest.mark.parametrize("name", [n for n in samples() if n.split(":")[0] in PICKLED])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_earlier_pickles_load_to_equal_values(recorded, name, protocol):
    expected = samples()[name]
    loaded = pickle.loads(base64.b64decode(recorded["pickles"][name][str(protocol)]))
    assert type(loaded) is type(expected)
    assert loaded == expected and hash(loaded) == hash(expected)
    assert repr(loaded) == repr(expected)
    assert pickle.loads(pickle.dumps(loaded, protocol=protocol)) == expected


@pytest.mark.parametrize("name", [n for n in samples() if n.split(":")[0] in PICKLED])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_pickles_are_written_as_before(recorded, name, protocol):
    written = base64.b64encode(pickle.dumps(samples()[name], protocol=protocol)).decode()
    assert written == recorded["pickles"][name][str(protocol)]


@pytest.mark.parametrize("name", [n for n in samples() if not n.startswith("formula:")])
def test_records_refuse_comparison_with_other_types(name):
    value = samples()[name]
    assert value.__eq__(object()) is NotImplemented
    assert value != dx.TRUE and dx.TRUE != value


def test_importing_the_cli_loads_none_of_the_costly_standard_modules():
    # Without `site`, whose start-up imports differ from host to host.
    costly = {"dataclasses", "inspect", "json", "pathlib", "typing"}
    code = (
        "import sys; before = set(sys.modules); import doxastic.cli; "
        f"print(sorted({costly!r} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
