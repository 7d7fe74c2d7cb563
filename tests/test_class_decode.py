"""Classes decoded in one place (`orders._class_runs`): `to_explicit` of a
lexicographic history builds no mask, and counts its pairs from the class
sizes before any position or model exists."""

import os
import pickle
import random
import resource
import subprocess
import sys
import textwrap
from itertools import chain
from pathlib import Path

import doxastic as dx
from doxastic import orders

from test_class_runs import PROTOCOLS, decoded_from_masks, lex_histories

SRC = Path(__file__).resolve().parent.parent / "src"


def pairs_from_masks(order) -> dx.ExplicitOrder:
    """The explicit order as the masks' decode gives it (`decoded_from_masks`):
    each class's models paired with those of its class and every later one,
    class by class."""
    classes = decoded_from_masks(order).classes
    pairs = frozenset(
        (i, j) for k, cls in enumerate(classes) for i in cls for j in chain(*classes[k:])
    )
    return dx.ExplicitOrder(order.alphabet, pairs)


def bare_document(n: int) -> str:
    names = [f"x{k}" for k in range(n)]
    lines = ["doxastic v1", "kind: lexicographic", "vars: " + " ".join(names)]
    return "\n".join(lines + [f"formula: {name}" for name in names]) + "\n"


def test_lexicographic_pairs_are_built_without_a_mask(monkeypatch):
    histories = list(lex_histories(random.Random(47)))
    expected = [pairs_from_masks(order) for order in histories]

    def refused(*args):
        raise AssertionError("a lexicographic class was built as a mask")

    monkeypatch.setattr(orders, "ranked_masks", refused)
    for order, reference in zip(histories, expected):
        explicit = dx.to_explicit(order)
        assert explicit == reference, order.history
        for protocol in PROTOCOLS:
            assert pickle.dumps(explicit, protocol) == pickle.dumps(reference, protocol)


def test_18_variables_are_refused_within_1_gib(tmp_path):
    # 2^18 one-model classes: listed as masks, they take some 4 GiB.
    path = tmp_path / "bare18.ord"
    path.write_text(bare_document(18))

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-m", "doxastic.cli", "translate", "--to", "explicit", str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=limited,
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: translation needs 34359869440 pairs, over the cap of 1048576\n"


def test_16_variables_are_refused_under_64_mb(tmp_path):
    # The child reports its own peak, as in test_lex_columns.
    path = tmp_path / "bare16.ord"
    path.write_text(bare_document(16))
    script = textwrap.dedent(
        f"""
        import contextlib, io, resource, sys
        from doxastic.cli import main
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["translate", "--to", "explicit", {str(path)!r}])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(code, peak // 1024 if sys.platform != "darwin" else peak // 2**20)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    code, peak = map(int, done.stdout.split())
    assert code == 3
    assert peak < 64, f"peak RSS {peak} MB"
