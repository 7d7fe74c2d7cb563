"""One class form per kind: a lexicographic history's classes are compared as
column runs, never as masks, and an explicit order's masks come from the one
walk over its pairs that validates it.

The pickles and documents read here must not depend on string hashing, so
this file also runs under a second hash seed.
"""

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import doxastic as dx
from doxastic import orders
from doxastic.cli import load_document, serialize

from conftest import alphabet_of, random_explicit_order, random_lex_order
from test_class_decode import bare_document
from test_class_runs import lex_histories
from test_explicit_once import CountedPairs

SRC = Path(__file__).resolve().parent.parent / "src"


def translations(order: dx.LexOrder) -> list:
    """The history and its translations to every other kind."""
    level = dx.lex_to_level(order, prune=True)
    return [
        order,
        level,
        dx.lex_to_level(order),
        dx.level_to_natural(level),
        dx.to_explicit(order),
    ]


def refusing_lexicographic(monkeypatch) -> None:
    """Make `orders.ranked_masks` raise on a lexicographic history."""
    original = orders.ranked_masks

    def ranked_masks(order):
        if isinstance(order, dx.LexOrder):
            raise AssertionError("a lexicographic history's classes were built as masks")
        return original(order)

    monkeypatch.setattr(orders, "ranked_masks", ranked_masks)


def test_equivalent_builds_no_mask_for_a_lexicographic_history(monkeypatch):
    groups = {}
    for order in lex_histories(random.Random(121)):
        groups.setdefault(order.alphabet, []).extend(translations(order))
    refusing_lexicographic(monkeypatch)
    answers = {True: 0, False: 0}
    for group in groups.values():
        partitions = [dx.classes_of(order) for order in group]
        for first, first_classes in zip(group, partitions):
            for second, second_classes in zip(group, partitions):
                answer = dx.equivalent(first, second)
                assert answer == (first_classes == second_classes), (first, second)
                answers[answer] += 1
    assert min(answers.values()) > 1000  # both answers are well represented


def test_an_explicit_document_is_walked_once_by_its_load():
    rng = random.Random(122)
    documents = [
        serialize(random_explicit_order(rng, alphabet_of(width), max_rank=width))
        for width in range(1, 6)  # an explicit order over no variables has no document
    ]
    documents += [serialize(dx.to_explicit(random_lex_order(rng, alphabet_of(4))))]
    for text in documents:
        order = load_document(text)
        order.pairs = CountedPairs(order.pairs)
        CountedPairs.walks = 0
        classes = dx.classes_of(order)
        level = dx.explicit_to_level(order)
        explicit = dx.to_explicit(order)
        assert dx.equivalent(order, level) and dx.equivalent(explicit, order)
        assert dx.classes_of(level) == classes
        assert CountedPairs.walks == 0


def test_equal_sizes_with_different_classes_are_not_equivalent():
    alphabet = alphabet_of(3)
    a, b, c = (dx.Var(name) for name in alphabet.vars)
    pairs = [
        (dx.LexOrder(alphabet, (a,)), dx.LexOrder(alphabet, (b,))),
        (dx.LexOrder(alphabet, (a, b, c)), dx.LexOrder(alphabet, (c, b, a))),
        (dx.LexOrder(alphabet, (a, b)), dx.LexOrder(alphabet, (dx.Not(a), b))),
    ]
    for lex, other in pairs:
        sizes = [len(cls) for cls in dx.classes_of(lex).classes]
        level = dx.lex_to_level(other, prune=True)
        for second in (other, level, dx.LevelOrder(alphabet, level.levels), dx.to_explicit(other)):
            assert [len(cls) for cls in dx.classes_of(second).classes] == sizes
            assert not dx.equivalent(lex, second), (lex, second)
            assert not dx.equivalent(second, lex), (second, lex)


def test_18_variables_are_compared_within_1_gib(tmp_path):
    # 2^18 one-model classes on each side, compared as runs of positions.
    path = tmp_path / "bare18.ord"
    path.write_text(bare_document(18))

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-m", "doxastic.cli", "equiv", str(path), str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=limited,
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "equivalent\n", "")
