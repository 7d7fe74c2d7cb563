"""Lexicographic classes and the pruned unfolding, read from per-model columns."""

import os
import pickle
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import doxastic as dx
from doxastic.formula import _fold, dag_node_count
from doxastic.orders import _class_runs, _lex_columns

from conftest import (
    alphabet_of,
    random_explicit_order,
    random_formula,
    random_level_order,
    random_lex_order,
    random_natural_order,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def bare_history(n: int) -> dx.LexOrder:
    alphabet = dx.Alphabet(tuple(f"x{k}" for k in range(n)))
    return dx.LexOrder(alphabet, tuple(dx.Var(name) for name in alphabet.vars))


def special_formulas(alphabet: dx.Alphabet) -> list[dx.Formula]:
    """Inert formulas and tautologies, as the parser gives them."""
    a = alphabet.vars[0]
    texts = ["true", "!true", "false", "!false", f"{a} & !{a}", f"{a} | !{a}"]
    return [dx.parse(text, alphabet) for text in texts]


def rendered(order: dx.LevelOrder) -> list[str]:
    return [dx.render(member) for member in order.levels]


def doubled(order: dx.LexOrder, prune: bool) -> list[str]:
    """The unfolding by its definition: oldest formula first, every member
    split into its satisfying and falsifying halves, each half a mask of
    models; conjoining with the seed `true`, or a tail that is `true`, is
    elided."""
    alphabet = order.alphabet
    full = (1 << (1 << len(alphabet))) - 1
    members = [(dx.TRUE, full)]
    for formula in reversed(order.history):
        sat = dx.truth_bitmap(formula, alphabet)
        negated = formula.operand if isinstance(formula, dx.Not) else dx.Not(formula)
        members = [
            (head if isinstance(tail, dx.TrueConst) else dx.And(head, tail), part & mask)
            for head, part in ((formula, sat), (negated, full ^ sat))
            for tail, mask in members
            if part & mask or not prune
        ]
    return [dx.render(member) for member, _ in members]


class TestColumns:
    def test_each_position_reads_its_bits_newest_first(self):
        rng = random.Random(3)
        for count in (0, 1, 7, 8, 9, 16, 17, 33, 64, 65, 130):
            for n in (0, 1, 3, 5):
                width = 1 << n
                maps = tuple(rng.getrandbits(width) for _ in range(count))
                expected = [
                    sum((sat >> p & 1) << (count - 1 - k) for k, sat in enumerate(maps))
                    for p in range(width)
                ]
                assert list(_lex_columns(maps, width)) == expected, (count, n)

    def test_classes_of_histories_longer_than_one_batch_match_the_definition(self):
        rng = random.Random(7)
        for length in (63, 64, 65, 129):
            alphabet = alphabet_of(rng.randint(1, 4))
            history = tuple(random_formula(rng, alphabet, 2) for _ in range(length))
            order = dx.LexOrder(alphabet, history)
            reference = dx.classes_by_stripping(
                alphabet, lambda i, j: dx.leq_lex(order, i, j)
            )
            assert dx.classes_of(order) == reference

    def test_a_wide_class_comes_out_whole(self):
        order = dx.LexOrder(alphabet_of(6), (dx.parse("a", alphabet_of(6)),))
        held = dx.truth_bitmap(order.history[0], order.alphabet)
        sizes, positions = _class_runs(order)
        assert sizes == [32, 32]
        assert list(positions) == sorted(range(64), key=lambda p: not held >> p & 1)


class TestTrustedPartition:
    """`classes_of` skips the constructor's checks; what it returns is what
    the validating constructor builds from the same classes."""

    def test_equal_to_the_validated_partition(self):
        rng = random.Random(11)
        for _ in range(40):
            alphabet = alphabet_of(rng.randint(1, 4))
            for order in (
                random_level_order(rng, alphabet),
                random_lex_order(rng, alphabet),
                random_natural_order(rng, alphabet),
                random_explicit_order(rng, alphabet),
            ):
                trusted = dx.classes_of(order)
                checked = dx.ClassPartition(order.alphabet, trusted.classes)
                assert trusted == checked
                assert repr(trusted) == repr(checked)
                assert vars(trusted) == vars(checked)
                for protocol in (0, 2, 4):
                    assert pickle.dumps(trusted, protocol) == pickle.dumps(checked, protocol)


class TestPrunedUnfolding:
    def test_pruned_is_unpruned_less_its_empty_members(self):
        rng = random.Random(17)
        for trial in range(120):
            alphabet = alphabet_of(rng.randint(1, 3))
            specials = special_formulas(alphabet)
            history = [random_formula(rng, alphabet, 2) for _ in range(rng.randint(0, 5))]
            # An inert formula or a tautology at every position in turn,
            # the oldest included.
            position = trial % (len(history) + 1)
            history.insert(position, specials[trial % len(specials)])
            order = dx.LexOrder(alphabet, tuple(history))
            unpruned = dx.lex_to_level(order, length_cap=1 << len(history))
            pruned = dx.lex_to_level(order, prune=True)
            kept = [
                member
                for member in unpruned.levels
                if dx.truth_bitmap(member, alphabet)
            ]
            assert rendered(pruned) == [dx.render(member) for member in kept], history
            assert rendered(unpruned) == doubled(order, prune=False), history
            assert rendered(pruned) == doubled(order, prune=True), history

    def test_true_tails_are_elided_at_every_step(self):
        alphabet = alphabet_of(2)
        cases = {
            ("a", "true"): ["a", "a & !true", "!a", "!a & !true"],
            ("a", "!true"): ["a & !true", "a", "!a & !true", "!a"],
            ("b", "true", "true"): [
                "b", "b & (true & !true)", "b & !true", "b & (!true & !true)",
                "!b", "!b & (true & !true)", "!b & !true", "!b & (!true & !true)",
            ],
            ("true", "a"): ["true & a", "true & !a", "!true & a", "!true & !a"],
        }
        for texts, unfolded in cases.items():
            order = dx.LexOrder(alphabet, tuple(dx.parse(text, alphabet) for text in texts))
            assert rendered(dx.lex_to_level(order)) == unfolded
            assert rendered(dx.lex_to_level(order, prune=True)) == [
                text for text in unfolded if "!true" not in text
            ]

    def test_tautologies_and_inert_formulas_only(self):
        alphabet = alphabet_of(2)
        specials = special_formulas(alphabet)
        for first in specials:
            for second in specials:
                for third in specials:
                    order = dx.LexOrder(alphabet, (first, second, third))
                    unpruned = dx.lex_to_level(order)
                    pruned = dx.lex_to_level(order, prune=True)
                    kept = [m for m in unpruned.levels if dx.truth_bitmap(m, alphabet)]
                    assert rendered(pruned) == [dx.render(m) for m in kept]
                    assert len(pruned.levels) == 1

    def test_members_share_their_tails(self):
        levels = dx.lex_to_level(bare_history(5), prune=True).levels
        objects = len(_fold(levels, lambda node, *operands: None))
        assert objects == dag_node_count(levels)


class TestLengthCap:
    def test_pruned_message_counts_the_first_step_over_the_cap(self):
        alphabet = dx.Alphabet(tuple(f"x{k}" for k in range(6)))
        names = (*alphabet.vars, "x0")
        order = dx.LexOrder(alphabet, tuple(dx.Var(name) for name in names))
        with pytest.raises(dx.LengthCapExceededError) as caught:
            dx.lex_to_level(order, prune=True, length_cap=20)
        assert str(caught.value) == "translation needs 32 members, over the cap of 20"
        assert len(dx.lex_to_level(order, prune=True, length_cap=64).levels) == 64

    def test_unpruned_message_counts_the_doubling(self):
        alphabet = alphabet_of(2)
        order = dx.LexOrder(alphabet, tuple(dx.parse("a", alphabet) for _ in range(6)))
        with pytest.raises(dx.LengthCapExceededError) as caught:
            dx.lex_to_level(order, length_cap=32)
        assert str(caught.value) == "translation needs 64 members, over the cap of 32"


class TestMemory:
    def test_pruned_unfolding_of_14_variables_holds_no_full_width_masks(self):
        order = bare_history(14)
        tracemalloc.start()
        try:
            level = dx.lex_to_level(order, prune=True, length_cap=1 << 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(level.levels) == 1 << 14
        assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_blowup_to_16_variables_stays_under_100_mb(self):
        # The child reports its own peak: RUSAGE_CHILDREN here would keep the
        # largest peak of every child this process ever waited for.
        script = textwrap.dedent(
            """
            import resource, sys
            from doxastic.analysis import blowup_experiment
            rows = blowup_experiment(16)
            assert [row.level_len for row in rows] == [1 << n for n in range(1, 17)]
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(peak // 1024 if sys.platform != "darwin" else peak // 2**20)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert int(done.stdout) < 100, f"peak RSS {done.stdout.strip()} MB"
