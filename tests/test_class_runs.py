"""Classes decoded from runs of model positions, the unfolding kept in two
flat lists, and variable masks built by doubling."""

import pickle
import random
from itertools import islice

import pytest

import doxastic as dx
from doxastic import formula, orders
from doxastic.formula import _full_mask, _model
from doxastic.orders import _grouped_positions, ranked_masks

from conftest import (
    alphabet_of,
    random_explicit_order,
    random_formula,
    random_level_order,
    random_natural_order,
)

PROTOCOLS = (0, 2, 4)


def named_alphabet(n: int) -> dx.Alphabet:
    return dx.Alphabet(tuple(f"x{k}" for k in range(n)))


def constants(alphabet: dx.Alphabet) -> list[dx.Formula]:
    return [dx.parse(text, alphabet) for text in ("true", "!true", "false")]


def lex_histories(rng: random.Random):
    """Lexicographic histories over 0-6 variables: the bare variables (one
    class per model), a few formulas over many variables (few classes),
    random ones, and each of them with a constant inserted."""
    for n in range(7):
        alphabet = named_alphabet(n)
        bare = [dx.Var(name) for name in alphabet.vars]
        few = bare[:1]
        mixed = [random_formula(rng, alphabet, 3) for _ in range(rng.randint(0, 6))] if n else []
        for history in (bare, few, mixed):
            yield dx.LexOrder(alphabet, tuple(history))
            for constant in constants(alphabet):
                with_constant = list(history)
                with_constant.insert(rng.randint(0, len(history)), constant)
                yield dx.LexOrder(alphabet, tuple(with_constant))


def reference_masks(order) -> list[int]:
    """The class masks: `ranked_masks`, or for a lexicographic history, which
    has none, one mask per distinct column, the columns read model by model
    as tuples of truth values, newest formula first, the largest first."""
    if not isinstance(order, dx.LexOrder):
        return list(ranked_masks(order))
    maps = [dx.truth_bitmap(f, order.alphabet) for f in order.history]
    keys = [tuple(sat >> p & 1 for sat in maps) for p in range(1 << len(order.alphabet))]
    return [
        sum(1 << p for p in range(len(keys)) if keys[p] == key)
        for key in sorted(set(keys), reverse=True)
    ]


def decoded_from_masks(order) -> dx.ClassPartition:
    """The partition as the masks give it: each mask's models in ascending
    position, one frozenset per class."""
    width = len(order.alphabet)
    classes = [
        frozenset(_model(p, width) for p in range(1 << width) if mask >> p & 1)
        for mask in reference_masks(order)
    ]
    return dx.ClassPartition(order.alphabet, classes)


class TestGroupedPositions:
    def test_runs_follow_descending_keys_and_ascending_positions(self):
        rng = random.Random(41)
        for size in (0, 1, 2, 7, 64, 300):
            for distinct in (1, 2, 5, size or 1, 1 << 40):
                keys = [rng.randrange(distinct) for _ in range(size)]
                positions, runs = _grouped_positions(keys)
                expected = sorted(range(size), key=lambda p: (-keys[p], p))
                assert positions == expected
                assert runs == [keys.count(key) for key in sorted(set(keys), reverse=True)]

    def test_runs_hold_the_positions_of_each_key(self):
        rng = random.Random(42)
        for size in (1, 8, 33, 200, 4096):
            for distinct in (1, 2, 3, 40, size):
                keys = [rng.randrange(distinct) for _ in range(size)]
                expected = [
                    sum(1 << p for p in range(size) if keys[p] == key)
                    for key in sorted(set(keys), reverse=True)
                ]
                positions, runs = _grouped_positions(keys)
                positions = iter(positions)
                packed = [sum(1 << p for p in islice(positions, run)) for run in runs]
                assert packed == expected, (size, distinct)


class TestLexicographicClasses:
    def test_equal_to_the_definition(self):
        for order in lex_histories(random.Random(43)):
            reference = dx.classes_by_stripping(
                order.alphabet, lambda i, j: dx.leq_lex(order, i, j)
            )
            assert dx.classes_of(order) == reference, order.history

    def test_pickles_match_the_partition_decoded_from_the_masks(self):
        for order in lex_histories(random.Random(44)):
            decoded = decoded_from_masks(order)
            partition = dx.classes_of(order)
            assert partition == decoded
            for protocol in PROTOCOLS:
                assert pickle.dumps(partition, protocol) == pickle.dumps(decoded, protocol)

    @pytest.mark.parametrize(
        "make", [random_level_order, random_natural_order, random_explicit_order]
    )
    def test_other_kinds_pickle_as_their_masks_decode(self, make):
        rng = random.Random(45)
        for _ in range(40):
            order = make(rng, alphabet_of(rng.randint(1, 4)))
            partition = dx.classes_of(order)
            for protocol in PROTOCOLS:
                assert pickle.dumps(partition, protocol) == pickle.dumps(
                    decoded_from_masks(order), protocol
                )

    def test_no_mask_is_built(self, monkeypatch):
        def masked(order):
            raise AssertionError("a lexicographic class was built as a mask")

        monkeypatch.setattr(orders, "ranked_masks", masked)
        for n in (0, 1, 5):
            alphabet = named_alphabet(n)
            order = dx.LexOrder(alphabet, tuple(dx.Var(name) for name in alphabet.vars))
            assert len(dx.classes_of(order).classes) == 1 << n
        order = dx.LexOrder(alphabet_of(3), (dx.parse("a | b", alphabet_of(3)),))
        assert [len(c) for c in dx.classes_of(order).classes] == [6, 2]

    def test_past_the_cap_the_bitmaps_are_not_read(self, monkeypatch):
        def read(*args):
            raise AssertionError("bitmaps read past the cap")

        alphabet = named_alphabet(21)
        order = dx.LexOrder(alphabet, tuple(dx.Var(name) for name in alphabet.vars))
        monkeypatch.setattr(orders, "_lex_columns", read)
        with pytest.raises(dx.CapExceededError):
            dx.classes_of(order)


def suffix_levels(order: dx.LexOrder) -> list[set[int]]:
    """Entry d: the distinct bits of the d oldest formulas at each model,
    the newest of them the high bit, read model by model."""
    alphabet = order.alphabet
    oldest_first = [dx.truth_bitmap(f, alphabet) for f in reversed(order.history)]
    return [
        {sum((sat >> p & 1) << k for k, sat in enumerate(oldest_first[:depth]))
         for p in range(1 << len(alphabet))}
        for depth in range(len(oldest_first) + 1)
    ]


def tuple_unfolding(order: dx.LexOrder, prune: bool) -> dx.LevelOrder:
    """The unfolding as a loop over (member, suffix) tuples, one per member
    and step, built by the unfolding's own rules: the reference the two
    flat lists must reproduce, object sharing included."""
    levels = suffix_levels(order) if prune else None
    members = [(dx.TRUE, 0)]
    for depth, f in enumerate(reversed(order.history)):
        found = levels[depth + 1] if prune else None
        count = len(found) if prune else 2 * len(members)
        every = count == 2 * len(members)
        negated = f.operand if isinstance(f, dx.Not) else dx.Not(f)
        members = [
            (head if isinstance(tail, dx.TrueConst) else dx.And(head, tail), key)
            for head, bit in ((f, 1 << depth), (negated, 0))
            for tail, suffix in members
            for key in (suffix | bit,)
            if every or key in found
        ]
    reference = object.__new__(dx.LevelOrder)
    vars(reference).update(
        alphabet=order.alphabet, levels=tuple(m for m, _ in members), normalized=prune
    )
    return reference


class TestFlatUnfolding:
    @pytest.mark.parametrize("prune", [False, True])
    def test_pickles_match_the_tuple_loop(self, prune):
        rng = random.Random(46 + prune)
        for trial in range(150):
            alphabet = alphabet_of(rng.randint(1, 3))
            history = [random_formula(rng, alphabet, 2) for _ in range(rng.randint(0, 5))]
            history.insert(trial % (len(history) + 1), constants(alphabet)[trial % 3])
            order = dx.LexOrder(alphabet, tuple(history))
            unfolded = dx.lex_to_level(order, prune=prune, length_cap=64)
            reference = tuple_unfolding(order, prune)
            assert unfolded == reference, history
            for protocol in PROTOCOLS:
                assert pickle.dumps(unfolded, protocol) == pickle.dumps(reference, protocol)

    def test_bare_variables_match_the_tuple_loop(self):
        order = dx.LexOrder(named_alphabet(6), tuple(map(dx.Var, named_alphabet(6).vars)))
        for prune in (False, True):
            assert pickle.dumps(dx.lex_to_level(order, prune=prune), 4) == pickle.dumps(
                tuple_unfolding(order, prune), 4
            )


def divided_mask(width: int, position: int) -> int:
    """A variable's mask by long division: its block of ones times the
    repunit that repeats the block across all 2^width bits."""
    half = 1 << (width - 1 - position)
    window = half << 1
    block = ((1 << half) - 1) << half
    return block * (_full_mask(width) // ((1 << window) - 1))


def test_variable_masks_by_doubling_equal_the_division():
    for width in range(21):
        for position in range(width):
            assert formula._variable_mask.__wrapped__(width, position) == divided_mask(
                width, position
            ), (width, position)
    assert formula._variable_mask(3, 0) == 0b11110000
