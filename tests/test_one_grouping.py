"""Model positions are grouped by one sort, with no Python code per position,
and `evaluate` reads a model's bits from its position."""

import random
import sys

import pytest

import doxastic as dx
from doxastic import orders
from doxastic.orders import _grouped_positions

from conftest import alphabet_of, random_explicit_order, random_formula, random_lex_order


def profile_events(call) -> int:
    """How many profile events `call()` raises: one per Python call or
    return, and one per C function called from Python code."""
    events = 0

    def profile(frame, event, arg):
        nonlocal events
        events += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return events


class TestOneGrouping:
    @pytest.mark.parametrize("values", [None, 5], ids=["distinct", "five values"])
    def test_events_do_not_grow_with_the_keys(self, values):
        rng = random.Random(61)
        counts = []
        for size in (10**2, 10**4):
            if values is None:
                keys = tuple(rng.sample(range(1 << 40), size))
            else:
                keys = tuple(rng.randrange(values) for _ in range(size))
            _grouped_positions(keys)  # a first call may fill caches, as of an ABC check
            counts.append(profile_events(lambda: _grouped_positions(keys)))
        assert counts[0] == counts[1], counts

    def test_only_lexicographic_classes_are_grouped_by_sorting(self, monkeypatch):
        calls = []

        def grouped(keys):
            calls.append(len(keys))
            return _grouped_positions(keys)

        monkeypatch.setattr(orders, "_grouped_positions", grouped)
        assert grouped((3, 1, 3, 0, 1, 3)) == ([0, 2, 5, 1, 4, 3], [3, 2, 1])
        rng = random.Random(62)
        dx.classes_of(random_lex_order(rng, alphabet_of(3)))
        masks = list(orders.ranked_masks(random_explicit_order(rng, alphabet_of(3))))
        assert calls == [6, 1 << 3]
        assert sum(map(int.bit_count, masks)) == 1 << 3


def formulas(rng: random.Random, alphabet: dx.Alphabet) -> list[dx.Formula]:
    if not alphabet.vars:
        return [dx.TRUE, dx.FALSE, dx.Not(dx.TRUE), dx.Iff(dx.FALSE, dx.Implies(dx.TRUE, dx.FALSE))]
    return [random_formula(rng, alphabet, 4) for _ in range(20)]


class TestEvaluateReadsPositions:
    def test_agrees_with_truth_bitmap_without_bits(self, monkeypatch):
        def refused(model):
            raise AssertionError("Model.bits read")

        monkeypatch.setattr(dx.Model, "bits", property(refused))
        rng = random.Random(63)
        for n in range(7):
            alphabet = alphabet_of(n)
            for formula in formulas(rng, alphabet):
                bitmap = dx.truth_bitmap(formula, alphabet)
                for model in alphabet.models():
                    expected = bool(bitmap >> model.position & 1)
                    assert dx.evaluate(formula, model, alphabet) is expected, (formula, model)

    def test_models_keep_only_position_and_width(self):
        model = dx.Model((1, 0, 1))
        assert dx.Model.__slots__ == ("position", "width")
        assert (model.position, model.width, model.bits) == (5, 3, (True, False, True))
