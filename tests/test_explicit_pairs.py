"""Explicit orders: the chain test that validates them, the class masks they
keep, and the pairs `to_explicit` writes.

The pickles compared here must not depend on string hashing, so this file
also runs under a second hash seed.
"""

import pickle
import random
from itertools import product
from pathlib import Path

import pytest

import doxastic as dx
from doxastic import orders as orders_module
from doxastic.cli import load_order

from test_explicit_once import CountedPairs

from conftest import (
    alphabet_of,
    random_explicit_order,
    random_level_order,
    random_lex_order,
    random_natural_order,
)

PROTOCOLS = (0, 2, 4)


def is_connected_preorder(models, pairs) -> bool:
    """The definition, pair by pair: reflexive, connected and transitive."""
    return (
        all((i, i) in pairs for i in models)
        and all((i, j) in pairs or (j, i) in pairs for i, j in product(models, repeat=2))
        and all(
            (i, k) in pairs
            for i, j, k in product(models, repeat=3)
            if (i, j) in pairs and (j, k) in pairs
        )
    )


def random_relations(rng, count):
    """Relations on 0-3 variables: preorders from random rank functions, the
    same with one pair toggled, and relations of random density."""
    for _ in range(count):
        alphabet = alphabet_of(rng.randint(0, 3))
        models = alphabet.models()
        roll = rng.random()
        if roll < 2 / 3:
            ranks = {m: rng.randint(0, 3) for m in models}
            pairs = {(i, j) for i, j in product(models, repeat=2) if ranks[i] <= ranks[j]}
            if roll < 1 / 3:
                pairs ^= {(rng.choice(models), rng.choice(models))}
        else:
            density = rng.random()
            pairs = {pair for pair in product(models, repeat=2) if rng.random() < density}
        yield alphabet, frozenset(pairs)


def counted(monkeypatch, name) -> list:
    """Replace `orders.<name>` by a wrapper that records each call's argument."""
    calls, original = [], getattr(orders_module, name)

    def wrapper(argument):
        calls.append(argument)
        return original(argument)

    monkeypatch.setattr(orders_module, name, wrapper)
    return calls


class TestChainTest:
    def test_agrees_with_the_definition(self):
        valid = 0
        for alphabet, pairs in random_relations(random.Random(71), 2000):
            expected = is_connected_preorder(alphabet.models(), pairs)
            assert (dx.validate_explicit(dx.ExplicitOrder(alphabet, pairs)) == []) == expected
            valid += expected
        assert 400 < valid < 1600  # both answers are well represented

    def test_a_valid_order_is_not_searched(self, monkeypatch):
        searched = counted(monkeypatch, "bit_positions")
        rng = random.Random(72)
        for width in range(7):
            assert dx.validate_explicit(random_explicit_order(rng, alphabet_of(width))) == []
        assert searched == []
        a = alphabet_of(1).models()[0]
        assert dx.validate_explicit(dx.ExplicitOrder(alphabet_of(1), {(a, a)}))
        assert searched


class TestKeptMasks:
    def test_masks_are_counted_once_per_order(self):
        order = random_explicit_order(random.Random(73), alphabet_of(3))
        order.pairs = CountedPairs(order.pairs)
        CountedPairs.walks = 0
        dx.classes_of(order)
        levels = [dx.explicit_to_level(order) for _ in range(3)]
        assert dx.equivalent(order, levels[0]) and dx.equivalent(levels[1], order)
        assert CountedPairs.walks == 1

    def test_an_order_with_violations_keeps_no_masks(self):
        a = alphabet_of(1).models()[0]
        broken = dx.ExplicitOrder(alphabet_of(1), {(a, a)})
        for _ in range(2):
            with pytest.raises(dx.NotAPreorderError):
                dx.classes_of(broken)
        assert broken._chain[1] is None

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_pickles_leave_the_masks_out(self, protocol):
        read = random_explicit_order(random.Random(74), alphabet_of(3))
        dx.classes_of(read)
        assert "_chain" in vars(read)
        validated = dx.ExplicitOrder(read.alphabet, read.pairs)
        assert validated._violations == []
        assert pickle.dumps(read, protocol) == pickle.dumps(validated, protocol)
        loaded = pickle.loads(pickle.dumps(read, protocol))
        assert vars(loaded).keys() == {"alphabet", "pairs", "_violations"}


def translated_orders():
    corpus = sorted((Path(__file__).parent / "data").glob("*.ord"))
    orders = [load_order(path) for path in corpus]
    rng = random.Random(75)
    for _ in range(50):  # 200 random orders
        alphabet = alphabet_of(rng.randint(1, 4))
        orders += [
            random_level_order(rng, alphabet, max_len=4, max_depth=3),
            random_lex_order(rng, alphabet, max_len=4, max_depth=3),
            random_natural_order(rng, alphabet, max_len=4, max_depth=3),
            random_explicit_order(rng, alphabet),
        ]
    return orders


def test_to_explicit_pickles_as_its_pairs_did_one_by_one():
    for order in translated_orders():
        classes = dx.classes_of(order).classes
        pairs = frozenset(
            (i, j)
            for k, cls in enumerate(classes)
            for i in cls
            for rest in classes[k:]
            for j in rest
        )
        expected = dx.ExplicitOrder(order.alphabet, pairs)
        got = dx.to_explicit(order)
        for protocol in PROTOCOLS:
            assert pickle.dumps(got, protocol) == pickle.dumps(expected, protocol)
