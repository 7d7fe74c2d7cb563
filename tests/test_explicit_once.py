"""Explicit orders paid once: the minterm disjunctions written out of an
explicit order carry their bitmaps from the start, an explicit order's first
class read walks its pairs once, and explicit documents never fail inside the
CLI.

The pickles compared here must not depend on string hashing, so this file
also runs under a second hash seed.
"""

import pickle
import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import doxastic as dx
from doxastic import analysis
from doxastic import orders as orders_module
from doxastic.cli import load_document, main

from conftest import alphabet_of, random_explicit_order, random_lex_order

PROTOCOLS = (0, 2, 4)


def nodes_under(root) -> list:
    """Every node object under `root`, the root first, shared ones once."""
    seen, stack, found = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            found.append(node)
            stack += [getattr(node, name) for name in node._fields if name != "name"]
    return found


def model_sets(rng, alphabet):
    """The empty and the full model set, and random ones between."""
    models = alphabet.models()
    yield set()
    yield set(models)
    for _ in range(6):
        yield {m for m in models if rng.random() < rng.random()}


def models_in(bits: int, alphabet) -> set:
    return {m for m in alphabet.models() if bits >> m.position & 1}


class TestMintermBitmaps:
    @pytest.mark.parametrize("width", range(7))
    def test_the_root_holds_the_bitmap_the_formula_rule_gives(self, width):
        alphabet = alphabet_of(width)
        rng = random.Random(91 + width)
        for models in model_sets(rng, alphabet):
            root = dx.formula_from_models(models, alphabet)
            held, bits = root._bitmap
            assert held is alphabet
            copy = pickle.loads(pickle.dumps(root, 4))
            assert getattr(copy, "_bitmap", None) is None  # memos are not pickled
            assert dx.truth_bitmap(copy, alphabet) == bits
            assert models_in(bits, alphabet) == dx.models_of(root, alphabet) == models

    @pytest.mark.parametrize("width", range(1, 7))
    def test_no_other_node_holds_one(self, width):
        alphabet = alphabet_of(width)
        for models in model_sets(random.Random(92 + width), alphabet):
            root = dx.formula_from_models(models, alphabet)
            inner = [node for node in nodes_under(root)[1:] if type(node) is not dx.TrueConst]
            assert all(getattr(node, "_bitmap", None) is None for node in inner)

    def test_width_zero(self):
        alphabet = dx.Alphabet(())
        (only,) = alphabet.models()
        assert dx.formula_from_models({only}, alphabet)._bitmap == (alphabet, 1)
        assert dx.formula_from_models(set(), alphabet)._bitmap == (alphabet, 0)

    def test_no_memo_past_the_cap(self):
        alphabet = dx.Alphabet(("a", "b", "c"), cap=2)
        models = {dx.Model.from_string(text) for text in ("011", "100", "111")}
        root = dx.formula_from_models(models, alphabet)
        assert all(getattr(node, "_bitmap", None) is None for node in nodes_under(root))
        assert dx.render(root) == "!a & b & c | a & !b & !c | a & b & c"
        with pytest.raises(dx.CapExceededError):
            dx.truth_bitmap(root, alphabet)

    @pytest.mark.parametrize("width", range(6))
    def test_translations_out_of_explicit_orders_miss_no_bitmap(self, width):
        alphabet = alphabet_of(width)
        rng = random.Random(93 + width)
        routes = (
            dx.explicit_to_level,
            lambda o: dx.level_to_natural(dx.explicit_to_level(o)),
            lambda o: dx.level_to_lex(dx.explicit_to_level(o)),
        )
        for _ in range(4):
            order = random_explicit_order(rng, alphabet)
            for route in routes:
                translated = route(order)
                misses = dx.truth_bitmap.cache_info()[1]
                assert dx.equivalent(order, translated)
                assert dx.truth_bitmap.cache_info()[1] == misses


class CountedPairs(frozenset):
    """A pair set that counts the walks over it."""

    walks = 0

    def __iter__(self):
        type(self).walks += 1
        return super().__iter__()


def masks_by_above_count(order) -> list[int]:
    """The class masks as they were counted: how many models each model is
    <= to, pair by pair, the largest count first."""
    above = [0] * (1 << len(order.alphabet))
    for i, _ in order.pairs:
        above[i.position] += 1
    return [
        sum(1 << p for p, count in enumerate(above) if count == key)
        for key in sorted(set(above), reverse=True)
    ]


def violations_by_definition(alphabet, pairs) -> list:
    """Reflexivity, connectedness and transitivity failures pair by pair,
    each kind in model order."""
    models = alphabet.models()
    found = [dx.Violation("reflexivity", (m,)) for m in models if (m, m) not in pairs]
    found += [
        dx.Violation("connectedness", (i, j))
        for i, j in product(models, repeat=2)
        if i.position < j.position and (i, j) not in pairs and (j, i) not in pairs
    ]
    found += [
        dx.Violation("transitivity", (i, j, k))
        for i, j, k in product(models, repeat=3)
        if (i, j) in pairs and (j, k) in pairs and (i, k) not in pairs
    ]
    return found


def relations(rng, count, widest=3):
    """Preorders from random ranks, the same with one pair toggled, and
    relations of random density, over 0 to `widest` variables."""
    for _ in range(count):
        alphabet = alphabet_of(rng.randint(0, widest))
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


class TestOnePassOverPairs:
    @pytest.mark.parametrize("width", range(7))
    def test_masks_equal_the_above_counts(self, width):
        rng = random.Random(94 + width)
        for _ in range(5):
            order = random_explicit_order(rng, alphabet_of(width), max_rank=rng.randint(0, 6))
            assert list(orders_module.ranked_masks(order)) == masks_by_above_count(order)

    def test_a_first_class_read_walks_the_pairs_once(self):
        rng = random.Random(95)
        for width in range(6):
            order = random_explicit_order(rng, alphabet_of(width))
            order.pairs = CountedPairs(order.pairs)
            CountedPairs.walks = 0
            dx.classes_of(order)
            assert CountedPairs.walks == 1
            assert order._violations == []  # known from the same walk
            dx.explicit_to_level(order)
            assert CountedPairs.walks == 1

    def test_a_broken_order_is_searched_in_the_same_walk(self):
        for alphabet, pairs in relations(random.Random(100), 100):
            order = dx.ExplicitOrder(alphabet, pairs)
            order.pairs = CountedPairs(pairs)
            CountedPairs.walks = 0
            for _ in range(2):
                try:
                    dx.classes_of(order)
                except dx.NotAPreorderError:
                    pass
            assert CountedPairs.walks == 1

    def test_validation_and_the_class_read_share_one_walk(self):
        rng = random.Random(96)
        for width in range(6):
            order = random_explicit_order(rng, alphabet_of(width))
            order.pairs = CountedPairs(order.pairs)
            CountedPairs.walks = 0
            assert dx.validate_explicit(order) == [] and order._violations == []
            dx.classes_of(order)
            dx.explicit_to_level(order)
            assert CountedPairs.walks == 1

    def test_broken_orders_report_the_violations_of_the_definition(self):
        broken = 0
        for alphabet, pairs in relations(random.Random(97), 600):
            expected = violations_by_definition(alphabet, pairs)
            assert dx.validate_explicit(dx.ExplicitOrder(alphabet, pairs)) == expected
            order = dx.ExplicitOrder(alphabet, pairs)
            if expected:
                broken += 1
                with pytest.raises(dx.NotAPreorderError) as raised:
                    dx.classes_of(order)
                assert raised.value.violations == expected
                assert order._violations == expected and order._chain[1] is None
            else:
                dx.classes_of(order)
                assert order._violations == []
        assert 150 < broken < 450

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_pickles_after_a_class_read_carry_the_validation(self, protocol):
        order = random_explicit_order(random.Random(98), alphabet_of(3))
        dx.classes_of(order)
        loaded = pickle.loads(pickle.dumps(order, protocol))
        assert vars(loaded) == {"alphabet": order.alphabet, "pairs": order.pairs, "_violations": []}


class TestLexicographicClassCount:
    def test_counts_distinct_columns_with_no_mask(self, monkeypatch):
        rng = random.Random(99)
        histories = []
        for width in range(7):
            alphabet = alphabet_of(width)
            histories.append(dx.LexOrder(alphabet, [dx.Var(v) for v in alphabet.vars]))
            histories += [random_lex_order(rng, alphabet) for _ in range(5 if width else 0)]
        expected = [len(dx.classes_of(order).classes) for order in histories]

        def refused(order):
            raise AssertionError("masks were built")

        monkeypatch.setattr(orders_module, "ranked_masks", refused)
        assert [analysis._class_count(order) for order in histories] == expected

    def test_the_cap_is_checked_before_any_bitmap(self):
        alphabet = dx.Alphabet(tuple(f"x{k}" for k in range(21)))
        order = dx.LexOrder(alphabet, [dx.Var(v) for v in alphabet.vars])
        with pytest.raises(dx.CapExceededError):
            analysis._class_count(order)
        assert "_bitmaps" not in vars(order)


# --- explicit documents through the CLI ----------------------------------------


@st.composite
def explicit_documents(draw):
    """An explicit document over 0-5 variables: a preorder from random ranks,
    the same with pairs toggled, or pairs of random density; pairs in random
    order."""
    width = draw(st.integers(0, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = 1 << width
    shape = draw(st.sampled_from(["ranks", "toggled", "density"]))
    if shape == "density":
        density = rng.random()
        pairs = {(p, q) for p, q in product(range(size), repeat=2) if rng.random() < density}
    else:
        classes = 1 + rng.randrange(size)
        ranks = [rng.randrange(classes) for _ in range(size)]
        pairs = {(p, q) for p, q in product(range(size), repeat=2) if ranks[p] <= ranks[q]}
        if shape == "toggled":
            pairs ^= {(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(1, 3))}
    lines = [f"pair: {p:0{width}b} {q:0{width}b}" for p, q in pairs] if width else []
    rng.shuffle(lines)
    vars_line = " ".join(f"v{k}" for k in range(width))
    return "\n".join(["doxastic v1", "kind: explicit", f"vars: {vars_line}", *lines]) + "\n"


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(document=explicit_documents())
def test_explicit_documents_never_fail_internally(tmp_path, capsys, document):
    path = tmp_path / "explicit.ord"
    path.write_text(document, encoding="utf-8")
    order = load_document(document, validate=False)
    valid = dx.validate_explicit(order) == []
    expected = 0 if valid else 4
    capsys.readouterr()
    assert main(["check", str(path)]) == expected
    assert main(["classes", str(path)]) == expected
    for target in ("level", "natural", "lexicographic"):
        capsys.readouterr()
        assert main(["translate", "--to", target, str(path)]) == expected
        if valid:
            assert dx.equivalent(load_document(capsys.readouterr().out), order)
    assert main(["equiv", str(path), str(path)]) == expected
    capsys.readouterr()
