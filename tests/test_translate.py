"""The translation matrix: equivalence preservation and growth laws."""

import pickle
import random
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest

import doxastic as dx
from doxastic import orders as orders_module
from doxastic import translate as translate_module
from doxastic.cli import load_order
from doxastic.formula import dag_node_count
from doxastic.orders import _trusted

from conftest import (
    alphabet_of,
    random_explicit_order,
    random_level_order,
    random_lex_order,
    random_natural_order,
    relation_rows,
)

A = alphabet_of(1)
AB = alphabet_of(2)


def m(text):
    return dx.Model.from_string(text)


def f(text, alphabet=AB):
    return dx.parse(text, alphabet)


def class_strings(order):
    return [sorted(str(x) for x in cls) for cls in dx.classes_of(order).classes]


class TestNormalizeLevel:
    def test_overlapping_member_is_intersected_away(self):
        order = dx.LevelOrder(AB, (f("a | b"), f("!a")))
        out = dx.normalize_level(order)
        assert out.levels == (f("a | b"), dx.And(f("!a"), dx.Not(f("a | b"))))
        assert out.normalized
        assert dx.equivalent(order, out)

    def test_already_normalized_input_is_untouched(self):
        order = dx.LevelOrder(A, (dx.TRUE,))
        assert dx.normalize_level(order).levels == (dx.TRUE,)

    def test_duplicate_member_drops_and_catchall_appears(self):
        one = alphabet_of(1)
        order = dx.LevelOrder(one, (f("a", one), f("a", one)))
        out = dx.normalize_level(order)
        assert out.levels == (f("a", one), dx.Not(f("a", one)))
        assert dx.equivalent(order, out)

    def test_empty_input_becomes_the_tautology(self):
        assert dx.normalize_level(dx.LevelOrder(A, ())).levels == (dx.TRUE,)

    def test_inconsistent_members_are_dropped(self):
        one = alphabet_of(1)
        order = dx.LevelOrder(one, (f("a & !a", one),))
        assert dx.normalize_level(order).levels == (dx.TRUE,)

    def test_output_is_always_normalized(self):
        rng = random.Random(5)
        for _ in range(40):
            alphabet = alphabet_of(rng.randint(1, 4))
            order = random_level_order(rng, alphabet, max_len=5, max_depth=3)
            out = dx.normalize_level(order)
            assert dx.is_normalized(out)
            assert dx.equivalent(order, out)

    def test_is_normalized_checks_semantically(self):
        assert dx.is_normalized(dx.LevelOrder(A, (f("a", A), f("!a", A))))
        assert not dx.is_normalized(dx.LevelOrder(A, (f("a", A),)))
        assert not dx.is_normalized(dx.LevelOrder(A, (f("a", A), dx.TRUE)))
        assert not dx.is_normalized(dx.LevelOrder(A, (f("a & !a", A), dx.TRUE)))


class TestNaturalToLevel:
    def test_empty_history(self):
        out = dx.natural_to_level(dx.NaturalOrder(A, ()))
        assert out.levels == (dx.TRUE,)

    def test_single_negation(self):
        out = dx.natural_to_level(dx.NaturalOrder(A, (f("!a", A),)))
        assert out.levels == (f("!a", A), f("a", A))
        assert class_strings(out) == [["0"], ["1"]]

    def test_two_step_history(self):
        order = dx.NaturalOrder(AB, (f("a | b"), f("!a")))
        out = dx.natural_to_level(order)
        assert out.levels == (
            dx.And(f("a | b"), f("!a")),
            dx.And(dx.Not(f("a | b")), f("!a")),
            f("a"),
        )
        assert class_strings(out) == [["01"], ["00"], ["10", "11"]]
        assert dx.equivalent(order, out)

    def test_length_is_history_plus_one(self):
        rng = random.Random(17)
        for _ in range(40):
            alphabet = alphabet_of(rng.randint(1, 4))
            order = random_natural_order(
                rng, alphabet, max_len=5, max_depth=3, consistent=True
            )
            out = dx.natural_to_level(order)
            assert len(out.levels) == len(order.history) + 1

    def test_shared_size_stays_within_twice_the_input(self):
        rng = random.Random(18)
        for _ in range(60):
            alphabet = alphabet_of(rng.randint(1, 4))
            order = random_natural_order(
                rng, alphabet, max_len=5, max_depth=3, consistent=True
            )
            out = dx.natural_to_level(order)
            assert dag_node_count(out.levels) <= 2 * dx.order_size(order) + 1

    def test_inconsistent_member_raises_unless_lenient(self):
        order = dx.NaturalOrder(A, (f("a & !a", A), f("a", A)))
        with pytest.raises(dx.InconsistentRevisionError):
            dx.natural_to_level(order)
        out = dx.natural_to_level(order, lenient=True)
        assert len(out.levels) == 2
        assert dx.equivalent(order, out)


class TestLexToLevel:
    def test_two_variables_unfold_into_minterms(self):
        out = dx.lex_to_level(dx.LexOrder(AB, (f("a"), f("b"))))
        assert out.levels == (f("a & b"), f("a & !b"), f("!a & b"), f("!a & !b"))

    def test_empty_history(self):
        assert dx.lex_to_level(dx.LexOrder(AB, ())).levels == (dx.TRUE,)

    def test_pruning_drops_empty_members(self):
        order = dx.LexOrder(AB, (f("a | b"), f("!a")))
        out = dx.lex_to_level(order, prune=True)
        assert len(out.levels) == 3
        assert out.normalized
        assert class_strings(out) == [["01"], ["10", "11"], ["00"]]
        assert dx.equivalent(order, out)

    def test_unpruned_length_doubles_per_member(self):
        rng = random.Random(23)
        for _ in range(30):
            alphabet = alphabet_of(rng.randint(1, 4))
            order = random_lex_order(rng, alphabet, max_len=5, max_depth=3)
            out = dx.lex_to_level(order)
            assert len(out.levels) == 2 ** len(order.history)
            assert dx.equivalent(order, out)

    def test_pruned_length_equals_class_count(self):
        rng = random.Random(29)
        for _ in range(30):
            alphabet = alphabet_of(rng.randint(1, 4))
            order = random_lex_order(rng, alphabet, max_len=5, max_depth=3)
            out = dx.lex_to_level(order, prune=True)
            assert len(out.levels) == len(dx.classes_of(order).classes)
            assert dx.equivalent(order, out)

    def test_length_cap_guards_the_doubling(self):
        order = dx.LexOrder(AB, tuple(f("a") for _ in range(6)))
        with pytest.raises(dx.LengthCapExceededError):
            dx.lex_to_level(order, length_cap=32)
        pruned = dx.lex_to_level(order, prune=True, length_cap=32)
        assert dx.equivalent(order, pruned)


class TestLevelIdentityReuse:
    def test_tautology_reuses_as_natural(self):
        out = dx.level_to_natural(dx.LevelOrder(A, (dx.TRUE,)))
        assert out.history == (dx.TRUE,)

    def test_tautology_reuses_as_lex(self):
        out = dx.level_to_lex(dx.LevelOrder(A, (dx.TRUE,)))
        assert out.history == (dx.TRUE,)

    def test_mutually_exclusive_members_reuse_verbatim(self):
        order = dx.LevelOrder(A, (f("a", A), f("!a", A)))
        assert dx.level_to_natural(order).history == order.levels
        assert dx.level_to_lex(order).history == order.levels

    def test_minterm_partition_reuses_and_matches_the_history(self):
        order = dx.LevelOrder(AB, (f("a & b"), f("a & !b"), f("!a & b"), f("!a & !b")))
        out = dx.level_to_lex(order)
        assert out.history == order.levels
        assert dx.equivalent(out, dx.LexOrder(AB, (f("a"), f("b"))))

    def test_general_input_is_normalized_first(self):
        order = dx.LevelOrder(AB, (f("a | b"), f("!a")))
        for out in (dx.level_to_natural(order), dx.level_to_lex(order)):
            assert dx.equivalent(order, out)


class TestExplicitToLevel:
    def test_single_class_order(self):
        pairs = frozenset((i, j) for i in A.models() for j in A.models())
        out = dx.explicit_to_level(dx.ExplicitOrder(A, pairs))
        assert dx.equivalent(out, dx.LevelOrder(A, (dx.TRUE,)))

    def test_two_class_order(self):
        pairs = frozenset({(m("1"), m("1")), (m("0"), m("0")), (m("1"), m("0"))})
        out = dx.explicit_to_level(dx.ExplicitOrder(A, pairs))
        assert dx.equivalent(out, dx.LevelOrder(A, (f("a", A), f("!a", A))))

    def test_four_class_order_matches_the_lex_history(self):
        ranks = {"11": 0, "10": 1, "01": 2, "00": 3}
        pairs = frozenset(
            (i, j)
            for i in AB.models()
            for j in AB.models()
            if ranks[str(i)] <= ranks[str(j)]
        )
        out = dx.explicit_to_level(dx.ExplicitOrder(AB, pairs))
        assert dx.equivalent(out, dx.LexOrder(AB, (f("a"), f("b"))))

    def test_invalid_input_raises_with_violations(self):
        order = dx.ExplicitOrder(A, frozenset({(m("0"), m("0"))}))
        with pytest.raises(dx.NotAPreorderError) as err:
            dx.explicit_to_level(order)
        assert err.value.violations


class TestToExplicit:
    def test_tautology_level_relates_everything(self):
        out = dx.to_explicit(dx.LevelOrder(A, (dx.TRUE,)))
        assert len(out.pairs) == 4

    def test_single_variable_history(self):
        out = dx.to_explicit(dx.LexOrder(A, (f("a", A),)))
        assert out.pairs == frozenset(
            {(m("1"), m("1")), (m("0"), m("0")), (m("1"), m("0"))}
        )

    def test_natural_history_pairs(self):
        # Classes {01} < {00} < {10, 11} give 4 + 3 + 2 + 2 related pairs.
        out = dx.to_explicit(dx.NaturalOrder(AB, (f("a | b"), f("!a"))))
        assert len(out.pairs) == 11
        assert (m("00"), m("10")) in out.pairs
        assert (m("10"), m("00")) not in out.pairs
        assert (m("10"), m("11")) in out.pairs
        assert (m("11"), m("10")) in out.pairs

    def test_result_satisfies_the_preorder_axioms(self):
        rng = random.Random(37)
        for _ in range(15):
            alphabet = alphabet_of(rng.randint(1, 4))
            out = dx.to_explicit(random_lex_order(rng, alphabet, max_len=4, max_depth=3))
            assert dx.validate_explicit(out) == []


class TestTranslationsReadMasks:
    """`to_explicit` and `explicit_to_level` read the class runs
    (`orders._class_runs`): with no `ClassPartition` to be had, they give
    what the route through one gave."""

    @staticmethod
    def orders():
        corpus = sorted((Path(__file__).parent / "data").glob("*.ord"))
        orders = [load_order(path) for path in corpus]
        rng = random.Random(53)
        for _ in range(4):
            alphabet = alphabet_of(rng.randint(1, 4))
            orders += [
                random_level_order(rng, alphabet, max_len=4, max_depth=3),
                random_lex_order(rng, alphabet, max_len=4, max_depth=3),
                random_natural_order(rng, alphabet, max_len=4, max_depth=3),
                random_explicit_order(rng, alphabet),
            ]
        return orders

    @staticmethod
    def through_partition(order):
        """The outputs as they were made from the validated class partition."""
        classes = dx.classes_of(order).classes
        pairs = frozenset(
            (i, j) for k, cls in enumerate(classes) for i in cls for j in chain(*classes[k:])
        )
        explicit = dx.ExplicitOrder(order.alphabet, pairs)
        members = [
            dx.formula_from_models(cls, order.alphabet) for cls in dx.classes_of(explicit).classes
        ]
        return explicit, _trusted(dx.LevelOrder, order.alphabet, members, normalized=True)

    def test_no_partition_is_built(self, monkeypatch):
        orders = self.orders()
        expected = [self.through_partition(order) for order in orders]

        def refused(*args, **kwargs):
            raise AssertionError("a ClassPartition was built")

        monkeypatch.setattr(orders_module, "ClassPartition", refused)
        for order, (explicit, level) in zip(orders, expected):
            got_explicit = dx.to_explicit(order)
            got_level = dx.explicit_to_level(got_explicit)
            assert got_explicit == explicit and got_level == level
            assert repr(got_level) == repr(level)
            for protocol in (0, 4):
                assert pickle.dumps(got_explicit, protocol) == pickle.dumps(explicit, protocol)
                assert pickle.dumps(got_level, protocol) == pickle.dumps(level, protocol)


class TestNaturalToLex:
    def test_empty_history(self):
        assert dx.natural_to_lex(dx.NaturalOrder(A, ())).history == (dx.TRUE,)

    def test_single_negation(self):
        out = dx.natural_to_lex(dx.NaturalOrder(A, (f("!a", A),)))
        assert out.history == (f("!a", A), f("a", A))
        assert dx.equivalent(out, dx.NaturalOrder(A, (f("!a", A),)))

    def test_two_step_history(self):
        order = dx.NaturalOrder(AB, (f("a | b"), f("!a")))
        out = dx.natural_to_lex(order)
        assert out.history == (
            dx.And(f("a | b"), f("!a")),
            dx.And(dx.Not(f("a | b")), f("!a")),
            f("a"),
        )
        assert dx.equivalent(order, out)


class TestMatrixEquivalence:
    def _translations(self, order):
        if isinstance(order, dx.LevelOrder):
            return [
                dx.normalize_level(order),
                dx.level_to_natural(order),
                dx.level_to_lex(order),
                dx.to_explicit(order),
            ]
        if isinstance(order, dx.LexOrder):
            return [
                dx.lex_to_level(order),
                dx.lex_to_level(order, prune=True),
                dx.to_explicit(order),
            ]
        if isinstance(order, dx.NaturalOrder):
            return [
                dx.natural_to_level(order),
                dx.natural_to_lex(order),
                dx.to_explicit(order),
            ]
        return [dx.explicit_to_level(order), dx.to_explicit(order)]

    def test_every_translation_preserves_the_relation(self):
        rng = random.Random(41)
        for _ in range(25):
            alphabet = alphabet_of(rng.randint(1, 4))
            sources = [
                random_level_order(rng, alphabet, max_len=4, max_depth=3),
                random_lex_order(rng, alphabet, max_len=4, max_depth=3),
                random_natural_order(
                    rng, alphabet, max_len=4, max_depth=3, consistent=True
                ),
                random_explicit_order(rng, alphabet),
            ]
            for source in sources:
                source_rows = relation_rows(source)
                for target in self._translations(source):
                    assert dx.equivalent(source, target)
                    assert relation_rows(target) == source_rows

    def test_round_trip_through_every_representation(self):
        rng = random.Random(43)
        for _ in range(10):
            alphabet = alphabet_of(rng.randint(1, 3))
            start = random_natural_order(
                rng, alphabet, max_len=3, max_depth=3, consistent=True
            )
            level = dx.natural_to_level(start)
            lex = dx.level_to_lex(level)
            explicit = dx.to_explicit(lex)
            back = dx.level_to_natural(dx.explicit_to_level(explicit))
            assert dx.equivalent(start, back)


class TestOrderSize:
    def test_counts_nodes_plus_members(self):
        order = dx.LexOrder(AB, (f("a"), f("b")))
        assert dx.order_size(order) == 4
        natural = dx.NaturalOrder(AB, (f("a | b"), f("!a")))
        assert dx.order_size(natural) == 7

    def test_explicit_orders_measure_zero(self):
        rng = random.Random(1)
        assert dx.order_size(random_explicit_order(rng, A)) == 0


class TestPairCap:
    """`to_explicit` counts its pairs from the class sizes and refuses, past
    `PAIR_CAP`, before it builds any model or pair."""

    @staticmethod
    def everything_tied(n):
        alphabet = dx.Alphabet(tuple(f"x{k}" for k in range(n)))
        return dx.LevelOrder(alphabet, (dx.TRUE,))

    def test_refused_before_any_pair_is_built(self):
        order = self.everything_tied(12)  # 2^24 pairs
        tracemalloc.start()
        try:
            with pytest.raises(dx.LengthCapExceededError) as caught:
                dx.to_explicit(order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == "translation needs 16777216 pairs, over the cap of 1048576"
        assert peak < 64 * 2**10, f"peak {peak / 2**10:.0f} KiB"

    def test_the_count_is_the_pair_count(self, monkeypatch):
        rng = random.Random(12)
        for _ in range(40):
            alphabet = alphabet_of(rng.randint(1, 4))
            for order in (
                random_level_order(rng, alphabet),
                random_lex_order(rng, alphabet),
                random_natural_order(rng, alphabet),
                random_explicit_order(rng, alphabet),
            ):
                pairs = len(dx.to_explicit(order).pairs)
                monkeypatch.setattr(translate_module, "PAIR_CAP", pairs)
                assert len(dx.to_explicit(order).pairs) == pairs
                monkeypatch.setattr(translate_module, "PAIR_CAP", pairs - 1)
                with pytest.raises(dx.LengthCapExceededError, match=f"needs {pairs} pairs"):
                    dx.to_explicit(order)
                monkeypatch.undo()

    def test_exactly_the_cap_still_translates(self):
        order = self.everything_tied(10)  # 2^20 pairs
        assert len(dx.to_explicit(order).pairs) == translate_module.PAIR_CAP == 1 << 20
