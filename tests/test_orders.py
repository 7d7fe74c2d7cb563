"""Comparison relations, equivalence classes, and preorder validation."""

import random
from functools import partial

import pytest
from hypothesis import given, settings

import doxastic as dx
from doxastic import formula as formula_module
from doxastic import orders as orders_module

from conftest import (
    alphabet_of,
    formula_strategy,
    is_connected,
    is_reflexive,
    is_transitive,
    random_explicit_order,
    random_formula,
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


def naive_leq_natural(alphabet, history, i, j):
    """The inductive definition transcribed literally, with no sharing at all."""
    if not history:
        return True
    head, tail = history[0], tuple(history[1:])
    sat = sorted(dx.models_of(head, alphabet))
    promoted = i in sat and all(naive_leq_natural(alphabet, tail, i, k) for k in sat)
    kept = naive_leq_natural(alphabet, tail, i, j) and (
        j not in sat or any(not naive_leq_natural(alphabet, tail, j, k) for k in sat)
    )
    return promoted or kept


class TestLeqExplicit:
    def test_full_equality_order_relates_everything(self):
        pairs = frozenset((i, j) for i in A.models() for j in A.models())
        order = dx.ExplicitOrder(A, pairs)
        assert dx.leq_explicit(order, m("0"), m("1"))

    def test_membership_decides(self):
        order = dx.ExplicitOrder(
            A, frozenset({(m("1"), m("1")), (m("0"), m("0")), (m("1"), m("0"))})
        )
        assert dx.leq_explicit(order, m("1"), m("0"))
        assert not dx.leq_explicit(order, m("0"), m("1"))

    def test_width_mismatch_rejected(self):
        order = dx.ExplicitOrder(A, frozenset({(m("0"), m("0")), (m("1"), m("1")),
                                               (m("0"), m("1")), (m("1"), m("0"))}))
        with pytest.raises(dx.AlphabetMismatchError):
            dx.leq_explicit(order, m("00"), m("0"))


class TestLeqLevel:
    def test_single_tautology_relates_everything(self):
        order = dx.LevelOrder(A, (dx.TRUE,))
        for i in A.models():
            for j in A.models():
                assert dx.leq_level(order, i, j)

    def test_index_comparison(self):
        order = dx.LevelOrder(A, (f("a", A), f("!a", A)))
        assert dx.leq_level(order, m("1"), m("0"))
        assert not dx.leq_level(order, m("0"), m("1"))

    def test_unmatched_models_share_the_bottom(self):
        order = dx.LevelOrder(A, (f("a", A),))
        assert dx.leq_level(order, m("0"), m("0"))
        assert not dx.leq_level(order, m("0"), m("1"))
        assert dx.leq_level(order, m("1"), m("0"))

    def test_least_index_wins_when_members_overlap(self):
        order = dx.LevelOrder(AB, (f("a"), f("a | b")))
        assert dx.leq_level(order, m("10"), m("01"))
        assert not dx.leq_level(order, m("01"), m("10"))


class TestLeqLex:
    def test_two_variables_order_models_lexicographically(self):
        order = dx.LexOrder(AB, (f("a"), f("b")))
        chain = ["11", "10", "01", "00"]
        for earlier in range(4):
            for later in range(4):
                expected = earlier <= later
                assert (
                    dx.leq_lex(order, m(chain[earlier]), m(chain[later])) == expected
                )

    def test_empty_history_relates_everything(self):
        order = dx.LexOrder(AB, ())
        assert dx.leq_lex(order, m("01"), m("10"))
        assert dx.leq_lex(order, m("10"), m("01"))

    def test_recent_formula_dominates_older_ones(self):
        # Expected relation worked out by unrolling the definition over all
        # sixteen pairs: 01 < {10, 11} < 00.
        order = dx.LexOrder(AB, (f("a | b"), f("!a")))
        below = {
            "00": {"00"},
            "01": {"00", "01", "10", "11"},
            "10": {"00", "10", "11"},
            "11": {"00", "10", "11"},
        }
        for i in AB.models():
            for j in AB.models():
                assert dx.leq_lex(order, i, j) == (str(j) in below[str(i)])


class TestLeqNatural:
    def test_empty_history_relates_everything(self):
        order = dx.NaturalOrder(AB, ())
        assert dx.leq_natural(order, m("10"), m("01"))
        assert dx.leq_natural(order, m("01"), m("10"))

    def test_promotes_only_the_most_plausible_models(self):
        order = dx.NaturalOrder(AB, (f("a | b"), f("!a")))
        assert dx.leq_natural(order, m("00"), m("10"))
        assert not dx.leq_natural(order, m("10"), m("00"))
        assert dx.leq_natural(order, m("10"), m("11"))
        assert dx.leq_natural(order, m("11"), m("10"))

    def test_inconsistent_member_is_inert(self):
        order = dx.NaturalOrder(A, (f("a & !a", A),))
        for i in A.models():
            for j in A.models():
                assert dx.leq_natural(order, i, j)

    def test_agrees_with_the_literal_recursion(self):
        rng = random.Random(4242)
        for _ in range(40):
            alphabet = alphabet_of(rng.randint(1, 3))
            order = random_natural_order(rng, alphabet, max_len=3, max_depth=3)
            for i in alphabet.models():
                for j in alphabet.models():
                    assert dx.leq_natural(order, i, j) == naive_leq_natural(
                        alphabet, order.history, i, j
                    )

    def test_long_history_needs_no_recursion(self):
        abc = alphabet_of(3)
        rng = random.Random(1501)
        # Every formula implies a, so models with a false are never promoted
        # and their comparisons look through the whole history.
        pool = [f(text, abc) for text in ("a", "a & b", "a & !c", "a & (b | c)")]
        order = dx.NaturalOrder(abc, tuple(rng.choice(pool) for _ in range(1501)))
        partition = dx.classes_of(order)
        for i in abc.models():
            for j in abc.models():
                expected = partition.rank_of(i) <= partition.rank_of(j)
                assert dx.leq_natural(order, i, j) == expected


class TestHistoryBaseCases:
    def test_empty_histories_match_the_single_tautology_level(self):
        rng = random.Random(7)
        for n in (1, 2, 3):
            alphabet = alphabet_of(n)
            level = dx.LevelOrder(alphabet, (dx.TRUE,))
            lex = dx.LexOrder(alphabet, ())
            natural = dx.NaturalOrder(alphabet, ())
            for i in alphabet.models():
                for j in alphabet.models():
                    expected = dx.leq_level(level, i, j)
                    assert dx.leq_lex(lex, i, j) == expected
                    assert dx.leq_natural(natural, i, j) == expected


class TestClassesOf:
    def test_lex_singletons(self):
        order = dx.LexOrder(AB, (f("a"), f("b")))
        partition = dx.classes_of(order)
        assert [sorted(str(x) for x in cls) for cls in partition.classes] == [
            ["11"],
            ["10"],
            ["01"],
            ["00"],
        ]

    def test_level_single_class(self):
        order = dx.LevelOrder(A, (dx.TRUE,))
        assert dx.classes_of(order).classes == (frozenset({m("0"), m("1")}),)

    def test_natural_three_classes(self):
        order = dx.NaturalOrder(AB, (f("a | b"), f("!a")))
        partition = dx.classes_of(order)
        assert [sorted(str(x) for x in cls) for cls in partition.classes] == [
            ["01"],
            ["00"],
            ["10", "11"],
        ]

    def test_matches_the_stripping_construction(self):
        rng = random.Random(99)
        extra = random.Random(100)  # leaves rng's draws as they were
        for _ in range(25):
            alphabet = alphabet_of(rng.randint(1, 4))
            orders = [
                random_level_order(rng, alphabet, max_len=4, max_depth=3),
                random_lex_order(rng, alphabet, max_len=4, max_depth=3),
                random_natural_order(rng, alphabet, max_len=4, max_depth=3),
                random_explicit_order(rng, alphabet),
            ]
            models = alphabet.models()
            extra.shuffle(models)
            chain = frozenset(
                (i, j) for k, i in enumerate(models) for j in models[k:]
            )
            history = random_natural_order(extra, alphabet, max_len=3, max_depth=3).history
            head = random_lex_order(extra, alphabet, max_len=2, max_depth=2).history
            orders += [
                dx.ExplicitOrder(alphabet, chain),  # one class per model
                dx.NaturalOrder(alphabet, (*history, *history, dx.FALSE)),
                dx.NaturalOrder(alphabet, (dx.And(dx.TRUE, dx.FALSE), *history[::-1])),
                dx.LexOrder(alphabet, (*head, dx.TRUE, *head, dx.FALSE)),
                dx.LexOrder(alphabet, (dx.FALSE, *history, dx.TRUE)),
            ]
            for order in orders:
                direct = dx.classes_of(order)
                stripped = dx.classes_by_stripping(
                    alphabet, lambda i, j, order=order: dx.leq(order, i, j)
                )
                assert direct == stripped

    def test_grown_natural_orders_match_the_stripping_construction(self):
        # The classes a prepend extended, not recomputed, against the definition.
        rng = random.Random(101)
        for _ in range(20):
            alphabet = alphabet_of(rng.randint(1, 4))
            order = random_natural_order(rng, alphabet, max_len=3, max_depth=3)
            dx.classes_of(order)  # the memo each revision below extends
            for _ in range(4):
                order = dx.revise_natural_history(order, random_formula(rng, alphabet, 3))
                assert "_promotion" in vars(order)
                stripped = dx.classes_by_stripping(alphabet, partial(dx.leq_natural, order))
                assert dx.classes_of(order) == stripped

    def test_explicit_orders_are_validated_first(self):
        order = dx.ExplicitOrder(A, frozenset({(m("0"), m("0"))}))
        with pytest.raises(dx.NotAPreorderError):
            dx.classes_of(order)


class TestClassPartitionInvariants:
    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            dx.ClassPartition(A, (frozenset(), frozenset(A.models())))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            dx.ClassPartition(
                A, (frozenset({m("0")}), frozenset({m("0"), m("1")}))
            )

    def test_missing_models_rejected(self):
        with pytest.raises(ValueError):
            dx.ClassPartition(A, (frozenset({m("0")}),))

    def test_rank_of(self):
        partition = dx.ClassPartition(A, (frozenset({m("1")}), frozenset({m("0")})))
        assert partition.rank_of(m("1")) == 0
        assert partition.rank_of(m("0")) == 1


class TestEquivalent:
    def test_lex_pair_matches_its_four_level_partition(self):
        lex = dx.LexOrder(AB, (f("a"), f("b")))
        level = dx.LevelOrder(
            AB, (f("a & b"), f("a & !b"), f("!a & b"), f("!a & !b"))
        )
        assert dx.equivalent(lex, level)

    def test_natural_and_lex_histories_can_disagree(self):
        history = (f("a | b"), f("!a"))
        assert not dx.equivalent(dx.NaturalOrder(AB, history), dx.LexOrder(AB, history))

    def test_every_order_is_self_equivalent(self):
        rng = random.Random(3)
        alphabet = alphabet_of(3)
        for order in (
            random_level_order(rng, alphabet),
            random_lex_order(rng, alphabet),
            random_natural_order(rng, alphabet),
        ):
            assert dx.equivalent(order, order)

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(dx.AlphabetMismatchError):
            dx.equivalent(dx.LexOrder(A, ()), dx.LexOrder(AB, ()))

    def test_agrees_with_pairwise_comparison(self):
        rng = random.Random(11)
        for _ in range(30):
            alphabet = alphabet_of(rng.randint(1, 4))
            first = random_lex_order(rng, alphabet, max_len=4, max_depth=3)
            second = random_natural_order(rng, alphabet, max_len=4, max_depth=3)
            assert dx.equivalent(first, second) == (
                relation_rows(first) == relation_rows(second)
            )


class TestValidateExplicit:
    def _equality_order(self, alphabet):
        return frozenset((i, j) for i in alphabet.models() for j in alphabet.models())

    def test_full_order_is_valid(self):
        order = dx.ExplicitOrder(A, self._equality_order(A))
        assert dx.validate_explicit(order) == []

    def test_missing_reflexive_pair_is_reported(self):
        pairs = self._equality_order(A) - {(m("0"), m("0"))}
        violations = dx.validate_explicit(dx.ExplicitOrder(A, pairs))
        assert dx.Violation("reflexivity", (m("0"),)) in violations

    def test_missing_transitive_pair_is_reported(self):
        # 00 <= 01 and 01 <= 10, but 00 <= 10 is missing.
        pairs = self._equality_order(AB) - {(m("00"), m("10"))}
        order = dx.ExplicitOrder(AB, frozenset(pairs))
        violations = dx.validate_explicit(order)
        assert any(
            v.kind == "transitivity" and v.models == (m("00"), m("01"), m("10"))
            for v in violations
        )

    def test_missing_comparison_is_reported(self):
        pairs = {(i, i) for i in A.models()}
        violations = dx.validate_explicit(dx.ExplicitOrder(A, frozenset(pairs)))
        assert dx.Violation("connectedness", (m("0"), m("1"))) in violations

    def test_violation_strings_name_the_models(self):
        text = str(dx.Violation("transitivity", (m("00"), m("01"), m("10"))))
        assert text == "transitivity violation at (00, 01, 10)"


class TestPreorderAxioms:
    def test_random_orders_of_every_kind(self):
        rng = random.Random(2024)
        for _ in range(20):
            alphabet = alphabet_of(rng.randint(1, 4))
            for order in (
                random_level_order(rng, alphabet, max_len=4, max_depth=3),
                random_lex_order(rng, alphabet, max_len=4, max_depth=3),
                random_natural_order(rng, alphabet, max_len=4, max_depth=3),
                random_explicit_order(rng, alphabet),
            ):
                rows = relation_rows(order)
                assert is_reflexive(rows)
                assert is_transitive(rows)
                assert is_connected(rows)

    @settings(max_examples=40, deadline=None)
    @given(
        head=formula_strategy(AB, max_leaves=5),
        tail=formula_strategy(AB, max_leaves=5),
    )
    def test_lex_histories_from_strategies(self, head, tail):
        rows = relation_rows(dx.LexOrder(AB, (head, tail)))
        assert is_reflexive(rows) and is_transitive(rows) and is_connected(rows)

    @settings(max_examples=40, deadline=None)
    @given(
        head=formula_strategy(AB, max_leaves=5),
        tail=formula_strategy(AB, max_leaves=5),
    )
    def test_natural_histories_from_strategies(self, head, tail):
        rows = relation_rows(dx.NaturalOrder(AB, (head, tail)))
        assert is_reflexive(rows) and is_transitive(rows) and is_connected(rows)


class TestHistoryFacts:
    def test_mutual_lex_comparability_implies_member_ties(self):
        rng = random.Random(31)
        for _ in range(30):
            alphabet = alphabet_of(rng.randint(1, 4))
            order = random_lex_order(rng, alphabet, max_len=4, max_depth=3)
            maps = [dx.truth_bitmap(member, alphabet) for member in order.history]
            for i in alphabet.models():
                for j in alphabet.models():
                    if dx.leq_lex(order, i, j) and dx.leq_lex(order, j, i):
                        for sat in maps:
                            assert sat >> i.position & 1 == sat >> j.position & 1

    def test_models_falsifying_every_member_sit_at_the_bottom(self):
        rng = random.Random(32)
        for _ in range(30):
            alphabet = alphabet_of(rng.randint(1, 4))
            order = random_natural_order(rng, alphabet, max_len=4, max_depth=3)
            maps = [dx.truth_bitmap(member, alphabet) for member in order.history]
            for j in alphabet.models():
                if any(sat >> j.position & 1 for sat in maps):
                    continue
                for i in alphabet.models():
                    assert dx.leq_natural(order, i, j)


class TestWideAlphabets:
    WIDE = dx.Alphabet(tuple(f"v{k}" for k in range(25)))

    def test_level_and_lex_comparisons_work_past_the_cap(self):
        i = dx.Model((True,) * 25)
        j = dx.Model((False,) * 25)
        level = dx.LevelOrder(self.WIDE, (dx.Var("v0"), dx.Not(dx.Var("v0"))))
        assert dx.leq_level(level, i, j)
        assert not dx.leq_level(level, j, i)
        lex = dx.LexOrder(self.WIDE, (dx.Var("v3"),))
        assert dx.leq_lex(lex, i, j)
        assert not dx.leq_lex(lex, j, i)

    def test_natural_comparison_needs_enumeration(self):
        order = dx.NaturalOrder(self.WIDE, (dx.Var("v0"),))
        i = dx.Model((True,) * 25)
        with pytest.raises(dx.CapExceededError):
            dx.leq_natural(order, i, i)

    def test_class_extraction_needs_enumeration(self):
        with pytest.raises(dx.CapExceededError):
            dx.classes_of(dx.LevelOrder(self.WIDE, (dx.Var("v0"),)))


class TestOrderConstruction:
    def test_undeclared_variables_rejected(self):
        with pytest.raises(dx.UndeclaredVariableError):
            dx.LevelOrder(A, (dx.Var("z"),))

    def test_pair_width_checked(self):
        with pytest.raises(dx.AlphabetMismatchError):
            dx.ExplicitOrder(A, frozenset({(m("00"), m("0"))}))

    def test_kind_of(self):
        assert dx.kind_of(dx.LexOrder(A, ())) == "lexicographic"
        assert dx.kind_of(dx.NaturalOrder(A, ())) == "natural"
        assert dx.kind_of(dx.LevelOrder(A, ())) == "level"
        assert dx.kind_of(random_explicit_order(random.Random(1), A)) == "explicit"


class TestMemberChecksStopAtResolvedNodes:
    ORDERS = (dx.LevelOrder, dx.LexOrder, dx.NaturalOrder)

    def test_a_bitmap_over_a_wider_alphabet_vouches_for_nothing(self):
        formula = f("a & b")
        dx.truth_bitmap(formula, AB)
        for kind in self.ORDERS:
            with pytest.raises(dx.UndeclaredVariableError) as err:
                kind(A, (formula,))
            assert err.value.name == "b"

    def test_the_first_stray_variable_is_named_when_members_are_skipped(self):
        resolved = f("a | !b")
        dx.truth_bitmap(resolved, AB)
        stray = (dx.Or(dx.Var("e"), dx.Var("d")), dx.And(resolved, dx.Var("c")))
        for kind in self.ORDERS:
            with pytest.raises(dx.UndeclaredVariableError) as err:
                kind(AB, (resolved, *stray))
            assert err.value.name == "c"

    def test_an_equal_alphabet_lets_the_check_skip(self, monkeypatch):
        formula = f("(a | b) & !a")
        dx.truth_bitmap(formula, AB)
        entered = []
        operands = formula_module._operands
        monkeypatch.setattr(
            formula_module, "_operands", lambda node: entered.append(node) or operands(node)
        )
        equal = dx.Alphabet(("a", "b"))
        assert equal == AB and equal is not AB
        for kind in self.ORDERS:
            kind(equal, (formula,))
        assert entered == []
        prepended = dx.Not(formula)
        dx.LexOrder(equal, (prepended, formula))
        assert entered == [prepended]  # only the new node is walked


def evaluated_leq(order, i, j):
    """Level and lexicographic comparisons from `evaluate` alone."""
    held = {
        x: [dx.evaluate(g, x, order.alphabet) for g in dx.member_formulas(order)]
        for x in (i, j)
    }
    if isinstance(order, dx.LevelOrder):
        rank = {x: (row.index(True) if True in row else len(row)) for x, row in held.items()}
        return rank[i] <= rank[j]
    return [not b for b in held[i]] <= [not b for b in held[j]]


class TestMemberBitmaps:
    WIDE = dx.Alphabet(tuple(f"v{k}" for k in range(21)))

    def test_past_the_cap_comparisons_evaluate(self, monkeypatch):
        monkeypatch.setattr(orders_module, "truth_bitmap", None)  # must not be called
        v0, v20 = dx.Var("v0"), dx.Var("v20")
        rng = random.Random(21)
        models = [dx.Model(tuple(rng.random() < 0.5 for _ in range(21))) for _ in range(12)]
        for order in (
            dx.LevelOrder(self.WIDE, (dx.And(v0, v20), v20)),
            dx.LexOrder(self.WIDE, (v20, v0)),
        ):
            for i in models:
                for j in models:
                    assert dx.leq(order, i, j) == evaluated_leq(order, i, j)

    @pytest.mark.parametrize("kind", ["explicit", "level", "lexicographic", "natural"])
    def test_the_first_wrong_width_model_is_named(self, kind):
        order = {
            "explicit": dx.to_explicit(dx.LevelOrder(AB, (f("a"),))),
            "level": dx.LevelOrder(AB, (f("a"),)),
            "lexicographic": dx.LexOrder(AB, (f("a"),)),
            "natural": dx.NaturalOrder(AB, (f("a"),)),
        }[kind]
        for i, j, named in (("1", "01", "1"), ("01", "110", "110"), ("0", "111", "0")):
            with pytest.raises(dx.AlphabetMismatchError) as err:
                dx.leq(order, m(i), m(j))
            assert str(err.value) == f"model {named} does not fit a 2-variable alphabet"

    def test_bitmaps_stored_under_an_equal_alphabet_give_the_same_answers(self):
        abc, other = alphabet_of(3), dx.Alphabet(("a", "b", "c"))
        rng = random.Random(33)
        for _ in range(12):
            members = tuple(random_formula(rng, abc, 3) for _ in range(2))
            for formula in members:
                dx.truth_bitmap(formula, abc)
            for order in (dx.LevelOrder(other, members), dx.LexOrder(other, members)):
                for i in abc.models():
                    for j in abc.models():
                        assert dx.leq(order, i, j) == evaluated_leq(order, i, j)
            order = dx.NaturalOrder(other, members)
            for i in abc.models():
                for j in abc.models():
                    assert dx.leq(order, i, j) == naive_leq_natural(abc, members, i, j)



class TestTrustedOutputs:
    """Orders whose members are built only from nodes already checked against
    the alphabet skip the constructor's walk, and equal what it builds."""

    @staticmethod
    def forbid_walks(monkeypatch):
        def walked(alphabet, formulas):
            raise AssertionError("members were walked again")

        monkeypatch.setattr(orders_module, "_check_formulas", walked)

    @staticmethod
    def rebuilt(order):
        """The same order through its public constructor."""
        if isinstance(order, dx.LevelOrder):
            return dx.LevelOrder(order.alphabet, order.levels, normalized=order.normalized)
        return type(order)(order.alphabet, order.history)

    def test_translations_and_revisions_walk_no_member(self, monkeypatch):
        rng = random.Random(41)
        abc = alphabet_of(3)
        for _ in range(20):
            members = tuple(random_formula(rng, abc, 3) for _ in range(3))
            lex, natural, level = (
                kind(abc, members) for kind in (dx.LexOrder, dx.NaturalOrder, dx.LevelOrder)
            )
            formula = random_formula(rng, abc, 2)
            self.forbid_walks(monkeypatch)
            normal = dx.normalize_level(level)
            outputs = [
                dx.lex_to_level(lex),
                dx.lex_to_level(lex, prune=True),
                dx.natural_to_level(natural, lenient=True),
                normal,
                dx.level_to_lex(level),
                dx.level_to_natural(level),
                dx.explicit_to_level(dx.to_explicit(level)),
                dx.revise_lex_history(lex, formula),
                dx.revise_natural_history(natural, formula),
                dx.revise_level_lexicographically(normal, formula, prune=True),
            ]
            if dx.is_consistent(formula, abc):
                outputs.append(dx.revise_level_naturally(normal, formula))
            monkeypatch.undo()
            for output in outputs:
                assert output == self.rebuilt(output)
                assert repr(output) == repr(self.rebuilt(output))

    def test_public_constructors_still_walk(self, monkeypatch):
        self.forbid_walks(monkeypatch)
        for kind in (dx.LevelOrder, dx.LexOrder, dx.NaturalOrder):
            with pytest.raises(AssertionError):
                kind(AB, (f("a"),))
