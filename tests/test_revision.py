"""Revision operators: history prepends and direct level-order rewrites."""

import random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doxastic as dx

from conftest import (
    alphabet_of,
    formula_strategy,
    random_consistent_formula,
    random_formula,
    random_normalized_level_order,
)

A = alphabet_of(1)
AB = alphabet_of(2)


def m(text):
    return dx.Model.from_string(text)


def f(text, alphabet=AB):
    return dx.parse(text, alphabet)


def class_strings(order):
    return [sorted(str(x) for x in cls) for cls in dx.classes_of(order).classes]


class TestHistoryPrepends:
    def test_natural_prepend_to_empty(self):
        out = dx.revise_natural_history(dx.NaturalOrder(A, ()), f("!a", A))
        assert out.history == (f("!a", A),)

    def test_natural_prepend_keeps_older_entries(self):
        start = dx.NaturalOrder(AB, (f("!a"),))
        out = dx.revise_natural_history(start, f("a | b"))
        assert out.history == (f("a | b"), f("!a"))
        assert class_strings(dx.natural_to_level(out)) == [["01"], ["00"], ["10", "11"]]

    def test_lex_prepend(self):
        assert dx.revise_lex_history(dx.LexOrder(AB, ()), f("a")).history == (f("a"),)
        out = dx.revise_lex_history(dx.LexOrder(AB, (f("b"),)), f("a"))
        assert out.history == (f("a"), f("b"))
        assert class_strings(out) == [["11"], ["10"], ["01"], ["00"]]

    def test_foreign_variables_rejected(self):
        with pytest.raises(dx.AlphabetMismatchError):
            dx.revise_natural_history(dx.NaturalOrder(A, ()), dx.Var("z"))
        with pytest.raises(dx.AlphabetMismatchError):
            dx.revise_lex_history(dx.LexOrder(A, ()), dx.Var("z"))

    def test_inconsistent_formulas_are_accepted_and_inert(self):
        start = dx.NaturalOrder(A, (f("a", A),))
        out = dx.revise_natural_history(start, f("a & !a", A))
        assert class_strings(out) == class_strings(start)

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.lists(formula_strategy(alphabet_of(3), max_leaves=4), max_size=3),
        prepends=st.lists(
            st.one_of(formula_strategy(alphabet_of(3), max_leaves=4), st.just(dx.FALSE)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_extended_promotion_masks_equal_a_fresh_computation(self, start, prepends):
        abc = alphabet_of(3)
        order = dx.NaturalOrder(abc, tuple(start))
        dx.leq_natural(order, abc.model_at(0), abc.model_at(7))
        for formula in prepends:
            order = dx.revise_natural_history(order, formula)
            assert "_promotion" in vars(order)  # extended, not yet recomputed
            assert order._promotion == dx.NaturalOrder(abc, order.history)._promotion


class TestLexPrepends:
    @settings(max_examples=60, deadline=None)
    @given(
        start=st.lists(formula_strategy(alphabet_of(3), max_leaves=4), max_size=3),
        prepends=st.lists(
            st.tuples(
                st.one_of(formula_strategy(alphabet_of(3), max_leaves=4), st.just(dx.FALSE)),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_extended_bitmaps_equal_a_fresh_computation(self, start, prepends):
        abc = alphabet_of(3)
        order = dx.LexOrder(abc, tuple(start))
        for formula, read_first in prepends:
            if read_first:
                dx.leq_lex(order, abc.model_at(0), abc.model_at(7))
            extended = "_bitmaps" in vars(order)
            order = dx.revise_lex_history(order, formula)
            assert ("_bitmaps" in vars(order)) == extended  # exactly when the parent had its tuple
            if extended:
                assert vars(order)["_bitmaps"] == dx.LexOrder(abc, order.history)._bitmaps
        assert order._bitmaps == dx.LexOrder(abc, order.history)._bitmaps

    def test_past_the_cap_a_prepend_compares_through_evaluate(self):
        wide = dx.Alphabet(tuple(f"v{k}" for k in range(21)))
        rng = random.Random(21)
        models = [dx.Model(tuple(rng.random() < 0.5 for _ in range(21))) for _ in range(10)]
        order = dx.LexOrder(wide, (dx.Var("v0"),))
        dx.leq(order, models[0], models[1])
        order = dx.revise_lex_history(order, dx.Or(dx.Var("v20"), dx.Not(dx.Var("v3"))))
        falsified = {
            x: [not dx.evaluate(g, x, wide) for g in order.history] for x in models
        }
        for i in models:
            for j in models:
                assert dx.leq(order, i, j) == (falsified[i] <= falsified[j])

    def test_a_prepend_and_its_first_read_cost_one_new_bitmap(self):
        alphabet = alphabet_of(8)
        names = alphabet.vars
        rng = random.Random(1000)

        def fresh():
            a, b, c = rng.sample(names, 3)
            return dx.And(dx.Or(dx.Var(a), dx.Not(dx.Var(b))), dx.Var(c))

        order = dx.LexOrder(alphabet, tuple(fresh() for _ in range(1000)))
        i, j = alphabet.model_at(3), alphabet.model_at(200)
        dx.leq(order, i, j)
        seconds = []
        for formula in [fresh() for _ in range(30)]:
            misses = dx.truth_bitmap.cache_info()[1]
            started = perf_counter()
            order = dx.revise_lex_history(order, formula)
            dx.leq(order, i, j)
            seconds.append(perf_counter() - started)
            assert dx.truth_bitmap.cache_info()[1] == misses + 1
        assert min(seconds) < 1e-4


class TestRewrittenBitmaps:
    """A rewritten level order's bitmaps are its members' own: each equals
    the bitmap of the member's text parsed afresh, with no node memo."""

    @staticmethod
    def assert_independent(order):
        alphabet = order.alphabet
        fresh = tuple(
            dx.truth_bitmap(dx.parse(dx.render(member), alphabet), alphabet)
            for member in order.levels
        )
        assert order._bitmaps == fresh
        assert tuple(dx.truth_bitmap(member, alphabet) for member in order.levels) == fresh

    def test_revisions_and_normalization(self):
        rng = random.Random(79)
        for _ in range(40):
            alphabet = alphabet_of(rng.randint(1, 4))
            q = random_normalized_level_order(rng, alphabet, max_len=4, max_depth=3)
            assert q._bitmaps  # the members hold bitmaps, so the rewrites start from them
            revising = random_consistent_formula(rng, alphabet, 3)
            for out in (
                dx.revise_level_naturally(q, revising),
                dx.revise_level_lexicographically(q, revising),
                dx.revise_level_lexicographically(q, revising, prune=True),
            ):
                self.assert_independent(out)
                self.assert_independent(dx.normalize_level(out))


class TestReviseLevelNaturally:
    def test_tautology_seed_splits_in_place(self):
        q = dx.LevelOrder(A, (dx.TRUE,))
        out = dx.revise_level_naturally(q, f("a", A))
        assert out.levels == (dx.And(f("a", A), dx.TRUE), dx.And(dx.Not(f("a", A)), dx.TRUE))

    def test_matches_the_prepend_then_translate_route(self):
        q = dx.normalize_level(dx.LevelOrder(AB, (f("!a"), f("a"))))
        out = dx.revise_level_naturally(q, f("a | b"))
        assert out.levels == (
            dx.And(f("a | b"), f("!a")),
            dx.And(dx.Not(f("a | b")), f("!a")),
            f("a"),
        )
        via_history = dx.natural_to_level(
            dx.revise_natural_history(dx.level_to_natural(q), f("a | b"))
        )
        assert dx.equivalent(out, via_history)

    def test_inconsistent_revision_rejected(self):
        q = dx.LevelOrder(A, (f("a", A), f("!a", A)))
        with pytest.raises(dx.InconsistentRevisionError):
            dx.revise_level_naturally(q, f("a & !a", A))

    def test_unnormalized_input_rejected(self):
        q = dx.LevelOrder(AB, (f("a | b"), f("!a")))
        with pytest.raises(dx.NotNormalizedError):
            dx.revise_level_naturally(q, f("a"))

    def test_semantically_normalized_input_accepted_without_flag(self):
        q = dx.LevelOrder(A, (f("a", A), f("!a", A)))  # flag not set
        out = dx.revise_level_naturally(q, f("a", A))
        assert class_strings(out) == [["1"], ["0"]]


class TestReviseLevelLexicographically:
    def test_tautology_seed_doubles(self):
        q = dx.LevelOrder(A, (dx.TRUE,))
        out = dx.revise_level_lexicographically(q, f("a", A))
        assert out.levels == (dx.And(f("a", A), dx.TRUE), dx.And(dx.Not(f("a", A)), dx.TRUE))

    def test_doubling_matches_the_unfolded_history(self):
        q = dx.LevelOrder(AB, (f("b"), f("!b")))
        out = dx.revise_level_lexicographically(q, f("a"))
        unfolded = dx.lex_to_level(dx.LexOrder(AB, (f("a"), f("b"))))
        assert out.levels == unfolded.levels

    def test_pruning_drops_empty_members(self):
        q = dx.LevelOrder(A, (f("a", A), f("!a", A)))
        out = dx.revise_level_lexicographically(q, f("a", A), prune=True)
        assert len(out.levels) == 2
        assert dx.equivalent(out, dx.LevelOrder(A, (f("a", A), f("!a", A))))

    def test_unnormalized_input_rejected(self):
        q = dx.LevelOrder(AB, (f("a | b"), f("!a")))
        with pytest.raises(dx.NotNormalizedError):
            dx.revise_level_lexicographically(q, f("a"))


class TestCommutation:
    def test_natural_rewrite_commutes_with_prepending(self):
        rng = random.Random(53)
        for _ in range(40):
            alphabet = alphabet_of(rng.randint(1, 4))
            q = random_normalized_level_order(rng, alphabet, max_len=4, max_depth=3)
            revising = random_consistent_formula(rng, alphabet, 3)
            direct = dx.revise_level_naturally(q, revising)
            routed = dx.natural_to_level(
                dx.revise_natural_history(dx.level_to_natural(q), revising)
            )
            assert dx.equivalent(direct, routed)

    def test_lex_rewrite_commutes_with_prepending(self):
        rng = random.Random(59)
        for _ in range(40):
            alphabet = alphabet_of(rng.randint(1, 4))
            q = random_normalized_level_order(rng, alphabet, max_len=4, max_depth=3)
            revising = random_formula(rng, alphabet, 3)
            direct = dx.revise_level_lexicographically(q, revising, prune=True)
            routed = dx.lex_to_level(
                dx.revise_lex_history(dx.level_to_lex(q), revising), prune=True
            )
            assert dx.equivalent(direct, routed)


class TestRevisionSemantics:
    def test_top_class_holds_only_models_of_the_new_formula(self):
        rng = random.Random(61)
        for _ in range(30):
            alphabet = alphabet_of(rng.randint(1, 4))
            q = random_normalized_level_order(rng, alphabet, max_len=4, max_depth=3)
            revising = random_consistent_formula(rng, alphabet, 3)
            satisfying = dx.models_of(revising, alphabet)
            for revised in (
                dx.revise_level_naturally(q, revising),
                dx.revise_level_lexicographically(q, revising),
            ):
                top = dx.classes_of(revised).classes[0]
                assert top <= satisfying

    def test_natural_top_class_is_the_promoted_slice(self):
        rng = random.Random(67)
        for _ in range(30):
            alphabet = alphabet_of(rng.randint(1, 4))
            q = random_normalized_level_order(rng, alphabet, max_len=4, max_depth=3)
            revising = random_consistent_formula(rng, alphabet, 3)
            satisfying = dx.models_of(revising, alphabet)
            target = next(
                member
                for member in q.levels
                if dx.models_of(member, alphabet) & satisfying
            )
            expected_top = dx.models_of(target, alphabet) & satisfying
            revised = dx.revise_level_naturally(q, revising)
            assert dx.classes_of(revised).classes[0] == frozenset(expected_top)

    def test_natural_revision_hitting_the_top_class_is_idempotent(self):
        rng = random.Random(71)
        checked = 0
        while checked < 25:
            alphabet = alphabet_of(rng.randint(1, 4))
            q = random_normalized_level_order(rng, alphabet, max_len=4, max_depth=3)
            revising = random_consistent_formula(rng, alphabet, 3)
            top = dx.classes_of(q).classes[0]
            if not (dx.models_of(revising, alphabet) & top):
                continue
            once = dx.revise_level_naturally(q, revising)
            twice = dx.revise_level_naturally(dx.normalize_level(once), revising)
            assert dx.classes_of(once) == dx.classes_of(twice)
            checked += 1
