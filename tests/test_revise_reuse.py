"""Revising and saving a state reuse what it already holds: a level rewrite
gives each new member the AND of bitmaps the order and the revising formula
already hold, a revising formula is walked once, and `serialize` renders each
shared node once.

The documents compared here must not depend on string hashing, so this file
also runs under a second hash seed.
"""

import random

import pytest

import doxastic as dx
from doxastic import cli
from doxastic import formula as formula_module

from conftest import (
    alphabet_of,
    random_consistent_formula,
    random_formula,
    random_normalized_level_order,
)

REVISIONS = (
    dx.revise_natural_history,
    dx.revise_lex_history,
    dx.revise_level_naturally,
    dx.revise_level_lexicographically,
)


def empty_state(revise, alphabet):
    """The state each revision starts from, built before any count is taken."""
    if revise is dx.revise_natural_history:
        return dx.NaturalOrder(alphabet, ())
    if revise is dx.revise_lex_history:
        return dx.LexOrder(alphabet, ())
    return dx.LevelOrder(alphabet, (dx.TRUE,), normalized=True)


def interned(formulas):
    """The formulas rebuilt so that equal subformulas are one node object."""
    table = {}

    def visit(node, *operands):
        kind = type(node)
        key = (kind, node.name) if kind is dx.Var else (kind, *map(id, operands))
        return table.setdefault(key, kind(*operands) if operands else node)

    values = formula_module._fold(formulas, visit)
    return [values[id(formula)] for formula in formulas]


def counting(monkeypatch, name):
    """Wrap `formula.<name>` so that its calls are counted."""
    calls, original = [], getattr(formula_module, name)

    def wrapper(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(formula_module, name, wrapper)
    return calls


class TestLevelRewrites:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_no_bitmap_is_computed_per_member(self, n):
        rng, alphabet = random.Random(f"reuse/{n}"), alphabet_of(n)
        for _ in range(15):
            order = random_normalized_level_order(rng, alphabet)
            formula = random_consistent_formula(rng, alphabet, 3)
            dx.truth_bitmap(formula, alphabet)
            order._bitmaps  # noqa: B018 - read before the counts are zeroed
            rewrites = (
                lambda: dx.revise_level_naturally(order, formula),
                lambda: dx.revise_level_lexicographically(order, formula),
                lambda: dx.revise_level_lexicographically(order, formula, prune=True),
            )
            for rewrite in rewrites:
                dx.truth_bitmap.cache_clear()
                out = rewrite()
                assert dx.truth_bitmap.cache_info()[1] == 0
                fresh = [dx.parse(dx.render(member), alphabet) for member in out.levels]
                assert out._bitmaps == tuple(dx.truth_bitmap(m, alphabet) for m in fresh)
                held = [formula_module._known_bitmap(alphabet, m) for m in out.levels]
                assert held == list(out._bitmaps)

    def test_the_negation_keeps_its_bitmap(self):
        alphabet = alphabet_of(3)
        order = random_normalized_level_order(random.Random(3), alphabet)
        formula = dx.parse("a | !c", alphabet)
        out = dx.revise_level_lexicographically(order, formula)
        negation = out.levels[-1].left
        assert type(negation) is dx.Not and negation.operand is formula
        assert formula_module._known_bitmap(alphabet, negation) == dx.truth_bitmap(
            dx.parse("!(a | !c)", alphabet), alphabet
        )


class TestOneWalk:
    @pytest.mark.parametrize("revise", REVISIONS, ids=lambda r: r.__name__)
    def test_a_fresh_formula_is_not_walked_for_its_names(self, monkeypatch, revise):
        alphabet = alphabet_of(4)
        state = empty_state(revise, alphabet)
        formula = dx.parse("(a -> b) & !(c <-> d) | a", alphabet)
        names = counting(monkeypatch, "_name")
        out = revise(state, formula)
        assert names == []
        first = dx.member_formulas(out)[0]
        assert first is formula or first.left is formula

    @pytest.mark.parametrize("revise", REVISIONS, ids=lambda r: r.__name__)
    @pytest.mark.parametrize("width", [3, 21])
    @pytest.mark.parametrize(
        "build, stray",
        [
            (lambda V: dx.And(V("zz"), dx.Or(V("a"), V("bb"))), "bb"),
            (lambda V: dx.And(V("bb"), dx.Or(V("a"), V("zz"))), "bb"),
            (lambda V: dx.Iff(dx.Not(V("y")), dx.And(V("c"), V("x"))), "x"),
        ],
    )
    def test_the_sorted_first_stray_name_is_named(self, revise, width, build, stray):
        alphabet = dx.Alphabet(["a", "b", "c", *(f"v{k}" for k in range(width - 3))])
        state = empty_state(revise, alphabet)
        formula = build(dx.Var)
        for _ in range(2):  # a failed revision leaves nothing that hides the name
            with pytest.raises(dx.UndeclaredVariableError) as caught:
                revise(state, formula)
            assert caught.value.name == stray


class TestOneFoldPerDocument:
    @pytest.mark.parametrize("seed", range(3))
    def test_serialize_ropes_each_distinct_node_once(self, monkeypatch, seed):
        # Distinct history formulas built by `|`, `->` and `<->` alone, over
        # shared nodes: all hold in the all-true model, and the unfolding's
        # new `!` and `&` nodes cannot equal any node they already have.
        alphabet, rng = alphabet_of(5), random.Random(seed)
        history = [dx.Var(name) for name in alphabet.vars]
        while len(history) < 16:
            kind = rng.choice((dx.Or, dx.Implies, dx.Iff))
            formula = kind(rng.choice(history), rng.choice(history))
            if formula not in history:
                history.append(formula)
        history = interned(rng.sample(history, 12))
        unfolded = dx.natural_to_level(dx.NaturalOrder(alphabet, history))
        ropes = counting(monkeypatch, "_rope")
        text = cli.serialize(unfolded)
        assert len(ropes) == dx.dag_node_count(unfolded.levels)
        assert len(ropes) < sum(map(dx.node_count, unfolded.levels))
        assert cli.load_document(text) == unfolded

    @pytest.mark.parametrize("seed", range(5))
    def test_render_all_equals_render_on_random_formulas(self, seed):
        rng = random.Random(seed)
        alphabet = alphabet_of(4)
        formulas = tuple(random_formula(rng, alphabet, 5) for _ in range(30))
        assert formula_module._render_all(formulas) == [dx.render(f) for f in formulas]

    def test_render_all_equals_render_on_shared_subterms(self):
        alphabet = alphabet_of(3)
        a, b, c = (dx.parse(name, alphabet) for name in "abc")
        shared = dx.Implies(dx.Or(a, b), c)
        formulas = (
            shared,
            dx.And(shared, shared),
            dx.Implies(shared, dx.Not(shared)),
            dx.Iff(dx.Iff(a, shared), shared),
            shared,
            a,
        )
        texts = formula_module._render_all(formulas)
        assert texts == [dx.render(f) for f in formulas]
        assert texts[1] == "(a | b -> c) & (a | b -> c)"

    def test_render_all_equals_render_on_a_deep_chain(self):
        alphabet = alphabet_of(2)
        chain, prefixes = dx.Var("a"), []
        for k in range(10**4):
            chain = dx.Implies(dx.Var("b"), chain) if k % 2 else dx.Not(chain)
            if k % 1000 == 999:
                prefixes.append(chain)
        formulas = tuple(prefixes)
        texts = formula_module._render_all(formulas)
        assert texts == [dx.render(f) for f in formulas]
        assert dx.parse(texts[-1], alphabet) == chain
