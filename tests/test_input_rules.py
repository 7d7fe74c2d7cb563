"""Input rules stated once: a model's width, a formula's variables, an
order's kind and a level order's claim to be normalized."""

import pickle
import random

import pytest

import doxastic as dx
from doxastic.orders import _trusted

from conftest import alphabet_of, random_level_order

AB = alphabet_of(2)
WIDE = dx.Alphabet(tuple(f"v{k}" for k in range(21)))  # past the enumeration cap


def m(text):
    return dx.Model.from_string(text)


def f(text, alphabet=AB):
    return dx.parse(text, alphabet)


class TestModelWidth:
    WIDTH_ENTRIES = {
        "evaluate": lambda bad: dx.evaluate(f("a"), bad, AB),
        "formula_from_models": lambda bad: dx.formula_from_models({m("01"), bad}, AB),
        "ExplicitOrder": lambda bad: dx.ExplicitOrder(AB, {(m("00"), m("00")), (m("01"), bad)}),
        "ClassPartition": lambda bad: dx.ClassPartition(AB, ({m("00"), m("01")}, {bad})),
        "leq": lambda bad: dx.leq(dx.LevelOrder(AB, (f("a"),)), m("10"), bad),
    }

    @pytest.mark.parametrize("entry", WIDTH_ENTRIES)
    @pytest.mark.parametrize("bad", ["110", "1"])
    def test_one_error_and_one_message(self, entry, bad):
        with pytest.raises(dx.AlphabetMismatchError) as err:
            self.WIDTH_ENTRIES[entry](m(bad))
        assert type(err.value) is dx.AlphabetMismatchError
        assert str(err.value) == f"model {bad} does not fit a 2-variable alphabet"

    def test_minterms_come_in_bitstring_order(self):
        models = [m(text) for text in ("11", "00", "10")]
        assert dx.render(dx.formula_from_models(models, AB)) == (
            "!a & !b | a & !b | a & b"
        )


class TestVariables:
    STRAY = dx.And(dx.Or(dx.Var("e"), dx.Var("a")), dx.Var("d"))  # "d" sorts first

    @pytest.mark.parametrize("kind", [dx.LevelOrder, dx.LexOrder, dx.NaturalOrder])
    def test_constructors(self, kind):
        with pytest.raises(dx.UndeclaredVariableError) as err:
            kind(AB, (f("a"), self.STRAY))
        assert err.value.name == "d"
        assert str(err.value) == "undeclared variable 'd'"

    REVISIONS = {
        "revise_natural_history": (dx.revise_natural_history, dx.NaturalOrder(AB, (f("a"),))),
        "revise_lex_history": (dx.revise_lex_history, dx.LexOrder(AB, (f("a"),))),
        "revise_level_naturally": (
            dx.revise_level_naturally,
            dx.LevelOrder(AB, (f("a"), f("!a")), normalized=True),
        ),
        "revise_level_lexicographically": (
            dx.revise_level_lexicographically,
            dx.LevelOrder(AB, (f("a"), f("!a")), normalized=True),
        ),
    }

    @pytest.mark.parametrize("revision", REVISIONS)
    def test_revisions(self, revision):
        revise, order = self.REVISIONS[revision]
        with pytest.raises(dx.UndeclaredVariableError) as err:
            revise(order, self.STRAY)
        assert err.value.name == "d"
        assert isinstance(err.value, dx.AlphabetMismatchError)

    def test_an_undeclared_variable_is_an_alphabet_mismatch(self):
        assert issubclass(dx.UndeclaredVariableError, dx.AlphabetMismatchError)
        with pytest.raises(dx.AlphabetMismatchError):
            dx.parse("a & z", AB)


LEVEL = dx.LevelOrder(AB, (f("a"), f("!a")))
LEX = dx.LexOrder(AB, (f("a"), f("b")))
NATURAL = dx.NaturalOrder(AB, (f("a"), f("b")))
EXPLICIT = dx.to_explicit(LEVEL)


def revising_by_b(revise):
    return lambda order: revise(order, f("b"))


# Each entry with an order of a kind it does not take, and the kind it wants.
WRONG_KINDS = {
    "lex_to_level-natural": (dx.lex_to_level, NATURAL, "lexicographic"),
    "lex_to_level-level": (dx.lex_to_level, LEVEL, "lexicographic"),
    "natural_to_level-lexicographic": (dx.natural_to_level, LEX, "natural"),
    "natural_to_level-explicit": (dx.natural_to_level, EXPLICIT, "natural"),
    "natural_to_lex-lexicographic": (dx.natural_to_lex, LEX, "natural"),
    "revise_lex_history-natural": (revising_by_b(dx.revise_lex_history), NATURAL, "lexicographic"),
    "revise_natural_history-lexicographic": (
        revising_by_b(dx.revise_natural_history),
        LEX,
        "natural",
    ),
    "normalize_level-lexicographic": (dx.normalize_level, LEX, "level"),
    "level_to_natural-natural": (dx.level_to_natural, NATURAL, "level"),
    "level_to_lex-lexicographic": (dx.level_to_lex, LEX, "level"),
    "revise_level_naturally-natural": (revising_by_b(dx.revise_level_naturally), NATURAL, "level"),
    "revise_level_lexicographically-lexicographic": (
        revising_by_b(dx.revise_level_lexicographically),
        LEX,
        "level",
    ),
    "is_normalized-lexicographic": (dx.is_normalized, LEX, "level"),
    "class_bound_check-lexicographic": (dx.class_bound_check, LEX, "level or natural"),
}


@pytest.mark.parametrize("case", WRONG_KINDS)
def test_an_order_of_the_wrong_kind_is_refused(case):
    entry, order, wanted = WRONG_KINDS[case]
    with pytest.raises(TypeError) as err:
        entry(order)
    assert str(err.value) == f"expected a {wanted} order, not {order.kind}"


class TestNormalizedClaim:
    @pytest.mark.parametrize(
        "levels",
        [("a | b", "a"), ("a",), ("a & !a", "true"), ("a", "b", "!a & !b"), ()],
    )
    def test_a_false_claim_is_refused(self, levels):
        with pytest.raises(dx.NotNormalizedError):
            dx.LevelOrder(AB, tuple(f(text) for text in levels), normalized=True)
        dx.LevelOrder(AB, tuple(f(text) for text in levels))  # no claim, no check

    def test_a_true_claim_is_accepted_and_pickles_as_before(self):
        a = dx.Var("a")
        order = dx.LevelOrder(AB, (a, dx.Not(a)), normalized=True)
        assert sorted(vars(order)) == ["alphabet", "levels", "normalized"]
        trusted = _trusted(dx.LevelOrder, AB, (a, dx.Not(a)), normalized=True)
        assert pickle.dumps(order) == pickle.dumps(trusted)

    def test_past_the_cap_a_claim_is_not_checked(self):
        order = dx.LevelOrder(WIDE, (dx.Var("v0"), dx.Var("v0")), normalized=True)
        assert order.normalized

    def test_the_claim_is_accepted_exactly_when_it_holds(self):
        rng = random.Random(14)
        abc = alphabet_of(3)
        for _ in range(300):
            order = random_level_order(rng, abc, max_len=4, max_depth=2)
            dx.LevelOrder(abc, dx.normalize_level(order).levels, normalized=True)
            if dx.is_normalized(order):
                dx.LevelOrder(abc, order.levels, normalized=True)
            else:
                with pytest.raises(dx.NotNormalizedError):
                    dx.LevelOrder(abc, order.levels, normalized=True)
