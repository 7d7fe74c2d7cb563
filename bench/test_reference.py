"""Hand-worked cases for the benchmark's reference semantics.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest -q bench/test_reference.py``.
"""

from doxastic.formula import FALSE, TRUE, And, Iff, Implies, Not, Or, Var

import reference as ref

A, B, C = Var("a"), Var("b"), Var("c")
AB = ("a", "b")


def test_variable_masks_follow_bitstring_order():
    # Models 00, 01, 10, 11: `a` holds in 10 and 11, `b` in 01 and 11.
    assert ref.positions(ref.sat_mask(A, AB)) == [2, 3]
    assert ref.positions(ref.sat_mask(B, AB)) == [1, 3]
    assert ref.positions(ref.sat_mask(C, ("a", "b", "c"))) == [1, 3, 5, 7]


def test_connectives():
    assert ref.positions(ref.sat_mask(Not(A), AB)) == [0, 1]
    assert ref.positions(ref.sat_mask(And(A, B), AB)) == [3]
    assert ref.positions(ref.sat_mask(Or(A, B), AB)) == [1, 2, 3]
    assert ref.positions(ref.sat_mask(Implies(A, B), AB)) == [0, 1, 3]
    assert ref.positions(ref.sat_mask(Iff(A, B), AB)) == [0, 3]
    assert ref.sat_mask(TRUE, AB) == 0b1111
    assert ref.sat_mask(FALSE, AB) == 0


def test_deep_chain_needs_no_recursion():
    formula = A
    for _ in range(5000):
        formula = Not(Not(formula))
    assert ref.positions(ref.sat_mask(formula, AB)) == [2, 3]


def test_readme_natural_history():
    # `a | b` then `!a`, most recent first: {01} < {00} < {10, 11}.
    ranks = ref.natural_ranks((Or(A, B), Not(A)), AB)
    assert ref.partition(ranks) == (frozenset({1}), frozenset({0}), frozenset({2, 3}))


def test_lex_history_equals_four_levels():
    lex = ref.lex_ranks((A, B), AB)
    level = ref.level_ranks(
        (And(A, B), And(A, Not(B)), And(Not(A), B), And(Not(A), Not(B))), AB
    )
    assert lex == level == [3, 2, 1, 0]


def test_level_bottom_class_and_empty_members():
    # `a` first, an empty member, then nothing for 00/01: they share the bottom.
    ranks = ref.level_ranks((A, FALSE), AB)
    assert ref.partition(ranks) == (frozenset({2, 3}), frozenset({0, 1}))


def test_natural_lifts_only_the_best_models_and_skips_inconsistent():
    # Oldest `a` lifts {10, 11}; then `b` lifts only its best model, 11.
    ranks = ref.natural_ranks((B, FALSE, A), AB)
    assert ranks == [2, 2, 1, 0]


def test_empty_histories_are_flat():
    assert ref.lex_ranks((), AB) == ref.natural_ranks((), AB) == [0, 0, 0, 0]


def test_step_revisions_match_histories():
    history = (Or(A, B), Not(A), Iff(A, B))
    nat = lex = [0, 0, 0, 0]
    for formula in reversed(history):
        sat = ref.sat_mask(formula, AB)
        nat = ref.revise_natural_ranks(nat, sat)
        lex = ref.revise_lex_ranks(lex, sat)
    assert nat == ref.natural_ranks(history, AB)
    assert lex == ref.lex_ranks(history, AB)


def test_explicit_classes_by_definition():
    # 01 < 00 ~ 11 < 10, written as its pair set.
    ranks = [1, 0, 2, 1]
    assert ref.explicit_ranks(ref.pairs_of(ranks), 2) == ranks
    assert (1, 2) in ref.pairs_of(ranks) and (2, 1) not in ref.pairs_of(ranks)


def test_explicit_rejects_unconnected_pairs():
    try:
        ref.explicit_ranks({(0, 0), (1, 1)}, 1)
    except ValueError:
        return
    raise AssertionError("two incomparable models must be refused")
