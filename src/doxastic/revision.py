"""The two revision operators, as pure state transformers.

On histories, revising is just prepending the new formula.  On normalized
level orders, both operators admit a direct rewrite of the member sequence
that commutes (up to equivalence) with the prepend-then-translate route.
"""

from __future__ import annotations

from .errors import (
    AlphabetMismatchError,
    InconsistentRevisionError,
    NotNormalizedError,
)
from .formula import And, Formula, Not, truth_bitmap, variables
from .orders import LevelOrder, LexOrder, NaturalOrder
from .translate import is_normalized


def _check_formula(alphabet, formula: Formula) -> None:
    stray = variables(formula) - set(alphabet.vars)
    if stray:
        raise AlphabetMismatchError(
            f"formula mentions variables outside the alphabet: {sorted(stray)}"
        )


def revise_natural_history(order: NaturalOrder, formula: Formula) -> NaturalOrder:
    """Naturally revising a history prepends the new formula."""
    _check_formula(order.alphabet, formula)
    return order._revised(formula)


def revise_lex_history(order: LexOrder, formula: Formula) -> LexOrder:
    """Lexicographically revising a history prepends the new formula."""
    _check_formula(order.alphabet, formula)
    return LexOrder(order.alphabet, (formula, *order.history))


def _require_normalized(order: LevelOrder) -> None:
    if not (order.normalized or is_normalized(order)):
        raise NotNormalizedError(
            "level-order revision requires a normalized member sequence"
        )


def revise_level_naturally(order: LevelOrder, formula: Formula) -> LevelOrder:
    """Split the first member consistent with the revising formula: its
    satisfying part becomes the new top class, the remainder (when it has
    models) keeps the old position, and every other member is untouched.
    The result is normalized."""
    _check_formula(order.alphabet, formula)
    _require_normalized(order)
    order.alphabet.require_enumerable()
    sat = truth_bitmap(formula, order.alphabet)
    if sat == 0:
        raise InconsistentRevisionError("cannot revise by an inconsistent formula")
    maps = order._bitmaps
    c = next(k for k, mask in enumerate(maps) if mask & sat)
    target = order.levels[c]
    kept = maps[c] & ~sat
    left_behind = (And(Not(formula), target),) if kept else ()
    members = (
        And(formula, target),
        *order.levels[:c],
        *left_behind,
        *order.levels[c + 1 :],
    )
    return LevelOrder(order.alphabet, members, normalized=True)


def revise_level_lexicographically(
    order: LevelOrder, formula: Formula, prune: bool = False
) -> LevelOrder:
    """Double the sequence: all members conjoined with the revising formula
    first, then all members conjoined with its negation.  With `prune`,
    members left without models are dropped."""
    _check_formula(order.alphabet, formula)
    _require_normalized(order)
    order.alphabet.require_enumerable()
    members = [And(formula, member) for member in order.levels] + [
        And(Not(formula), member) for member in order.levels
    ]
    if prune:
        members = [
            member for member in members if truth_bitmap(member, order.alphabet)
        ]
    return LevelOrder(order.alphabet, tuple(members), normalized=prune)
