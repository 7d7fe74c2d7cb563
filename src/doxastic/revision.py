"""The two revision operators, as pure state transformers.

On histories, revising is just prepending the new formula, and what the
parent derived from its members is extended by one step.  On normalized
level orders, both operators admit a direct rewrite of the member sequence
that commutes (up to equivalence) with the prepend-then-translate route.
Each new member is a connective over nodes holding their bitmaps and is
asked for its own as it is built, one connective application each.
"""

from __future__ import annotations

from .errors import (
    AlphabetMismatchError,
    InconsistentRevisionError,
    NotNormalizedError,
)
from .formula import And, Formula, Not, _variables, truth_bitmap
from .orders import LevelOrder, LexOrder, NaturalOrder, _prepended, _trusted
from .translate import is_normalized


def _check_formula(alphabet, formula: Formula) -> None:
    stray = _variables((formula,), alphabet) - set(alphabet.vars)
    if stray:
        raise AlphabetMismatchError(
            f"formula mentions variables outside the alphabet: {sorted(stray)}"
        )


def revise_natural_history(order: NaturalOrder, formula: Formula) -> NaturalOrder:
    """Naturally revising a history prepends the new formula."""
    _check_formula(order.alphabet, formula)
    return _prepended(order, formula)


def revise_lex_history(order: LexOrder, formula: Formula) -> LexOrder:
    """Lexicographically revising a history prepends the new formula."""
    _check_formula(order.alphabet, formula)
    return _prepended(order, formula)


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
    alphabet = order.alphabet
    _check_formula(alphabet, formula)
    _require_normalized(order)
    alphabet.require_enumerable()
    sat = truth_bitmap(formula, alphabet)
    if sat == 0:
        raise InconsistentRevisionError("cannot revise by an inconsistent formula")
    levels, maps = order.levels, order._bitmaps
    c = next(k for k, mask in enumerate(maps) if mask & sat)
    parts = [And(formula, levels[c]), And(Not(formula), levels[c])]
    bits = [truth_bitmap(part, alphabet) for part in parts]
    if not bits[1]:  # nothing is left behind; the promoted part always has models
        del parts[1], bits[1]
    members = (parts[0], *levels[:c], *parts[1:], *levels[c + 1 :])
    maps = (bits[0], *maps[:c], *bits[1:], *maps[c + 1 :])
    return _trusted(LevelOrder, alphabet, members, normalized=True, _bitmaps=maps)


def revise_level_lexicographically(
    order: LevelOrder, formula: Formula, prune: bool = False
) -> LevelOrder:
    """Double the sequence: all members conjoined with the revising formula
    first, then all members conjoined with its negation.  With `prune`,
    members left without models are dropped."""
    alphabet = order.alphabet
    _check_formula(alphabet, formula)
    _require_normalized(order)
    alphabet.require_enumerable()
    members = [And(head, member) for head in (formula, Not(formula)) for member in order.levels]
    maps = [truth_bitmap(member, alphabet) for member in members]
    if prune:
        members = [member for member, sat in zip(members, maps) if sat]
        maps = [sat for sat in maps if sat]
    return _trusted(LevelOrder, alphabet, members, normalized=prune, _bitmaps=tuple(maps))
