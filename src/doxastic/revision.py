"""The two revision operators, as pure state transformers.

On histories, revising is just prepending the new formula, and what the
parent derived from its members is extended by one step.  On normalized
level orders, both operators admit a direct rewrite of the member sequence
that commutes (up to equivalence) with the prepend-then-translate route.
Each new member is a conjunction over nodes holding their bitmaps, given
the AND of theirs as it is built.  The revising formula is walked once.
"""

from __future__ import annotations

from .errors import InconsistentRevisionError, NotNormalizedError, UndeclaredVariableError
from .formula import And, Formula, Not, _full_mask, _require_declared, truth_bitmap
from .orders import LevelOrder, LexOrder, NaturalOrder, _prepended, _trusted
from .translate import _normalized


def _checked_bitmap(alphabet, formula: Formula) -> int | None:
    """The formula's bitmap, None past the cap, in one walk: within the cap,
    `truth_bitmap` resolving every name is the variable check."""
    if len(alphabet) <= alphabet.cap:
        try:
            return truth_bitmap(formula, alphabet)
        except UndeclaredVariableError:  # `_require_declared` names the sorted-first one
            pass
    _require_declared(alphabet, (formula,))


def _conjoined(alphabet, formula: Formula, sat: int, levels, maps, prune: bool):
    """`levels` conjoined with the revising formula, then with its negation, with
    their bitmaps (each node keeps the AND of its operands'); `prune` drops empties."""
    negation, rest = Not(formula), _full_mask(len(alphabet)) ^ sat
    negation._bitmap = (alphabet, rest)
    members = [And(head, member) for head in (formula, negation) for member in levels]
    bits = [head & mask for head in (sat, rest) for mask in maps]
    for member, member_bits in zip(members, bits):
        member._bitmap = (alphabet, member_bits)
    if prune:
        members = [member for member, member_bits in zip(members, bits) if member_bits]
        bits = [member_bits for member_bits in bits if member_bits]
    return members, bits


def revise_natural_history(order: NaturalOrder, formula: Formula) -> NaturalOrder:
    """Naturally revising a history prepends the new formula."""
    return _prepended(order, formula, _checked_bitmap(order.alphabet, formula), NaturalOrder)


def revise_lex_history(order: LexOrder, formula: Formula) -> LexOrder:
    """Lexicographically revising a history prepends the new formula."""
    return _prepended(order, formula, _checked_bitmap(order.alphabet, formula), LexOrder)


def _require_normalized(order: LevelOrder) -> None:
    if not _normalized(order):
        raise NotNormalizedError(
            "level-order revision requires a normalized member sequence"
        )


def revise_level_naturally(order: LevelOrder, formula: Formula) -> LevelOrder:
    """Split the first member consistent with the revising formula: its
    satisfying part becomes the new top class, the remainder (when it has
    models) keeps the old position, and every other member is untouched.
    The result is normalized."""
    alphabet = order.alphabet
    sat = _checked_bitmap(alphabet, formula)
    _require_normalized(order)
    alphabet.require_enumerable()
    if sat == 0:
        raise InconsistentRevisionError("cannot revise by an inconsistent formula")
    levels, maps = order.levels, order._bitmaps
    c = next(k for k, mask in enumerate(maps) if mask & sat)
    parts, bits = _conjoined(alphabet, formula, sat, levels[c : c + 1], maps[c : c + 1], True)
    members = (parts[0], *levels[:c], *parts[1:], *levels[c + 1 :])  # parts[0] has models
    maps = (bits[0], *maps[:c], *bits[1:], *maps[c + 1 :])
    return _trusted(LevelOrder, alphabet, members, normalized=True, _bitmaps=maps)


def revise_level_lexicographically(
    order: LevelOrder, formula: Formula, prune: bool = False
) -> LevelOrder:
    """Double the sequence: all members conjoined with the revising formula
    first, then all members conjoined with its negation.  With `prune`,
    members left without models are dropped."""
    alphabet = order.alphabet
    sat = _checked_bitmap(alphabet, formula)
    _require_normalized(order)
    alphabet.require_enumerable()
    members, maps = _conjoined(alphabet, formula, sat, order.levels, order._bitmaps, prune)
    return _trusted(LevelOrder, alphabet, members, normalized=prune, _bitmaps=tuple(maps))
