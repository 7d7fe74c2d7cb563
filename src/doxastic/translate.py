"""Translations between the four order representations.

Every translation returns an order equivalent to its input.  Growth is
linear for natural histories (the output has one member more than the
history), doubling per step for lexicographic histories unless pruning
drops empty members, and the identity on the member sequence once a level
order is normalized.  Outputs are connectives over the input's members, the
alphabet's variables and constants, so they skip the alphabet walk.
"""

from __future__ import annotations

from itertools import chain

from .errors import InconsistentRevisionError, LengthCapExceededError
from .formula import (
    And,
    Formula,
    Not,
    TRUE,
    TrueConst,
    disjoin,
    formula_from_models,
    node_count,
    truth_bitmap,
    _full_mask,
)
from .orders import (
    AnyOrder,
    ExplicitOrder,
    LevelOrder,
    LexOrder,
    NaturalOrder,
    classes_of,
    member_formulas,
    ranked_masks,
    _trusted,
)

DEFAULT_LENGTH_CAP = 4096


def order_size(order: AnyOrder) -> int:
    """Total syntax-tree nodes across the member formulas, plus the member
    count.  Explicit orders carry no formulas and measure zero."""
    members = member_formulas(order)
    return sum(node_count(f) for f in members) + len(members)


def _negated(formula: Formula) -> Formula:
    # Peel one negation instead of stacking a second one.
    return formula.operand if isinstance(formula, Not) else Not(formula)


def _conjoined(formula: Formula, member: Formula) -> Formula:
    # New formula on the left; conjoining with the seed constant is elided.
    return formula if isinstance(member, TrueConst) else And(formula, member)


def is_normalized(order: LevelOrder) -> bool:
    """Check by enumeration: members consistent, mutually exclusive, jointly
    exhaustive."""
    return list(ranked_masks(order)) == list(order._bitmaps)


def normalize_level(order: LevelOrder) -> LevelOrder:
    """Equivalent level order with mutually exclusive, individually
    consistent members covering the whole model space.

    Members that already avoid everything covered before them are kept
    verbatim; overlapping members are intersected with the negations of all
    earlier members; members left without models are dropped; a complement
    catch-all is appended when coverage falls short.
    """
    alphabet = order.alphabet
    alphabet.require_enumerable()
    full = _full_mask(len(alphabet))
    kept: list[Formula] = []
    covered = 0
    for k, (member, sat) in enumerate(zip(order.levels, order._bitmaps)):
        fresh = sat & (full ^ covered)
        covered |= sat
        if fresh == 0:
            continue
        if fresh == sat:
            kept.append(member)
        else:
            trimmed = member
            for earlier in reversed(order.levels[:k]):
                trimmed = And(trimmed, Not(earlier))
            kept.append(trimmed)
    if covered != full:
        kept.append(Not(disjoin(kept)) if kept else TRUE)
    return _trusted(LevelOrder, alphabet, kept, normalized=True)


def natural_to_level(order: NaturalOrder, lenient: bool = False) -> LevelOrder:
    """Unfold a natural-revision history into an explicit level sequence.

    Working from the oldest revision to the newest over a seed of [true],
    each step finds the first member consistent with the revising formula
    and splits it into its promoted and left-behind parts.  The output has
    exactly one member more than the history.  Inconsistent history
    formulas are an error unless `lenient`, which drops them (they never
    affect the order).
    """
    alphabet = order.alphabet
    alphabet.require_enumerable()
    full = _full_mask(len(alphabet))
    steps = []
    for f in order.history:
        sat = truth_bitmap(f, alphabet)
        if sat == 0:
            if lenient:
                continue
            raise InconsistentRevisionError(
                "history contains an inconsistent formula; "
                "pass lenient=True to drop inert entries"
            )
        steps.append((f, sat))
    members: list[Formula] = [TRUE]
    masks: list[int] = [full]
    for f, sat in reversed(steps):
        c = next(k for k, mask in enumerate(masks) if mask & sat)
        target, target_mask = members[c], masks[c]
        promoted = _conjoined(f, target)
        left_behind = _conjoined(_negated(f), target)
        members = [promoted, *members[:c], left_behind, *members[c + 1 :]]
        masks = [sat & target_mask, *masks[:c], target_mask & ~sat & full, *masks[c + 1 :]]
    return _trusted(LevelOrder, alphabet, members)


def lex_to_level(
    order: LexOrder, prune: bool = False, length_cap: int = DEFAULT_LENGTH_CAP
) -> LevelOrder:
    """Unfold a lexicographic history into a level sequence by doubling.

    Each revision splits every member into its satisfying and falsifying
    halves, so the unpruned output has 2^m members.  With `prune`, members
    without models are dropped after every step, which bounds the length by
    the number of equivalence classes and marks the result normalized.
    """
    alphabet = order.alphabet
    alphabet.require_enumerable()
    full = _full_mask(len(alphabet))
    members: list[Formula] = [TRUE]
    masks: list[int] = [full]
    for f in reversed(order.history):
        sat = truth_bitmap(f, alphabet)
        pairs = [
            (head, tail, cut)
            for head, part in ((f, sat), (_negated(f), full ^ sat))
            for tail, mask in zip(members, masks)
            if (cut := part & mask) or not prune
        ]
        if len(pairs) > length_cap:
            raise LengthCapExceededError(
                f"translation needs {len(pairs)} members, over the cap of {length_cap}"
            )
        members = [_conjoined(head, tail) for head, tail, _ in pairs]
        masks = [mask for _, _, mask in pairs]
    return _trusted(LevelOrder, alphabet, members, normalized=prune)


def level_to_natural(order: LevelOrder) -> NaturalOrder:
    """Normalize if needed, then reuse the very same member sequence as a
    natural-revision history."""
    source = order if order.normalized or is_normalized(order) else normalize_level(order)
    return _trusted(NaturalOrder, order.alphabet, source.levels)


def level_to_lex(order: LevelOrder) -> LexOrder:
    """Normalize if needed, then reuse the very same member sequence as a
    lexicographic-revision history."""
    source = order if order.normalized or is_normalized(order) else normalize_level(order)
    return _trusted(LexOrder, order.alphabet, source.levels)


def explicit_to_level(order: ExplicitOrder) -> LevelOrder:
    """One minterm-disjunction member per equivalence class, in class order."""
    partition = classes_of(order)  # validates the preorder axioms
    members = tuple(
        formula_from_models(cls, order.alphabet) for cls in partition.classes
    )
    return _trusted(LevelOrder, order.alphabet, members, normalized=True)


def to_explicit(order: AnyOrder) -> ExplicitOrder:
    """Materialize every pair (i, j) with i <= j."""
    classes = classes_of(order).classes
    pairs = frozenset(
        (i, j) for k, cls in enumerate(classes) for i in cls for j in chain(*classes[k:])
    )
    return ExplicitOrder(order.alphabet, pairs)


def natural_to_lex(order: NaturalOrder, lenient: bool = False) -> LexOrder:
    """Compose the level unfolding with the identity reuse of the sequence."""
    return level_to_lex(natural_to_level(order, lenient=lenient))
