"""Translations between the four order representations.

Every translation returns an order equivalent to its input.  Growth is
linear for natural histories (the output has one member more than the
history), doubling per step for lexicographic histories unless pruning
drops empty members, and the identity on the member sequence once a level
order is normalized.  Outputs are connectives over the input's members, the
alphabet's variables and constants, so they skip the alphabet walk.
"""

from __future__ import annotations

from itertools import chain, product

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
    member_formulas,
    _class_runs,
    _is_partition,
    _lex_columns,
    _model_classes,
    _require_kind,
    _trusted,
)

DEFAULT_LENGTH_CAP = 4096
PAIR_CAP = 1 << 20  # pairs `to_explicit` may materialize


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
    _require_kind(order, LevelOrder)
    order.alphabet.require_enumerable()
    return _is_partition(order._bitmaps, len(order.alphabet))


def _normalized(order: LevelOrder) -> bool:
    """Whether a level order is normalized, by its claim or by enumeration:
    the one test of the level-to-history translations and level revisions."""
    _require_kind(order, LevelOrder)
    return order.normalized or is_normalized(order)


def normalize_level(order: LevelOrder) -> LevelOrder:
    """Equivalent level order with mutually exclusive, individually
    consistent members covering the whole model space.

    Members that already avoid everything covered before them are kept
    verbatim; overlapping members are intersected with the negations of all
    earlier members; members left without models are dropped; a complement
    catch-all is appended when coverage falls short.
    """
    _require_kind(order, LevelOrder)
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
    _require_kind(order, NaturalOrder)
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


def _column_suffixes(order: LexOrder) -> list[set[int]]:
    """Entry d holds the distinct columns (`orders._lex_columns`) of the d
    oldest formulas as ints, the newest of them the high bit: the levels of
    the trie of column suffixes, which are the nonempty members after d
    steps of the unfolding."""
    suffixes = [set(_lex_columns(order._bitmaps, 1 << len(order.alphabet)))]
    for depth in reversed(range(len(order.history))):
        low = (1 << depth) - 1
        suffixes.append({suffix & low for suffix in suffixes[-1]})
    return suffixes[::-1]


def lex_to_level(
    order: LexOrder, prune: bool = False, length_cap: int = DEFAULT_LENGTH_CAP
) -> LevelOrder:
    """Unfold a lexicographic history into a level sequence by doubling.

    Each revision splits every member into its satisfying and falsifying
    halves, so the unpruned output has 2^m members.  With `prune`, members
    without models are dropped after every step, which bounds the length by
    the number of equivalence classes and marks the result normalized.
    """
    _require_kind(order, LexOrder)
    alphabet = order.alphabet
    alphabet.require_enumerable()
    levels = _column_suffixes(order) if prune else None
    # Two parallel lists, oldest formula first: the members and, when
    # pruning, each one's column suffix, the bits of the formulas so far;
    # members stay in descending suffix order.
    members, suffixes = [TRUE], [0]
    for depth, f in enumerate(reversed(order.history)):
        found = levels[depth + 1] if prune else None
        count = len(found) if prune else 2 * len(members)
        if count > length_cap:
            raise LengthCapExceededError(
                f"translation needs {count} members, over the cap of {length_cap}"
            )
        heads = (f, _negated(f))
        if count == 2 * len(members):  # every member splits: nothing to look up
            members = [  # `_conjoined(head, tail)`, inline as it runs once per member
                head if isinstance(tail, TrueConst) else And(head, tail)
                for head in heads
                for tail in members
            ]
            if prune:
                suffixes = [suffix | 1 << depth for suffix in suffixes] + suffixes
            continue
        halves = ([suffix | 1 << depth for suffix in suffixes], suffixes)
        members = [
            head if isinstance(tail, TrueConst) else And(head, tail)
            for head, half in zip(heads, halves)
            for tail, suffix in zip(members, half)
            if suffix in found
        ]
        suffixes = [suffix for half in halves for suffix in half if suffix in found]
    return _trusted(LevelOrder, alphabet, members, normalized=prune)


def _reused_as(kind, order: LevelOrder) -> LexOrder | NaturalOrder:
    """Normalize if needed, then reuse the very same member sequence as a
    history of `kind`."""
    source = order if _normalized(order) else normalize_level(order)
    return _trusted(kind, order.alphabet, source.levels)


def level_to_natural(order: LevelOrder) -> NaturalOrder:
    """The member sequence, normalized if needed, as a natural-revision history."""
    return _reused_as(NaturalOrder, order)


def level_to_lex(order: LevelOrder) -> LexOrder:
    """The member sequence, normalized if needed, as a lexicographic-revision history."""
    return _reused_as(LexOrder, order)


def explicit_to_level(order: ExplicitOrder) -> LevelOrder:
    """One minterm-disjunction member per equivalence class, in class order,
    each written holding its bitmap (`formula_from_models`)."""
    classes = _model_classes(*_class_runs(order), len(order.alphabet))
    members = [formula_from_models(cls, order.alphabet) for cls in classes]
    return _trusted(LevelOrder, order.alphabet, members, normalized=True)


def to_explicit(order: AnyOrder) -> ExplicitOrder:
    """Materialize every pair (i, j) with i <= j.  The pairs are counted
    from the class sizes first; past `PAIR_CAP` no model or pair is built."""
    sizes, positions = _class_runs(order)
    count, below = 0, 1 << len(order.alphabet)  # below: the models of this class and later ones
    for size in sizes:
        count += size * below
        below -= size
    if count > PAIR_CAP:
        raise LengthCapExceededError(
            f"translation needs {count} pairs, over the cap of {PAIR_CAP}"
        )
    classes = _model_classes(sizes, positions, len(order.alphabet))
    # Each class's models paired with those of its class and every later one,
    # class by class: this insertion order fixes the frozenset's pickle.
    later = [tuple(chain.from_iterable(classes[k:])) for k in range(len(classes))]
    explicit = object.__new__(ExplicitOrder)  # `_model_classes` models fit the alphabet
    explicit.alphabet = order.alphabet
    explicit.pairs = frozenset(chain.from_iterable(map(product, classes, later)))
    return explicit


def natural_to_lex(order: NaturalOrder, lenient: bool = False) -> LexOrder:
    """Compose the level unfolding with the identity reuse of the sequence."""
    return level_to_lex(natural_to_level(order, lenient=lenient))
