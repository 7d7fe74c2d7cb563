"""Connected preorders over propositional models, in four representations.

An order says which models (scenarios) are at least as plausible as which
others.  The four interchangeable encodings are: an explicit pair set, a
sequence of level formulas (most plausible described first), and histories
of lexicographic or natural revisions (most recent revision first).  The
`leq_*` functions implement each representation's inductive comparison
directly and are the semantic ground truth for the whole package.
`ranked_masks` is the one internal form of an order's classes: disjoint
bitmasks over model positions, most plausible first.  `classes_by_stripping`
builds classes from the definition instead, as the tests' reference.

Orders keep what they derive from their members: member bitmaps (level,
lexicographic), promotion masks and classes (natural), validation
(explicit).  A prepend extends them by one step and walks no older member;
a level revision hands over bitmaps it got one connective per new member.
The alphabet check on members stops at nodes holding a bitmap for an equal
alphabet.  Orders built by connectives over checked members, the alphabet's
variables and constants (translations, revisions, loads) skip it: `_trusted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat, zip_longest
from typing import Callable, Iterator, Union

from .errors import AlphabetMismatchError, NotAPreorderError, UndeclaredVariableError
from .formula import (
    Alphabet,
    Formula,
    Model,
    _full_mask,
    _model,
    _variables,
    bit_positions,
    evaluate,
    truth_bitmap,
)


def _check_formulas(alphabet: Alphabet, formulas) -> tuple[Formula, ...]:
    formulas = tuple(formulas)
    stray = _variables(formulas, alphabet) - set(alphabet.vars)
    if stray:
        raise UndeclaredVariableError(sorted(stray)[0])
    return formulas


def _member_bitmaps(order) -> tuple[int, ...] | None:
    """Each member's bitmap, computed once per order; None past the cap."""
    alphabet = order.alphabet
    if len(alphabet) > alphabet.cap:
        return None
    return tuple(truth_bitmap(f, alphabet) for f in member_formulas(order))


def _promote(classes: list[int], sat: int) -> int:
    """One natural revision by a formula with models `sat`, applied in place
    to `classes` (most plausible first): the formula's part of the first
    class that meets it becomes the first class.  Returns that part, or 0
    for an inconsistent, inert formula."""
    if sat == 0:
        return 0
    c = next(k for k, cls in enumerate(classes) if cls & sat)
    promoted, rest = classes[c] & sat, classes[c] & ~sat
    classes[c : c + 1] = [rest] if rest else []
    classes.insert(0, promoted)
    return promoted


@dataclass(frozen=True)
class ExplicitOrder:
    """A preorder written out as the set of pairs (i, j) with i <= j."""

    alphabet: Alphabet
    pairs: frozenset[tuple[Model, Model]]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        width = len(self.alphabet)
        for i, j in self.pairs:
            if i.width != width or j.width != width:
                raise AlphabetMismatchError(
                    f"pair ({i}, {j}) does not fit a {width}-variable alphabet"
                )

    @cached_property
    def _violations(self) -> list[Violation]:
        # Validated once per order, however many operations read it.
        return validate_explicit(self)


@dataclass(frozen=True)
class LevelOrder:
    """Plausibility levels: members of the first formula's class come first.

    The stored sequence is unconstrained.  A model's rank is the least index
    of a member it satisfies; models satisfying no member share an implicit
    bottom class.  `normalized` asserts mutually exclusive, individually
    consistent members covering the whole model space.
    """

    alphabet: Alphabet
    levels: tuple[Formula, ...]
    normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "levels", _check_formulas(self.alphabet, self.levels))

    _bitmaps = cached_property(_member_bitmaps)


@dataclass(frozen=True)
class LexOrder:
    """History of lexicographic revisions, most recent first."""

    alphabet: Alphabet
    history: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "history", _check_formulas(self.alphabet, self.history))

    _bitmaps = cached_property(_member_bitmaps)


@dataclass(frozen=True)
class NaturalOrder:
    """History of natural revisions, most recent first."""

    alphabet: Alphabet
    history: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "history", _check_formulas(self.alphabet, self.history))

    @cached_property
    def _promotion(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Memo table for the natural-order recursion, kept on the order: the
        promotion masks, newest first, and the classes of the whole history.

        Mask t is the set (bitmask over model positions) promoted by history
        formula t: its models that the tail order puts at or below every other
        model of the formula: its part of the first class, among the classes
        built by the older revisions, that meets it.
        """
        alphabet = self.alphabet
        alphabet.require_enumerable()
        classes = [_full_mask(len(alphabet))]
        masks = [_promote(classes, truth_bitmap(f, alphabet)) for f in reversed(self.history)]
        return tuple(reversed(masks)), tuple(classes)


def _trusted(kind, alphabet: Alphabet, members, **fields):
    """An order of `kind` over members built only from nodes checked against
    `alphabet` already, made without the constructor's walk.  `fields` may
    set `normalized` and memos the caller derived by the formula rule."""
    order = object.__new__(kind)
    field = "levels" if kind is LevelOrder else "history"
    vars(order).update({"alphabet": alphabet, field: tuple(members)}, **fields)
    return order


def _prepended(order: LexOrder | NaturalOrder, formula: Formula) -> LexOrder | NaturalOrder:
    """The history with `formula` (already checked) prepended, walking no
    older member; what `order` derived from them gains the one new step."""
    alphabet, known, extended = order.alphabet, vars(order), {}
    if known.get("_bitmaps") is not None:
        extended["_bitmaps"] = (truth_bitmap(formula, alphabet), *known["_bitmaps"])
    if "_promotion" in known:
        masks, classes = known["_promotion"]
        classes = list(classes)
        mask = _promote(classes, truth_bitmap(formula, alphabet))
        extended["_promotion"] = ((mask, *masks), tuple(classes))
    return _trusted(type(order), alphabet, (formula, *order.history), **extended)


AnyOrder = Union[ExplicitOrder, LevelOrder, LexOrder, NaturalOrder]


@dataclass(frozen=True)
class ClassPartition:
    """Equivalence classes of an order, most plausible class first."""

    alphabet: Alphabet
    classes: tuple[frozenset[Model], ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(frozenset(c) for c in self.classes))
        width = len(self.alphabet)
        total = 0
        union: set[Model] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty equivalence class")
            for m in cls:
                if m.width != width:
                    raise AlphabetMismatchError(
                        f"model {m} does not fit a {width}-variable alphabet"
                    )
            total += len(cls)
            union.update(cls)
        if len(union) != total:
            raise ValueError("equivalence classes overlap")
        if total != (1 << width):
            raise ValueError("equivalence classes do not cover the model space")

    def rank_of(self, model: Model) -> int:
        for k, cls in enumerate(self.classes):
            if model in cls:
                return k
        raise KeyError(str(model))


@dataclass(frozen=True)
class Violation:
    """One witnessed failure of the connected-preorder axioms."""

    kind: str  # "reflexivity" | "transitivity" | "connectedness"
    models: tuple[Model, ...]

    def __str__(self) -> str:
        shown = ", ".join(str(m) for m in self.models)
        return f"{self.kind} violation at ({shown})"


def kind_of(order: AnyOrder) -> str:
    if isinstance(order, ExplicitOrder):
        return "explicit"
    if isinstance(order, LevelOrder):
        return "level"
    if isinstance(order, LexOrder):
        return "lexicographic"
    if isinstance(order, NaturalOrder):
        return "natural"
    raise TypeError(f"not an order: {order!r}")


def member_formulas(order: AnyOrder) -> tuple[Formula, ...]:
    """The formula sequence of an order; empty for explicit orders."""
    if isinstance(order, LevelOrder):
        return order.levels
    if isinstance(order, (LexOrder, NaturalOrder)):
        return order.history
    if isinstance(order, ExplicitOrder):
        return ()
    raise TypeError(f"not an order: {order!r}")


def _require_members(order: AnyOrder, i: Model, j: Model) -> None:
    width = len(order.alphabet.vars)
    if i.width != width or j.width != width:
        model = i if i.width != width else j
        raise AlphabetMismatchError(
            f"model {model} does not fit a {width}-variable alphabet"
        )


# --- comparison relations ----------------------------------------------------


def leq_explicit(order: ExplicitOrder, i: Model, j: Model) -> bool:
    """i <= j exactly when the pair is listed."""
    _require_members(order, i, j)
    return (i, j) in order.pairs


def _member_truths(order: LevelOrder | LexOrder, i: Model, j: Model):
    """Once i and j are checked to fit, the members' bitmaps with i's bit and
    j's bit in them.  Past the cap, where comparisons evaluate, each member's
    truth at i and at j as a two-bit map, made as the comparison asks."""
    _require_members(order, i, j)
    maps = order._bitmaps
    if maps is not None:
        return maps, 1 << i.position, 1 << j.position
    alphabet = order.alphabet
    members = member_formulas(order)
    return (evaluate(f, i, alphabet) | evaluate(f, j, alphabet) << 1 for f in members), 1, 2


def _first_holding(maps, bit_i: int, bit_j: int) -> bool:
    """Whether the first map holding i or j holds i; True when none does.
    What it holds of them is i's bit, j's bit, or both (always, if i is j)."""
    both = bit_i | bit_j
    for sat in maps:
        held = sat & both
        if held:
            return held != bit_j or held == both
    return True


def leq_level(order: LevelOrder, i: Model, j: Model) -> bool:
    """Compare least satisfied member indexes; unmatched models share the
    implicit bottom class."""
    return _first_holding(*_member_truths(order, i, j))


def leq_lex(order: LexOrder, i: Model, j: Model) -> bool:
    """The most recent revision dominates; earlier ones only break ties."""
    maps, bit_i, bit_j = _member_truths(order, i, j)
    both = bit_i | bit_j
    for sat in maps:
        held = sat & both
        if held and held != both:
            return held == bit_i  # the one model it holds comes first
    return True  # empty or fully tied history: everything compares <=


def leq_natural(order: NaturalOrder, i: Model, j: Model) -> bool:
    """Inductive comparison: the most recent revision promotes the tail-minimal
    models of its formula to the top; everything else keeps the tail order.
    So i <= j when the newest revision that promoted either of them promoted
    i, or when neither was ever promoted."""
    masks = order._promotion[0]  # computing them checks the cap first
    _require_members(order, i, j)
    return _first_holding(masks, 1 << i.position, 1 << j.position)


def leq(order: AnyOrder, i: Model, j: Model) -> bool:
    """Comparison under whichever representation `order` uses."""
    # Exact types, calling this module's names: a rebound `leq_*` is the one called.
    kind = type(order)
    if kind is LevelOrder:
        return leq_level(order, i, j)
    if kind is LexOrder:
        return leq_lex(order, i, j)
    if kind is NaturalOrder:
        return leq_natural(order, i, j)
    if kind is ExplicitOrder:
        return leq_explicit(order, i, j)
    raise TypeError(f"not an order: {order!r}")


# --- equivalence classes ------------------------------------------------------


def ranked_masks(order: AnyOrder) -> Iterator[int]:
    """The order's equivalence classes as disjoint, nonempty bitmasks over
    model positions, most plausible first.  Explicit orders are validated
    before the first class is yielded."""
    alphabet = order.alphabet
    alphabet.require_enumerable()
    full = _full_mask(len(alphabet))
    if isinstance(order, (LevelOrder, NaturalOrder)):
        # A model's class is the first member that holds it, or the newest
        # revision that promoted it; models no mask covers come last.
        masks = order._bitmaps if isinstance(order, LevelOrder) else order._promotion[0]
        covered = 0
        for mask in masks:
            if mask & ~covered:
                yield mask & ~covered
                covered |= mask
        if covered != full:
            yield full & ~covered
    elif isinstance(order, LexOrder):
        # Depth first, newest formula outermost, satisfying part first.
        maps = order._bitmaps
        parts = [(full, 0)]
        while parts:
            mask, depth = parts.pop()
            if depth == len(maps):
                yield mask
                continue
            for part in (mask & ~maps[depth], mask & maps[depth]):
                if part:
                    parts.append((part, depth + 1))
    elif isinstance(order, ExplicitOrder):
        if order._violations:
            raise NotAPreorderError(order._violations)
        # In a connected preorder, the number of models a model is <= to
        # strictly decreases from one class to the next.
        above = [0] * (1 << len(alphabet))
        for i, _ in order.pairs:
            above[i.position] += 1
        for count in sorted(set(above), reverse=True):
            yield sum(1 << p for p, c in enumerate(above) if c == count)
    else:
        raise TypeError(f"not an order: {order!r}")


def classes_of(order: AnyOrder) -> ClassPartition:
    """Equivalence classes in plausibility order: the first class holds the
    models minimal under the comparison, the next the minimal among the
    rest, and so on.  Decoded from `ranked_masks`."""
    width = len(order.alphabet)
    classes = tuple(
        frozenset(map(_model, bit_positions(mask), repeat(width)))
        for mask in ranked_masks(order)
    )
    return ClassPartition(order.alphabet, classes)


def classes_by_stripping(
    alphabet: Alphabet, relation: Callable[[Model, Model], bool]
) -> ClassPartition:
    """Reference construction straight from the definition: peel off the
    minimal models among what remains, one class at a time."""
    remaining = alphabet.models()
    classes = []
    while remaining:
        minimal = [i for i in remaining if all(relation(i, j) for j in remaining)]
        if not minimal:
            raise NotAPreorderError(
                [Violation("connectedness", (remaining[0], remaining[-1]))]
            )
        classes.append(frozenset(minimal))
        dropped = set(minimal)
        remaining = [m for m in remaining if m not in dropped]
    return ClassPartition(alphabet, tuple(classes))


def equivalent(first: AnyOrder, second: AnyOrder) -> bool:
    """True when both orders compare every pair of models identically."""
    if first.alphabet.vars != second.alphabet.vars:
        raise AlphabetMismatchError(
            "orders over different alphabets cannot be compared"
        )
    return all(a == b for a, b in zip_longest(ranked_masks(first), ranked_masks(second)))


# --- explicit-order validation -------------------------------------------------


def validate_explicit(order: ExplicitOrder) -> list[Violation]:
    """All reflexivity, transitivity, and connectedness failures, in model order."""
    alphabet = order.alphabet
    alphabet.require_enumerable()
    size = 1 << len(alphabet)
    rows = [0] * size
    for i, j in order.pairs:
        rows[i.position] |= 1 << j.position

    violations = []
    for p in range(size):
        if not rows[p] >> p & 1:
            violations.append(Violation("reflexivity", (alphabet.model_at(p),)))
    for p in range(size):
        for q in range(p + 1, size):
            if not (rows[p] >> q & 1 or rows[q] >> p & 1):
                violations.append(
                    Violation(
                        "connectedness", (alphabet.model_at(p), alphabet.model_at(q))
                    )
                )
    for p in range(size):
        reachable = 0
        for q in bit_positions(rows[p]):
            reachable |= rows[q]
        missing = reachable & ~rows[p]
        if not missing:
            continue
        for q in bit_positions(rows[p]):
            for r in bit_positions(rows[q] & missing):
                violations.append(
                    Violation(
                        "transitivity",
                        (
                            alphabet.model_at(p),
                            alphabet.model_at(q),
                            alphabet.model_at(r),
                        ),
                    )
                )
    return violations
