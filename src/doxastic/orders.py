"""Connected preorders over propositional models, in four representations.

An order says which models (scenarios) are at least as plausible as which
others.  The four interchangeable encodings are: an explicit pair set, a
sequence of level formulas (most plausible described first), and histories
of lexicographic or natural revisions (most recent revision first).  The
`leq_*` functions implement each representation's inductive comparison
directly and are the semantic ground truth for the whole package.
Each kind has one form of its classes, most plausible first.  A
lexicographic history's are column runs: a model's column is its bits
across the history's bitmaps as an int, the newest formula's bit the
highest (`_lex_columns`), and the classes are the distinct columns in
descending order, grouped by one stable sort (`_grouped_positions`) with
no mask built.  Every other kind's are disjoint bitmasks over model
positions (`ranked_masks`).  `_class_runs` is the one decode of both: the
class sizes and the model positions, class by class; `equivalent`
compares masks, or runs where either order is lexicographic.
`_model_classes` turns the runs into models, one `_model` call per model
and one `frozenset` call per class.  `classes_by_stripping` builds classes
from the definition instead, as the tests' reference.

Orders and the other records are plain classes (`formula._Record`): their
fields make their equality, hash and repr; assignment is not refused.  Each
order keeps what it derives from its members in its `__dict__`, beside the
fields: member bitmaps (level, lexicographic), promotion masks and classes
(natural), validation and the pass over the pairs (explicit; pickles leave
the pass out).  A prepend extends them by one step and walks no older
member; a level revision hands over bitmaps it got one connective per new
member.  The alphabet check on members stops at nodes holding a bitmap for
an equal alphabet.  Orders built by connectives over checked members, the
alphabet's variables and constants (translations, revisions, loads) skip
it: `_trusted`.  An explicit order's pairs are read once (`_chain`): one
pass gives each model its row, the models it is <= to, which one chain
test validates and whose groups are the class masks; only rows that fail
the test are searched for violations.
"""

from __future__ import annotations

import struct
from collections import Counter, defaultdict
from functools import cached_property
from itertools import chain, islice, repeat, zip_longest
from operator import eq, lshift, or_
from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import AlphabetMismatchError, NotAPreorderError, NotNormalizedError
from .formula import (
    Alphabet,
    Formula,
    Model,
    _Record,
    _full_mask,
    _model,
    _require_declared,
    _require_fit,
    bit_positions,
    evaluate,
    truth_bitmap,
)


def _check_formulas(alphabet: Alphabet, formulas) -> tuple[Formula, ...]:
    formulas = tuple(formulas)
    _require_declared(alphabet, formulas)
    return formulas


def _member_bitmaps(order) -> tuple[int, ...] | None:
    """Each member's bitmap, computed once per order; None past the cap."""
    alphabet = order.alphabet
    if len(alphabet) > alphabet.cap:
        return None
    return tuple(truth_bitmap(f, alphabet) for f in member_formulas(order))


def _lex_columns(maps: tuple[int, ...], width: int) -> Sequence[int]:
    """Each model's column, indexed by model position: its bits across
    `maps` as an int, the first map's bit the highest.  Up to 64 maps at a
    time are written as one text of fixed-width fields, one per model, read
    as one integer and cut into little-endian words: no Python code runs per
    model except to join the batches of a history longer than 64."""
    columns = None
    for start in range(0, len(maps), 64):
        batch = maps[start : start + 64]
        level = ((len(batch) + 7) // 8 - 1).bit_length()  # words of 1, 2, 4 or 8 bytes
        stride = 8 << level
        table = bytearray(b"0") * (width * stride)
        for k, sat in enumerate(batch, stride - len(batch)):
            table[k::stride] = format(sat, f"0{width}b").encode()
        packed = int(table, 2).to_bytes(width << level, "little")  # model 0's word first
        words = struct.unpack(f"<{width}{'BHIQ'[level]}", packed)
        if columns is not None:
            words = list(map(or_, map(lshift, columns, repeat(len(batch))), words))
        columns = words
    return [0] * width if columns is None else columns


def _grouped_positions(keys: Sequence[int]) -> tuple[list[int], list[int]]:
    """The positions of equal keys as runs: every position, in descending key
    order and ascending within a key, by one stable sort at C level, and the
    length of each run: the key counts in descending key order, all 1 when
    every key is distinct.  No Python code runs per position."""
    positions = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    if len(set(keys)) == len(keys):
        return positions, [1] * len(keys)
    counts = Counter(keys)
    return positions, list(map(counts.__getitem__, sorted(counts, reverse=True)))


def _first_cover(maps: Iterable[int], width: int) -> Iterator[int]:
    """A level order's classes from its member bitmaps: the models each
    member holds first, where there are any, then the models none holds."""
    full, covered = _full_mask(width), 0
    for mask in maps:
        if mask & ~covered:
            yield mask & ~covered
            covered |= mask
    if covered != full:
        yield full & ~covered


def _is_partition(maps: tuple[int, ...], width: int) -> bool:
    """Whether level bitmaps are exclusive, consistent and exhaustive: their own classes."""
    return tuple(_first_cover(maps, width)) == maps


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


class ExplicitOrder(_Record, fields=("alphabet", "pairs")):
    """A preorder written out as the set of pairs (i, j) with i <= j."""

    kind = "explicit"

    def __init__(self, alphabet: Alphabet, pairs: Iterable[tuple[Model, Model]]) -> None:
        self.alphabet, self.pairs = alphabet, frozenset(pairs)
        width = len(alphabet)
        for i, j in self.pairs:
            if i.width != width or j.width != width:
                _require_fit(width, (i, j))

    @cached_property
    def _violations(self) -> list[Violation]:
        # Validated once per order, however many operations read it.
        return validate_explicit(self)

    @cached_property
    def _chain(self) -> tuple[list[int], list[int] | None]:
        """The one pass over the pairs: each model's row (the models it is
        <= to), and the class masks, most plausible first, or None when the
        rows are no chain of up-sets (Grove's spheres), a connected
        preorder's form: grouping the models by equal row from the smallest
        row up, each row must be its group plus the one before."""
        alphabet = self.alphabet
        alphabet.require_enumerable()
        rows = [0] * (1 << len(alphabet))
        for i, j in self.pairs:
            rows[i.position] |= 1 << j.position
        groups = defaultdict(int)
        for p, row in enumerate(rows):
            groups[row] |= 1 << p
        ascending, below = sorted(groups), 0  # below: the groups so far, every model after the last
        for row in ascending:
            if row != groups[row] | below:
                return rows, None
            below = row
        return rows, [groups[row] for row in reversed(ascending)]

    def __getstate__(self) -> dict:
        # Pickles carry the fields and the validation; the pass is made again.
        state = dict(vars(self))
        state.pop("_chain", None)
        return state


class LevelOrder(_Record, fields=("alphabet", "levels", "normalized")):
    """Plausibility levels: members of the first formula's class come first.

    The stored sequence is unconstrained.  A model's rank is the least index
    of a member it satisfies; models satisfying no member share an implicit
    bottom class.  `normalized` asserts mutually exclusive, individually
    consistent members covering the whole model space; the constructor
    refuses a false claim where the model space is enumerable.
    """

    kind = "level"
    normalized = False  # also for orders made by `_trusted` without it

    def __init__(self, alphabet: Alphabet, levels: Iterable[Formula], normalized: bool = False):
        self.alphabet = alphabet
        self.levels = _check_formulas(alphabet, levels)
        self.normalized = normalized
        # The claim is checked on bitmaps not kept: a new order pickles as its fields.
        maps = _member_bitmaps(self) if normalized else None
        if maps is not None and not _is_partition(maps, len(alphabet)):
            raise NotNormalizedError("levels are not exclusive, consistent and exhaustive")

    _bitmaps = cached_property(_member_bitmaps)


class LexOrder(_Record, fields=("alphabet", "history")):
    """History of lexicographic revisions, most recent first."""

    kind = "lexicographic"

    def __init__(self, alphabet: Alphabet, history: Iterable[Formula]) -> None:
        self.alphabet, self.history = alphabet, _check_formulas(alphabet, history)

    _bitmaps = cached_property(_member_bitmaps)


class NaturalOrder(_Record, fields=("alphabet", "history")):
    """History of natural revisions, most recent first."""

    kind = "natural"

    def __init__(self, alphabet: Alphabet, history: Iterable[Formula]) -> None:
        self.alphabet, self.history = alphabet, _check_formulas(alphabet, history)

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
    """A record of `kind`, an order or a class partition, over members
    already checked against `alphabet`, made without the constructor's
    walk.  `fields` may set `normalized` and memos the caller derived by
    the formula rule."""
    order = object.__new__(kind)  # its members' field follows the alphabet
    vars(order).update({"alphabet": alphabet, kind._fields[1]: tuple(members)}, **fields)
    return order


def _prepended(order, formula: Formula, sat: int | None, kind) -> LexOrder | NaturalOrder:
    """The history of `kind` with `formula` (checked, of bitmap `sat`) prepended,
    walking no older member; what `order` derived from them gains one step."""
    _require_kind(order, kind)
    known, extended = vars(order), {}
    if known.get("_bitmaps") is not None:
        extended["_bitmaps"] = (sat, *known["_bitmaps"])
    if "_promotion" in known:
        masks, classes = known["_promotion"]
        classes = list(classes)
        extended["_promotion"] = ((_promote(classes, sat), *masks), tuple(classes))
    return _trusted(kind, order.alphabet, (formula, *order.history), **extended)


AnyOrder = ExplicitOrder | LevelOrder | LexOrder | NaturalOrder
_BY_KIND = {order.kind: order for order in AnyOrder.__args__}  # the one kind table


class ClassPartition(_Record, fields=("alphabet", "classes")):
    """Equivalence classes of an order, most plausible class first."""

    def __init__(self, alphabet: Alphabet, classes: Iterable[Iterable[Model]]) -> None:
        self.alphabet, self.classes = alphabet, tuple(frozenset(c) for c in classes)
        width = len(alphabet)
        total = 0
        union: set[Model] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty equivalence class")
            _require_fit(width, cls)
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


class Violation(_Record, fields=("kind", "models")):
    """One witnessed failure of the connected-preorder axioms."""

    def __init__(self, kind: str, models: tuple[Model, ...]) -> None:
        self.kind, self.models = kind, models  # "reflexivity", "transitivity" or "connectedness"

    def __str__(self) -> str:
        shown = ", ".join(str(m) for m in self.models)
        return f"{self.kind} violation at ({shown})"


def kind_of(order: AnyOrder) -> str:
    if isinstance(order, AnyOrder):
        return order.kind
    raise TypeError(f"not an order: {order!r}")


def _require_kind(order: AnyOrder, *kinds: type) -> None:
    """Refuse an order of another kind: each representation's operators are
    correct on its own alone (histories of both kinds look alike)."""
    if not isinstance(order, kinds):
        wanted = " or ".join(kind.kind for kind in kinds)
        raise TypeError(f"expected a {wanted} order, not {kind_of(order)}")


def member_formulas(order: AnyOrder) -> tuple[Formula, ...]:
    """The formula sequence of an order; empty for explicit orders."""
    return () if kind_of(order) == "explicit" else getattr(order, order._fields[1])


# --- comparison relations ----------------------------------------------------
#
# Each `leq_*` tests widths inline, calling `_require_fit` only to raise, and
# runs its own loop: a comparison is two frames, `leq` and its `leq_*`.


def leq_explicit(order: ExplicitOrder, i: Model, j: Model) -> bool:
    """i <= j exactly when the pair is listed."""
    width = len(order.alphabet.vars)
    if i.width != width or j.width != width:
        _require_fit(width, (i, j))
    return (i, j) in order.pairs


def _truths_at(order: LevelOrder | LexOrder, i: Model, j: Model) -> Iterator[int]:
    """Past the cap, where comparisons evaluate: each member's truth at i and
    at j as a two-bit map (i's bit 1, j's bit 2), made as the comparison asks."""
    alphabet, members = order.alphabet, member_formulas(order)
    return (evaluate(f, i, alphabet) | evaluate(f, j, alphabet) << 1 for f in members)


def leq_level(order: LevelOrder, i: Model, j: Model) -> bool:
    """Compare least satisfied member indexes; unmatched models share the
    implicit bottom class."""
    width = len(order.alphabet.vars)
    if i.width != width or j.width != width:
        _require_fit(width, (i, j))
    maps = order._bitmaps
    if maps is None:
        maps, bit_i, bit_j = _truths_at(order, i, j), 1, 2
    else:
        bit_i, bit_j = 1 << i.position, 1 << j.position
    both = bit_i | bit_j
    for sat in maps:
        held = sat & both  # i's bit, j's bit, or both (always, if i is j)
        if held:
            return held != bit_j or held == both  # the first member holding either holds i
    return True


def leq_lex(order: LexOrder, i: Model, j: Model) -> bool:
    """The most recent revision dominates; earlier ones only break ties."""
    width = len(order.alphabet.vars)
    if i.width != width or j.width != width:
        _require_fit(width, (i, j))
    maps = order._bitmaps
    if maps is None:
        maps, bit_i, bit_j = _truths_at(order, i, j), 1, 2
    else:
        bit_i, bit_j = 1 << i.position, 1 << j.position
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
    width = len(order.alphabet.vars)
    if i.width != width or j.width != width:
        _require_fit(width, (i, j))
    bit_i, bit_j = 1 << i.position, 1 << j.position
    both = bit_i | bit_j
    for mask in masks:
        held = mask & both
        if held:
            return held != bit_j or held == both
    return True


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
    """The equivalence classes of an order of any kind but lexicographic as
    disjoint, nonempty bitmasks over model positions, most plausible first.
    Explicit orders are validated before the first class is yielded."""
    if isinstance(order, LexOrder):
        raise TypeError("a lexicographic order's classes are column runs, not masks")
    alphabet = order.alphabet
    alphabet.require_enumerable()
    if isinstance(order, NaturalOrder):
        yield from order._promotion[1]  # kept up by every promotion
    elif isinstance(order, LevelOrder):
        yield from _first_cover(order._bitmaps, len(alphabet))
    elif isinstance(order, ExplicitOrder):
        if order._violations:
            raise NotAPreorderError(order._violations)
        yield from order._chain[1]
    else:
        raise TypeError(f"not an order: {order!r}")


def _class_runs(order: AnyOrder) -> tuple[list[int], Iterable[int]]:
    """The class sizes, most plausible first, and the model positions class
    by class, ascending within a class; the cap is checked first.  A
    lexicographic history's are its grouped columns, with no mask; other
    orders give their masks' bit counts, and positions read off the masks
    as they are consumed, a one-model mask by its length."""
    alphabet = order.alphabet
    alphabet.require_enumerable()  # before any bitmap is read
    if isinstance(order, LexOrder):
        positions, sizes = _grouped_positions(_lex_columns(order._bitmaps, 1 << len(alphabet)))
        return sizes, positions
    masks = list(ranked_masks(order))
    sizes = list(map(int.bit_count, masks))
    runs = ((m.bit_length() - 1,) if s == 1 else bit_positions(m) for m, s in zip(masks, sizes))
    return sizes, chain.from_iterable(runs)


def _model_classes(sizes: list[int], positions: Iterable[int], width: int) -> tuple[frozenset, ...]:
    """The classes of `_class_runs`, as frozensets of models: one `_model`
    call per model and one `frozenset` call per class.  They lay out the
    pairs of `translate.to_explicit`, and pickles of its pair set, as they
    always were."""
    positions = list(positions)  # listed once: the class loop reads them faster
    models = map(_model, positions, repeat(width))
    if len(sizes) == len(positions):  # every class holds one model
        return tuple(map(frozenset, zip(models)))
    return tuple(frozenset(islice(models, size)) for size in sizes)


def classes_of(order: AnyOrder) -> ClassPartition:
    """Equivalence classes in plausibility order: the first class holds the
    models minimal under the comparison, the next the minimal among the
    rest, and so on.  The runs make them nonempty, disjoint and covering,
    of models of the alphabet's width: built without the constructor's checks."""
    classes = _model_classes(*_class_runs(order), len(order.alphabet))
    return _trusted(ClassPartition, order.alphabet, classes)


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
    """True when both orders compare every pair of models identically: their
    class masks are equal, or where either is lexicographic, their class
    sizes and then their positions."""
    if first.alphabet.vars != second.alphabet.vars:
        raise AlphabetMismatchError(
            "orders over different alphabets cannot be compared"
        )
    if not isinstance(first, LexOrder) and not isinstance(second, LexOrder):
        return all(a == b for a, b in zip_longest(ranked_masks(first), ranked_masks(second)))
    (sizes, positions), (other_sizes, other_positions) = _class_runs(first), _class_runs(second)
    return sizes == other_sizes and all(map(eq, positions, other_positions))


# --- explicit-order validation -------------------------------------------------


def validate_explicit(order: ExplicitOrder) -> list[Violation]:
    """All reflexivity, transitivity, and connectedness failures, in model
    order, from the pass that finds the classes (`ExplicitOrder._chain`):
    only rows that fail its chain test are searched."""
    rows, masks = order._chain
    return [] if masks is not None else _violations_in(order.alphabet, rows)


def _violations_in(alphabet: Alphabet, rows: list[int]) -> list[Violation]:
    """The violations the rows of an explicit order witness, searched pair by pair."""
    size, full = len(rows), _full_mask(len(alphabet))
    violations = []
    for p in range(size):
        if not rows[p] >> p & 1:
            violations.append(Violation("reflexivity", (alphabet.model_at(p),)))
    for p in range(size):
        for q in bit_positions(~rows[p] & full >> p + 1 << p + 1):  # each q > p with p not <= q
            if not rows[q] >> p & 1:
                models = (alphabet.model_at(p), alphabet.model_at(q))
                violations.append(Violation("connectedness", models))
    for p in range(size):
        reachable = 0
        for q in bit_positions(rows[p]):
            reachable |= rows[q]
        missing = reachable & ~rows[p]
        if not missing:
            continue
        for q in bit_positions(rows[p]):
            for r in bit_positions(rows[q] & missing):
                models = (alphabet.model_at(p), alphabet.model_at(q), alphabet.model_at(r))
                violations.append(Violation("transitivity", models))
    return violations
