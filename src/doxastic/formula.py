"""Propositional formulas over a fixed, ordered variable alphabet.

Formulas are immutable syntax trees with no implicit simplification.
Model-set computations work by exhaustive enumeration of the (capped)
model space; `truth_bitmap` provides the same information as one big
integer, with one bit per model, which is what the rest of the package
uses on hot paths.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, total_ordering
from typing import Iterable, Iterator

from .errors import (
    AlphabetMismatchError,
    CapExceededError,
    FormulaSyntaxError,
    UndeclaredVariableError,
)

DEFAULT_ENUMERATION_CAP = 20

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = frozenset({"true", "false"})


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free sequence of variable names.

    The order is significant: it fixes the meaning of model bitstrings.
    Operations that enumerate the model space refuse to run when the
    alphabet is longer than `cap`.
    """

    vars: tuple[str, ...]
    cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        for name in self.vars:
            if not _IDENT_RE.fullmatch(name) or name in _KEYWORDS:
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")

    def __len__(self) -> int:
        return len(self.vars)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.vars)}

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise UndeclaredVariableError(name) from None

    def require_enumerable(self) -> None:
        if len(self.vars) > self.cap:
            raise CapExceededError(
                f"{len(self.vars)} variables exceed the enumeration cap of {self.cap}"
            )

    def models(self) -> list["Model"]:
        """All models in bitstring order ("00", "01", "10", ...)."""
        self.require_enumerable()
        width = len(self.vars)
        return [_model(p, width) for p in range(1 << width)]

    def model_at(self, position: int) -> "Model":
        return _model(position, len(self.vars))


@total_ordering
class Model:
    """A total truth assignment, one bit per alphabet variable.

    It stores its `position` in bitstring order (the first variable is the
    most significant bit) and its `width`, and derives `bits` when first
    read.  Models compare, hash, order and pickle as their bit tuples.
    """

    __slots__ = ("position", "width", "_bits")

    def __init__(self, bits) -> None:
        self._bits = bits = tuple(bool(b) for b in bits)
        self.position = sum(bit << k for k, bit in enumerate(reversed(bits)))
        self.width = len(bits)

    @classmethod
    def from_string(cls, text: str) -> "Model":
        if not text or text.strip("01"):
            raise ValueError(f"model must be a nonempty bitstring, got {text!r}")
        return _model(int(text, 2), len(text))

    @property
    def bits(self) -> tuple[bool, ...]:
        try:
            return self._bits
        except AttributeError:  # derived on first read
            self._bits = tuple(map("1".__eq__, str(self)))
            return self._bits

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.position == other.position and self.width == other.width

    def __hash__(self) -> int:
        return self.position ^ self.width

    def __lt__(self, other) -> bool:
        # As bit tuples: positions aligned on their first bits, then the shorter first.
        if type(other) is not type(self):
            return NotImplemented
        top = max(self.width, other.width)
        mine = (self.position << top - self.width, self.width)
        return mine < (other.position << top - other.width, other.width)

    def __getstate__(self) -> dict:
        return {"bits": self.bits}

    def __setstate__(self, state: dict) -> None:
        Model.__init__(self, state["bits"])

    def __repr__(self) -> str:
        return f"Model(bits={self.bits!r})"

    def __str__(self) -> str:
        return format(self.position, f"0{self.width}b") if self.width else ""


def _model(position: int, width: int, _new=object.__new__) -> Model:
    """The model at `position` among those of `width` bits, with no bit tuple."""
    model = _new(Model)
    model.position, model.width = position, width
    return model


class Formula:
    """Base class for formula syntax nodes.  Equality is structural and the
    hash is memoized on each node; both cost the shared nodes, not the tree."""

    __slots__ = ()

    def __hash__(self) -> int:
        value = getattr(self, "_hash", None)
        if value is None:
            known = lambda node: getattr(node, "_hash", None)
            value = _fold((self,), _hash_node, known)[id(self)]
        return value

    def __getstate__(self) -> dict:
        # Fields only: a memoized hash holds only in the process that made it.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        if self is other or hash(self) != hash(other):
            return self is other
        numbers, _ = _numbered((self, other))
        return numbers[id(self)] == numbers[id(other)]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {render(self)}>"


@dataclass(frozen=True, eq=False, repr=False)
class Var(Formula):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class TrueConst(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class FalseConst(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


TRUE = TrueConst()
FALSE = FalseConst()

_BINARY = (And, Or, Implies, Iff)

# The meaning of each connective as bitwise arithmetic, where `full` has one
# bit per model: `truth_bitmap` uses the whole model space, `evaluate` one model.
_CONNECTIVES = {
    TrueConst: lambda full: full,
    FalseConst: lambda full: 0,
    Not: lambda full, x: full ^ x,
    And: lambda full, x, y: x & y,
    Or: lambda full, x, y: x | y,
    Implies: lambda full, x, y: (full ^ x) | y,
    Iff: lambda full, x, y: full ^ x ^ y,
}


def _operands(node: Formula) -> tuple[Formula, ...]:
    kind = type(node)
    if kind in _BINARY:
        return (node.left, node.right)
    if kind is Not:
        return (node.operand,)
    if kind is Var or kind in _CONNECTIVES:
        return ()
    raise TypeError(f"not a formula: {node!r}")


def _fold(roots: Iterable[Formula], visit, known=None) -> dict[int, object]:
    """The one walk over formulas: `visit(node, *operand_values)` once per
    distinct node object under `roots`, after its operands, with an explicit
    stack.  A node for which `known(node)` is not None takes that value and
    is not entered.  Returns every value, keyed by `id(node)`."""
    values: dict[int, object] = {}
    stack: list = list(roots)  # nodes to enter, and (node, operands) to visit
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            node, operands = node
            values[id(node)] = visit(node, *[values[id(c)] for c in operands])
        elif id(node) not in values:
            value = None if known is None else known(node)
            if value is None:
                operands = _operands(node)
                if operands:
                    stack.append((node, operands))
                    stack += operands
                else:
                    value = visit(node)
            values[id(node)] = value  # for an inner node, a mark until visited
    return values


def _shape(node: Formula, operands: tuple) -> tuple:
    return (Var, node.name) if type(node) is Var else (type(node), *operands)


# Node memos are read with getattr and set with object.__setattr__: on
# CPython 3.11+, touching `node.__dict__` gives each node a dict object.
def _hash_node(node: Formula, *operand_hashes: int) -> int:
    value = hash(_shape(node, operand_hashes))
    object.__setattr__(node, "_hash", value)
    return value


def _numbered(roots: Iterable[Formula]) -> tuple[dict[int, object], int]:
    """Number the subformulas under `roots` so that equal subformulas, and
    only those, share a number; also return how many numbers were used."""
    shapes: dict[tuple, int] = {}
    numbers = _fold(
        roots, lambda node, *operands: shapes.setdefault(_shape(node, operands), len(shapes))
    )
    return numbers, len(shapes)


def variables(formula: Formula) -> frozenset[str]:
    """Names of all variables occurring in the formula."""
    return _variables((formula,))


def _variables(formulas: Iterable[Formula], alphabet: Alphabet | None = None) -> frozenset[str]:
    """Names of all variables occurring in any of the formulas, in one walk
    over their shared nodes.  Given `alphabet`, the walk stops at nodes with
    a bitmap stored for it, whose variables all resolved in it (they are
    left out of the result)."""
    known = None if alphabet is None else partial(_known_bitmap, alphabet)
    values = _fold(formulas, lambda node, *_: node.name if type(node) is Var else None, known)
    return frozenset(value for value in values.values() if type(value) is str)


def node_count(formula: Formula) -> int:
    """Number of syntax-tree nodes, counting every occurrence."""
    return _fold((formula,), lambda node, *counts: 1 + sum(counts))[id(formula)]


def dag_node_count(formulas: Iterable[Formula]) -> int:
    """Number of distinct subformulas across the collection.

    This is the size of the shared (maximally-merged) representation: a
    subterm reused by several members counts once.  Translation growth
    laws are stated against this count, since rewrites reuse existing
    members verbatim inside new ones.
    """
    return _numbered(tuple(formulas))[1]


def evaluate(formula: Formula, model: Model, alphabet: Alphabet) -> bool:
    """Standard propositional semantics of `formula` under `model`."""
    if model.width != len(alphabet):
        raise AlphabetMismatchError(
            f"model width {model.width} does not match alphabet of {len(alphabet)}"
        )

    bits = model.bits  # read once: a property

    def visit(node, *operands):
        if type(node) is Var:
            return bits[alphabet.position(node.name)]
        return _CONNECTIVES[type(node)](1, *operands)

    return bool(_fold((formula,), visit)[id(formula)])


def models_of(formula: Formula, alphabet: Alphabet) -> set[Model]:
    """The set of models satisfying `formula`, by exhaustive enumeration."""
    return {m for m in alphabet.models() if evaluate(formula, m, alphabet)}


def is_consistent(formula: Formula, alphabet: Alphabet) -> bool:
    """True when some model satisfies `formula`."""
    return truth_bitmap(formula, alphabet) != 0


def conjoin(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; empty input yields the constant true."""
    result: Formula | None = None
    for part in parts:
        result = part if result is None else And(result, part)
    return TRUE if result is None else result


def disjoin(parts: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; empty input yields the constant false."""
    result: Formula | None = None
    for part in parts:
        result = part if result is None else Or(result, part)
    return FALSE if result is None else result


def formula_from_models(models: Iterable[Model], alphabet: Alphabet) -> Formula:
    """Disjunction of one minterm per model, in bitstring order.

    The empty set yields the constant false; `models_of` on the result
    always gives back exactly the input set.
    """
    terms = []
    for model in sorted(set(models)):
        if model.width != len(alphabet):
            raise AlphabetMismatchError(
                f"model width {model.width} does not match alphabet of {len(alphabet)}"
            )
        literals = [
            Var(name) if bit else Not(Var(name))
            for name, bit in zip(alphabet.vars, model.bits)
        ]
        terms.append(conjoin(literals))
    return disjoin(terms)


def simplify(formula: Formula) -> Formula:
    """Optional cleanup pass: constant folding and double-negation removal.

    Never applied implicitly; callers opt in.
    """
    return _fold((formula,), _simplified)[id(formula)]


def _negation(inner: Formula) -> Formula:
    if type(inner) is TrueConst:
        return FALSE
    if type(inner) is FalseConst:
        return TRUE
    if type(inner) is Not:
        return inner.operand
    return Not(inner)


def _simplified(node: Formula, *operands: Formula) -> Formula:
    """One node's cleanup, given its operands already simplified.  A
    constant operand fixes the node's value, or leaves the other operand or
    its negation, as the connective's truth table says."""
    kind = type(node)
    if kind is Not:
        return _negation(operands[0])
    for side, operand in enumerate(operands):
        if type(operand) in (TrueConst, FalseConst):
            bit = int(type(operand) is TrueConst)
            low, high = (_CONNECTIVES[kind](1, *((bit, x), (x, bit))[side]) for x in (0, 1))
            other = operands[1 - side]
            if low == high:
                return TRUE if low else FALSE
            return other if high else _negation(other)
    return kind(*operands) if operands else node


# --- bit-parallel model sets -------------------------------------------------
#
# A formula's satisfying set is a bitmask over model positions: bit k set
# means the model at position k satisfies the formula.  All set algebra
# then becomes integer arithmetic.


@lru_cache(maxsize=64)
def _full_mask(width: int) -> int:
    return (1 << (1 << width)) - 1


@lru_cache(maxsize=2048)
def _variable_mask(width: int, position: int) -> int:
    # Bit k of the mask is set iff bit (width-1-position) of k is set,
    # i.e. the repeating pattern 0..01..1 with half-window 2^(width-1-position).
    low = width - 1 - position
    half = 1 << low
    window = half << 1
    block = ((1 << half) - 1) << half
    repeats = _full_mask(width) // ((1 << window) - 1)
    return block * repeats


_bitmap_counts: Counter = Counter()  # truth_bitmap calls: "hits" and "misses"


def truth_bitmap(formula: Formula, alphabet: Alphabet) -> int:
    """Satisfying models of `formula` as a bitmask over model positions.

    Each node keeps its bitmap, with the alphabet it was computed for, for
    as long as the node lives; the walk stops at operands whose bitmap is
    known, so a formula built on earlier ones costs only its new nodes.  A
    node whose operands all hold their bitmaps costs one application of its
    connective to them, with no walk.
    """
    bits = _known_bitmap(alphabet, formula)
    if bits is not None:
        _bitmap_counts["hits"] += 1
        return bits
    _bitmap_counts["misses"] += 1
    width = len(alphabet.vars)
    known = [_known_bitmap(alphabet, operand) for operand in _operands(formula)]
    if known and None not in known:
        bits = _CONNECTIVES[type(formula)](_full_mask(width), *known)
        object.__setattr__(formula, "_bitmap", (alphabet, bits))
        return bits
    alphabet.require_enumerable()
    full = _full_mask(width)

    def visit(node, *operands):
        if type(node) is Var:
            bits = _variable_mask(width, alphabet.position(node.name))
        else:
            bits = _CONNECTIVES[type(node)](full, *operands)
        object.__setattr__(node, "_bitmap", (alphabet, bits))
        return bits

    return _fold((formula,), visit, partial(_known_bitmap, alphabet))[id(formula)]


def _known_bitmap(alphabet: Alphabet, node: Formula) -> int | None:
    cached = getattr(node, "_bitmap", None)
    if cached is not None and (cached[0] is alphabet or cached[0] == alphabet):
        return cached[1]
    return None


# The counts read like a functools cache's: `cache_info()` gives hits, then
# misses, and `cache_clear()` zeroes them.  No bitmap is held apart from its node.
truth_bitmap.cache_info = lambda: (_bitmap_counts["hits"], _bitmap_counts["misses"])
truth_bitmap.cache_clear = _bitmap_counts.clear


def bit_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, ascending.  A part still nonzero
    after 64 bits is halved, so the cost stays linear in the mask's width."""
    parts = [(mask, 0)]
    while parts:
        mask, base = parts.pop()
        for _ in range(64):
            if not mask:
                break
            low = mask & -mask
            yield base + low.bit_length() - 1
            mask ^= low
        else:
            if mask:
                half = mask.bit_length() >> 1
                parts += [(mask >> half, base + half), (mask & ((1 << half) - 1), base)]


# --- concrete syntax ----------------------------------------------------------
#
# formula := iff
# iff     := imp ("<->" imp)*          chains associate to the left
# imp     := or ("->" imp)?            right-associative
# or      := and ("|" and)*
# and     := not ("&" not)*
# not     := "!" not | atom
# atom    := "true" | "false" | IDENT | "(" formula ")"


# The connectives' symbols, from the loosest binding to the tightest.  Of the
# binary ones, "->" alone associates to the right.
_SYMBOLS = {Iff: "<->", Implies: "->", Or: "|", And: "&", Not: "!"}
_PRECEDENCE = {kind: k for k, kind in enumerate(_SYMBOLS, start=1)}
_ATOM_PRECEDENCE = len(_SYMBOLS) + 1
# One token after optional whitespace: a symbol, a word, or any other character.
_TOKEN_RE = re.compile(r"\s*(?:(<->|->|[|&!()])|([A-Za-z_][A-Za-z0-9_]*)|(\S))")
_SYMBOL_KINDS = {"(": "lparen", ")": "rparen", **{s: k for k, s in _SYMBOLS.items()}}


def _tokenize(text: str) -> list[tuple[object, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        symbol, word, other = match.groups()
        pos = match.start(match.lastindex)
        if other:
            raise FormulaSyntaxError(f"unexpected character {other!r}", pos)
        if symbol:
            tokens.append((_SYMBOL_KINDS[symbol], symbol, pos))
        else:
            tokens.append((word if word in _KEYWORDS else "ident", word, pos))
    tokens.append(("end", "", len(text)))
    return tokens


def _found(value: str) -> str:
    return repr(value) if value else "end of input"


def parse(text: str, alphabet: Alphabet) -> Formula:
    """Parse formula text; every variable must belong to `alphabet`.

    Operator precedence over explicit operand and operator stacks, so the
    nesting depth is bounded by memory only.
    """
    operands: list[Formula] = []
    pending: list = []  # connectives and "(" not yet applied
    open_parens = 0

    def reduce(floor: int) -> None:
        # Apply the pending connectives that bind tighter than `floor`;
        # "(" binds nothing.
        while pending and _PRECEDENCE.get(pending[-1], 0) > floor:
            kind = pending.pop()
            if kind is Not:
                operands.append(Not(operands.pop()))
            else:
                right = operands.pop()
                operands.append(kind(operands.pop(), right))

    want_operand = True
    for kind, value, pos in _tokenize(text):
        if want_operand:
            if kind is Not or kind == "lparen":
                pending.append(kind)
                open_parens += kind == "lparen"
                continue
            if kind == "ident":
                if value not in alphabet._positions:
                    raise UndeclaredVariableError(value, pos)
                operands.append(Var(value))
            elif kind in _KEYWORDS:
                operands.append(TRUE if kind == "true" else FALSE)
            else:
                raise FormulaSyntaxError(f"expected a formula, found {_found(value)}", pos)
            want_operand = False
        elif kind in _BINARY:
            reduce(_PRECEDENCE[kind] - (kind is not Implies))
            pending.append(kind)
            want_operand = True
        elif open_parens and kind == "rparen":
            reduce(0)
            pending.pop()
            open_parens -= 1
        elif open_parens:
            raise FormulaSyntaxError(f"expected ')', found {_found(value)}", pos)
        elif kind != "end":
            raise FormulaSyntaxError(f"unexpected {value!r} after formula", pos)
    reduce(0)
    return operands.pop()


def render(formula: Formula) -> str:
    """Canonical text with minimal parentheses; `parse` inverts it exactly.
    Each distinct node gets a rope (strings and its operands' ropes), which
    is then written out front to back."""
    ropes = _fold((formula,), _rope)
    out = []
    stack = [ropes[id(formula)][0]]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
        else:
            stack.extend(reversed(piece))
    return "".join(out)


def _rope(node: Formula, *operands: tuple) -> tuple:
    kind = type(node)
    if kind is Var:
        return node.name, _ATOM_PRECEDENCE
    if kind is TrueConst:
        return "true", _ATOM_PRECEDENCE
    if kind is FalseConst:
        return "false", _ATOM_PRECEDENCE
    prec = _PRECEDENCE[kind]
    if kind is Not:
        return ("!", _bracketed(operands[0], prec)), prec
    right_assoc = kind is Implies
    left = _bracketed(operands[0], prec + right_assoc)
    right = _bracketed(operands[1], prec + (not right_assoc))
    return (left, f" {_SYMBOLS[kind]} ", right), prec


def _bracketed(rope: tuple, min_prec: int):
    text, prec = rope
    return ("(", text, ")") if prec < min_prec else text
