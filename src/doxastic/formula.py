"""Propositional formulas over a fixed, ordered variable alphabet.

Formulas are immutable syntax trees with no implicit simplification.
Model-set computations work by exhaustive enumeration of the (capped)
model space; `truth_bitmap` provides the same information as one big
integer, with one bit per model, which is what the rest of the package
uses on hot paths.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
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

    def model_count(self) -> int:
        self.require_enumerable()
        return 1 << len(self.vars)

    def models(self) -> list["Model"]:
        """All models in bitstring order ("00", "01", "10", ...)."""
        self.require_enumerable()
        return [
            Model(bits)
            for bits in itertools.product((False, True), repeat=len(self.vars))
        ]

    def model_at(self, position: int) -> "Model":
        n = len(self.vars)
        return Model(tuple(bool(position >> (n - 1 - k) & 1) for k in range(n)))


@dataclass(frozen=True, order=True)
class Model:
    """A total truth assignment, one bit per alphabet variable."""

    bits: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(bool(b) for b in self.bits))

    @classmethod
    def from_string(cls, text: str) -> "Model":
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"model must be a nonempty bitstring, got {text!r}")
        return cls(tuple(c == "1" for c in text))

    @property
    def width(self) -> int:
        return len(self.bits)

    @property
    def position(self) -> int:
        """Index of this model in bitstring order (first variable is the
        most significant bit)."""
        value = 0
        for bit in self.bits:
            value = value << 1 | bit
        return value

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


class Formula:
    """Base class for formula syntax nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class TrueConst(Formula):
    pass


@dataclass(frozen=True)
class FalseConst(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


def _memoized_hash(self) -> int:
    # Formula trees are hashed constantly as cache keys; the generated
    # dataclass hash would walk the whole tree on every lookup.
    cached = self.__dict__.get("_hash")
    if cached is None:
        values = tuple(self.__dict__[name] for name in self.__dataclass_fields__)
        cached = hash((type(self).__name__, values))
        self.__dict__["_hash"] = cached
    return cached


for _cls in (Var, TrueConst, FalseConst, Not, And, Or, Implies, Iff):
    _cls.__hash__ = _memoized_hash  # type: ignore[assignment]

TRUE = TrueConst()
FALSE = FalseConst()

_BINARY = (And, Or, Implies, Iff)


def variables(formula: Formula) -> frozenset[str]:
    """Names of all variables occurring in the formula."""
    if isinstance(formula, Var):
        return frozenset((formula.name,))
    if isinstance(formula, Not):
        return variables(formula.operand)
    if isinstance(formula, _BINARY):
        return variables(formula.left) | variables(formula.right)
    return frozenset()


def node_count(formula: Formula) -> int:
    """Number of syntax-tree nodes, counting every occurrence."""
    if isinstance(formula, Not):
        return 1 + node_count(formula.operand)
    if isinstance(formula, _BINARY):
        return 1 + node_count(formula.left) + node_count(formula.right)
    return 1


def dag_node_count(formulas: Iterable[Formula]) -> int:
    """Number of distinct subformulas across the collection.

    This is the size of the shared (maximally-merged) representation: a
    subterm reused by several members counts once.  Translation growth
    laws are stated against this count, since rewrites reuse existing
    members verbatim inside new ones.
    """
    seen: set[Formula] = set()
    stack = list(formulas)
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        if isinstance(f, Not):
            stack.append(f.operand)
        elif isinstance(f, _BINARY):
            stack.append(f.left)
            stack.append(f.right)
    return len(seen)


def evaluate(formula: Formula, model: Model, alphabet: Alphabet) -> bool:
    """Standard propositional semantics of `formula` under `model`."""
    if model.width != len(alphabet):
        raise AlphabetMismatchError(
            f"model width {model.width} does not match alphabet of {len(alphabet)}"
        )
    return _eval(formula, model, alphabet)


def _eval(formula: Formula, model: Model, alphabet: Alphabet) -> bool:
    if isinstance(formula, Var):
        return model.bits[alphabet.position(formula.name)]
    if isinstance(formula, TrueConst):
        return True
    if isinstance(formula, FalseConst):
        return False
    if isinstance(formula, Not):
        return not _eval(formula.operand, model, alphabet)
    if isinstance(formula, And):
        return _eval(formula.left, model, alphabet) and _eval(formula.right, model, alphabet)
    if isinstance(formula, Or):
        return _eval(formula.left, model, alphabet) or _eval(formula.right, model, alphabet)
    if isinstance(formula, Implies):
        return not _eval(formula.left, model, alphabet) or _eval(formula.right, model, alphabet)
    if isinstance(formula, Iff):
        return _eval(formula.left, model, alphabet) == _eval(formula.right, model, alphabet)
    raise TypeError(f"not a formula: {formula!r}")


def models_of(formula: Formula, alphabet: Alphabet) -> set[Model]:
    """The set of models satisfying `formula`, by exhaustive enumeration."""
    return {m for m in alphabet.models() if evaluate(formula, m, alphabet)}


def is_consistent(formula: Formula, alphabet: Alphabet) -> bool:
    """True when some model satisfies `formula`; stops at the first hit."""
    alphabet.require_enumerable()
    for bits in itertools.product((False, True), repeat=len(alphabet)):
        if evaluate(formula, Model(bits), alphabet):
            return True
    return False


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
    if isinstance(formula, Not):
        inner = simplify(formula.operand)
        if isinstance(inner, TrueConst):
            return FALSE
        if isinstance(inner, FalseConst):
            return TRUE
        if isinstance(inner, Not):
            return inner.operand
        return Not(inner)
    if isinstance(formula, And):
        left, right = simplify(formula.left), simplify(formula.right)
        if isinstance(left, FalseConst) or isinstance(right, FalseConst):
            return FALSE
        if isinstance(left, TrueConst):
            return right
        if isinstance(right, TrueConst):
            return left
        return And(left, right)
    if isinstance(formula, Or):
        left, right = simplify(formula.left), simplify(formula.right)
        if isinstance(left, TrueConst) or isinstance(right, TrueConst):
            return TRUE
        if isinstance(left, FalseConst):
            return right
        if isinstance(right, FalseConst):
            return left
        return Or(left, right)
    if isinstance(formula, Implies):
        left, right = simplify(formula.left), simplify(formula.right)
        if isinstance(left, FalseConst) or isinstance(right, TrueConst):
            return TRUE
        if isinstance(left, TrueConst):
            return right
        if isinstance(right, FalseConst):
            return simplify(Not(left))
        return Implies(left, right)
    if isinstance(formula, Iff):
        left, right = simplify(formula.left), simplify(formula.right)
        if isinstance(left, TrueConst):
            return right
        if isinstance(right, TrueConst):
            return left
        if isinstance(left, FalseConst):
            return simplify(Not(right))
        if isinstance(right, FalseConst):
            return simplify(Not(left))
        return Iff(left, right)
    return formula


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


@lru_cache(maxsize=8192)
def truth_bitmap(formula: Formula, alphabet: Alphabet) -> int:
    """Satisfying models of `formula` as a bitmask over model positions."""
    alphabet.require_enumerable()
    width = len(alphabet)
    full = _full_mask(width)
    if isinstance(formula, Var):
        return _variable_mask(width, alphabet.position(formula.name))
    if isinstance(formula, TrueConst):
        return full
    if isinstance(formula, FalseConst):
        return 0
    if isinstance(formula, Not):
        return full ^ truth_bitmap(formula.operand, alphabet)
    if isinstance(formula, And):
        return truth_bitmap(formula.left, alphabet) & truth_bitmap(formula.right, alphabet)
    if isinstance(formula, Or):
        return truth_bitmap(formula.left, alphabet) | truth_bitmap(formula.right, alphabet)
    if isinstance(formula, Implies):
        return (full ^ truth_bitmap(formula.left, alphabet)) | truth_bitmap(
            formula.right, alphabet
        )
    if isinstance(formula, Iff):
        return full ^ truth_bitmap(formula.left, alphabet) ^ truth_bitmap(
            formula.right, alphabet
        )
    raise TypeError(f"not a formula: {formula!r}")


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


_SYMBOL_TOKENS = (
    ("<->", "iff"),
    ("->", "implies"),
    ("!", "not"),
    ("&", "and"),
    ("|", "or"),
    ("(", "lparen"),
    (")", "rparen"),
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        for symbol, kind in _SYMBOL_TOKENS:
            if text.startswith(symbol, k):
                tokens.append((kind, symbol, k))
                k += len(symbol)
                break
        else:
            match = _IDENT_RE.match(text, k)
            if not match:
                raise FormulaSyntaxError(f"unexpected character {ch!r}", k)
            word = match.group()
            kind = word if word in _KEYWORDS else "ident"
            tokens.append((kind, word, k))
            k = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.tokens = _tokenize(text)
        self.alphabet = alphabet
        self.k = 0

    def peek(self) -> str:
        return self.tokens[self.k][0]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.k]
        self.k += 1
        return token

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        if self.peek() != kind:
            _, value, pos = self.tokens[self.k]
            found = repr(value) if value else "end of input"
            raise FormulaSyntaxError(f"expected {what}, found {found}", pos)
        return self.advance()

    def parse(self) -> Formula:
        result = self.iff()
        if self.peek() != "end":
            _, value, pos = self.tokens[self.k]
            raise FormulaSyntaxError(f"unexpected {value!r} after formula", pos)
        return result

    def iff(self) -> Formula:
        result = self.imp()
        while self.peek() == "iff":
            self.advance()
            result = Iff(result, self.imp())
        return result

    def imp(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "implies":
            self.advance()
            return Implies(left, self.imp())
        return left

    def disjunction(self) -> Formula:
        result = self.conjunction()
        while self.peek() == "or":
            self.advance()
            result = Or(result, self.conjunction())
        return result

    def conjunction(self) -> Formula:
        result = self.negation()
        while self.peek() == "and":
            self.advance()
            result = And(result, self.negation())
        return result

    def negation(self) -> Formula:
        if self.peek() == "not":
            self.advance()
            return Not(self.negation())
        return self.atom()

    def atom(self) -> Formula:
        kind = self.peek()
        if kind == "true":
            self.advance()
            return TRUE
        if kind == "false":
            self.advance()
            return FALSE
        if kind == "ident":
            _, name, pos = self.advance()
            if name not in self.alphabet._positions:
                raise UndeclaredVariableError(name, pos)
            return Var(name)
        if kind == "lparen":
            self.advance()
            inner = self.iff()
            self.expect("rparen", "')'")
            return inner
        _, value, pos = self.tokens[self.k]
        found = repr(value) if value else "end of input"
        raise FormulaSyntaxError(f"expected a formula, found {found}", pos)


def parse(text: str, alphabet: Alphabet) -> Formula:
    """Parse formula text; every variable must belong to `alphabet`."""
    return _Parser(text, alphabet).parse()


# Precedence levels used by the renderer; higher binds tighter.
_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = range(1, 7)


def render(formula: Formula) -> str:
    """Canonical text with minimal parentheses; `parse` inverts it exactly."""
    return _render(formula, 0)


def _render(formula: Formula, min_prec: int) -> str:
    if isinstance(formula, Var):
        return formula.name
    if isinstance(formula, TrueConst):
        return "true"
    if isinstance(formula, FalseConst):
        return "false"
    if isinstance(formula, Not):
        return _wrap("!" + _render(formula.operand, _PREC_NOT), _PREC_NOT, min_prec)
    if isinstance(formula, And):
        text = f"{_render(formula.left, _PREC_AND)} & {_render(formula.right, _PREC_AND + 1)}"
        return _wrap(text, _PREC_AND, min_prec)
    if isinstance(formula, Or):
        text = f"{_render(formula.left, _PREC_OR)} | {_render(formula.right, _PREC_OR + 1)}"
        return _wrap(text, _PREC_OR, min_prec)
    if isinstance(formula, Implies):
        text = f"{_render(formula.left, _PREC_IMP + 1)} -> {_render(formula.right, _PREC_IMP)}"
        return _wrap(text, _PREC_IMP, min_prec)
    if isinstance(formula, Iff):
        text = f"{_render(formula.left, _PREC_IFF)} <-> {_render(formula.right, _PREC_IFF + 1)}"
        return _wrap(text, _PREC_IFF, min_prec)
    raise TypeError(f"not a formula: {formula!r}")


def _wrap(text: str, prec: int, min_prec: int) -> str:
    return f"({text})" if prec < min_prec else text
