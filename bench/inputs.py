"""Seeded inputs for the four workloads.

Every generator takes the variable names it should use, so a workload can
rebuild the same structure over a fresh alphabet for each pass: the
random choices depend only on the seed and the number of names, never on
the names themselves.
"""

from __future__ import annotations

import random

import doxastic as dx

import reference as ref

BINARY = (dx.And, dx.Or, dx.Implies, dx.Iff)


def names(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{k}" for k in range(1, n + 1))


def literal(rng: random.Random, name: str):
    var = dx.Var(name)
    return dx.Not(var) if rng.random() < 0.5 else var


def random_formula(rng: random.Random, names, connectives: int):
    """A random formula with exactly `connectives` binary connectives over
    literals, so formulas of one setting all have about the same size."""
    if connectives == 0:
        return literal(rng, rng.choice(names))
    left = rng.randrange(connectives)
    return rng.choice(BINARY)(
        random_formula(rng, names, left),
        random_formula(rng, names, connectives - 1 - left),
    )


def consistent_formula(rng: random.Random, names, connectives: int):
    while True:
        formula = random_formula(rng, names, connectives)
        if ref.sat_mask(formula, names):
            return formula


def random_ranks(rng: random.Random, n: int, classes: int) -> list[int]:
    """A random rank function with up to `classes` classes, made dense."""
    return ref.dense([rng.randrange(classes) for _ in range(1 << n)])


def explicit_order(alphabet, ranks: list[int]):
    models = alphabet.models()
    pairs = frozenset(
        (models[i], models[j])
        for i, ri in enumerate(ranks)
        for j, rj in enumerate(ranks)
        if ri <= rj
    )
    return dx.ExplicitOrder(alphabet, pairs)


# Shapes with two binary connectives over three literals that hold in 5/8 of
# the models, whatever the literals' signs.
FIVE_EIGHTHS = (
    lambda a, b, c: dx.Or(dx.And(a, b), c),
    lambda a, b, c: dx.Or(c, dx.And(a, b)),
    lambda a, b, c: dx.Implies(c, dx.And(a, b)),
    lambda a, b, c: dx.Implies(dx.Or(a, b), c),
    lambda a, b, c: dx.Implies(dx.Implies(a, b), c),
)


def even_formula(rng: random.Random, names):
    """A FIVE_EIGHTHS shape over three distinct variables with random signs.
    Every such formula splits the models alike, so a stream of them costs
    about the same to revise by, or to classify, whatever the seed."""
    a, b, c = (literal(rng, name) for name in rng.sample(names, 3))
    return rng.choice(FIVE_EIGHTHS)(a, b, c)


# --- matrix ---------------------------------------------------------------------
#
# The pool has a fixed make-up, so that its cost hardly depends on the seed:
# POOL_SHAPE orders of each kind at each width, with member counts cycling
# through 1..MAX_MEMBERS.  Only the formulas and rank functions are random.

MATRIX_WIDTHS = (3, 4, 5, 6, 7)
POOL_SHAPE = 6  # orders per (kind, width)
MAX_MEMBERS = 6
MAX_CONNECTIVES = 3  # formula depth up to 4, counting the literals


def matrix_pool(seed: int, prefix: str) -> list:
    rng = random.Random(f"matrix/{seed}")
    pool = []
    for width in MATRIX_WIDTHS:
        vars_ = names(prefix, width)
        alphabet = dx.Alphabet(vars_)
        for k in range(POOL_SHAPE):
            members = 1 + k % MAX_MEMBERS
            history = tuple(
                random_formula(rng, vars_, 1 + m % MAX_CONNECTIVES)
                for m in range(members)
            )
            pool.append(dx.LevelOrder(alphabet, history))
            history = tuple(
                random_formula(rng, vars_, 1 + m % MAX_CONNECTIVES)
                for m in range(members)
            )
            pool.append(dx.LexOrder(alphabet, history))
            history = tuple(  # natural revision needs consistent formulas
                consistent_formula(rng, vars_, 1 + m % MAX_CONNECTIVES)
                for m in range(members)
            )
            pool.append(dx.NaturalOrder(alphabet, history))
            pool.append(explicit_order(alphabet, random_ranks(rng, width, 1 + members)))
    return pool


def leq_queries(seed: int, width: int, count: int) -> list[tuple[int, int]]:
    rng = random.Random(f"queries/{seed}/{width}")
    size = 1 << width
    return [(rng.randrange(size), rng.randrange(size)) for _ in range(count)]


# --- revise ---------------------------------------------------------------------

REVISE_WIDTH = 8


def revise_stream(seed: int, stream: int, prefix: str, steps: int):
    rng = random.Random(f"revise/{seed}/{stream}")
    vars_ = names(prefix, REVISE_WIDTH)
    return dx.Alphabet(vars_), [even_formula(rng, vars_) for _ in range(steps)]


# --- documents for the CLI ------------------------------------------------------


def text(formula) -> str:
    """Fully parenthesized formula text, written apart from the package's
    renderer."""
    if isinstance(formula, dx.Var):
        return formula.name
    if isinstance(formula, dx.Not):
        return "!" + _operand(formula.operand)
    symbol = {dx.And: "&", dx.Or: "|", dx.Implies: "->", dx.Iff: "<->"}[type(formula)]
    return f"{_operand(formula.left)} {symbol} {_operand(formula.right)}"


def _operand(formula) -> str:
    return text(formula) if isinstance(formula, (dx.Var, dx.Not)) else f"({text(formula)})"


def document(kind: str, vars_, formulas=(), ranks=None) -> str:
    lines = ["doxastic v1", f"kind: {kind}", f"vars: {' '.join(vars_)}"]
    if ranks is not None:
        width = len(vars_)
        for i, j in sorted(ref.pairs_of(ranks)):
            lines.append(f"pair: {i:0{width}b} {j:0{width}b}")
    lines += [f"formula: {text(f)}" for f in formulas]
    return "\n".join(lines) + "\n"


HEAVY_DOCUMENTS = 14
HEAVY_STEPS = 100




def cli_documents(seed: int) -> dict[str, str]:
    """Generated documents whose program work outweighs interpreter start:
    HEAVY_DOCUMENTS long natural histories over 11 variables among them."""
    rng = random.Random(f"cli/{seed}")
    v10, v11, v6 = names("a", 10), names("b", 11), names("e", 6)
    natural = [consistent_formula(rng, v10, 2) for _ in range(150)]
    docs = {
        "gen_natural.ord": document("natural", v10, natural),
        "gen_swapped.ord": document("natural", v10, [natural[1], natural[0], *natural[2:]]),
        "gen_explicit.ord": document("explicit", v6, ranks=random_ranks(rng, 6, 7)),
    }
    for k in range(HEAVY_DOCUMENTS):
        history = [even_formula(rng, v11) for _ in range(HEAVY_STEPS)]
        docs[f"gen_history{k}.ord"] = document("natural", v11, history)
    return docs
