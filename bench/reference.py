"""Reference semantics the benchmark checks the program's outputs against.

Written from the definitions in the package README, apart from the package:
the evaluator walks the public formula dataclasses itself and never calls
`evaluate`, `truth_bitmap`, `leq` or `classes_of`.

Models are numbered as the package numbers them: over variables
``names[0..n-1]``, model ``p`` makes ``names[k]`` true exactly when bit
``n - 1 - k`` of ``p`` is set, so bitstring ``"10"`` is model 2.  A set of
models is an int with bit ``p`` set for each member.  A rank vector gives
each model its class index, 0 being the most plausible class.
"""

from __future__ import annotations

from doxastic.formula import And, FalseConst, Iff, Implies, Not, Or, TrueConst, Var


def full_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


def variable_mask(n: int, k: int) -> int:
    """Models in which ``names[k]`` is true: blocks of ``half`` false models
    then ``half`` true ones, with ``half = 2^(n-1-k)``."""
    half = 1 << (n - 1 - k)
    text = ("0" * half + "1" * half) * ((1 << n) // (2 * half))
    return int(text[::-1], 2)  # character p of `text` is model p


def sat_mask(formula, names) -> int:
    """The models of `formula`, by an explicit-stack walk that visits each
    distinct node object once, so shared subterms and deep chains cost
    their DAG size and no recursion."""
    n = len(names)
    index = {name: k for k, name in enumerate(names)}
    full = full_mask(n)
    done: dict[int, int] = {}  # keyed by id(); `formula` keeps every node alive
    stack = [(formula, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in done:
            continue
        if isinstance(node, Var):
            done[key] = variable_mask(n, index[node.name])
        elif isinstance(node, TrueConst):
            done[key] = full
        elif isinstance(node, FalseConst):
            done[key] = 0
        elif isinstance(node, Not):
            if not expanded:
                stack += [(node, True), (node.operand, False)]
                continue
            done[key] = full & ~done[id(node.operand)]
        else:
            if not expanded:
                stack += [(node, True), (node.left, False), (node.right, False)]
                continue
            a, b = done[id(node.left)], done[id(node.right)]
            if isinstance(node, And):
                done[key] = a & b
            elif isinstance(node, Or):
                done[key] = a | b
            elif isinstance(node, Implies):
                done[key] = (full & ~a) | b
            elif isinstance(node, Iff):
                done[key] = full & ~(a ^ b)
            else:
                raise TypeError(f"not a formula: {node!r}")
    return done[id(formula)]


def positions(mask: int) -> list[int]:
    """The models in a set, ascending."""
    text = bin(mask)[:1:-1]  # least significant bit first
    return [p for p, ch in enumerate(text) if ch == "1"]


def dense(keys) -> list[int]:
    """Rank vector from per-model sort keys: equal keys share a class, and
    a smaller key is a more plausible class."""
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def level_ranks(members, names) -> list[int]:
    """A model's rank is the least index of a member it satisfies; models
    satisfying none share a bottom class after every member."""
    size = 1 << len(names)
    ranks = [len(members)] * size
    covered = 0
    for k, member in enumerate(members):
        fresh = sat_mask(member, names) & ~covered
        covered |= fresh
        for p in positions(fresh):
            ranks[p] = k
    return dense(ranks)


def lex_ranks(history, names) -> list[int]:
    """Most recent revision first: the newest formula dominates and older
    ones only break ties, so the key is the satisfaction vector, newest
    formula most significant, satisfying sorting first."""
    keys = [0] * (1 << len(names))
    for formula in history:
        sat = sat_mask(formula, names)
        keys = [key << 1 for key in keys]
        for p in positions(full_mask(len(names)) & ~sat):
            keys[p] |= 1
    return dense(keys)


def natural_ranks(history, names) -> list[int]:
    """Replay the revisions oldest first from the flat order: each one lifts
    the most plausible models of its formula into a new top class and keeps
    every other comparison.  A revision by an inconsistent formula changes
    nothing."""
    ranks = [0] * (1 << len(names))
    for formula in reversed(history):
        ranks = revise_natural_ranks(ranks, sat_mask(formula, names))
    return ranks


def revise_natural_ranks(ranks: list[int], sat: int) -> list[int]:
    models = positions(sat)
    if not models:
        return ranks
    best = min(ranks[p] for p in models)
    lifted = {p for p in models if ranks[p] == best}
    return dense([0 if p in lifted else rank + 1 for p, rank in enumerate(ranks)])


def revise_lex_ranks(ranks: list[int], sat: int) -> list[int]:
    """Lexicographic revision: every model of the formula before every
    other model, the old order breaking ties on each side."""
    return dense([(0 if sat >> p & 1 else 1, rank) for p, rank in enumerate(ranks)])


def explicit_ranks(pairs, n: int) -> list[int]:
    """Classes of an explicit order by the definition: the first class is
    the models at least as plausible as every model, the next the same
    among the rest, and so on.  `pairs` holds (i, j) positions, i <= j."""
    size = 1 << n
    rows = [0] * size
    for i, j in pairs:
        rows[i] |= 1 << j
    ranks = [0] * size
    remaining = full_mask(n)
    rank = 0
    while remaining:
        minimal = [i for i in positions(remaining) if rows[i] & remaining == remaining]
        if not minimal:
            raise ValueError("not a connected preorder")
        for i in minimal:
            ranks[i] = rank
            remaining &= ~(1 << i)
        rank += 1
    return ranks


def pairs_of(ranks: list[int]) -> frozenset[tuple[int, int]]:
    """Every pair (i, j) with i at least as plausible as j."""
    return frozenset(
        (i, j) for i, ri in enumerate(ranks) for j, rj in enumerate(ranks) if ri <= rj
    )


def partition(ranks: list[int]) -> tuple[frozenset[int], ...]:
    """Classes as sets of model numbers, most plausible first."""
    classes: dict[int, set[int]] = {}
    for p, rank in enumerate(ranks):
        classes.setdefault(rank, set()).add(p)
    return tuple(frozenset(classes[rank]) for rank in sorted(classes))
