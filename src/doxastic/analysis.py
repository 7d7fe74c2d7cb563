"""Size accounting, class counting, and the succinctness-gap experiment.

Level and natural orders can never have more classes than members plus
one, while the lexicographic history of the bare variables splits every
model into its own class.  `blowup_experiment` measures that gap
directly: the history grows linearly in n while any equivalent level
order must carry one member per class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import DoxasticError
from .formula import Alphabet, Var, node_count
from .orders import (
    AnyOrder,
    LevelOrder,
    LexOrder,
    NaturalOrder,
    classes_of,  # not called here; a test patches this name
    kind_of,
    member_formulas,
    ranked_masks,
)
from .translate import lex_to_level, order_size


@dataclass(frozen=True)
class SizeReport:
    """Size and class statistics of one order."""

    kind: str
    formulas: int
    nodes: int
    classes: int


def _class_count(order: AnyOrder) -> int:
    return sum(1 for _ in ranked_masks(order))  # builds no `Model`


def size_report(order: AnyOrder) -> SizeReport:
    members = member_formulas(order)
    return SizeReport(
        kind=kind_of(order),
        formulas=len(members),
        nodes=sum(node_count(f) for f in members),
        classes=_class_count(order),
    )


def class_bound_check(order: LevelOrder | NaturalOrder) -> bool:
    """Diagnostic: the class count never exceeds the member count plus one."""
    if not isinstance(order, (LevelOrder, NaturalOrder)):
        raise TypeError("class bound applies to level and natural orders")
    return _class_count(order) <= len(member_formulas(order)) + 1


@dataclass(frozen=True)
class BlowupRow:
    """One measurement of the lexicographic-to-level translation gap."""

    n: int
    lex_size: int
    classes: int
    level_len: int
    millis: float


def blowup_experiment(max_n: int) -> list[BlowupRow]:
    """For n = 1..max_n, order the models by the history [x1, ..., xn] and
    translate it (pruned) to levels, recording sizes and wall time.

    Timings are informational; the structural facts are enforced: 2^n
    classes, and at least 2^n - 1 level members in any equivalent order.
    A `max_n` past the enumeration cap raises `CapExceededError` at once.
    """
    alphabets = []
    for n in range(1, max_n + 1):  # every width is checked before any row is computed
        alphabets.append(Alphabet(tuple(f"x{k}" for k in range(1, n + 1))))
        alphabets[-1].require_enumerable()
    rows = []
    for n, alphabet in enumerate(alphabets, start=1):
        order = LexOrder(alphabet, tuple(Var(name) for name in alphabet.vars))
        classes = _class_count(order)
        started = time.perf_counter()
        level = lex_to_level(order, prune=True, length_cap=max(4096, 1 << n))
        millis = (time.perf_counter() - started) * 1000.0
        row = BlowupRow(
            n=n,
            lex_size=order_size(order),
            classes=classes,
            level_len=len(level.levels),
            millis=millis,
        )
        if row.classes != 1 << n:
            raise DoxasticError(f"expected {1 << n} classes at n={n}, got {row.classes}")
        if row.level_len < (1 << n) - 1:
            raise DoxasticError(
                f"level translation at n={n} has impossibly few members: {row.level_len}"
            )
        rows.append(row)
    return rows


def format_blowup_table(rows: list[BlowupRow]) -> str:
    lines = [f"{'n':>3} {'lex_size':>9} {'classes':>8} {'level_len':>10} {'millis':>9}"]
    for row in rows:
        lines.append(
            f"{row.n:>3} {row.lex_size:>9} {row.classes:>8} "
            f"{row.level_len:>10} {row.millis:>9.2f}"
        )
    return "\n".join(lines)
