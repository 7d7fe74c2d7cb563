"""Size accounting, class counting, and the succinctness-gap experiment.

Level and natural orders can never have more classes than members plus
one, while the lexicographic history of the bare variables splits every
model into its own class.  `blowup_experiment` measures that gap
directly: the history grows linearly in n while any equivalent level
order must carry one member per class.
"""

from __future__ import annotations

import time

from .errors import DoxasticError
from .formula import Alphabet, Var, _Record, node_count
from .orders import (
    AnyOrder,
    LevelOrder,
    LexOrder,
    NaturalOrder,
    kind_of,
    member_formulas,
    _class_runs,
    _require_kind,
)
from .translate import lex_to_level, order_size


class SizeReport(_Record, fields=("kind", "formulas", "nodes", "classes")):
    """Size and class statistics of one order."""

    def __init__(self, kind: str, formulas: int, nodes: int, classes: int) -> None:
        self.kind, self.formulas, self.nodes, self.classes = kind, formulas, nodes, classes


def _class_count(order: AnyOrder) -> int:
    """The number of classes, with no `Model` built: their sizes' count."""
    return len(_class_runs(order)[0])


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
    _require_kind(order, LevelOrder, NaturalOrder)
    return _class_count(order) <= len(member_formulas(order)) + 1


class BlowupRow(_Record, fields=("n", "lex_size", "classes", "level_len", "millis")):
    """One measurement of the lexicographic-to-level translation gap."""

    def __init__(self, n: int, lex_size: int, classes: int, level_len: int, millis: float):
        self.n, self.lex_size, self.classes = n, lex_size, classes
        self.level_len, self.millis = level_len, millis


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
