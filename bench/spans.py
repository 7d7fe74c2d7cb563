"""Span tracing of the program's layers, installed from outside the program.

`Tracer.install` replaces each public function listed in TRACED, at every
module binding in the `doxastic` package that refers to it, with a wrapper
that records a span: name, start, end and the span open around it.  A
call made while the same function is already open (recursion) belongs to
the open span.  Spans stay in memory until `totals` derives each name's
self time: its spans' time minus the time of traced spans inside them.
"""

from __future__ import annotations

import sys
from array import array
from functools import wraps
from time import perf_counter

import doxastic as dx

TRACED = {
    "formula": ("truth_bitmap", "parse", "render", "variables"),
    "orders": (
        "classes_of",
        "leq_explicit",
        "leq_level",
        "leq_lex",
        "leq_natural",
        "equivalent",
        "validate_explicit",
    ),
    "translate": (
        "lex_to_level",
        "natural_to_level",
        "to_explicit",
        "explicit_to_level",
        "normalize_level",
        "is_normalized",
    ),
    "revision": (
        "revise_natural_history",
        "revise_lex_history",
        "revise_level_naturally",
        "revise_level_lexicographically",
    ),
    "cli": ("load_document", "serialize"),
    "analysis": ("blowup_experiment",),
}

KIND = {
    dx.ExplicitOrder: "explicit",
    dx.LevelOrder: "level",
    dx.LexOrder: "lexicographic",
    dx.NaturalOrder: "natural",
}

# Functions that call themselves through their own module's global name.  That
# binding is left alone, so the recursion runs unwrapped inside one span.
RECURSIVE = {"formula.truth_bitmap", "formula.variables"}

# Span names that differ from "<module>.<function>".
RENAMED = {
    "orders.leq_explicit": "orders.leq.explicit",
    "orders.leq_level": "orders.leq.level",
    "orders.leq_lex": "orders.leq.lexicographic",
    "orders.leq_natural": "orders.leq.natural",
    "revision.revise_natural_history": "revision.revise_history",
    "revision.revise_lex_history": "revision.revise_history",
}


class Tracer:
    def __init__(self):
        self.enabled = False  # spans are recorded only while this is set
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.open: list[int] = []
        self.active: set = set()
        self.lex_members = 0
        self.doc_bytes = 0
        self.last_level = None
        self.bitmap = None
        self.cache_base = (0, 0)
        self.cache_hits = self.cache_misses = 0

    def install(self) -> None:
        modules = package_modules()
        self.bitmap = dx.formula.truth_bitmap
        self.cache_base = self.bitmap.cache_info()[:2]
        wrappers = {}
        for module, functions in TRACED.items():
            source = sys.modules[f"doxastic.{module}"]
            for function in functions:
                original = getattr(source, function)
                key = f"{module}.{function}"
                home = source if key in RECURSIVE else None
                wrappers[id(original)] = (self._wrap(original, RENAMED.get(key, key)), home)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][1] is not module:
                    setattr(module, attr, wrappers[id(value)][0])

    def bank_cache(self) -> None:
        """Add the bitmap cache's hits and misses since the last call."""
        hits, misses = self.bitmap.cache_info()[:2]
        self.cache_hits += hits - self.cache_base[0]
        self.cache_misses += misses - self.cache_base[1]
        self.cache_base = (hits, misses)

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, func, name: str):
        fixed = self._name_id(name)
        kinds = None
        if name == "orders.classes_of":
            kinds = {cls: self._name_id(f"{name}.{kind}") for cls, kind in KIND.items()}
        after = _AFTER.get(name)

        @wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled or func in self.active:
                return func(*args, **kwargs)
            index = len(self.start)
            self.span_name.append(fixed if kinds is None else kinds[type(args[0])])
            self.parent.append(self.open[-1] if self.open else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.open.append(index)
            self.active.add(func)
            started = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self.start[index] = started
                self.active.discard(func)
                self.open.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def totals(self) -> dict:
        """Self seconds and span count per name, plus the recorded sizes."""
        child = [0.0] * len(self.start)
        for index in range(len(self.start)):
            parent = self.parent[index]
            if parent >= 0:
                child[parent] += self.end[index] - self.start[index]
        spans: dict[str, list] = {}
        for index in range(len(self.start)):
            entry = spans.setdefault(self.names[self.span_name[index]], [0.0, 0])
            entry[0] += self.end[index] - self.start[index] - child[index]
            entry[1] += 1
        self.bank_cache()
        tree = dag = 0
        if self.last_level is not None:
            tree = tree_nodes(self.last_level.levels)
            dag = dx.dag_node_count(self.last_level.levels)
        return {
            "spans": spans,
            "bitmap_hits": self.cache_hits,
            "bitmap_misses": self.cache_misses,
            "lex_members": self.lex_members,
            "doc_bytes": self.doc_bytes,
            "tree_nodes": tree,
            "dag_nodes": dag,
        }


def package_modules() -> list:
    return [m for k, m in sys.modules.items() if k.split(".")[0] == "doxastic"]


def clear_caches(tracer: Tracer | None) -> None:
    """Empty every lru cache in the package, so that a pass starts as a
    fresh process would; the tracer first banks the bitmap cache's counts."""
    if tracer is not None:
        tracer.bank_cache()
    for module in package_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    if tracer is not None:
        tracer.cache_base = (0, 0)


def _lex_members(tracer, args, result):
    tracer.lex_members += len(result.levels)


def _natural_level(tracer, args, result):
    tracer.last_level = result


def _document_in(tracer, args, result):
    tracer.doc_bytes = max(tracer.doc_bytes, len(args[0]))


def _document_out(tracer, args, result):
    tracer.doc_bytes = max(tracer.doc_bytes, len(result))


_AFTER = {
    "translate.lex_to_level": _lex_members,
    "translate.natural_to_level": _natural_level,
    "cli.load_document": _document_in,
    "cli.serialize": _document_out,
}


def tree_nodes(formulas) -> int:
    """Syntax-tree nodes counting every occurrence, by one walk without
    recursion that sizes each shared node object once."""
    size: dict[int, int] = {}
    stack = [(f, False) for f in formulas]
    while stack:
        node, expanded = stack.pop()
        if id(node) in size:
            continue
        children = [
            getattr(node, field)
            for field in ("operand", "left", "right")
            if hasattr(node, field)
        ]
        if children and not expanded:
            stack.append((node, True))
            stack += [(c, False) for c in children]
            continue
        size[id(node)] = 1 + sum(size[id(c)] for c in children)
    return sum(size[id(f)] for f in formulas)


def merge(parts: list[dict]) -> dict:
    """Combined totals of several traced processes."""
    merged = {"spans": {}, "bitmap_hits": 0, "bitmap_misses": 0, "lex_members": 0}
    merged.update(doc_bytes=0, tree_nodes=0, dag_nodes=0)
    for part in parts:
        for name, (seconds, calls) in part["spans"].items():
            entry = merged["spans"].setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
        for key in ("bitmap_hits", "bitmap_misses", "lex_members"):
            merged[key] += part[key]
        for key in ("doc_bytes", "tree_nodes", "dag_nodes"):
            merged[key] = max(merged[key], part[key])
    return merged
