"""Command-line front end and the order-document file format.

Documents are line-oriented and diff-friendly:

    doxastic v1
    kind: lexicographic
    vars: a b
    formula: a
    formula: b

Explicit orders use ``pair: 10 01`` lines (meaning the first model is at
least as plausible as the second).  Lines starting with ``#`` and blank
lines are ignored.  Exit codes: 0 success (`equiv`: equivalent), 1 not
equivalent, 2 usage errors, 3 cap or size errors, 4 validation errors
(any malformed or invalid document), 5 internal errors: a bug in this
package, never a property of the input.
"""

from __future__ import annotations

import argparse
import sys
from operator import attrgetter

from .analysis import blowup_experiment, format_blowup_table
from .errors import (
    CapExceededError,
    DocumentError,
    DoxasticError,
    LengthCapExceededError,
    NotAPreorderError,
)
from .formula import Alphabet, Model, _render_all, parse
from .orders import (
    AnyOrder,
    ExplicitOrder,
    LexOrder,
    NaturalOrder,
    _BY_KIND,
    _trusted,
    classes_of,
    equivalent,
    kind_of,
    leq,
    member_formulas,
)
from .revision import (
    revise_level_lexicographically,
    revise_level_naturally,
    revise_lex_history,
    revise_natural_history,
)
from .translate import (
    explicit_to_level,
    level_to_lex,
    level_to_natural,
    lex_to_level,
    natural_to_level,
    normalize_level,
    to_explicit,
)

MAGIC = "doxastic v1"
KINDS = tuple(_BY_KIND)


def load_document(text: str, validate: bool = True) -> AnyOrder:
    """Parse an order document; explicit orders are validated unless told
    otherwise."""
    header_seen = False
    kind: str | None = None
    alphabet: Alphabet | None = None
    formulas = []
    pairs = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != MAGIC:
                raise DocumentError(f"expected '{MAGIC}' header", number)
            header_seen = True
            continue
        if kind is None:
            if not line.startswith("kind:"):
                raise DocumentError("expected 'kind: <kind>'", number)
            kind = line[len("kind:") :].strip()
            if kind not in KINDS:
                raise DocumentError(f"unknown kind '{kind}'", number)
            continue
        if alphabet is None:
            if not line.startswith("vars:"):
                raise DocumentError("expected 'vars: <names>'", number)
            names = line[len("vars:") :].split()
            try:
                alphabet = Alphabet(tuple(names))
            except ValueError as exc:
                raise DocumentError(str(exc), number) from None
            continue
        if line.startswith("formula:"):
            if kind == "explicit":
                raise DocumentError("explicit documents take 'pair:' lines", number)
            try:
                formulas.append(parse(line[len("formula:") :].strip(), alphabet))
            except DoxasticError as exc:
                raise DocumentError(str(exc), number) from None
            continue
        if line.startswith("pair:"):
            if kind != "explicit":
                raise DocumentError(f"'{kind}' documents take 'formula:' lines", number)
            fields = line[len("pair:") :].split()
            if len(fields) != 2:
                raise DocumentError("expected 'pair: <model> <model>'", number)
            try:
                first, second = (Model.from_string(f) for f in fields)
            except ValueError as exc:
                raise DocumentError(str(exc), number) from None
            if {first.width, second.width} != {len(alphabet)}:
                raise DocumentError(
                    f"models must have width {len(alphabet)}", number
                )
            pairs.append((first, second))
            continue
        raise DocumentError(f"unrecognized line {line!r}", number)
    if not header_seen:
        raise DocumentError(f"expected '{MAGIC}' header", 1)
    if kind is None or alphabet is None:
        raise DocumentError("document ended before kind and vars were declared", 1)
    if kind == "explicit":
        order = ExplicitOrder(alphabet, frozenset(pairs))
        if validate and order._violations:
            raise NotAPreorderError(order._violations)
        return order
    # `parse` refused every undeclared variable: the members need no second walk.
    return _trusted(_BY_KIND[kind], alphabet, formulas)


def serialize(order: AnyOrder) -> str:
    """Canonical document text; `load_document` inverts it exactly."""
    lines = [MAGIC, f"kind: {kind_of(order)}", f"vars: {' '.join(order.alphabet.vars)}"]
    if isinstance(order, ExplicitOrder):
        if not order.alphabet.vars:
            raise DoxasticError("an explicit order over no variables has no v1 form")
        # Of one width, models sort as their positions do.
        for first, second in sorted(order.pairs, key=lambda p: (p[0].position, p[1].position)):
            lines.append(f"pair: {first} {second}")
    else:
        lines += [f"formula: {text}" for text in _render_all(member_formulas(order))]
    return "\n".join(lines) + "\n"


def load_order(path, validate: bool = True) -> AnyOrder:
    with open(path, "rb") as file:
        data = file.read()
    try:
        return load_document(data.decode("utf-8"), validate=validate)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DocumentError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", line) from None


def translate_order(order: AnyOrder, target: str, prune: bool) -> AnyOrder:
    """Translate to level once, then from level to the target kind.  Only a
    level target keeps an unpruned lexicographic unfolding's empty members."""
    if target not in KINDS:
        raise ValueError(f"unknown target kind '{target}'")
    if target == kind_of(order) and target != "level":
        return order
    if target == "explicit":
        return to_explicit(order)
    if isinstance(order, ExplicitOrder):
        level = explicit_to_level(order)
    elif isinstance(order, NaturalOrder):
        level = natural_to_level(order, lenient=True)  # inert formulas are dropped
    elif isinstance(order, LexOrder):
        level = lex_to_level(order, prune=prune or target != "level")
    else:
        level = normalize_level(order)
    if target == "natural":
        return level_to_natural(level)
    if target == "lexicographic":
        return level_to_lex(level)
    return level


def _cmd_check(args) -> int:
    order = load_order(args.file, validate=not args.no_validate)
    body = (
        f"{len(order.pairs)} pairs"
        if isinstance(order, ExplicitOrder)
        else f"{len(member_formulas(order))} formulas"
    )
    print(f"ok: {kind_of(order)} order over {len(order.alphabet)} variables, {body}")
    return 0


def _cmd_translate(args) -> int:
    order = load_order(args.file)
    result = translate_order(order, args.to, args.prune)
    sys.stdout.write(serialize(result))
    return 0


def _cmd_equiv(args) -> int:
    first = load_order(args.first)
    second = load_order(args.second)
    if equivalent(first, second):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def _cmd_classes(args) -> int:
    partition = classes_of(load_order(args.file))
    for cls in partition.classes:  # of one width: in position order, as bit tuples
        print(" ".join(str(model) for model in sorted(cls, key=attrgetter("position"))))
    return 0


def _parse_model_arg(text: str, alphabet: Alphabet) -> Model:
    model = Model.from_string(text)
    if model.width != len(alphabet):
        raise ValueError(f"model {text!r} must have width {len(alphabet)}")
    return model


def _cmd_leq(args) -> int:
    order = load_order(args.file)
    try:
        first = _parse_model_arg(args.first, order.alphabet)
        second = _parse_model_arg(args.second, order.alphabet)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("true" if leq(order, first, second) else "false")
    return 0


def _cmd_revise(args) -> int:
    order = load_order(args.file)
    formula = parse(args.formula, order.alphabet)
    kind, op = kind_of(order), "natural" if args.op == "natural" else "lexicographic"
    if kind not in (op, "level"):
        print(f"error: {op} revision applies to {op} or level orders, not {kind}", file=sys.stderr)
        return 2
    if kind == "level" and op == "natural":
        revised = revise_level_naturally(order, formula)
    elif kind == "level":
        revised = revise_level_lexicographically(order, formula, prune=args.prune)
    elif op == "natural":
        revised = revise_natural_history(order, formula)
    else:
        revised = revise_lex_history(order, formula)
    sys.stdout.write(serialize(revised))
    return 0


def _cmd_blowup(args) -> int:
    rows = blowup_experiment(args.max_n)
    if args.json:
        import json  # only this output needs it
        for row in rows:
            print(json.dumps({name: getattr(row, name) for name in row._fields}))
    else:
        print(format_blowup_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doxastic",
        description="Inspect, translate, and revise plausibility orders.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="parse and validate an order file")
    check.add_argument("file")
    check.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the preorder-axiom validation of explicit orders",
    )
    check.set_defaults(func=_cmd_check)

    translate = commands.add_parser("translate", help="convert to another kind")
    translate.add_argument("--to", required=True, choices=KINDS)
    translate.add_argument(
        "--prune",
        action="store_true",
        help="drop the members without models when unfolding a lexicographic file "
        "to level; no other target keeps them",
    )
    translate.add_argument("file")
    translate.set_defaults(func=_cmd_translate)

    equiv = commands.add_parser("equiv", help="compare two order files")
    equiv.add_argument("first")
    equiv.add_argument("second")
    equiv.set_defaults(func=_cmd_equiv)

    classes = commands.add_parser("classes", help="print equivalence classes")
    classes.add_argument("file")
    classes.set_defaults(func=_cmd_classes)

    leq_cmd = commands.add_parser("leq", help="compare two models under an order")
    leq_cmd.add_argument("file")
    leq_cmd.add_argument("first")
    leq_cmd.add_argument("second")
    leq_cmd.set_defaults(func=_cmd_leq)

    revise = commands.add_parser("revise", help="revise an order by a formula")
    revise.add_argument("--op", required=True, choices=("natural", "lex"))
    revise.add_argument("--formula", required=True)
    revise.add_argument(
        "--prune",
        action="store_true",
        help="drop members without models after lexicographic level revision",
    )
    revise.add_argument("file")
    revise.set_defaults(func=_cmd_revise)

    blowup = commands.add_parser(
        "blowup", help="measure the lexicographic-to-level translation gap"
    )
    blowup.add_argument("--max-n", type=int, required=True)
    blowup.add_argument("--json", action="store_true")
    blowup.set_defaults(func=_cmd_blowup)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceededError, LengthCapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DoxasticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
