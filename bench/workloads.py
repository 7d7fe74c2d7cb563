"""The four workloads: each builds one pass of seeded inputs and runs it.

A pass is the workload's fixed list of operations.  Every pass uses fresh
variable names (`prefix`), so no operation is answered from a cache that
an earlier pass filled; the random choices depend only on the seed.
`Recorder.op` times each call; every output is checked against the
reference semantics after its timer stops.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import doxastic as dx
import doxastic.cli as cli

import inputs
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"
CORPUS = ROOT / "tests" / "data"


class OpFailed(Exception):
    """An operation raised a program error; its dependants are skipped."""


class Recorder:
    """Timings, counts and check results of one run.

    With a `tracer`, spans are recorded while each operation runs.  With
    `trace_children`, `cli` runs its child processes under the tracer too
    and keeps their span totals in `span_parts`."""

    def __init__(self, tracer=None, trace_children: bool = False):
        self.tracer = tracer
        self.trace_children = trace_children
        # One sample per operation: its group, as an index into `group_ids`,
        # and its latency in seconds as a 4-byte float (seven significant
        # digits).  The samples grow with the number of passes, which the
        # host's speed sets, so they are kept small lest they show in
        # peak_rss_mb.
        self.group_ids: dict[str, int] = {}
        self.groups = array("B")
        self.seconds = array("f")
        self.subcommands: dict[str, list[float]] = {}
        self.span_parts: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def op(self, group: str, func, *args, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.enabled = True
        started = perf_counter()
        try:
            result = func(*args, **kwargs)
        except (dx.DoxasticError, RecursionError) as exc:
            self.fail(f"{group}: {type(exc).__name__}: {exc}")
            raise OpFailed(group) from None
        finally:
            elapsed = perf_counter() - started
            if self.tracer is not None:
                self.tracer.enabled = False
        self._sample(group, elapsed)
        return result

    def timed(self, group: str, seconds: float) -> None:
        """An operation timed elsewhere, such as a child process."""
        self.attempted += 1
        self._sample(group, seconds)

    def _sample(self, group: str, seconds: float) -> None:
        self.groups.append(self.group_ids.setdefault(group, len(self.group_ids)))
        self.seconds.append(seconds)

    def group_names(self) -> list[str]:
        """The group of each sample, by name."""
        names = list(self.group_ids)
        return [names[index] for index in self.groups]

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"failed: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches.append(what)
            print(f"mismatch: {what}", file=sys.stderr)


def ranks_of_partition(partition) -> list[int]:
    ranks = [0] * (1 << len(partition.alphabet))
    for rank, cls in enumerate(partition.classes):
        for model in cls:
            ranks[model.position] = rank
    return ranks


def ranks_of(order) -> list[int]:
    """Reference ranks of any order the package can hold."""
    names = order.alphabet.vars
    if isinstance(order, dx.ExplicitOrder):
        pairs = [(i.position, j.position) for i, j in order.pairs]
        return ref.explicit_ranks(pairs, len(names))
    if isinstance(order, dx.LevelOrder):
        return ref.level_ranks(order.levels, names)
    if isinstance(order, dx.LexOrder):
        return ref.lex_ranks(order.history, names)
    return ref.natural_ranks(order.history, names)


def leq_reads(rec: Recorder, group: str, order, models, queries) -> list[bool]:
    """Each query is one operation: these per-call latencies are the
    workload's cheap majority."""
    return [rec.op(group, dx.leq, order, models[i], models[j]) for i, j in queries]


# --- blowup -----------------------------------------------------------------------
#
# The paper's separation experiment: [x1, ..., xn] classified as a lexicographic
# and as a natural history, and unfolded to levels.  Histories per width, chosen
# so that the median and 90th-percentile ranks each fall inside one group of
# like operations.  Operations are grouped by width: at n = 8 the three calls
# cost about the same, and sorted by latency the 108 operations put n = 8 at
# ranks 0-65 (median rank 53), n = 12 at ranks 66-104 (90th percentile rank
# 97, among its natural classes, the slowest of the three) and n = 14 last.
# n = 16 is left out: its three calls take about 14 s and 600 MB, which
# leaves one pass per run and made every timing spread 10-23% across seeds.

BLOWUP_WIDTHS = {8: 22, 12: 13, 14: 1}
BLOWUP_SAMPLE = 8  # unfolded members checked per history


class Blowup:
    name = "blowup"

    def __init__(self, seed: int):
        self.seed = seed
        self.natural: dict[int, list[int]] = {}  # reference ranks per width

    def prepare(self, prefix: str, small: bool = False):
        """The histories, in ascending width.  They do not depend on the
        seed, which picks the unfolded members that are checked."""
        widths = {6: 1} if small else BLOWUP_WIDTHS
        ops = []
        for n, count in widths.items():
            for c in range(count):
                for kind in ("lex", "natural", "unfold"):
                    vars_ = inputs.names(f"{prefix}{kind[0]}{n}_{c}x", n)
                    history = tuple(dx.Var(v) for v in vars_)
                    ops.append((kind, n, vars_, history))
        return ops

    def run_pass(self, rec: Recorder, ops) -> None:
        rng = random.Random(f"blowup-sample/{self.seed}")
        for op in ops:
            try:
                self._one(rec, rng, *op)
            except OpFailed:
                pass

    def _one(self, rec: Recorder, rng, kind: str, n: int, vars_, history) -> None:
        alphabet = dx.Alphabet(vars_)
        top = (1 << n) - 1
        if kind == "lex":
            part = rec.op(f"n{n}", dx.classes_of, dx.LexOrder(alphabet, history))
            # Class k is the single model top - k.
            rec.check(ranks_of_partition(part) == list(range(top, -1, -1)), f"lex classes, n={n}")
        elif kind == "natural":
            part = rec.op(f"n{n}", dx.classes_of, dx.NaturalOrder(alphabet, history))
            if n not in self.natural:
                self.natural[n] = ref.natural_ranks(history, vars_)
            rec.check(ranks_of_partition(part) == self.natural[n], f"natural classes, n={n}")
        else:
            order = dx.LexOrder(alphabet, history)
            level = rec.op(f"n{n}", dx.lex_to_level, order, prune=True, length_cap=1 << n)
            ok = len(level.levels) == 1 << n
            for k in rng.sample(range(1 << n), min(BLOWUP_SAMPLE, 1 << n)) if ok else ():
                ok = ok and ref.sat_mask(level.levels[k], vars_) == 1 << (top - k)
            rec.check(ok, f"pruned lex_to_level, n={n}")


# --- matrix -----------------------------------------------------------------------
#
# Many cheap calls: every pool order is translated into each other kind, the
# translations are compared with `equivalent`, and sampled `leq` queries are
# asked of the source and of every translation.

LEQ_QUERIES = 24


def _translations(order) -> list[tuple[str, object]]:
    """(target, function) pairs turning `order` into each other kind."""
    if isinstance(order, dx.ExplicitOrder):
        return [
            ("level", dx.explicit_to_level),
            ("natural", lambda o: dx.level_to_natural(dx.explicit_to_level(o))),
            ("lexicographic", lambda o: dx.level_to_lex(dx.explicit_to_level(o))),
        ]
    if isinstance(order, dx.LevelOrder):
        return [
            ("explicit", dx.to_explicit),
            ("natural", dx.level_to_natural),
            ("lexicographic", dx.level_to_lex),
        ]
    if isinstance(order, dx.LexOrder):
        return [
            ("explicit", dx.to_explicit),
            ("level", dx.lex_to_level),
            ("level-pruned", lambda o: dx.lex_to_level(o, prune=True)),
            ("natural", lambda o: dx.level_to_natural(dx.lex_to_level(o, prune=True))),
        ]
    return [
        ("explicit", dx.to_explicit),
        ("level", dx.natural_to_level),
        ("lexicographic", dx.natural_to_lex),
    ]


class Matrix:
    name = "matrix"

    def __init__(self, seed: int):
        self.seed = seed
        self.expected: dict[int, list[int]] = {}  # reference ranks per pool slot

    def prepare(self, prefix: str, small: bool = False):
        pool = inputs.matrix_pool(self.seed, prefix)
        if small:
            pool = pool[:4]
        models = {}
        for order in pool:
            width = len(order.alphabet)
            if width not in models:
                models[width] = (
                    order.alphabet.models(),
                    inputs.leq_queries(self.seed, width, LEQ_QUERIES),
                )
        return pool, models

    def run_pass(self, rec: Recorder, prepared) -> None:
        pool, models = prepared
        for slot, source in enumerate(pool):
            try:
                self._one(rec, slot, source, *models[len(source.alphabet)])
            except OpFailed:
                pass

    def _one(self, rec: Recorder, slot: int, source, models, queries) -> None:
        kind = dx.kind_of(source)
        if slot not in self.expected:
            self.expected[slot] = ranks_of(source)
        expected = self.expected[slot]
        classes = max(expected) + 1
        members = len(dx.member_formulas(source))
        if kind in ("level", "natural"):
            rec.check(classes <= members + 1, f"class bound of pool order {slot}")
        outputs = []
        for target, translate in _translations(source):
            out = rec.op(f"translate.{kind}.{target}", translate, source)
            outputs.append(out)
            what = f"{kind} pool order {slot} to {target}"
            if isinstance(out, dx.ExplicitOrder):
                got = {(i.position, j.position) for i, j in out.pairs}
                rec.check(got == ref.pairs_of(expected), what)
            else:
                rec.check(ranks_of(out) == expected, what)
            if target == "level" and kind == "natural":
                rec.check(len(out.levels) == members + 1, f"{what}: one member more")
            if target == "level" and kind == "lexicographic":
                rec.check(len(out.levels) == 1 << members, f"{what}: 2^m members")
            if target == "level-pruned":
                rec.check(len(out.levels) == classes, f"{what}: one member per class")
        for out in outputs:
            same = rec.op("equivalent", dx.equivalent, source, out)
            rec.check(same is True, f"equivalent on pool order {slot}")
        want = [expected[i] <= expected[j] for i, j in queries]
        for out in [source, *outputs]:
            got = leq_reads(rec, "leq", out, models, queries)
            rec.check(got == want, f"leq on pool order {slot}")


# --- revise -----------------------------------------------------------------------
#
# Iterated revision: streams of consistent formulas applied naturally and
# lexicographically to histories and to normalized level states, each write
# followed by `leq` reads, and at intervals the natural history unfolded,
# serialized and loaded back.  A pass runs several independent streams, so
# that its cost depends little on how one stream's formulas split the models.

REVISE_STREAMS = 16
REVISE_STEPS = 16  # per stream
# Reads after each write, per state.  Reads of a history cost a few µs and
# make up about 91% of the operations, so both the median and the 90th
# percentile rank fall among the reads, where latency rises slowly with rank.
# Fewer would put the 90th percentile among the reads of the lexicographic
# level state, whose cost grows with the state, so that one percent of rank
# more or less moves it by a quarter.
HISTORY_READS = 192
LEVEL_READS = 16
UNFOLD_EVERY = 8


class Revise:
    name = "revise"

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, prefix: str, small: bool = False):
        streams, steps = (1, 6) if small else (REVISE_STREAMS, REVISE_STEPS)
        prepared = []
        for k in range(streams):
            alphabet, stream = inputs.revise_stream(self.seed, k, f"{prefix}s{k}x", steps)
            rng = random.Random(f"revise-reads/{self.seed}/{k}")
            size = 1 << len(alphabet)
            reads = [
                [(rng.randrange(size), rng.randrange(size)) for _ in range(HISTORY_READS)]
                for _ in stream
            ]
            prepared.append((alphabet, stream, reads, alphabet.models()))
        return prepared

    def run_pass(self, rec: Recorder, prepared) -> None:
        for stream in prepared:
            try:
                self._stream(rec, *stream)
            except OpFailed:
                pass

    def _stream(self, rec: Recorder, alphabet, stream, reads, models) -> None:
        names = alphabet.vars
        nat = dx.NaturalOrder(alphabet, ())
        lex = dx.LexOrder(alphabet, ())
        nat_level = lex_level = dx.LevelOrder(alphabet, (dx.TRUE,), normalized=True)
        ref_nat = ref_lex = [0] * len(models)
        for step, formula in enumerate(stream):
            sat = ref.sat_mask(formula, names)
            ref_nat = ref.revise_natural_ranks(ref_nat, sat)
            ref_lex = ref.revise_lex_ranks(ref_lex, sat)
            queries = reads[step]
            nat = rec.op("revise.history", dx.revise_natural_history, nat, formula)
            self._reads(rec, "leq.history", nat, models, queries, ref_nat, step)
            lex = rec.op("revise.history", dx.revise_lex_history, lex, formula)
            self._reads(rec, "leq.history", lex, models, queries, ref_lex, step)
            queries = queries[:LEVEL_READS]
            nat_level = rec.op("normalize_level", dx.normalize_level, nat_level)
            nat_level = rec.op(
                "revise.level.natural", dx.revise_level_naturally, nat_level, formula
            )
            self._reads(rec, "leq.level.natural", nat_level, models, queries, ref_nat, step)
            lex_level = rec.op("normalize_level", dx.normalize_level, lex_level)
            lex_level = rec.op(
                "revise.level.lexicographic",
                dx.revise_level_lexicographically,
                lex_level,
                formula,
            )
            self._reads(rec, "leq.level.lexicographic", lex_level, models, queries, ref_lex, step)
            if (step + 1) % UNFOLD_EVERY and step + 1 != len(stream):
                continue
            unfolded = rec.op("natural_to_level", dx.natural_to_level, nat)
            text = rec.op("serialize", cli.serialize, unfolded)
            loaded = rec.op("load_document", cli.load_document, text)
            rec.check(
                cli.serialize(loaded) == text, f"serialize/load round trip at step {step}"
            )
            rec.check(
                ref.level_ranks(unfolded.levels, names) == ref_nat,
                f"revise-then-translate at step {step}",
            )
            rec.check(
                ref.level_ranks(nat_level.levels, names) == ref_nat,
                f"translate-then-revise (natural) at step {step}",
            )
            rec.check(
                ref.level_ranks(lex_level.levels, names) == ref_lex,
                f"translate-then-revise (lexicographic) at step {step}",
            )

    @staticmethod
    def _reads(rec, group, order, models, queries, ranks, step) -> None:
        got = leq_reads(rec, group, order, models, queries)
        want = [ranks[i] <= ranks[j] for i, j in queries]
        rec.check(got == want, f"{dx.kind_of(order)} leq after step {step}")


# --- cli --------------------------------------------------------------------------
#
# Cold `python -m doxastic.cli` processes, one at a time, on the tests/data
# corpus and on generated documents large enough that the program's own
# work, not interpreter start, takes most of each invocation.


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def startup_seconds() -> float:
    """A fresh interpreter that imports the CLI module and exits."""
    started = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import doxastic.cli"],
        env=child_env(),
        check=True,
        cwd=ROOT,
    )
    return perf_counter() - started


def interleave(*tiers: list) -> list:
    """The calls of every tier in one list, each tier's calls evenly spaced
    through it.  The host's speed drifts over a few seconds; a tier run as
    one block would see a single stretch of that drift, not the whole run."""
    keyed = [
        ((index + 0.5) / len(tier), rank, call)
        for rank, tier in enumerate(tiers)
        for index, call in enumerate(tier)
    ]
    return [call for *_, call in sorted(keyed, key=lambda k: k[:2])]


class Cli:
    name = "cli"

    def __init__(self, seed: int):
        self.seed = seed
        self.dir = WORK / "cli"
        self.docs: dict[str, object] = {}
        self.ranks: dict[str, list[int]] = {}  # reference ranks per document

    def prepare(self, prefix: str, small: bool = False):
        """Writes the generated documents and returns the invocation list."""
        self.dir.mkdir(parents=True, exist_ok=True)
        generated = inputs.cli_documents(self.seed)
        for name, text in generated.items():
            (self.dir / name).write_text(text, encoding="utf-8")
        if small:
            return [("corpus", "check", ["check", str(CORPUS / "lex_ab.ord")])]
        return self._invocations()

    def _path(self, name: str) -> str:
        path = self.dir / name
        return str(path if path.exists() else CORPUS / name)

    def _invocations(self) -> list[tuple[str, str, list[str]]]:
        """One pass of (tier, subcommand, arguments): 24 calls on the small
        corpus documents, where interpreter start dominates; 6 on generated
        documents; and 10 heavy ones, each listing the classes of its own
        long natural history over 11 variables.  Sorted by latency the tiers
        hold ranks 0-60%, 60-75% and 75-100%, so the median rank falls among
        the corpus calls and the 90th percentile rank in the middle of the
        heavy ones, which all cost about the same, far from either edge.
        The tiers are interleaved through the pass."""
        rng = random.Random(f"cli-args/{self.seed}")
        corpus = sorted(p.name for p in CORPUS.glob("*.ord"))
        by_vars: dict = {}
        for name in corpus:
            by_vars.setdefault(self._order(name).alphabet.vars, []).append(name)
        same = [(a, b) for group in by_vars.values() for a in group for b in group if a < b]
        calls = []
        for name in rng.sample(corpus, 4):
            calls.append(("corpus", "check", ["check", self._path(name)]))
        for name in rng.sample(corpus, 4):
            calls.append(("corpus", "classes", ["classes", self._path(name)]))
        for name in rng.sample(corpus, 4):
            calls.append(("corpus", "leq", self._leq_args(rng, name)))
        # nat_inert.ord is left out: unfolding its inert formula exits 4 (see CHANGES.md).
        translatable = [name for name in corpus if name != "nat_inert.ord"]
        for name, kind in zip(rng.sample(translatable, 4), cli.KINDS):
            calls.append(("corpus", "translate", ["translate", "--to", kind, self._path(name)]))
        for name, op in (
            ("level_ab4.ord", "natural"),
            ("level_ab4.ord", "lex"),
            ("lex_ab.ord", "lex"),
            ("nat_aorb_nota.ord", "natural"),
        ):
            calls.append(("corpus", "revise", self._revise_args(rng, name, op)))
        for first, second in rng.sample(same, 4):
            calls.append(("corpus", "equiv", ["equiv", self._path(first), self._path(second)]))
        gen_natural = self._path("gen_natural.ord")
        generated = [
            ("generated", "leq", self._leq_args(rng, "gen_natural.ord")),
            ("generated", "revise", self._revise_args(rng, "gen_natural.ord", "natural")),
            ("generated", "equiv", ["equiv", gen_natural, self._path("gen_swapped.ord")]),
            ("generated", "classes", ["classes", gen_natural]),
            ("generated", "translate", ["translate", "--to", "level", self._path("gen_explicit.ord")]),
            ("generated", "blowup", ["blowup", "--max-n", "11", "--json"]),
        ]
        heavy = [
            ("heavy", "classes", ["classes", self._path(f"gen_history{k}.ord")])
            for k in range(inputs.HEAVY_DOCUMENTS)
        ]
        return interleave(calls, generated, heavy)

    def _leq_args(self, rng, name: str) -> list[str]:
        width = len(self._order(name).alphabet)
        i, j = (format(rng.randrange(1 << width), f"0{width}b") for _ in range(2))
        return ["leq", self._path(name), i, j]

    def _revise_args(self, rng, name: str, op: str) -> list[str]:
        vars_ = self._order(name).alphabet.vars
        formula = inputs.text(inputs.consistent_formula(rng, vars_, 2))
        return ["revise", "--op", op, "--formula", formula, self._path(name)]

    def _order(self, name: str):
        if name not in self.docs:
            self.docs[name] = cli.load_order(self._path(name))
        return self.docs[name]

    def _ranks(self, name: str) -> list[int]:
        if name not in self.ranks:
            self.ranks[name] = ranks_of(self._order(name))
        return self.ranks[name]

    def run_pass(self, rec: Recorder, calls) -> None:
        for index, (tier, group, argv) in enumerate(calls):
            if rec.trace_children:
                out_file = self.dir / f"spans-{index}.json"
                command = [sys.executable, str(Path(__file__).parent / "child.py"), str(out_file)]
            else:
                command = [sys.executable, "-m", "doxastic.cli"]
            started = perf_counter()
            done = subprocess.run(
                command + argv, env=child_env(), cwd=ROOT, capture_output=True, text=True
            )
            elapsed = perf_counter() - started
            rec.timed(tier, elapsed)
            rec.subcommands.setdefault(group, []).append(elapsed)
            if rec.trace_children:
                rec.span_parts.append(json.loads(out_file.read_text()))
            self._check(rec, argv, done)

    def _check(self, rec: Recorder, argv: list[str], done) -> None:
        what = " ".join(Path(a).name for a in argv)
        command = argv[0]
        if command == "blowup":
            rows = [json.loads(line) for line in done.stdout.splitlines()]
            rec.check(
                done.returncode == 0
                and len(rows) == int(argv[2])
                and all(r["classes"] == r["level_len"] == 1 << r["n"] for r in rows),
                what,
            )
            return
        if done.returncode not in ((0, 1) if command == "equiv" else (0,)):
            rec.fail(f"{what}: exit {done.returncode}: {done.stderr.strip()[-200:]}")
            return
        if command == "equiv":
            same = self._ranks(Path(argv[1]).name) == self._ranks(Path(argv[2]).name)
            verdict = "equivalent" if same else "not equivalent"
            rec.check(done.returncode == (0 if same else 1) and done.stdout.strip() == verdict, what)
            return
        name = Path(argv[1 if command == "leq" else -1]).name
        order, expected = self._order(name), self._ranks(name)
        names = order.alphabet.vars
        if command == "check":
            body = (
                f"{len(order.pairs)} pairs"
                if isinstance(order, dx.ExplicitOrder)
                else f"{len(dx.member_formulas(order))} formulas"
            )
            line = f"ok: {dx.kind_of(order)} order over {len(names)} variables, {body}"
            rec.check(done.stdout.strip() == line, what)
        elif command == "classes":
            width = len(names)
            lines = [
                " ".join(format(p, f"0{width}b") for p in sorted(cls))
                for cls in ref.partition(expected)
            ]
            rec.check(done.stdout.splitlines() == lines, what)
        elif command == "leq":
            i, j = int(argv[2], 2), int(argv[3], 2)
            rec.check(done.stdout.strip() == str(expected[i] <= expected[j]).lower(), what)
        elif command == "translate":
            out = cli.load_document(done.stdout)
            rec.check(
                dx.kind_of(out) == argv[2] and ranks_of(out) == expected, what
            )
        elif command == "revise":
            out = cli.load_document(done.stdout)
            sat = ref.sat_mask(dx.parse(argv[4], order.alphabet), names)
            step = ref.revise_natural_ranks if argv[2] == "natural" else ref.revise_lex_ranks
            rec.check(ranks_of(out) == step(expected, sat), what)


WORKLOADS = {"blowup": Blowup, "matrix": Matrix, "revise": Revise, "cli": Cli}
