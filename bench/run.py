"""The doxastic benchmark: one command, four workloads.

    python3 bench/run.py                       # every workload, untraced then traced
    python3 bench/run.py --workload matrix --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
With one workload, the last line of output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics untraced
(`--trace 0`), the per-layer metrics traced (`--trace 1`).  Without
`--workload`, each workload runs in a fresh process, untraced and then
traced, and the tracing overhead is printed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("blowup", "matrix", "revise", "cli")
SETUP_REPEATS = 5
MIN_OPERATIONS = 100

CLI_SUBCOMMANDS = ("check", "classes", "equiv", "leq", "translate", "revise", "blowup")
KINDS = ("explicit", "level", "lexicographic", "natural")
# Self-time metrics and the span each one sums.
LAYER_MS = {
    "formula.truth_bitmap.ms": "formula.truth_bitmap",
    "formula.parse.ms": "formula.parse",
    "formula.render.ms": "formula.render",
    "formula.variables.ms": "formula.variables",
    **{f"orders.classes_of.ms.{k}": f"orders.classes_of.{k}" for k in KINDS},
    "orders.equivalent.ms": "orders.equivalent",
    "orders.validate_explicit.ms": "orders.validate_explicit",
    "translate.lex_to_level.ms": "translate.lex_to_level",
    "translate.natural_to_level.ms": "translate.natural_to_level",
    "translate.to_explicit.ms": "translate.to_explicit",
    "translate.explicit_to_level.ms": "translate.explicit_to_level",
    "translate.normalize_level.ms": "translate.normalize_level",
    "translate.is_normalized.ms": "translate.is_normalized",
    "revision.revise_history.ms": "revision.revise_history",
    "revision.revise_level_naturally.ms": "revision.revise_level_naturally",
    "revision.revise_level_lexicographically.ms": "revision.revise_level_lexicographically",
    "cli.load_document.ms": "cli.load_document",
    "cli.serialize.ms": "cli.serialize",
}


def import_package():
    """Import doxastic from this checkout's src, and nowhere else."""
    if not (SRC / "doxastic" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import doxastic

    if Path(doxastic.__file__).resolve().parent != SRC / "doxastic":
        sys.exit(f"error: doxastic imported from {doxastic.__file__}, not {SRC}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup(workload, workloads) -> tuple[float, float, object]:
    """Set up SETUP_REPEATS times; return the median set-up time, the
    median start-up time and the inputs of the first pass.

    One set-up is a fresh interpreter importing the CLI module, the seeded
    inputs of the first pass with their documents written, and a warm-up
    pass over a small input."""
    times, startups = [], []
    prepared = None
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        startups.append(workloads.startup_seconds())
        prepared = workload.prepare("p0x")
        workload.run_pass(workloads.Recorder(), workload.prepare("warm", small=True))
        times.append(perf_counter() - started)
    return statistics.median(times), statistics.median(startups), prepared


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_package()
    import spans
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    setup_s, startup_s, prepared = setup(workload, workloads)
    tracer = None
    if trace and name != "cli":
        tracer = spans.Tracer()
        tracer.install()
    rec = workloads.Recorder(tracer, trace_children=trace and name == "cli")
    pass_seconds = []
    began = perf_counter()
    while True:
        first = len(rec.seconds)
        spans.clear_caches(tracer)
        gc.collect()  # no garbage of the last pass or its checks is collected inside this one
        workload.run_pass(rec, prepared)
        pass_seconds.append(sum(rec.seconds[first:]))
        elapsed = perf_counter() - began
        if elapsed + (elapsed / len(pass_seconds)) > seconds and rec.attempted >= MIN_OPERATIONS:
            break
        prepared = None  # free the last pass's inputs before the next pass's are made
        prepared = workload.prepare(f"p{len(pass_seconds)}x")
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # before the summaries below
    latencies = list(rec.seconds)
    wall_s = statistics.median(pass_seconds)
    if trace:
        totals = tracer.totals() if tracer is not None else spans.merge(rec.span_parts)
        metrics = layer_metrics(totals, len(pass_seconds), wall_s)
        metrics["cli.startup_ms"] = (startup_s * 1e3, "ms")
        for sub in CLI_SUBCOMMANDS:
            times = rec.subcommands.get(sub)
            metrics[f"cli.subcommand_ms.{sub}"] = (
                statistics.median(times) * 1e3 if times else 0.0,
                "ms",
            )
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "op_ms_p50": (percentile(latencies, 0.5) * 1e3, "ms"),
            "op_ms_p90": (percentile(latencies, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    report_groups(list(zip(rec.group_names(), rec.seconds)), len(pass_seconds))
    return {
        "correct": not rec.mismatches,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(totals: dict, passes: int, wall_s: float) -> dict:
    """Per-layer metrics, per pass of the workload's operation list."""
    spans = totals["spans"]
    metrics = {}
    for metric, span in LAYER_MS.items():
        metrics[metric] = (spans.get(span, (0.0, 0))[0] * 1e3 / passes, "ms")
    metrics["formula.truth_bitmap.calls"] = (
        spans.get("formula.truth_bitmap", (0.0, 0))[1] / passes,
        "count",
    )
    lookups = totals["bitmap_hits"] + totals["bitmap_misses"]
    metrics["formula.truth_bitmap.hit_ratio"] = (
        totals["bitmap_hits"] / lookups if lookups else 0.0,
        "ratio",
    )
    metrics["formula.tree_nodes"] = (totals["tree_nodes"], "count")
    metrics["formula.dag_nodes"] = (totals["dag_nodes"], "count")
    calls = 0
    for kind in KINDS:
        seconds, count = spans.get(f"orders.leq.{kind}", (0.0, 0))
        metrics[f"orders.leq.us.{kind}"] = (seconds * 1e6 / count if count else 0.0, "us")
        calls += count
    metrics["orders.leq.calls"] = (calls / passes, "count")
    metrics["translate.lex_to_level.members"] = (totals["lex_members"] / passes, "count")
    metrics["cli.doc_kb"] = (totals["doc_bytes"] / 1024, "KB")
    metrics["trace.wall_s"] = (wall_s, "s")
    return metrics


def report_groups(samples, passes: int) -> None:
    """Print, on stderr, which operation groups hold the median and 90th
    percentile ranks, with how far each rank sits from its group's edges."""
    ordered = sorted(samples, key=lambda s: s[1])
    print(f"{len(samples)} operations in {passes} passes", file=sys.stderr)
    for q in (0.5, 0.9):
        rank = max(0, math.ceil(q * len(ordered)) - 1)
        group = ordered[rank][0]
        low = rank
        while low > 0 and ordered[low - 1][0] == group:
            low -= 1
        high = rank
        while high + 1 < len(ordered) and ordered[high + 1][0] == group:
            high += 1
        print(
            f"p{int(q * 100)} rank {rank}: {group}, {rank - low} below and "
            f"{high - rank} above in the same group",
            file=sys.stderr,
        )


def run_all(seed: int, seconds: float) -> None:
    """Each workload in a fresh process, untraced then traced."""
    results = {}
    for name in NAMES:
        results[name] = {}
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{name} (trace {trace}) exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            results[name]["traced" if trace else "untraced"] = result
            print(f"== {name}, trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:44} {entry['value']:14.4f} {entry['unit']}")
        untraced = results[name]["untraced"]["metrics"]["wall_s"]["value"]
        traced = results[name]["traced"]["metrics"]["trace.wall_s"]["value"]
        results[name]["trace_overhead_s"] = traced - untraced
        print(f"  tracing overhead: {traced - untraced:+.4f} s "
              f"({(traced - untraced) / untraced:+.1%} of wall_s)")
    print(json.dumps(results))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        run_all(args.seed, args.seconds)
        return
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
