#!/usr/bin/env python3
"""Run one workload of the degencut benchmark and print its metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--short]

The workload's inputs are made from --seed during set-up, which imports
degencut from ./src and builds them nine times; setup_s is the median. The
timed part then runs whole rounds of the workload's operations, one process,
no worker pools, until another round would pass --seconds (at least one
round). Outputs are checked after the timed part. The last line of stdout is
one JSON object: correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 half the
time runs untraced and half traced, and the metrics are the per-layer ones,
per round, with the span trace written under perfbench/out/. --short runs
tiny inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_degencut():
    """Import degencut afresh from ./src (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "degencut" or m.startswith("degencut.")]:
        del sys.modules[name]
    dc = importlib.import_module("degencut")
    importlib.import_module("degencut.cli")
    return dc


def set_up(build, seed: int, short: bool, workdir: Path):
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        dc = import_degencut()
        ops = build(dc, seed, short, workdir)
        times.append(perf_counter() - t0)
    return ops, statistics.median(times)


def run_round(ops) -> list[tuple[str, object]]:
    outs = []
    for op in ops:
        try:
            outs.append(("ok", op.run()))
        except Exception as exc:  # an operation that raises counts as failed
            outs.append(("raised", f"{type(exc).__name__}: {exc}"))
    return outs


def timed_rounds(ops, budget: float):
    """Whole rounds until the next one would end past `budget` seconds."""
    times, rounds = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(run_round(ops))
        t = perf_counter() - t0
        times.append(t)
        if perf_counter() - start + t > budget:
            return times, rounds


def judge(ops, rounds):
    """(attempted, failed, correct, graphs, messages) over all rounds.

    Identical outputs of one operation are checked once.
    """
    attempted = failed = graphs = 0
    correct = True
    messages: list[str] = []
    verdicts: dict[tuple[int, str], str | None] = {}
    for outs in rounds:
        for i, (op, (status, value)) in enumerate(zip(ops, outs)):
            attempted += 1
            if status == "raised":
                failed += 1
                messages.append(f"{op.label}: {value}")
                continue
            graphs += op.graphs(value)
            key = (i, repr(value))
            if key not in verdicts:
                try:
                    verdicts[key] = op.check(value)
                except Exception:
                    verdicts[key] = traceback.format_exc(limit=3)
            if verdicts[key] is not None:
                failed += 1
                correct = False
                messages.append(f"{op.label}: {verdicts[key]}")
    return attempted, failed, correct, graphs, messages


def per_round(total: float, rounds: int):
    if isinstance(total, int) and total % rounds == 0:
        return total // rounds
    return total / rounds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="tiny inputs")
    args = ap.parse_args(argv)

    if not (SRC / "degencut" / "__init__.py").is_file():
        print(f"perfbench: no degencut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        ops, setup_s = set_up(build, args.seed, args.short, workdir)
        if not Path(sys.modules["degencut"].__file__).resolve().is_relative_to(SRC):
            print("perfbench: degencut was not imported from ./src", file=sys.stderr)
            return 2
        if args.trace:
            plain_times, plain_rounds = timed_rounds(ops, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                times, rounds = timed_rounds(ops, args.seconds / 2)
            finally:
                tracer.uninstall()
            rounds = plain_rounds + rounds
        else:
            times, rounds = timed_rounds(ops, args.seconds)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, correct, graphs, messages = judge(ops, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = {
            name: per_round(total, len(times))
            for name, total in tracer.layer_totals().items()
        }
        values["trace.overhead_s"] = statistics.median(times) - statistics.median(plain_times)
        wanted = spec["per_layer"]
        tracer.write(
            OUT,
            f"trace-{args.workload}-seed{args.seed}",
            {
                "workload": args.workload,
                "seed": args.seed,
                "traced_round_s": times,
                "untraced_round_s": plain_times,
            },
        )
    else:
        values = {
            "wall_s": statistics.median(times),
            "graphs_per_s": graphs / sum(times),
            "setup_s": setup_s,
            "peak_rss_mib": peak_rss_mib,
        }
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    for line in messages[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(times)} timed rounds, "
        f"seconds {[round(t, 3) for t in times[:10]]}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
