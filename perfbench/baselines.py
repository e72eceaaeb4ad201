#!/usr/bin/env python3
"""Re-take the layer baselines that ROADMAP.md quotes, on fixed inputs.

Usage (from the repository root):
  python3 perfbench/baselines.py

Prints one JSON object: enumeration and thm3 evaluation rates on the n=8
sparse space, thm2 evaluation rate on n=7 with minimum degree 4,
canonical_form seconds per graph at n=8, and vertex_connectivity seconds on
G(100, .3) and G(200, .3). Takes about half a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import platform
import random
import statistics
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degencut import (  # noqa: E402
    EnumerationSpec,
    canonical_form,
    enumerate_labeled,
    random_graph,
    vertex_connectivity,
)
from degencut.verify import evaluate  # noqa: E402

N8_SPARSE = EnumerationSpec(8, edge_range=(0, 20), min_degree=4)


def rate(graphs, fn=None) -> float:
    t0 = perf_counter()
    count = 0
    for g in graphs:
        if fn is not None:
            fn(g)
        count += 1
    return count / (perf_counter() - t0)


def main() -> int:
    first = list(islice(enumerate_labeled(N8_SPARSE), 50_000))
    n7 = list(enumerate_labeled(EnumerationSpec(7, min_degree=4)))
    rng = random.Random(0)
    n8 = [random_graph(8, rng) for _ in range(3)]
    canon = []
    for g in n8:
        t0 = perf_counter()
        canonical_form(g)
        canon.append(perf_counter() - t0)
    kappa = {}
    for n in (100, 200):
        g = random_graph(n, random.Random(0), 0.3)
        t0 = perf_counter()
        value = vertex_connectivity(g)
        kappa[f"vertex_connectivity_G({n},.3)_s"] = perf_counter() - t0
        kappa[f"kappa_G({n},.3)"] = value
    out = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "enumerate_n8_sparse_graphs_per_s (first 300k)": rate(
            islice(enumerate_labeled(N8_SPARSE), 300_000)
        ),
        "evaluate_thm3_n8_sparse_graphs_per_s (first 50k)": rate(
            first, lambda g: evaluate("thm3", 2, g)
        ),
        "evaluate_thm2_n7_mindeg4_graphs_per_s": rate(n7, lambda g: evaluate("thm2", 2, g)),
        "canonical_form_n8_s_per_graph (median of 3)": statistics.median(canon),
        **kappa,
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
