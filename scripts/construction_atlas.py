#!/usr/bin/env python3
"""Sweep the two extremal families and print one JSON line per instance.

For each ring of cliques the line records how far the edge count sits above
the sparsity threshold 2m <= (k+3)n + (k-1) (always exactly one edge over),
the connectivity, the number of minimum cuts, and whether any minimum cut is
k-degenerate (never). For each clique-join it records the edge count and
whether any vertex cut at all is k-degenerate (never, by complete search;
that search is exponential, which is why rings only get the minimum-cut
question here).

Usage:
  python3 scripts/construction_atlas.py [--kmax 4] [--smax 5] [--nmax 10] [--seeds 3]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degencut import (
    RingSpec,
    find_min_degenerate_cut,
    has_degenerate_cut,
    join_extremal,
    minimum_cuts,
    random_ring_spec,
    ring_of_cliques,
    to_graph6,
    vertex_connectivity,
)


def ring_line(k: int, s: int, seed: int | None) -> dict:
    spec = RingSpec(k, s) if seed is None else random_ring_spec(k, s, seed)
    g = ring_of_cliques(spec)
    cuts = minimum_cuts(g)
    return {
        "family": "ring",
        "k": k,
        "s": s,
        "seed": seed,
        "n": g.n,
        "m": g.m,
        "edges_over_threshold": (2 * g.m - (k + 3) * g.n - (k - 1)) // 2,
        "kappa": vertex_connectivity(g),
        "minimum_cuts": len(cuts),
        "min_cut_is_degenerate": find_min_degenerate_cut(g, k) is not None,
        "graph6": to_graph6(g),
    }


def join_line(k: int, n: int) -> dict:
    g = join_extremal(k, n)
    return {
        "family": "join",
        "k": k,
        "n": n,
        "m": g.m,
        "min_degree": g.min_degree(),
        "kappa": vertex_connectivity(g),
        "has_degenerate_cut": has_degenerate_cut(g, k),
        "graph6": to_graph6(g),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmax", type=int, default=4)
    ap.add_argument("--smax", type=int, default=5)
    ap.add_argument("--nmax", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=3, help="random matchings per (k,s)")
    args = ap.parse_args()

    for k in range(2, args.kmax + 1):
        for s in range(3, args.smax + 1):
            print(json.dumps(ring_line(k, s, None)))
            for seed in range(args.seeds):
                print(json.dumps(ring_line(k, s, seed)))
    for k in range(0, 3):
        for n in range(k + 4, args.nmax + 1):
            print(json.dumps(join_line(k, n)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
