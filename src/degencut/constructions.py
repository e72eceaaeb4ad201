"""Extremal families: clique rings with an apex, and joins over independent sets.

ring_of_cliques(k, s, seed): s disjoint copies of K_{k+2} arranged in a cycle,
a perfect matching between consecutive cliques, plus an apex vertex joined to
every vertex of clique 0. The matching from clique i to clique i+1 sends vertex
j to vertex perm_i[j]; perm_i is the identity when seed is None, and otherwise
the i-th shuffle of {0..k+1} drawn from one random.Random(seed). The first
k+2 vertex labels are clique 0 and the apex is the last label. Its only
minimum cut is clique 0, which induces a complete graph, so no minimum cut is
k-degenerate, while its edge count exceeds (k+3)/2 * n + (k-1)/2 by exactly 1.

join_extremal(k, n): K_{k+2} joined with n-k-2 independent vertices. Every cut
contains the whole clique (clique vertices are universal), so no cut is
k-degenerate.
"""

from __future__ import annotations

import random

from .graph import Graph, complete, empty_graph, from_edges, join


def ring_of_cliques(k: int, s: int, seed: int | None = None) -> Graph:
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if s < 3:
        raise ValueError(f"need at least 3 cliques, got {s}")
    size = k + 2
    apex = size * s
    rng = None if seed is None else random.Random(seed)
    edges: list[tuple[int, int]] = []
    for i in range(s):
        base = i * size
        for a in range(size):
            for b in range(a + 1, size):
                edges.append((base + a, base + b))
    for i in range(s):
        base = i * size
        nxt = ((i + 1) % s) * size
        perm = list(range(size))
        if rng is not None:
            rng.shuffle(perm)
        for j in range(size):
            edges.append((base + j, nxt + perm[j]))
    for j in range(size):
        edges.append((apex, j))
    return from_edges(apex + 1, edges)


def join_extremal(k: int, n: int) -> Graph:
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if n < k + 3:
        raise ValueError(f"need at least k+3={k + 3} vertices, got {n}")
    return join(complete(k + 2), empty_graph(n - k - 2))
