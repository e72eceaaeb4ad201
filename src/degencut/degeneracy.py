"""Core peeling and degeneracy.

Convention used throughout: a k-core is a nonempty vertex set C whose induced
subgraph has minimum degree at least k+1, and a graph is k-degenerate exactly
when it has no k-core -- equivalently, every nonempty subgraph has a vertex of
degree at most k (0-degenerate = edgeless, 1-degenerate = forest). A nonempty
k-core always has at least k+2 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits


@dataclass(frozen=True)
class CoreCertificate:
    k: int
    core: tuple[int, ...]

    def __bool__(self) -> bool:
        return bool(self.core)


def max_k_core(g: Graph, k: int) -> CoreCertificate:
    """Unique maximal vertex set inducing minimum degree >= k+1 (may be empty).

    Peels every vertex whose current degree is at most k; the surviving set is
    order-independent. O(n + m).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = g.n
    deg = [r.bit_count() for r in g.rows]
    alive = g.full_mask
    low = 0
    for v in range(n):
        if deg[v] <= k:
            low |= 1 << v
    while low:
        bit = low & -low
        v = bit.bit_length() - 1
        low ^= bit
        alive ^= bit
        for w in bits(g.rows[v] & alive):
            deg[w] -= 1
            if deg[w] == k:
                low |= 1 << w
    core = tuple(bits(alive))
    # k+1 neighbours inside the core also force it to hold k+2 vertices
    if any((g.rows[v] & alive).bit_count() <= k for v in core):
        raise RuntimeError(f"peeling left a vertex of degree <= {k} in {core}")
    return CoreCertificate(k, core)


def is_k_degenerate(g: Graph, k: int) -> bool:
    return not max_k_core(g, k).core


def degeneracy(g: Graph) -> int:
    """Smallest k for which g is k-degenerate (0 for edgeless and empty graphs).

    Bucket queue keyed by current degree; ties break to the lowest vertex
    index. Equals the maximum over the peel of the current minimum degree.
    """
    n = g.n
    if n == 0:
        return 0
    deg = [r.bit_count() for r in g.rows]
    buckets: list[set[int]] = [set() for _ in range(n)]
    for v in range(n):
        buckets[deg[v]].add(v)
    alive = g.full_mask
    best = 0
    cur = 0
    for _ in range(n):
        while not buckets[cur]:
            cur += 1
        v = min(buckets[cur])
        buckets[cur].remove(v)
        best = max(best, cur)
        alive ^= 1 << v
        for w in bits(g.rows[v] & alive):
            buckets[deg[w]].remove(w)
            deg[w] -= 1
            buckets[deg[w]].add(w)
        cur = max(cur - 1, 0)
    return best
