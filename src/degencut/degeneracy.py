"""Core peeling and degeneracy.

Convention used throughout: a k-core is a nonempty vertex set C whose induced
subgraph has minimum degree at least k+1, and a graph is k-degenerate exactly
when it has no k-core -- equivalently, every nonempty subgraph has a vertex of
degree at most k (0-degenerate = edgeless, 1-degenerate = forest). A nonempty
k-core always has at least k+2 vertices.

One bitmask peel, `core_mask`, gives the k-core of any vertex set, the max
k-core and the degeneracy (smallest-last peeling, Matula & Beck 1983).
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


def _low_degree(rows: tuple[int, ...], cand: int, alive: int, k: int) -> int:
    """The vertices of cand with at most k neighbours inside alive, as a bitmask."""
    low = 0
    while cand:
        bit = cand & -cand
        cand ^= bit
        if (rows[bit.bit_length() - 1] & alive).bit_count() <= k:
            low |= bit
    return low


def core_mask(rows: tuple[int, ...], alive: int, k: int) -> int:
    """The k-core of the subgraph induced on the bitmask alive, as a bitmask: 0
    exactly when alive induces a k-degenerate subgraph. Peels every vertex with
    at most k neighbours left inside alive; the survivors do not depend on order."""
    low = _low_degree(rows, alive, alive, k)
    while low:
        bit = low & -low
        low ^= bit
        alive ^= bit
        low |= _low_degree(rows, rows[bit.bit_length() - 1] & alive & ~low, alive, k)
    # k+1 neighbours inside the core also force it to hold k+2 vertices
    if _low_degree(rows, alive, alive, k):
        raise RuntimeError(f"peeling left a vertex of degree <= {k} in {tuple(bits(alive))}")
    return alive


def max_k_core(g: Graph, k: int) -> CoreCertificate:
    """Unique maximal vertex set inducing minimum degree >= k+1 (may be empty)."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return CoreCertificate(k, tuple(bits(core_mask(g.rows, g.full_mask, k))))


def is_k_degenerate(g: Graph, k: int) -> bool:
    return not max_k_core(g, k).core


def degeneracy(g: Graph) -> int:
    """Smallest k for which g is k-degenerate (0 for edgeless and empty graphs).

    Raises k to the minimum degree of what is left and peels to the k-core,
    until nothing is left: k is then the maximum over the peel of the current
    minimum degree, and the k-core of g is empty."""
    rows, alive, k = g.rows, g.full_mask, 0
    while alive:
        k = max(k, min((rows[v] & alive).bit_count() for v in bits(alive)))
        alive = core_mask(rows, alive, k)
    return k
