"""Independent computations the benchmark checks degencut's answers against.

Nothing here imports degencut. Graphs are plain (n, edges) pairs or tuples of
adjacency bitmasks built by this module, and every routine is written the
slow, direct way or taken from networkx / scipy, so that a fault in degencut
cannot hide behind shared code.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, product


# --- graph6 encoding, written from the format description ---


def graph6(n: int, edges) -> str:
    """graph6 line for a graph on 0..n-1 (upper triangle, column by column)."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    body = "".join(
        chr(63 + int("".join(map(str, bits[i : i + 6])), 2))
        for i in range(0, len(bits), 6)
    )
    return head + body


def rows_of(n: int, edges) -> tuple[int, ...]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def nx_graph(n: int, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


# --- sizes of labeled graph spaces ---


@lru_cache(maxsize=None)
def _graphs_with_degrees(degs: tuple[int, ...]) -> int:
    """Labeled graphs whose vertex i has degree degs[i] (degs sorted).

    The last vertex picks its neighbours among the others; what remains is a
    graph on one vertex fewer with those neighbours' degrees lowered by one.
    The count depends only on the multiset of degrees, hence the sorted key.
    """
    if not degs:
        return 1
    *rest, last = degs
    if last > len(rest):
        return 0
    total = 0
    for nbrs in combinations(range(len(rest)), last):
        lowered = list(rest)
        for i in nbrs:
            lowered[i] -= 1
        if min(lowered, default=0) >= 0:
            total += _graphs_with_degrees(tuple(sorted(lowered)))
    return total


def count_max_degree(n: int, max_deg: int, min_edges: int = 0) -> int:
    """Labeled graphs on n vertices with maximum degree <= max_deg and at
    least min_edges edges, summed over degree sequences."""
    total = 0
    for degs in product(range(max_deg + 1), repeat=n):
        s = sum(degs)
        if s % 2 == 0 and s >= 2 * min_edges:
            total += _graphs_with_degrees(tuple(sorted(degs)))
    return total


def count_min_degree(n: int, min_deg: int, max_edges: int | None = None) -> int:
    """Labeled graphs with minimum degree >= min_deg and at most max_edges
    edges, counted through their complements."""
    slots = n * (n - 1) // 2
    floor = 0 if max_edges is None else slots - max_edges
    return count_max_degree(n, n - 1 - min_deg, floor)


def count_by_edges(n: int, max_edges: int) -> int:
    slots = n * (n - 1) // 2
    return sum(math.comb(slots, m) for m in range(max_edges + 1))


def count_matchings(n: int) -> int:
    """Matchings of K_n (graphs of maximum degree 1), in closed form."""
    return sum(
        math.factorial(n) // (math.factorial(j) * math.factorial(n - 2 * j) * 2**j)
        for j in range(n // 2 + 1)
    )


# --- labeled graph spaces, enumerated directly ---


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def space_all(n: int, max_edges: int | None = None):
    """Adjacency rows of every labeled graph on n vertices (<= max_edges)."""
    pairs = _pairs(n)
    top = len(pairs) if max_edges is None else max_edges
    for m in range(top + 1):
        for chosen in combinations(pairs, m):
            yield rows_of(n, chosen)


def space_min_degree(n: int, min_deg: int):
    """Rows of every labeled graph with minimum degree >= min_deg, found as
    complements of the graphs with maximum degree <= n-1-min_deg."""
    pairs = _pairs(n)
    cap = n - 1 - min_deg
    full = (1 << n) - 1
    deg = [0] * n
    chosen: list[tuple[int, int]] = []

    def walk(i: int):
        if i == len(pairs):
            comp = rows_of(n, chosen)
            yield tuple(full & ~comp[v] & ~(1 << v) for v in range(n))
            return
        yield from walk(i + 1)
        u, v = pairs[i]
        if deg[u] < cap and deg[v] < cap:
            deg[u] += 1
            deg[v] += 1
            chosen.append((u, v))
            yield from walk(i + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1

    yield from walk(0)


# --- brute-force cut oracle ---


def _reach(rows, seed: int, region: int) -> int:
    seen = seed
    frontier = seed
    while frontier:
        nxt = 0
        for v in range(len(rows)):
            if frontier >> v & 1:
                nxt |= rows[v]
        frontier = nxt & region & ~seen
        seen |= frontier
    return seen


def _peels_to_empty(rows, s: int, k: int) -> bool:
    """Whether the subgraph induced on s is k-degenerate (peels away)."""
    left = s
    changed = True
    while left and changed:
        changed = False
        for v in range(len(rows)):
            if left >> v & 1 and (rows[v] & left).bit_count() <= k:
                left &= ~(1 << v)
                changed = True
    return not left


@lru_cache(maxsize=None)
def _subsets_by_size(n: int) -> tuple[int, ...]:
    """Every vertex set leaving at least two vertices, smallest first."""
    return tuple(
        sorted(
            (s for s in range(1 << n) if n - s.bit_count() >= 2),
            key=lambda s: (s.bit_count(), s),
        )
    )


def has_degenerate_cut(rows, k: int) -> bool:
    """Some vertex set S leaves G - S disconnected and induces a k-degenerate
    subgraph. Tries every S; no shortcut."""
    n = len(rows)
    full = (1 << n) - 1
    for s in _subsets_by_size(n):
        region = full & ~s
        low = region & -region
        if _reach(rows, low, region) != region and _peels_to_empty(rows, s, k):
            return True
    return False


def count_without_degenerate_cut(graphs, k: int, min_order: int) -> int:
    """Graphs of order >= min_order that have no k-degenerate cut."""
    return sum(
        1 for rows in graphs if len(rows) >= min_order and not has_degenerate_cut(rows, k)
    )


# --- cut properties checked with networkx ---


def max_core(g) -> int:
    """Degeneracy as the largest networkx core number (0 for no edges)."""
    import networkx as nx

    return max(nx.core_number(g).values(), default=0)


def induced_degeneracy(g, cut) -> int:
    return max_core(g.subgraph(cut))


def separates(g, cut) -> bool:
    import networkx as nx

    rest = g.subgraph(set(g) - set(cut))
    return rest.number_of_nodes() >= 2 and not nx.is_connected(rest)


def has_min_degenerate_cut(g, k: int) -> bool:
    """Some minimum vertex cut of the connected graph g induces a k-degenerate
    subgraph (networkx Kanevsky enumeration plus core numbers)."""
    import networkx as nx

    return any(induced_degeneracy(g, cut) <= k for cut in nx.all_node_cuts(g))


def automorphisms(g) -> int:
    from networkx.algorithms.isomorphism import GraphMatcher

    return sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter())


# --- vertex connectivity by max flow in scipy ---


def vertex_connectivity(n: int, edges) -> int:
    """kappa by unit vertex capacities and scipy's max flow.

    Pairs as in Esfahanian & Hakimi (1984): a minimum-degree vertex v0 against
    each non-neighbour, then each non-adjacent pair of v0's neighbours. A
    minimum cut either misses v0, and separates it from a non-neighbour, or
    contains it, and then separates two of its neighbours.
    """
    import networkx as nx
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if all(len(a) == n - 1 for a in adj):
        return n - 1
    if not nx.is_connected(nx_graph(n, edges)):
        return 0
    # vertex v is split into v (in) and n + v (out) joined by a unit arc
    src = list(range(n))
    dst = [n + v for v in range(n)]
    cap = [1] * n
    for u, v in edges:
        src += [n + u, n + v]
        dst += [v, u]
        cap += [n, n]
    net = csr_matrix(
        (np.array(cap, dtype=np.int32), (np.array(src), np.array(dst))),
        shape=(2 * n, 2 * n),
    )
    v0 = min(range(n), key=lambda v: (len(adj[v]), v))
    best = len(adj[v0])
    pairs = [(v0, w) for w in range(n) if w != v0 and w not in adj[v0]]
    pairs += [(x, y) for x, y in combinations(sorted(adj[v0]), 2) if y not in adj[x]]
    for s, t in pairs:
        best = min(best, int(maximum_flow(net, n + s, t).flow_value))
    return best
