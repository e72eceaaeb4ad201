"""Reference implementations used as independent test oracles.

Everything here is written the slow, obvious way on purpose: subset scans and
greedy peeling with no shared code paths into the package internals beyond
plain adjacency reads.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, permutations

from degencut import Graph, induced_subgraph, is_cut


def brute_vertex_connectivity(g: Graph) -> int:
    n = g.n
    assert n >= 2
    if g.m == n * (n - 1) // 2:
        return n - 1
    for size in range(n - 1):
        for combo in combinations(range(n), size):
            if is_cut(g, combo):
                return size
    raise AssertionError("non-complete graph must have a cut")


def brute_minimum_cuts(g: Graph) -> list[tuple[int, ...]]:
    """Every cut of size kappa, in lex order, by a plain subset scan."""
    kappa = brute_vertex_connectivity(g)
    return [c for c in combinations(range(g.n), kappa) if is_cut(g, c)]


def ref_is_k_degenerate(h: Graph, k: int) -> bool:
    """Greedy min-degree peeling; stalls exactly when a (k+1)-min-degree
    subgraph remains."""
    live = set(range(h.n))
    deg = {v: h.degree(v) for v in live}
    while live:
        v = min(live, key=lambda x: (deg[x], x))
        if deg[v] > k:
            return False
        live.remove(v)
        for w in h.neighbors(v):
            if w in live:
                deg[w] -= 1
    return True


def peel_with_order(g: Graph, k: int, order: list[int]) -> frozenset[int]:
    """Remove degree-<=k vertices repeatedly, scanning in the given order.
    Returns the surviving set, whatever the order was."""
    live = set(range(g.n))
    deg = {v: g.degree(v) for v in live}
    changed = True
    while changed:
        changed = False
        for v in order:
            if v in live and deg[v] <= k:
                live.remove(v)
                for w in g.neighbors(v):
                    if w in live:
                        deg[w] -= 1
                changed = True
    return frozenset(live)


def ref_is_cut(g: Graph, s: int) -> bool:
    """G - S, S given as a bitmask, has two or more components."""
    rest = [v for v in range(g.n) if not s >> v & 1]
    if not rest:
        return False
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen and not s >> w & 1:
                seen.add(w)
                stack.append(w)
    return len(seen) < len(rest)


def ref_components(g: Graph, s: int) -> list[tuple[int, ...]]:
    """Components of G - S, S given as a bitmask, by a plain search over
    neighbour lists: each sorted, ordered by smallest member."""
    out = []
    seen = set()
    for v in range(g.n):
        if v in seen or s >> v & 1:
            continue
        comp = {v}
        stack = [v]
        while stack:
            for w in g.neighbors(stack.pop()):
                if w not in comp and not s >> w & 1:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return out


def ref_is_bipartite(h: Graph) -> bool:
    """Some colouring of h's vertices with two colours gives every edge both;
    all 2^n colourings are tried."""
    edges = list(h.edges())
    return any(all((c >> u ^ c >> v) & 1 for u, v in edges) for c in range(1 << h.n))


def brute_has_degenerate_cut(g: Graph, k: int) -> bool:
    for size in range(g.n - 1):
        for combo in combinations(range(g.n), size):
            if is_cut(g, combo) and ref_is_k_degenerate(
                induced_subgraph(g, combo), k
            ):
                return True
    return False


def brute_minimal_separators(g: Graph) -> set[tuple[int, ...]]:
    """Every S such that G - S has at least two components C with N(C) = S."""
    out = set()
    for size in range(g.n - 1):
        for combo in combinations(range(g.n), size):
            s = set(combo)
            rest = set(range(g.n)) - s
            full = 0
            while rest:
                comp = {rest.pop()}
                stack = list(comp)
                while stack:
                    for w in g.neighbors(stack.pop()):
                        if w in rest:
                            rest.remove(w)
                            comp.add(w)
                            stack.append(w)
                boundary = {w for v in comp for w in g.neighbors(v)} - comp
                full += boundary == s
            if full >= 2:
                out.add(combo)
    return out


def brute_first_degenerate_cut(g: Graph, k: int) -> tuple[int, ...] | None:
    """The documented witness of find_degenerate_cut: the open neighborhood of
    the lowest-index minimum-degree vertex u when deg(u) <= k+1 and N[u] != V,
    otherwise the first k-degenerate cut by size, then lexicographically."""
    u = min(range(g.n), key=lambda v: (g.degree(v), v))
    if g.degree(u) <= k + 1 and g.degree(u) < g.n - 1:
        return g.neighbors(u)
    for size in range(g.n - 1):
        for combo in combinations(range(g.n), size):
            if is_cut(g, combo) and ref_is_k_degenerate(induced_subgraph(g, combo), k):
                return combo
    return None


def has_independent_cut(g: Graph) -> bool:
    """Some cut inducing no edges. Tries cheap shapes first, then everything."""
    n = g.n
    if n < 2:
        return False
    full = (1 << n) - 1
    from degencut import is_connected

    if not is_connected(g):
        return True  # the empty set
    for v in range(n):
        if n >= 3 and is_cut(g, 1 << v):
            return True
    for size in range(2, n - 1):
        for combo in combinations(range(n), size):
            if any(g.has_edge(u, v) for u, v in combinations(combo, 2)):
                continue
            if is_cut(g, combo):
                return True
    return False


def _relabelings(g: Graph):
    """Adjacency rows of g under each of the n! vertex renamings."""
    adj = [g.neighbors(v) for v in range(g.n)]
    for p in permutations(range(g.n)):
        rows = [0] * g.n
        for v, nbrs in enumerate(adj):
            for w in nbrs:
                rows[p[v]] |= 1 << p[w]
        yield tuple(rows)


def brute_canonical_form(g: Graph) -> tuple[int, ...]:
    """Minimum adjacency-row tuple over all n! vertex relabelings."""
    return min(_relabelings(g))


def brute_automorphism_count(g: Graph) -> int:
    """Number of vertex permutations that map g onto itself."""
    return sum(rows == g.rows for rows in _relabelings(g))


def surd_decimal(a, b, k: int) -> Decimal:
    """50 significant digit evaluation of a + b sqrt(k) for rational a, b."""
    a, b = Fraction(a), Fraction(b)
    with localcontext() as ctx:
        ctx.prec = 50
        return (
            Decimal(a.numerator) / a.denominator
            + Decimal(b.numerator) / b.denominator * Decimal(k).sqrt()
        )
