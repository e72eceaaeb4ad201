"""Searches for k-degenerate vertex cuts.

`find_degenerate_cut` looks for any cut whose induced subgraph is
k-degenerate; `find_min_degenerate_cut` restricts to cuts of minimum size.
Both honor an optional budget (subsets tried, or minimum cuts examined):
exceeding it raises SearchBudgetExceeded, which is deliberately distinct from
returning None -- None is only ever returned after full exhaustion.
"""

from __future__ import annotations

from itertools import combinations

from .connectivity import (
    CutCertificate,
    certify_cut,
    check_minimum_cut,
    is_connected,
    is_cut,
    minimum_cut_sets,
    vertex_connectivity,
)
from .degeneracy import is_k_degenerate
from .graph import Graph, bits, induced_subgraph


class SearchBudgetExceeded(RuntimeError):
    def __init__(self, examined: int) -> None:
        super().__init__(f"subset budget exceeded after {examined} candidates")
        self.examined = examined


def find_degenerate_cut(
    g: Graph, k: int, budget: int | None = None
) -> CutCertificate | None:
    """First k-degenerate cut found, or None after exhausting all subsets.

    If some minimum-degree vertex u has degree <= k+1 and N[u] != V, its open
    neighborhood is returned immediately: removing it isolates u while other
    vertices survive, and any graph on <= k+1 vertices is k-degenerate.
    Otherwise subsets are tried ascending by size, then lexicographically.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = g.n
    if n < k + 2:
        raise ValueError(f"need at least k+2={k + 2} vertices, got {n}")
    v0 = min(range(n), key=lambda v: (g.degree(v), v))
    if g.degree(v0) <= k + 1:
        closed = g.rows[v0] | (1 << v0)
        if closed != g.full_mask:
            return certify_cut(g, g.rows[v0])
    examined = 0
    for size in range(n - 1):
        for combo in combinations(range(n), size):
            examined += 1
            if budget is not None and examined > budget:
                raise SearchBudgetExceeded(examined - 1)
            s_mask = 0
            for v in combo:
                s_mask |= 1 << v
            if is_cut(g, s_mask) and is_k_degenerate(induced_subgraph(g, s_mask), k):
                return certify_cut(g, s_mask)
    return None


def find_min_degenerate_cut(
    g: Graph, k: int, budget: int | None = None
) -> CutCertificate | None:
    """First minimum cut (lexicographic) whose induced subgraph is k-degenerate.

    None means the graph has minimum cuts but none of them is k-degenerate:
    the walk covers every minimum cut, because `minimum_cut_sets` lists them
    all. The optional budget counts minimum cuts examined, after they are
    listed. Requires k >= 2 and a connected, non-complete graph.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if g.is_complete():
        raise ValueError("no cuts exist: graph is complete")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    cuts = minimum_cut_sets(g, vertex_connectivity(g))
    for examined, cut in enumerate(cuts, 1):
        if budget is not None and examined > budget:
            raise SearchBudgetExceeded(examined - 1)
        if is_k_degenerate(induced_subgraph(g, cut), k):
            cert = certify_cut(g, cut)
            check_minimum_cut(g, cert)
            return cert
    return None


def exists_min_degenerate_cut(g: Graph, k: int) -> bool:
    """Same boolean as `find_min_degenerate_cut(g, k) is not None`, but cheap.

    Soundness of the shortcuts: any k-degenerate cut S with |S| <= k+2 settles
    the question. |S| >= kappa always, so either kappa <= k+1 -- then minimum
    cuts exist (the graph is not complete) and each has at most k+1 vertices,
    hence is k-degenerate -- or kappa = k+2 = |S| and S itself is a minimum
    k-degenerate cut. Two such cuts are tried before falling back to the list
    of all minimum cuts: the neighborhood of a vertex of degree <= k+1, and the neighborhood
    of a degree-(k+2) vertex whose neighbors do not form a clique (a
    non-complete graph on k+2 vertices is always k-degenerate).
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if g.is_complete():
        raise ValueError("no cuts exist: graph is complete")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    n = g.n
    rows = g.rows
    if g.min_degree() <= k + 1:
        return True
    if n >= k + 4:
        for u in range(n):
            nbr = rows[u]
            if nbr.bit_count() != k + 2:
                continue
            if all((rows[v] & nbr).bit_count() == k + 1 for v in bits(nbr)):
                continue  # neighborhood induces a clique; proves nothing
            return True
    kappa = vertex_connectivity(g)
    if kappa <= k + 1:
        return True
    return any(
        is_k_degenerate(induced_subgraph(g, cut), k) for cut in minimum_cut_sets(g, kappa)
    )
