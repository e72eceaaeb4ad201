"""Searches for k-degenerate vertex cuts.

`has_degenerate_cut` decides whether some cut induces a k-degenerate
subgraph, `find_degenerate_cut` certifies one, and `find_min_degenerate_cut`
restricts to cuts of minimum size. None only ever follows a full search.

Completeness: a minimal separator, a set S such that G - S has two or more
components C with N(C) = S, is a cut, and every cut S contains one (an
inclusion-minimal a-b separator inside S, for a and b in different components
of G - S). Subgraphs of a k-degenerate graph are k-degenerate, so every
smallest k-degenerate cut is a minimal separator, and the minimal separators
settle both whether a k-degenerate cut exists and which comes first by size.
"""

from __future__ import annotations

from typing import Iterator

from .connectivity import (
    CutCertificate,
    certify_cut,
    check_minimum_cut,
    component_mask,
    is_cut,
    minimum_cut_sets,
)
from .degeneracy import core_mask
from .graph import Graph


def minimal_separators(g: Graph) -> Iterator[int]:
    """Every minimal separator of g exactly once, as a bitmask.

    Berry, Bordat & Cogis 1999: N(C) is a minimal separator for each
    component C of G - N[v], and all of them are reached from these seeds by
    S -> N(C) for each component C of G - (S | N(x)), x in S. A disconnected
    graph yields the empty set among others; a complete graph yields nothing."""
    rows, full = g.rows, g.full_mask
    seen: set[int] = set()
    regions = [full & ~rows[v] & ~(1 << v) for v in reversed(range(g.n))]
    while regions:
        region = regions.pop()
        while region:
            comp = component_mask(rows, region & -region, region)
            region &= ~comp
            sep = 0
            rest = comp
            while rest:
                low = rest & -rest
                sep |= rows[low.bit_length() - 1]
                rest ^= low
            sep &= ~comp
            if sep not in seen:
                seen.add(sep)
                yield sep
                rest = sep
                while rest:
                    low = rest & -rest
                    regions.append(full & ~sep & ~rows[low.bit_length() - 1])
                    rest ^= low


def _small_degenerate_cut(g: Graph, k: int) -> int | None:
    """A k-degenerate cut read off one neighbourhood, or None if none applies.

    N(v0), v0 of minimum degree (lowest index on ties), if deg(v0) <= k+1 and
    N[v0] != V, the only case with <= k+1 vertices; else, if n >= k+4, N(u) for
    a degree-(k+2) u whose neighbours are not a clique. Graphs on <= k+1
    vertices, and on k+2 vertices other than K_{k+2}, are k-degenerate.

    The second case needs the minimum degree d to be k+2: it is reached only
    when d >= k+2, or when N[v0] = V, and then n = d+1 <= k+2 fails n >= k+4.
    So with d >= k+2, a degree-(k+2) vertex exists only if d = k+2. d is
    `g.min_degree()`, carried by graphs of the walk; v0 is sought only if d <= k+1."""
    rows = g.rows
    d = g.min_degree()
    if d <= k + 1 and is_cut(g, nbr := min(rows, key=int.bit_count)):
        return nbr
    if d == k + 2 and g.n >= k + 4:
        for nbr in rows:
            if nbr.bit_count() == k + 2:
                rest = nbr
                while rest:
                    low = rest & -rest
                    if (rows[low.bit_length() - 1] & nbr).bit_count() != k + 1:
                        return nbr
                    rest ^= low
    return None


def _check_order(g: Graph, k: int) -> None:
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if g.n < k + 2:
        raise ValueError(f"need at least k+2={k + 2} vertices, got {g.n}")


def has_degenerate_cut(g: Graph, k: int) -> bool:
    """Same boolean as `find_degenerate_cut(g, k) is not None`, with no
    certificate: the neighbourhood shortcuts, then any minimal separator whose
    k-core, peeled on its bitmask by `core_mask`, is empty."""
    _check_order(g, k)
    return _small_degenerate_cut(g, k) is not None or any(
        not core_mask(g.rows, s, k) for s in minimal_separators(g)
    )


def find_degenerate_cut(g: Graph, k: int) -> CutCertificate | None:
    """A k-degenerate cut, or None after trying every minimal separator.

    If some minimum-degree vertex u has degree <= k+1 and N[u] != V, its open
    neighborhood is returned immediately. Otherwise the first k-degenerate cut
    by size, then lexicographically, is a minimal separator. A running best
    keeps it; only a separator ahead of the best is peeled, and of two sets of
    one size the one holding the lowest vertex of their difference is ahead."""
    _check_order(g, k)
    cut = _small_degenerate_cut(g, k)
    if cut is not None and cut.bit_count() <= k + 1:
        return certify_cut(g, cut)
    full = best = g.full_mask  # larger than every separator
    for s in minimal_separators(g):
        grow = s.bit_count() - best.bit_count()
        diff = s ^ best
        if (grow < 0 or grow == 0 and diff & -diff & s) and not core_mask(g.rows, s, k):
            best = s
    return None if best == full else certify_cut(g, best)


def _check_min_cut_input(g: Graph, k: int) -> None:
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if g.is_complete():
        raise ValueError("no cuts exist: graph is complete")


def find_min_degenerate_cut(g: Graph, k: int) -> CutCertificate | None:
    """First minimum cut (lexicographic) whose induced subgraph is k-degenerate.

    None means the graph has minimum cuts but none of them is k-degenerate:
    the walk covers every minimum cut, because `minimum_cut_sets` lists them
    all. A disconnected graph gets its one minimum cut, the empty set.
    Requires k >= 2 and a non-complete graph.
    """
    _check_min_cut_input(g, k)
    for cut in minimum_cut_sets(g):
        if not core_mask(g.rows, cut, k):
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
    k-degenerate cut. `_small_degenerate_cut` finds such cuts; otherwise the
    minimum cuts are peeled as in `find_min_degenerate_cut`, with no
    certificate. On valid input (k >= 2, not complete) a disconnected graph
    answers True: its minimum cut is the empty set."""
    _check_min_cut_input(g, k)
    return _small_degenerate_cut(g, k) is not None or any(
        not core_mask(g.rows, cut, k) for cut in minimum_cut_sets(g)
    )
