"""Components, vertex cuts, exact vertex connectivity, and minimum-cut enumeration.

A cut is a vertex set S strictly contained in V whose removal leaves a
disconnected graph, i.e. at least two components (so at least two vertices
survive). The empty set is a cut of a disconnected graph. In a complete graph
no cut exists; vertex_connectivity adopts the usual convention kappa(K_n) = n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .degeneracy import degeneracy
from .graph import Graph, bits, induced_subgraph, mask_of

def component_mask(rows: Sequence[int], seed_bit: int, region: int) -> int:
    """Vertices reachable from seed_bit inside region (as a bitmask)."""
    comp = seed_bit
    frontier = seed_bit
    while frontier:
        grow = 0
        f = frontier
        while f:
            low = f & -f
            grow |= rows[low.bit_length() - 1]
            f ^= low
        frontier = grow & region & ~comp
        comp |= frontier
    return comp


def _split(rows: Sequence[int], region: int) -> list[tuple[int, ...]]:
    """Components of the subgraph induced on region, each sorted, ordered by
    smallest member."""
    parts = []
    while region:
        comp = component_mask(rows, region & -region, region)
        parts.append(tuple(bits(comp)))
        region &= ~comp
    return parts


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components, each sorted, ordered by smallest member."""
    return _split(g.rows, g.full_mask)


def is_connected(g: Graph) -> bool:
    """True without a search when 2 * min degree >= n - 1: two non-adjacent
    vertices then have n - 1 or more neighbours among the other n - 2, so
    they share one."""
    if g.n == 0 or 2 * g.min_degree() >= g.n - 1:
        return True
    full = g.full_mask
    return component_mask(g.rows, 1, full) == full


def is_cut(g: Graph, s: Iterable[int] | int) -> bool:
    s_mask = mask_of(s)
    if s_mask & ~g.full_mask:
        raise ValueError("cut candidate contains vertices outside the graph")
    region = g.full_mask & ~s_mask
    if region == 0:
        raise ValueError("cut candidate must be a proper subset of the vertices")
    seed = region & -region
    return component_mask(g.rows, seed, region) != region


@dataclass(frozen=True)
class CutCertificate:
    cut: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    cut_degeneracy: int
    independent: bool
    forest: bool
    bipartite: bool

    def to_json_dict(self) -> dict:
        return {
            "cut": list(self.cut),
            "components": [list(c) for c in self.components],
            "cut_degeneracy": self.cut_degeneracy,
            "independent": self.independent,
            "forest": self.forest,
            "bipartite": self.bipartite,
        }


def _is_bipartite(h: Graph) -> bool:
    color = [-1] * h.n
    for start in range(h.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in bits(h.rows[v]):
                if color[w] < 0:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def certify_cut(g: Graph, s: Iterable[int] | int) -> CutCertificate:
    """Build the certificate for a known cut; raises if s is not a cut."""
    s_mask = mask_of(s)
    if not is_cut(g, s_mask):
        raise ValueError("vertex set is not a cut")
    parts = _split(g.rows, g.full_mask & ~s_mask)
    induced = induced_subgraph(g, s_mask)
    degen = degeneracy(induced)
    cut_tuple = tuple(bits(s_mask))
    # any t-vertex graph is (t-1)-degenerate, so small cuts are always tame
    if degen > max(len(cut_tuple) - 1, 0):
        raise RuntimeError(f"degeneracy {degen} exceeds the size of cut {cut_tuple}")
    return CutCertificate(
        cut=cut_tuple,
        components=tuple(parts),
        cut_degeneracy=degen,
        independent=degen == 0,
        forest=degen <= 1,
        bipartite=_is_bipartite(induced),
    )


def check_minimum_cut(g: Graph, cert: CutCertificate) -> None:
    """Raise ValueError unless every cut vertex has a neighbor in every component.

    Every minimum cut passes: if v in S saw no vertex of a component C of
    G - S, then S - {v} would still cut C off from the rest, a smaller cut.
    """
    rows = g.rows
    parts = [mask_of(comp) for comp in cert.components]
    for v in cert.cut:
        if not all(rows[v] & part for part in parts):
            raise ValueError(f"minimum cut vertex {v} must see every component")


# --- vertex connectivity and minimum cuts from one unit-capacity flow ---
#
# The vertex-split network has nodes v_in = v and v_out = v + n, a unit arc
# v_in -> v_out per vertex, and an arc u_out -> w_in of unbounded capacity per
# ordered edge (u, w). A vertex separator of s and t is then exactly the set of
# unit arcs an s_out-t_in cut crosses. The residual network is one bitmask per
# node: bit y of res[x] is set when the arc x -> y has residual capacity.


def _max_flow(rows: Sequence[int], s: int, t: int, cutoff: int) -> tuple[int, list[int]]:
    """Vertex-disjoint s-t paths for non-adjacent s, t, stopping at cutoff.

    Returns the number of paths found and the residual network. Common
    neighbors c carry the paths s, c, t before any search; the rest are found
    by depth-first augmenting searches, each step one `res[x] & ~seen`.
    """
    n = len(rows)
    res = [1 << (v + n) for v in range(n)] + list(rows)
    s_out = s + n
    flow = 0
    common = rows[s] & rows[t]
    for c in bits(common):
        if flow == cutoff:
            return flow, res
        res[c] = 1 << s_out
        res[c + n] |= 1 << c
        res[t] |= 1 << (c + n)
        flow += 1
    sink = 1 << t
    # search order only: first in-nodes one free unit arc away from t (the
    # search then ends two steps later), then those of vertices with no flow
    near = rows[t] & ~common
    idle = ((1 << n) - 1) & ~common
    while flow < cutoff:
        path = [s_out]
        seen = 1 << s_out
        while path:
            free = res[path[-1]] & ~seen
            if free & sink:
                break
            if free:
                low = free & near or free & idle or free
                low &= -low
                seen |= low
                path.append(low.bit_length() - 1)
            else:
                path.pop()
        if not path:
            break
        path.append(t)
        for x, y in zip(path, path[1:]):
            res[y] |= 1 << x
            # an edge arc u_out -> w_in keeps its unbounded forward capacity
            if x < n or y == x - n:
                res[x] &= ~(1 << y)
            if y == x + n:
                near &= ~(1 << x)
                idle &= ~(1 << x)
            elif x == y + n:
                near |= rows[t] & 1 << y
                idle |= 1 << y
        flow += 1
    return flow, res


def _eh_pairs(g: Graph) -> Iterator[tuple[int, int]]:
    """Non-adjacent pairs whose minimum separators include every minimum cut.

    Esfahanian & Hakimi: take v0 of minimum degree. A minimum cut S that misses
    v0 separates it from some non-neighbor w. One that contains v0 leaves two
    of v0's neighbors in different components (v0 sees every component), and
    those two are non-adjacent.
    """
    rows = g.rows
    v0 = min(range(g.n), key=lambda v: rows[v].bit_count())
    for w in bits(g.full_mask & ~rows[v0] & ~(1 << v0)):
        yield v0, w
    for x, y in combinations(bits(rows[v0]), 2):
        if not rows[x] >> y & 1:
            yield x, y


def _pair_flows(g: Graph) -> Iterator[tuple[int, int, int, list[int]]]:
    """(s, t, flow, residual network) per pair of `_eh_pairs`, for connected g.

    Each flow is cut off at the one before, the first at the minimum degree,
    and after each pair the edge s-t is added (Kanevsky 1993). So each flow
    runs on a supergraph G' of G in which s, t are still non-adjacent: every
    flow is at least kappa. A minimum cut S separates some pair; take the
    first. Each edge added before it lies inside a component of G - S or
    touches S, so S still separates that pair in G': its flow, and each later
    one, is exactly kappa.
    """
    rows = list(g.rows)
    flow = g.min_degree()
    for s, t in _eh_pairs(g):
        flow, res = _max_flow(rows, s, t, flow)
        yield s, t, flow, res
        rows[s] |= 1 << t
        rows[t] |= 1 << s


def vertex_connectivity(g: Graph) -> int:
    """Exact kappa(g) for n >= 2; kappa(K_n) = n - 1. The least flow of
    `_pair_flows`, which argues why Kanevsky's added edges keep it kappa."""
    n = g.n
    if n < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    if g.is_complete():
        return n - 1
    if not is_connected(g):
        return 0
    return min(flow for _, _, flow, _ in _pair_flows(g))


def _min_separators(res: list[int], s: int, t: int, kappa: int, out: list[int]) -> None:
    """Append every s-t separator of size kappa to out, each once, as a bitmask.

    res is the residual network of kappa s-t paths from `_max_flow`. If t_in
    is still reachable from s_out there are more, and nothing is appended.
    Otherwise the flow is maximum, and its residual network has one closed set
    X (s_out in X, t_in not, no residual arc leaving X) per minimum cut of the
    split network (Picard & Queyranne 1980). Such a cut has capacity kappa,
    equal to the flow, so no flow re-enters X and each flow path crosses it
    exactly once, at a unit arc v_in -> v_out: its separator S takes one
    internal vertex from each path. Conversely a choice of one vertex per path
    is a separator exactly when X = reach(s_out and the chosen in-nodes) holds
    neither t_in nor a chosen out-node, and that X is the unique minimal closed
    set for S; so each separator comes from exactly one choice. Along a path
    the reach only grows, so once a choice takes in t_in or an earlier chosen
    out-node, every later vertex of that path fails too. A partial choice that
    passes always extends: on each remaining path, the first vertex whose
    out-node lies outside X adds nothing to X.
    """
    n = len(res) // 2
    t_in = 1 << t
    closed = component_mask(res, 1 << (s + n), -1)
    if closed & t_in:
        return  # the local connectivity of s and t exceeds kappa
    # flow runs y_out -> x_in exactly when res[x] holds y_out
    firsts = []
    succ = {}
    for x in range(n):
        for y in bits(res[x] >> n & ~(1 << x)):
            if y == s:
                firsts.append(x)
            else:
                succ[y] = x
    paths = []
    for v in firsts:
        walk = [v]
        while succ[walk[-1]] != t:
            walk.append(succ[walk[-1]])
        paths.append(walk)

    def choose(i: int, closed: int, chosen_out: int, cut: int) -> None:
        if i == kappa:
            out.append(cut)
            return
        for v in paths[i]:
            v_out = 1 << (v + n)
            if closed & v_out:
                continue
            # closed is closed under residual arcs: a seed inside it adds nothing
            grown = closed | component_mask(res, 1 << v, ~closed)
            if grown & (t_in | chosen_out):
                break
            if not grown & v_out:
                choose(i + 1, grown, chosen_out | v_out, cut | 1 << v)

    choose(0, closed, 0, 0)


def minimum_cut_sets(g: Graph) -> list[int]:
    """All vertex cuts of size kappa = vertex_connectivity(g), as bitmasks,
    lexicographic by sorted vertex tuple; a disconnected graph has one, 0.

    One pass over `_pair_flows` keeps the separators of the latest flow's size,
    cleared when it drops; a minimum cut is listed at the first pair it
    separates, whose flow is kappa. Every set left at the end has size kappa
    and separates s from t in some G' that contains G, so it is a cut of G. A
    cut with three or more components can separate a later pair too: a set.
    """
    if not is_connected(g):
        return [0]
    best = g.min_degree()
    found: list[int] = []
    for s, t, flow, res in _pair_flows(g):
        if flow < best:
            best = flow
            found.clear()
        _min_separators(res, s, t, best, found)
    return sorted(set(found), key=lambda cut: tuple(bits(cut)))


def minimum_cuts(g: Graph) -> list[CutCertificate]:
    """All vertex cuts of minimum size, lexicographic by sorted vertex tuple.

    The cuts come from `minimum_cut_sets`, which argues why none is missed.
    Every certificate is checked for the minimum-cut property that each cut
    vertex has a neighbor in every component.
    """
    if g.is_complete():
        raise ValueError("no cuts exist: graph is complete")
    certs = [certify_cut(g, cut) for cut in minimum_cut_sets(g)]
    for cert in certs:
        check_minimum_cut(g, cert)
    return certs
