"""Search behavior: lexicographically earliest hits, and the fast existence
route agreeing with the exhaustive one."""

import random
from itertools import combinations, product

import pytest

from degencut import (
    EnumerationSpec,
    complete,
    complete_bipartite,
    cycle,
    enumerate_labeled,
    exists_min_degenerate_cut,
    find_degenerate_cut,
    find_min_degenerate_cut,
    from_edges,
    has_degenerate_cut,
    induced_subgraph,
    join_extremal,
    parse_graph6,
    path,
    random_graph,
    ring_of_cliques,
    RingSpec,
)
from degencut.cut_search import _small_degenerate_cut, minimal_separators
from degencut.graph import bits, mask_of, petersen
from oracles import (
    brute_first_degenerate_cut,
    brute_has_degenerate_cut,
    brute_minimal_separators,
    brute_minimum_cuts,
    ref_is_cut,
    ref_is_k_degenerate,
)


def test_c5_first_independent_cut_is_0_2():
    cert = find_degenerate_cut(cycle(5), 0)
    assert cert.cut == (0, 2)
    assert cert.independent


def test_k23_first_independent_cut_is_the_small_side():
    cert = find_degenerate_cut(complete_bipartite(2, 3), 0)
    assert cert.cut == (0, 1)
    assert cert.independent


def test_low_degree_vertex_gives_an_immediate_cut():
    # endpoint of a path has degree 1 <= k+1, so its neighborhood is returned
    cert = find_degenerate_cut(path(6), 0)
    assert cert.cut == (1,)
    assert cert.components == ((0,), (2, 3, 4, 5))


def test_join_extremal_has_no_low_degeneracy_cut():
    assert find_degenerate_cut(join_extremal(1, 6), 1) is None
    assert find_degenerate_cut(join_extremal(2, 8), 2) is None


def test_complete_graph_has_no_cut_at_all():
    assert find_degenerate_cut(complete(4), 2) is None


def test_find_degenerate_cut_validation():
    with pytest.raises(ValueError):
        find_degenerate_cut(cycle(5), -1)
    with pytest.raises(ValueError):
        find_degenerate_cut(complete(3), 2)  # n < k+2


def test_minimal_separators_match_brute_force():
    rng = random.Random(0x5E9)
    graphs = [random_graph(rng.randint(1, 9), rng, rng.random()) for _ in range(600)]
    disconnected = from_edges(6, [(0, 1), (1, 2), (3, 4)])
    graphs += [disconnected, complete(6), petersen()]
    for g in graphs:
        seps = [tuple(bits(s)) for s in minimal_separators(g)]
        assert len(seps) == len(set(seps))
        assert set(seps) == brute_minimal_separators(g)
    assert 0 in set(minimal_separators(disconnected))
    assert list(minimal_separators(complete(6))) == []


def test_find_min_degenerate_cut_on_c6():
    cert = find_min_degenerate_cut(cycle(6), 2)
    assert cert.cut == (0, 2)
    assert cert.cut_degeneracy == 0


def test_find_min_degenerate_cut_errors():
    with pytest.raises(ValueError):
        find_min_degenerate_cut(cycle(6), 1)  # k below 2
    with pytest.raises(ValueError, match="complete"):
        find_min_degenerate_cut(complete(5), 2)
    # a disconnected graph is not refused: its minimum cut is the empty set
    assert find_min_degenerate_cut(complete_bipartite(0, 4), 2).cut == ()


def test_find_min_degenerate_cut_is_first_degenerate_minimum_cut():
    rng = random.Random(0x3D)
    checked = 0
    while checked < 1000:
        g = random_graph(rng.randint(2, 10), rng, rng.random())
        if g.is_complete():
            continue
        checked += 1
        cuts = brute_minimum_cuts(g)
        for k in (2, 3):
            tame = [c for c in cuts if ref_is_k_degenerate(induced_subgraph(g, c), k)]
            cert = find_min_degenerate_cut(g, k)
            assert (cert.cut if cert else None) == (tame[0] if tame else None)


def test_find_min_degenerate_cut_on_a_clique_chain():
    # the chain 0 - K4 - K4 - K4 - 13, consecutive cliques fully
    # joined: its minimum cuts are the three K4s, none of them 2-degenerate
    cliques = [range(1, 5), range(5, 9), range(9, 13)]
    edges = [e for c in cliques for e in combinations(c, 2)]
    edges += list(product(cliques[0], cliques[1])) + list(product(cliques[1], cliques[2]))
    edges += [(0, v) for v in cliques[0]] + [(v, 13) for v in cliques[2]]
    g = from_edges(14, edges)
    assert find_min_degenerate_cut(g, 2) is None
    assert find_min_degenerate_cut(g, 3).cut == (1, 2, 3, 4)


def test_ring_minimum_cuts_are_never_low_degeneracy():
    ring = ring_of_cliques(RingSpec(2, 3))
    assert find_degenerate_cut(ring, 1) is None  # no minimal separator is a forest
    assert find_min_degenerate_cut(ring, 2) is None
    assert not exists_min_degenerate_cut(ring, 2)


def test_exists_shortcut_agrees_with_exhaustive_search():
    # the existence route takes shortcuts (low-degree neighborhoods, degree
    # k+2 vertices with a non-clique neighborhood) so pin it to the full scan
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        g = random_graph(rng.randint(6, 9), rng, rng.choice((0.5, 0.7, 0.85)))
        if g.is_complete():
            continue
        checked += 1
        for k in (2, 3):
            assert exists_min_degenerate_cut(g, k) == (
                find_min_degenerate_cut(g, k) is not None
            )


def test_exists_builds_no_certificate(monkeypatch):
    # kappa = 4 with two minimum cuts and no neighbourhood shortcut, so the
    # answer comes from peeling the minimum cuts, with no certificate built
    g = parse_graph6("GK~vno")
    assert _small_degenerate_cut(g, 2) is None

    def refuse(*args):
        raise AssertionError("certify_cut called")

    monkeypatch.setattr("degencut.cut_search.certify_cut", refuse)
    assert exists_min_degenerate_cut(g, 2)


def test_find_agrees_with_brute_force_existence():
    rng = random.Random(43)
    for _ in range(300):
        g = random_graph(rng.randint(3, 9), rng, rng.choice((0.3, 0.6, 0.8)))
        for k in (0, 1, 2, 3):
            if g.n < k + 2:
                continue
            cert = find_degenerate_cut(g, k)
            exists = brute_has_degenerate_cut(g, k)
            assert (cert is not None) == exists == has_degenerate_cut(g, k)
            assert (cert.cut if cert else None) == brute_first_degenerate_cut(g, k)


def _neighbourhood_rule(g, k):
    """The shortcut's documented rule, restated from degrees and neighbour
    lists: N(u) for the lowest-index minimum-degree u when deg(u) <= k+1 and
    N[u] != V; else, when n >= k+4, N(w) for the lowest w of degree k+2 whose
    neighbourhood is not a clique; else None."""
    u = min(range(g.n), key=g.degree)
    if g.degree(u) <= k + 1 and g.degree(u) < g.n - 1:
        return mask_of(g.neighbors(u))
    if g.n >= k + 4:
        for w in range(g.n):
            nbrs = g.neighbors(w)
            if len(nbrs) == k + 2 and not all(
                g.has_edge(a, b) for a, b in combinations(nbrs, 2)
            ):
                return mask_of(nbrs)
    return None


def test_neighbourhood_shortcut_returns_degenerate_cuts():
    # the shortcut follows its documented rule, and whatever mask it returns
    # must be a cut inducing a k-degenerate graph, as judged by the oracles:
    # every labeled graph on 6 vertices and a seeded sample on 8
    rng = random.Random(47)
    graphs = list(enumerate_labeled(EnumerationSpec(6)))
    graphs += [random_graph(8, rng, rng.choice((0.3, 0.5, 0.7, 0.85))) for _ in range(2000)]
    sizes = set()
    for g in graphs:
        for k in range(4):
            cut = _small_degenerate_cut(g, k)
            assert cut == _neighbourhood_rule(g, k), (g.rows, k)
            if cut is None:
                continue
            assert ref_is_cut(g, cut), (g.rows, k)
            assert ref_is_k_degenerate(induced_subgraph(g, cut), k), (g.rows, k)
            sizes.add((k, cut.bit_count()))
    # both shortcuts fire: a neighbourhood of <= k+1 vertices, and of k+2
    assert {(k, k + 2) for k in range(4)} <= sizes
    assert {(k, k + 1) for k in range(4)} <= sizes
