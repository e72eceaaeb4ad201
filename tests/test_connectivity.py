import random
from itertools import combinations

import pytest

from degencut import (
    EnumerationSpec,
    certify_cut,
    complete,
    complete_bipartite,
    components,
    cycle,
    empty_graph,
    enumerate_labeled,
    from_edges,
    induced_subgraph,
    is_connected,
    is_cut,
    join,
    minimum_cuts,
    parse_graph6,
    path,
    random_graph,
    ring_of_cliques,
    vertex_connectivity,
)
from degencut.connectivity import check_minimum_cut, minimum_cut_sets
from degencut.cut_search import minimal_separators
from degencut.graph import bits, petersen

from conftest import random_graph_stream
from oracles import (
    brute_minimum_cuts,
    brute_vertex_connectivity,
    ref_components,
    ref_is_bipartite,
    ref_is_k_degenerate,
)


def test_components_ordered_by_smallest_member():
    g = from_edges(6, [(3, 5), (0, 4)])
    assert components(g) == [(0, 4), (1,), (2,), (3, 5)]
    assert components(empty_graph(0)) == []


def test_is_connected():
    assert is_connected(empty_graph(0))
    assert is_connected(empty_graph(1))
    assert not is_connected(empty_graph(2))
    assert is_connected(path(5))
    assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))


def bfs_connected(g):
    """Plain BFS from vertex 0, no degree bound."""
    if g.n == 0:
        return True
    seen, todo = {0}, [0]
    while todo:
        for w in g.neighbors(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == g.n


def test_is_connected_matches_bfs_on_every_small_graph():
    # is_connected skips the search when 2 * min degree >= n - 1
    for n in range(7):
        for g in enumerate_labeled(EnumerationSpec(n)):
            assert is_connected(g) == bfs_connected(g), g.rows


def test_degree_bound_is_sharp_at_two_disjoint_cliques():
    # 2 * min degree = n - 2, one short of the bound: the search must run
    for n in (4, 6, 8):
        half = n // 2
        g = from_edges(
            n,
            [(u, v) for u, v in combinations(range(n), 2) if (u < half) == (v < half)],
        )
        assert 2 * g.min_degree() == n - 2
        assert not is_connected(g)


def test_is_cut_basic():
    c5 = cycle(5)
    assert not is_cut(c5, [])
    assert not is_cut(c5, [0])
    assert is_cut(c5, [0, 2])
    assert not is_cut(c5, [0, 1])  # survivors still form a path
    assert is_cut(from_edges(3, [(0, 1)]), [])  # empty set cuts a disconnected graph


def test_is_cut_validation():
    with pytest.raises(ValueError):
        is_cut(cycle(4), [4])
    with pytest.raises(ValueError):
        is_cut(cycle(4), [0, 1, 2, 3])  # must be a proper subset
    # one survivor is never "disconnected"
    assert not is_cut(cycle(4), [0, 1, 2])


def test_certificate_flags_independent_forest_bipartite():
    c = certify_cut(cycle(6), [0, 3])
    assert c.cut == (0, 3)
    assert c.components == ((1, 2), (4, 5))
    assert c.cut_degeneracy == 0
    assert c.independent and c.forest and c.bipartite
    assert c.cut_degeneracy <= 0

    # cut inducing a triangle: none of the flags hold
    g = join(complete(3), empty_graph(2))
    c = certify_cut(g, [0, 1, 2])
    assert c.cut_degeneracy == 2
    assert not c.independent and not c.forest and not c.bipartite
    assert c.cut_degeneracy > 1
    assert c.cut_degeneracy <= 2

    # cut inducing a single edge: a forest but not independent
    g = join(complete(2), empty_graph(2))
    c = certify_cut(g, [0, 1])
    assert not c.independent and c.forest and c.bipartite
    assert c.cut_degeneracy == 1


def test_certify_rejects_non_cut():
    with pytest.raises(ValueError, match="cut candidate contains vertices outside the graph"):
        certify_cut(cycle(4), [4])
    with pytest.raises(ValueError, match="cut candidate must be a proper subset of the vertices"):
        certify_cut(cycle(4), [0, 1, 2, 3])
    # one survivor, then a connected rest
    with pytest.raises(ValueError, match="vertex set is not a cut"):
        certify_cut(cycle(4), [0, 1, 2])
    with pytest.raises(ValueError, match="vertex set is not a cut"):
        certify_cut(cycle(5), [0])


def test_certificate_json_is_plain_data():
    d = certify_cut(cycle(6), [0, 3]).to_json_dict()
    assert d == {
        "cut": [0, 3],
        "components": [[1, 2], [4, 5]],
        "cut_degeneracy": 0,
        "independent": True,
        "forest": True,
        "bipartite": True,
    }


def test_kappa_of_named_graphs():
    assert vertex_connectivity(complete(2)) == 1
    assert vertex_connectivity(complete(7)) == 6
    assert vertex_connectivity(cycle(5)) == 2
    assert vertex_connectivity(path(6)) == 1
    assert vertex_connectivity(complete_bipartite(2, 5)) == 2
    assert vertex_connectivity(complete_bipartite(3, 3)) == 3
    assert vertex_connectivity(petersen()) == 3
    assert vertex_connectivity(from_edges(5, [(0, 1), (2, 3)])) == 0
    assert vertex_connectivity(empty_graph(2)) == 0


def test_kappa_needs_two_vertices():
    with pytest.raises(ValueError):
        vertex_connectivity(empty_graph(1))
    with pytest.raises(ValueError):
        vertex_connectivity(empty_graph(0))


def test_kappa_matches_brute_force_on_random_graphs():
    rng = random.Random(17)
    for _ in range(400):
        g = random_graph(rng.randint(2, 7), rng, rng.choice((0.25, 0.5, 0.75)))
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)


def test_kappa_is_the_size_of_the_listed_minimum_cuts():
    # kappa and the minimum cuts each make their own walk of the same pair
    # flows; the cut list is checked against brute force elsewhere
    rng = random.Random(0x4B)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 40)
        g = random_graph(n, rng, rng.uniform(2.0 / n, 0.9))
        if g.is_complete() or not is_connected(g):
            continue
        checked += 1
        assert vertex_connectivity(g) == minimum_cut_sets(g)[0].bit_count(), g.rows


def test_minimum_cuts_of_c4():
    cuts = [c.cut for c in minimum_cuts(cycle(4))]
    assert cuts == [(0, 2), (1, 3)]


def test_minimum_cuts_of_star():
    cuts = minimum_cuts(complete_bipartite(1, 3))
    assert [c.cut for c in cuts] == [(0,)]
    assert cuts[0].components == ((1,), (2,), (3,))


def test_minimum_cuts_of_petersen_are_the_ten_neighborhoods():
    p = petersen()
    cuts = minimum_cuts(p)
    assert len(cuts) == 10
    expected = sorted(tuple(sorted(p.neighbors(v))) for v in range(10))
    assert sorted(c.cut for c in cuts) == expected
    # girth 5 means every neighborhood is independent
    assert all(c.independent for c in cuts)


def test_minimum_cuts_of_disconnected_graph_is_the_empty_cut():
    cuts = minimum_cuts(from_edges(4, [(0, 1), (2, 3)]))
    assert len(cuts) == 1
    assert cuts[0].cut == ()
    assert cuts[0].components == ((0, 1), (2, 3))
    assert cuts[0].cut_degeneracy == 0


def test_minimum_cuts_refuses_complete_and_lists_cycle_65():
    with pytest.raises(ValueError, match="complete"):
        minimum_cuts(complete(4))
    # every pair of non-adjacent vertices cuts a cycle; 65 is past the old cap
    cuts = [c.cut for c in minimum_cuts(cycle(65))]
    assert len(cuts) == 65 * 62 // 2
    assert cuts == [(u, v) for u, v in combinations(range(65), 2) if 1 < v - u < 64]


def test_minimum_cuts_match_subset_scan():
    rng = random.Random(0x3C)
    checked = 0
    while checked < 1200:
        g = random_graph(rng.randint(2, 10), rng, rng.random())
        if g.is_complete():
            continue
        checked += 1
        cuts = [c.cut for c in minimum_cuts(g)]
        assert cuts == brute_minimum_cuts(g)
        assert {len(cut) for cut in cuts} == {vertex_connectivity(g)}


def test_minimum_cuts_drop_the_cuts_listed_before_kappa_is_known():
    # a 4-cycle 0-1-2-3 and a triangle 0-4-5 sharing vertex 0: the first pair
    # (1, 3) lists the 2-separator {0, 2} before pair (1, 4) finds kappa = 1
    g = parse_graph6("ElaG")
    assert g == from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 0)])
    assert [c.cut for c in minimum_cuts(g)] == [(0,)] == brute_minimum_cuts(g)


def test_check_minimum_cut_rejects_a_cut_that_is_not_minimum():
    c6 = cycle(6)
    check_minimum_cut(c6, certify_cut(c6, [0, 3]))
    # 2 and 3 see nothing of the component (4, 5) and (1,) respectively
    with pytest.raises(ValueError, match="must see every component"):
        check_minimum_cut(c6, certify_cut(c6, [0, 2, 3]))


def _nx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx, h


def test_flow_layer_matches_networkx_on_larger_graphs():
    rng = random.Random(0x5E)
    for _ in range(16):
        n = rng.randint(20, 60)
        g = random_graph(n, rng, rng.uniform(3.0 / n, 0.3))
        nx, h = _nx(g)
        kappa = vertex_connectivity(g)
        assert kappa == nx.node_connectivity(h)
        if kappa == 0 or g.is_complete():
            continue
        want = {tuple(sorted(c)) for c in nx.all_node_cuts(h)}
        assert {c.cut for c in minimum_cuts(g)} == want


def _planted_separator(rng, n):
    """G(n, .3) whose 15-set A keeps only its edges inside A and to an 8-set S,
    drawn at .9: S separates A from the rest, below the min degree."""
    picked = rng.sample(range(n), 23)
    a, near = set(picked[:15]), set(picked)
    edges = []
    for u, v in combinations(range(n), 2):
        if u in a or v in a:
            if u in near and v in near and rng.random() < 0.9:
                edges.append((u, v))
        elif rng.random() < 0.3:
            edges.append((u, v))
    return from_edges(n, edges)


def test_kappa_matches_networkx_on_gnp_80_to_100():
    # on plain G(n, .3) kappa is the min degree, which the cutoff alone gives
    rng = random.Random(0x4C)
    for n, planted in ((80, False), (90, True), (100, True)):
        g = _planted_separator(rng, n) if planted else random_graph(n, rng, 0.3)
        nx, h = _nx(g)
        kappa = vertex_connectivity(g)
        assert kappa == nx.node_connectivity(h)
        assert (kappa < g.min_degree()) == planted


def test_ring_minimum_cuts_match_networkx():
    for k, s in ((2, 3), (2, 8), (2, 12), (3, 5), (3, 12)):
        g = ring_of_cliques(k, s, seed=s)
        nx, h = _nx(g)
        assert vertex_connectivity(g) == nx.node_connectivity(h) == k + 2
        cuts = [c.cut for c in minimum_cuts(g)]
        assert cuts == [tuple(range(k + 2))]
        assert set(cuts) == {tuple(sorted(c)) for c in nx.all_node_cuts(h)}


def test_certificate_invariants_on_random_cuts():
    rng = random.Random(29)
    seen = 0
    while seen < 200:
        g = random_graph(rng.randint(3, 8), rng, 0.45)
        s = rng.sample(range(g.n), rng.randint(0, g.n - 2))
        if not is_cut(g, s):
            continue
        seen += 1
        c = certify_cut(g, s)
        assert c.cut == tuple(sorted(s))
        assert c.cut_degeneracy <= max(len(s) - 1, 0)
        assert len(c.components) >= 2
        survivors = sorted(v for comp in c.components for v in comp)
        assert survivors == sorted(set(range(g.n)) - set(s))


def test_certificate_fields_match_the_oracles_on_every_minimal_separator():
    cuts = 0
    for g in random_graph_stream(1000, 2, 10, seed=0xCE):
        for s in minimal_separators(g):
            cuts += 1
            c = certify_cut(g, s)
            h = induced_subgraph(g, s)
            d = c.cut_degeneracy
            assert c.cut == tuple(bits(s))
            assert list(c.components) == ref_components(g, s)
            assert ref_is_k_degenerate(h, d)
            if h.m:
                assert not ref_is_k_degenerate(h, d - 1)
            assert c.bipartite == ref_is_bipartite(h)
            assert c.independent == (d == 0) == (h.m == 0)
            assert c.forest == (d <= 1) == ref_is_k_degenerate(h, 1)
    assert cuts >= 1000
