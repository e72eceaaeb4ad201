import random

import pytest
from hypothesis import given, strategies as st

from degencut import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    from_edges,
    induced_subgraph,
    join,
    parse_graph6,
    path,
    random_graph,
)
from degencut.graph import bits, mask_of, petersen


def small_graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return from_edges(n, chosen)

    return build()


def test_mask_and_bits_round_trip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(bits(0b101001)) == [0, 3, 5]
    assert mask_of(0b11) == 0b11
    assert list(bits(0)) == []


def test_from_edges_rejects_loops_and_bad_vertices():
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(-1, [])


def test_duplicate_edges_collapse():
    g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_named_graphs_have_expected_counts():
    assert (complete(5).n, complete(5).m) == (5, 10)
    assert (cycle(6).n, cycle(6).m) == (6, 6)
    assert (path(4).n, path(4).m) == (4, 3)
    assert (complete_bipartite(2, 3).n, complete_bipartite(2, 3).m) == (5, 6)
    assert empty_graph(7).m == 0
    p = petersen()
    assert (p.n, p.m) == (10, 15)
    assert p.degrees() == (3,) * 10


def test_cycle_needs_three_vertices():
    with pytest.raises(ValueError):
        cycle(2)


def test_degrees_and_neighbors():
    g = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degree(0) == 3
    assert g.min_degree() == 1
    assert g.neighbors(0) == (1, 2, 3)
    assert g.neighbors(2) == (0,)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3)]


def test_min_degree_of_empty_graph_is_an_error():
    with pytest.raises(ValueError):
        empty_graph(0).min_degree()


def test_min_degree_is_counted_once_when_not_given():
    # a graph built without the walk's d counts its minimum degree on first
    # use and keeps it; one built with d reports d as given
    for g in (from_edges(4, [(0, 1), (0, 2), (0, 3)]), parse_graph6("G?bF`w"), petersen()):
        assert g._d == -1
        assert g.min_degree() == min(map(int.bit_count, g.rows))
        assert g._d == g.min_degree()
    assert Graph(3, (0b110, 0b001, 0b001), 2, 1).min_degree() == 1


def test_induced_subgraph_relabels_ascending():
    g = cycle(5)
    h = induced_subgraph(g, [1, 2, 4])
    # kept vertices 1,2,4 become 0,1,2; only the 1-2 edge survives
    assert h.n == 3
    assert sorted(h.edges()) == [(0, 1)]
    with pytest.raises(ValueError):
        induced_subgraph(g, [5])


def test_join_wires_all_cross_edges():
    g = join(complete(2), empty_graph(3))
    assert g.n == 5
    assert g.m == 1 + 6
    for u in (0, 1):
        for v in (2, 3, 4):
            assert g.has_edge(u, v)
    assert not g.has_edge(2, 3)


def test_join_with_empty_side_is_identity_up_to_labels():
    g = cycle(4)
    assert join(g, empty_graph(0)) == g


def test_complement_of_complete_is_empty():
    assert complement(complete(6)) == empty_graph(6)
    assert complement(empty_graph(6)) == complete(6)


@given(small_graphs())
def test_complement_is_an_involution(g):
    assert complement(complement(g)) == g


@given(small_graphs())
def test_induced_on_everything_is_identity(g):
    assert induced_subgraph(g, range(g.n)) == g


@given(small_graphs())
def test_edge_iteration_matches_m(g):
    edges = list(g.edges())
    assert len(edges) == g.m
    assert all(u < v for u, v in edges)
    assert len(set(edges)) == len(edges)


def test_random_graph_is_seed_deterministic():
    a = random_graph(9, random.Random(7), 0.4)
    b = random_graph(9, random.Random(7), 0.4)
    assert a == b


def test_graph_equality_and_hash():
    assert cycle(3) == complete(3)  # the triangle, built two ways
    assert hash(cycle(3)) == hash(complete(3))
    assert complete(3) != complete(4)
    assert complete(3) != "C~"
