"""Core extraction under the shifted convention used throughout this package:
the k-core is the maximal vertex set inducing minimum degree >= k+1, and a
graph is k-degenerate exactly when that set is empty."""

import random

import pytest

from degencut import (
    complete,
    complete_bipartite,
    cycle,
    degeneracy,
    empty_graph,
    from_edges,
    is_k_degenerate,
    path,
    random_graph,
)
from degencut.degeneracy import core_mask
from degencut.graph import bits, induced_subgraph, mask_of, petersen
from oracles import peel_with_order, ref_is_k_degenerate


def disjoint_union(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edges()]
        n += g.n
    return from_edges(n, edges)


def core(g, k):
    """The max k-core of g as a sorted vertex tuple, from one `core_mask` peel."""
    return tuple(bits(core_mask(g.rows, g.full_mask, k)))


def test_cycle_cores():
    c5 = cycle(5)
    assert core(c5, 1) == (0, 1, 2, 3, 4)
    assert core(c5, 2) == ()
    assert is_k_degenerate(c5, 2)
    assert not is_k_degenerate(c5, 1)


def test_complete_graph_cores():
    k5 = complete(5)
    assert core(k5, 3) == (0, 1, 2, 3, 4)
    assert core(k5, 4) == ()
    assert not is_k_degenerate(k5, 3)
    assert is_k_degenerate(k5, 4)


def test_petersen_cores():
    p = petersen()
    assert core(p, 2) == tuple(range(10))
    assert core(p, 3) == ()
    assert not is_k_degenerate(p, 2)
    assert is_k_degenerate(p, 3)


def test_core_ignores_pendant_trees():
    # triangle with a tail: the 1-core is just the triangle
    g = from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    assert core(g, 1) == (0, 1, 2)
    assert not is_k_degenerate(g, 1)


def test_max_core_spans_disconnected_pieces():
    # two disjoint K_4s linked through a degree-2 middleman (vertex 8)
    two = from_edges(9, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                     + [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)]
                     + [(3, 8), (8, 4)])
    assert core(two, 2) == (0, 1, 2, 3, 4, 5, 6, 7)
    assert not is_k_degenerate(two, 2)


def test_k_validation():
    with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
        is_k_degenerate(cycle(3), -1)


def test_degeneracy_of_named_graphs():
    assert degeneracy(empty_graph(0)) == 0
    assert degeneracy(empty_graph(5)) == 0
    assert degeneracy(path(7)) == 1
    assert degeneracy(cycle(6)) == 2
    assert degeneracy(complete(4)) == 3
    assert degeneracy(complete(5)) == 4
    assert degeneracy(petersen()) == 3
    assert degeneracy(complete_bipartite(3, 3)) == 3
    assert degeneracy(complete_bipartite(2, 7)) == 2
    assert degeneracy(disjoint_union(complete(5), cycle(7), path(4))) == 4
    assert degeneracy(disjoint_union(petersen(), complete(4))) == 3


def test_is_k_degenerate_matches_the_glossary_cases():
    assert is_k_degenerate(empty_graph(4), 0)
    assert not is_k_degenerate(complete(2), 0)
    assert is_k_degenerate(path(5), 1)  # forests
    assert not is_k_degenerate(cycle(5), 1)
    assert is_k_degenerate(cycle(5), 2)


def test_degeneracy_agrees_with_greedy_peeling_oracle():
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng.randint(0, 9), rng, rng.choice((0.2, 0.5, 0.8)))
        d = degeneracy(g)
        assert ref_is_k_degenerate(g, d)
        if g.m:
            assert not ref_is_k_degenerate(g, d - 1)


def test_nonempty_core_needs_k_plus_2_vertices():
    rng = random.Random(23)
    for _ in range(300):
        g = random_graph(rng.randint(0, 9), rng, 0.6)
        for k in range(4):
            found = core(g, k)
            assert not found or len(found) >= k + 2
            assert is_k_degenerate(g, k) == (not found)


def test_core_is_removal_order_independent():
    rng = random.Random(5)
    for _ in range(300):
        g = random_graph(rng.randint(1, 9), rng, rng.choice((0.3, 0.6)))
        order = list(range(g.n))
        rng.shuffle(order)
        for k in (0, 1, 2):
            assert frozenset(core(g, k)) == peel_with_order(g, k, order)


def test_core_mask_of_a_vertex_set_is_the_core_of_its_induced_subgraph():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng.randint(0, 10), rng, rng.choice((0.3, 0.5, 0.8)))
        for s in (0, g.full_mask, rng.getrandbits(g.n), rng.getrandbits(g.n)):
            labels = tuple(bits(s))
            sub = induced_subgraph(g, s)
            for k in range(4):
                found = core_mask(g.rows, s, k)
                want = peel_with_order(sub, k, list(range(sub.n)))
                assert found == mask_of(labels[v] for v in want)
                assert (not found) == ref_is_k_degenerate(sub, k) == is_k_degenerate(sub, k)
