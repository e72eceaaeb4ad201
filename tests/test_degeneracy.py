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
    max_k_core,
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


def test_cycle_cores():
    c5 = cycle(5)
    assert max_k_core(c5, 1).core == (0, 1, 2, 3, 4)
    assert max_k_core(c5, 2).core == ()
    assert not max_k_core(c5, 2)
    assert bool(max_k_core(c5, 1))


def test_complete_graph_cores():
    k5 = complete(5)
    assert max_k_core(k5, 3).core == (0, 1, 2, 3, 4)
    assert max_k_core(k5, 4).core == ()


def test_petersen_cores():
    p = petersen()
    assert max_k_core(p, 2).core == tuple(range(10))
    assert max_k_core(p, 3).core == ()


def test_core_ignores_pendant_trees():
    # triangle with a tail: the 1-core is just the triangle
    g = from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    assert max_k_core(g, 1).core == (0, 1, 2)


def test_max_core_spans_disconnected_pieces():
    # two disjoint K_4s linked through a degree-2 middleman (vertex 8)
    two = from_edges(9, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                     + [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)]
                     + [(3, 8), (8, 4)])
    assert max_k_core(two, 2).core == (0, 1, 2, 3, 4, 5, 6, 7)


def test_k_validation():
    with pytest.raises(ValueError):
        max_k_core(cycle(3), -1)


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
            core = max_k_core(g, k).core
            assert not core or len(core) >= k + 2


def test_core_is_removal_order_independent():
    rng = random.Random(5)
    for _ in range(300):
        g = random_graph(rng.randint(1, 9), rng, rng.choice((0.3, 0.6)))
        order = list(range(g.n))
        rng.shuffle(order)
        for k in (0, 1, 2):
            assert frozenset(max_k_core(g, k).core) == peel_with_order(g, k, order)


def test_core_mask_of_a_vertex_set_is_the_core_of_its_induced_subgraph():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng.randint(0, 10), rng, rng.choice((0.3, 0.5, 0.8)))
        for s in (0, g.full_mask, rng.getrandbits(g.n), rng.getrandbits(g.n)):
            labels = tuple(bits(s))
            sub = induced_subgraph(g, s)
            for k in range(4):
                core = core_mask(g.rows, s, k)
                assert core == mask_of(labels[v] for v in max_k_core(sub, k).core)
                assert (not core) == ref_is_k_degenerate(sub, k)
