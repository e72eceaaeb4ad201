import random

import pytest

from degencut import (
    complete,
    empty_graph,
    join,
    join_extremal,
    ring_of_cliques,
)


def ring_order(k, s):
    return (k + 2) * s + 1


def ring_size(k, s):
    # per-clique edges, one perfect matching per interface, apex to clique 0
    return s * (k + 2) * (k + 1) // 2 + s * (k + 2) + (k + 2)


def join_size(k, n):
    return (k + 2) * (k + 1) // 2 + (k + 2) * (n - k - 2)


def test_ring_identity_matchings_shape():
    g = ring_of_cliques(2, 3)
    assert g.n == ring_order(2, 3) == 13
    assert g.m == ring_size(2, 3) == 34
    # apex is the last vertex and sees exactly clique 0
    assert g.neighbors(12) == (0, 1, 2, 3)
    # interface 0 under the identity matching: j of clique 0 to j of clique 1
    for j in range(4):
        assert g.has_edge(j, 4 + j)


def test_ring_seeded_matchings_follow_one_rng():
    # interface i's matching is the i-th shuffle of one random.Random(seed);
    # the last interface wraps around from clique s-1 to clique 0
    for k, s, seed in ((2, 3, 0), (3, 4, 7), (4, 5, 123)):
        size = k + 2
        rng = random.Random(seed)
        perms = []
        for _ in range(s):
            perm = list(range(size))
            rng.shuffle(perm)
            perms.append(perm)
        g = ring_of_cliques(k, s, seed)
        assert g.m == ring_size(k, s)
        for i, perm in enumerate(perms):
            base, nxt = i * size, (i + 1) % s * size
            for j in range(size):
                assert g.has_edge(base + j, nxt + perm[j]), (k, s, seed, i, j)


def test_ring_degree_profile():
    for k, s in ((2, 3), (3, 4), (4, 5)):
        g = ring_of_cliques(k, s)
        degs = sorted(g.degrees())
        apex = k + 2
        # apex has degree k+2; clique-0 vertices add the apex edge to k+3
        assert degs[0] == apex
        assert degs.count(k + 3) == (s - 1) * (k + 2)
        assert degs.count(k + 4) == k + 2
        assert g.min_degree() == k + 2


def test_ring_spec_validation():
    with pytest.raises(ValueError, match="k must be at least 2, got 1"):
        ring_of_cliques(1, 3)
    with pytest.raises(ValueError, match="need at least 3 cliques, got 2"):
        ring_of_cliques(2, 2)


def test_ring_is_seed_deterministic():
    a = ring_of_cliques(3, 4, seed=9)
    assert a == ring_of_cliques(3, 4, seed=9)
    assert a != ring_of_cliques(3, 4, seed=10)


def test_join_extremal_shape():
    g = join_extremal(2, 8)
    assert g.n == 8
    assert g.m == join_size(2, 8) == 22
    assert g == join(complete(4), empty_graph(4))
    assert g.min_degree() == 4


def test_join_extremal_edge_count_identity():
    # closed form used in the acceptance gate: (k+2) n - C(k+3, 2)
    for k in range(0, 4):
        for n in range(k + 3, 12):
            g = join_extremal(k, n)
            assert g.m == (k + 2) * n - (k + 3) * (k + 2) // 2
            assert g.m == join_size(k, n)
            assert g.min_degree() == min(k + 2, n - 1)


def test_join_extremal_validation():
    with pytest.raises(ValueError):
        join_extremal(-1, 5)
    with pytest.raises(ValueError):
        join_extremal(2, 4)  # n below k+3
