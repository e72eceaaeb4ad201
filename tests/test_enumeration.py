"""Labeled graph streams: exact counts, deterministic order, prefix splitting
that tiles the sequential stream, and small-n isomorphism rejection."""

import random
from collections import Counter

import pytest

from degencut import (
    EnumerationSpec,
    Graph,
    canonical_form,
    canonical_graph,
    complete,
    enumerate_labeled,
    partition_prefixes,
    random_graph,
)
from degencut.enumeration import CANONICAL_MAX_N


def all_of(spec, prefix=()):
    return list(enumerate_labeled(spec, prefix))


def test_tiny_space_counts():
    assert len(all_of(EnumerationSpec(0))) == 1
    assert len(all_of(EnumerationSpec(1))) == 1
    assert len(all_of(EnumerationSpec(2))) == 2
    assert len(all_of(EnumerationSpec(3))) == 8
    assert len(all_of(EnumerationSpec(4))) == 64
    assert len(all_of(EnumerationSpec(5))) == 1024


def test_edge_range_counts_binomially():
    # n=4 has 6 slots; C(6,2) + C(6,3) = 15 + 20
    got = all_of(EnumerationSpec(4, edge_range=(2, 3)))
    assert len(got) == 35
    assert all(2 <= g.m <= 3 for g in got)


def test_min_degree_singleton():
    assert all_of(EnumerationSpec(5, min_degree=4)) == [complete(5)]


def test_min_degree_four_on_six_vertices():
    got = all_of(EnumerationSpec(6, min_degree=4))
    assert len(got) == 76
    assert all(g.min_degree() >= 4 for g in got)
    # complements have max degree <= 1, i.e. partial matchings on 6 vertices:
    # 15 perfect matchings + 45 pairs + 15 single edges + empty
    assert Counter(g.m for g in got) == {12: 15, 13: 45, 14: 15, 15: 1}


def test_edge_cap_at_the_degree_floor_leaves_the_regular_graphs():
    # m <= 8 * 4 / 2 admits only the labeled 4-regular graphs on 8 vertices
    got = all_of(EnumerationSpec(8, edge_range=(0, 16), min_degree=4))
    assert len(got) == 19355
    assert all(g.degrees() == (4,) * 8 for g in got)


def test_connected_counts():
    assert len(all_of(EnumerationSpec(3, connected_only=True))) == 4
    assert len(all_of(EnumerationSpec(4, connected_only=True))) == 38


def test_stream_matches_brute_filter():
    # the emitted set must be exactly the brute filter of the full space, also
    # where the degree-deficit bound prunes (6 vertices, min degree 3, at most
    # 9 edges: the 3-regular graphs only), where the edge floor binds, and
    # where nothing qualifies (including a min degree of n)
    spaces = {n: all_of(EnumerationSpec(n)) for n in (5, 6)}
    for spec in (
        EnumerationSpec(5, edge_range=(6, 10), min_degree=3),
        EnumerationSpec(6, edge_range=(0, 9), min_degree=3),
        EnumerationSpec(6, edge_range=(4, 10), min_degree=2),
        EnumerationSpec(6, edge_range=(0, 8), min_degree=3),
        EnumerationSpec(5, edge_range=(0, 10), min_degree=5),
    ):
        lo, hi = spec.edge_range
        want = {
            g
            for g in spaces[spec.n]
            if lo <= g.m <= hi and g.min_degree() >= spec.min_degree
        }
        got = all_of(spec)
        assert set(got) == want
        assert len(got) == len(set(got))


def test_stream_is_deterministic():
    spec = EnumerationSpec(5, edge_range=(0, 6))
    assert all_of(spec) == all_of(spec)


def test_prefix_streams_tile_the_sequential_stream():
    for spec in (
        EnumerationSpec(5),
        EnumerationSpec(6, min_degree=4),
        EnumerationSpec(5, edge_range=(2, 7), connected_only=True),
        EnumerationSpec(6, edge_range=(0, 9), min_degree=3),
    ):
        whole = all_of(spec)
        for tasks in (2, 5, 16):
            prefixes = partition_prefixes(spec, tasks)
            tiled = [g for p in prefixes for g in all_of(spec, p)]
            assert tiled == whole


def test_partition_rejects_iso_reject():
    with pytest.raises(ValueError):
        partition_prefixes(EnumerationSpec(4, iso_reject=True), 4)


def test_iso_reject_counts():
    assert len(all_of(EnumerationSpec(3, iso_reject=True))) == 4
    assert len(all_of(EnumerationSpec(4, iso_reject=True))) == 11
    assert len(all_of(EnumerationSpec(5, iso_reject=True))) == 34
    assert len(all_of(EnumerationSpec(4, iso_reject=True, connected_only=True))) == 6


def test_iso_reject_bounds():
    with pytest.raises(ValueError):
        list(enumerate_labeled(EnumerationSpec(9, iso_reject=True)))


def test_spec_validation():
    with pytest.raises(ValueError):
        list(enumerate_labeled(EnumerationSpec(-1)))
    with pytest.raises(ValueError):
        list(enumerate_labeled(EnumerationSpec(4, edge_range=(5, 3))))
    with pytest.raises(ValueError):
        list(enumerate_labeled(EnumerationSpec(4, edge_range=(0, 7))))
    # 1,225 slots would need more stack frames than the default recursion limit
    with pytest.raises(ValueError):
        list(enumerate_labeled(EnumerationSpec(50, edge_range=(0, 1))))


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = random_graph(n, rng, 0.5)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [0] * n
        for u in range(n):
            for v in g.neighbors(u):
                rows[perm[u]] |= 1 << perm[v]
        h = Graph(n, tuple(rows))
        assert canonical_form(g) == canonical_form(h)
        assert canonical_graph(g) == canonical_graph(h)


def test_canonical_form_separates_nonisomorphic():
    from degencut import cycle, path

    a = canonical_form(cycle(5))
    b = canonical_form(path(5))
    assert a != b


def test_canonical_cap():
    with pytest.raises(ValueError):
        canonical_form(random_graph(CANONICAL_MAX_N + 1, random.Random(0), 0.5))
