"""Labeled graph streams: exact counts, deterministic order, prefix splitting
that tiles the sequential stream, and isomorphism rejection by canonical
labeling, checked against the n! brute-force form and by orbit counting."""

import random
from collections import Counter
from itertools import product
from math import factorial

import pytest

from degencut import (
    EnumerationSpec,
    Graph,
    canonical_form,
    complete,
    cycle,
    enumerate_labeled,
    from_edges,
    random_graph,
    ring_of_cliques,
)
from degencut import enumeration
from degencut.enumeration import partition_prefixes
from degencut.graph import petersen

from oracles import brute_automorphism_count, brute_canonical_form


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


def test_thm3_scan_space_is_pinned():
    # the space of the n=8 thm3 scan: four head vertices, four tail vertices
    stream = enumerate_labeled(EnumerationSpec(8, edge_range=(0, 17), min_degree=4))
    first = last = next(stream)
    count = 1
    for last in stream:
        count += 1
    assert count == 347_375
    assert first.rows == (240, 240, 240, 240, 15, 15, 15, 15)
    assert last.rows == (126, 29, 43, 135, 195, 197, 177, 120)


def counts_its_edges(g):
    """Whether the edge count the stream set matches the rows."""
    return g.m == sum(map(int.bit_count, g.rows)) // 2


def test_connected_counts():
    assert len(all_of(EnumerationSpec(3, connected_only=True))) == 4
    connected = all_of(EnumerationSpec(4, connected_only=True))
    assert len(connected) == 38
    assert all(map(counts_its_edges, connected))


def slot_space(n):
    """Every labeled graph on n vertices, built slot by slot, in slot order."""
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graphs = []
    for choice in product((0, 1), repeat=len(slots)):
        rows = [0] * n
        for (u, v), bit in zip(slots, choice):
            rows[u] |= bit << v
            rows[v] |= bit << u
        graphs.append(Graph(n, tuple(rows)))
    return graphs


def test_stream_matches_brute_filter():
    # the stream must be exactly the brute filter of the full space, in slot
    # order, also where the degree-deficit bound prunes (6 vertices, min
    # degree 3, at most 9 edges: the 3-regular graphs only), where the edge
    # floor binds, and where nothing qualifies (including a min degree of n);
    # at n <= 4 the whole graph comes off the tail table, so every min degree
    # is tried with edge ranges that bind at the floor, the cap, both or none
    spaces = {n: slot_space(n) for n in range(7)}
    specs = [
        EnumerationSpec(5, edge_range=(6, 10), min_degree=3),
        EnumerationSpec(6, edge_range=(0, 9), min_degree=3),
        EnumerationSpec(6, edge_range=(4, 10), min_degree=2),
        EnumerationSpec(6, edge_range=(0, 8), min_degree=3),
        EnumerationSpec(5, edge_range=(0, 10), min_degree=5),
    ]
    for n in range(5):
        top = n * (n - 1) // 2
        for lo, hi in sorted({(0, top), (0, top // 2), (top // 2, top), (1, top - 1)}):
            if lo <= hi:
                specs += [
                    EnumerationSpec(n, edge_range=(lo, hi), min_degree=dmin)
                    for dmin in range(n + 1)
                ]
    for spec in specs:
        lo, hi = spec.edge_range
        want = [
            g
            for g in spaces[spec.n]
            if lo <= g.m <= hi and (g.n == 0 or g.min_degree() >= spec.min_degree)
        ]
        # graph equality ignores m, so the walk's edge counts are compared too
        got = [(g.rows, g.m) for g in all_of(spec)]
        assert got == [(g.rows, g.m) for g in want], spec


def test_stream_is_deterministic():
    spec = EnumerationSpec(5, edge_range=(0, 6))
    assert all_of(spec) == all_of(spec)


def slot_bits(g):
    return tuple(g.rows[u] >> v & 1 for u in range(g.n) for v in range(u + 1, g.n))


def test_stream_is_in_slot_order():
    # absent branch first: every stream, prefix streams included, lists its
    # slot-bit vectors in strictly increasing lexicographic order
    # at n <= 4 the prefixes fix slots of the tail table
    for spec in (
        *(EnumerationSpec(n) for n in range(5)),
        EnumerationSpec(4, edge_range=(2, 4), min_degree=1),
        EnumerationSpec(4, min_degree=2),
        EnumerationSpec(5),
        EnumerationSpec(6, min_degree=4),
        EnumerationSpec(6, edge_range=(4, 10), min_degree=2),
        EnumerationSpec(6, edge_range=(0, 9), min_degree=3),
        EnumerationSpec(7, min_degree=4),
        EnumerationSpec(5, edge_range=(2, 7), connected_only=True),
    ):
        for prefix in [()] + partition_prefixes(spec, 8):
            vectors = [slot_bits(g) for g in all_of(spec, prefix)]
            assert all(a < b for a, b in zip(vectors, vectors[1:]))
            assert all(v[: len(prefix)] == prefix for v in vectors)


def test_prefix_streams_tile_the_sequential_stream():
    # 64 tasks reach the tail slots at n = 5; at n <= 4 every prefix does
    for spec in (
        *(EnumerationSpec(n) for n in range(5)),
        EnumerationSpec(4, edge_range=(2, 4), min_degree=1),
        EnumerationSpec(5),
        EnumerationSpec(6, min_degree=4),
        EnumerationSpec(5, edge_range=(2, 7), connected_only=True),
        EnumerationSpec(6, edge_range=(0, 9), min_degree=3),
    ):
        whole = all_of(spec)
        for tasks in (2, 5, 16, 64):
            prefixes = partition_prefixes(spec, tasks)
            tiled = [g for p in prefixes for g in all_of(spec, p)]
            assert tiled == whole
            assert all(map(counts_its_edges, tiled))


def test_stream_carries_each_graph_its_min_degree():
    # the walk sets each graph's minimum degree, the least of the head degrees
    # at its leaf and of the tail vertices' head plus tail degrees, so nothing
    # recounts it; the value set must be the recount on every stream: the tail
    # table alone (n <= 4), degree floors, edge caps and floors that prune,
    # the connected and isomorph-free filters, and every prefix stream
    specs = [EnumerationSpec(n) for n in range(7)]
    for n in range(2, 7):
        top = n * (n - 1) // 2
        for dmin in range(1, n):
            specs += [
                EnumerationSpec(n, (0, top // 2), dmin),
                EnumerationSpec(n, (top // 2, top), dmin),
            ]
    specs += [
        EnumerationSpec(7, (0, 12), 3),
        EnumerationSpec(7, min_degree=4),
        EnumerationSpec(7, (16, 21), 4),
        EnumerationSpec(5, (2, 7), connected_only=True),
        EnumerationSpec(6, (0, 8), 1, connected_only=True),
    ]
    streams = [(s, p) for s in specs for p in [()] + partition_prefixes(s, 8)]
    streams += [
        (EnumerationSpec(6, min_degree=2, iso_reject=True), ()),
        (EnumerationSpec(7, min_degree=4, iso_reject=True), ()),
    ]
    checked = 0
    for spec, prefix in streams:
        for g in enumerate_labeled(spec, prefix):
            if g.n:
                assert g._d == min(map(int.bit_count, g.rows)), (spec, prefix, g.rows)
                checked += 1
    assert checked == 332_327
    with pytest.raises(ValueError, match="empty graph"):
        all_of(EnumerationSpec(0))[0].min_degree()


def test_partition_prefixes_lists_every_bit_tuple_in_numeric_order():
    # depth is the least d with 2^d >= tasks, capped at the slot count; the
    # prefixes are the depth-bit numbers written out, most significant first
    for n in range(9):
        slots = n * (n - 1) // 2
        for tasks in range(-2, 301):
            depth = next(d for d in range(slots + 1) if 2**d >= tasks or d == slots)
            want = [
                tuple(map(int, bin(1 << depth | code)[3:])) for code in range(2**depth)
            ]
            assert partition_prefixes(EnumerationSpec(n), tasks) == want


def test_map_prefixes_clamps_jobs_to_the_cpu_count(monkeypatch):
    # an in-process pool: the test starts no process
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", FakePool)
    spec = EnumerationSpec(5)
    streams = enumeration.map_prefixes(all_of, spec, jobs=10_000)
    assert [g for stream in streams for g in stream] == all_of(spec)
    assert started == [2]


def test_partition_rejects_iso_reject():
    with pytest.raises(ValueError):
        partition_prefixes(EnumerationSpec(4, iso_reject=True), 4)


def test_iso_reject_counts():
    assert len(all_of(EnumerationSpec(3, iso_reject=True))) == 4
    assert len(all_of(EnumerationSpec(4, iso_reject=True))) == 11
    classes = all_of(EnumerationSpec(5, iso_reject=True))
    assert len(classes) == 34
    assert all(map(counts_its_edges, classes))
    assert len(all_of(EnumerationSpec(4, iso_reject=True, connected_only=True))) == 6


def test_iso_reject_past_eight_vertices():
    # min degree 7 on 9 vertices: the complements are the matchings of K_9,
    # so the classes are K_9 minus a matching of 0..4 edges
    classes = all_of(EnumerationSpec(9, min_degree=7, iso_reject=True))
    assert sorted(g.m for g in classes) == [32, 33, 34, 35, 36]
    # |Aut(K_9 minus j matching edges)| = 2^j j! (9-2j)!
    orbits = sum(
        factorial(9) // (2**j * factorial(j) * factorial(9 - 2 * j))
        for j in (36 - g.m for g in classes)
    )
    assert orbits == 2620
    assert len(all_of(EnumerationSpec(9, min_degree=7))) == 2620


def test_spec_validation():
    with pytest.raises(ValueError):
        list(enumerate_labeled(EnumerationSpec(-1)))
    with pytest.raises(ValueError):
        list(enumerate_labeled(EnumerationSpec(4, edge_range=(5, 3))))
    with pytest.raises(ValueError):
        list(enumerate_labeled(EnumerationSpec(4, edge_range=(0, 7))))
    # a 2 allows neither branch of its slot, so the stream would be empty
    with pytest.raises(ValueError, match="prefix value 2 "):
        list(enumerate_labeled(EnumerationSpec(4), (0, 2)))
    with pytest.raises(ValueError, match="prefix value -1 "):
        list(enumerate_labeled(EnumerationSpec(6), (-1,)))
    # 1,225 slots: the walk keeps its state in arrays, so the order is not capped
    got = all_of(EnumerationSpec(50, edge_range=(0, 1)))
    assert len(set(got)) == len(got) == 1 + 50 * 49 // 2
    assert got[0].rows == (0,) * 50


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    rows = [0] * g.n
    for u in range(g.n):
        for v in g.neighbors(u):
            rows[perm[u]] |= 1 << perm[v]
    return Graph(g.n, tuple(rows))


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng.randint(1, 6), rng, 0.5)
        h = relabel(g, rng)
        assert canonical_form(g) == canonical_form(h)
        # the form is g relabeled: a graph with its own form
        assert canonical_form(Graph(g.n, canonical_form(g))) == canonical_form(g)


def test_canonical_form_is_invariant_past_eight_vertices():
    rng = random.Random(32)
    # a path, a 4-cycle, a triangle and an isolated vertex: automorphisms
    # found in one component must not cut the search short in another
    mixed = from_edges(
        12,
        [(0, 2), (1, 2), (1, 3), (4, 5), (4, 7), (5, 6), (6, 7)]
        + [(8, 10), (8, 11), (10, 11)],
    )
    graphs = [complete(12), cycle(30), petersen(), ring_of_cliques(3, 4), mixed]
    graphs += [random_graph(rng.randint(9, 30), rng, rng.random()) for _ in range(40)]
    for g in graphs:
        form = canonical_form(g)
        assert sorted(r.bit_count() for r in form) == sorted(g.degrees())
        for _ in range(3):
            assert canonical_form(relabel(g, rng)) == form


def test_canonical_form_separates_nonisomorphic():
    from degencut import path

    a = canonical_form(cycle(5))
    b = canonical_form(path(5))
    assert a != b


def test_canonical_classes_match_brute_force_on_all_five_vertex_graphs():
    graphs = all_of(EnumerationSpec(5))
    fast = [canonical_form(g) for g in graphs]
    slow = [brute_canonical_form(g) for g in graphs]
    assert len(set(fast)) == len(set(slow)) == len(set(zip(fast, slow))) == 34


def test_canonical_classes_match_brute_force_on_random_pairs():
    # h is g relabeled, after a degree-preserving edge switch half the time,
    # so pairs that refinement by degrees alone cannot tell apart are common
    rng = random.Random(33)
    same = 0
    for n, count in ((6, 40), (7, 20), (8, 5)):
        for _ in range(count):
            g = random_graph(n, rng, 0.5)
            h = relabel(g, rng)
            if rng.random() < 0.5:
                h = switch_one_edge_pair(h, rng)
            fast = canonical_form(g) == canonical_form(h)
            assert fast == (brute_canonical_form(g) == brute_canonical_form(h))
            same += fast
    assert 0 < same < 65


def switch_one_edge_pair(g, rng):
    """Replace edges ab, cd by ac, bd when that keeps the graph simple."""
    edges = list(g.edges())
    rng.shuffle(edges)
    for (a, b), (c, d) in zip(edges, edges[1:]):
        if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
            rows = list(g.rows)
            for u, v in ((a, b), (c, d), (a, c), (b, d)):
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
            return Graph(g.n, tuple(rows))
    return g


@pytest.mark.parametrize(
    "spec, labeled, classes",
    [
        (EnumerationSpec(5, iso_reject=True), 1024, 34),
        (EnumerationSpec(6, min_degree=4, iso_reject=True), 76, 4),
        (EnumerationSpec(7, min_degree=4, iso_reject=True), 15796, 29),
    ],
)
def test_iso_reject_classes_cover_the_labeled_space(spec, labeled, classes):
    # orbit-stabilizer: a class of G holds n!/|Aut(G)| labeled graphs
    reps = all_of(spec)
    assert len(reps) == classes
    n = spec.n
    assert sum(factorial(n) // brute_automorphism_count(g) for g in reps) == labeled
