"""End-to-end acceptance checks, one numbered test per advertised guarantee.

Each scan is timed against its stated budget and pinned to exact counts where
the space is small enough to know them in advance. Slow scans run once in a
module-scoped fixture and later criteria reuse the collected graphs.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import islice

import pytest

from degencut import (
    EnumerationSpec,
    bound_thm1,
    complete,
    complete_bipartite,
    cycle,
    enumerate_labeled,
    find_degenerate_cut,
    find_min_degenerate_cut,
    join_extremal,
    minimum_cuts,
    parse_graph6,
    random_graph,
    ring_of_cliques,
    to_graph6,
    verify_theorem,
    verify_theorem_exhaustive,
)
from degencut import vertex_connectivity
from degencut.degeneracy import max_k_core
from degencut.graph import petersen
from degencut.verify import evaluate

from conftest import random_graph_stream
from oracles import (
    brute_vertex_connectivity,
    has_independent_cut,
    peel_with_order,
    surd_decimal,
)


@pytest.fixture(scope="module")
def thm2_n5_scan():
    t0 = time.monotonic()
    scanned = 0
    hits = []
    for g in enumerate_labeled(EnumerationSpec(5)):
        scanned += 1
        hyp, reason = evaluate("thm2", 2, g)
        if hyp:
            hits.append(g)
            assert reason is None
    return time.monotonic() - t0, scanned, hits


@pytest.fixture(scope="module")
def thm2_pruned_scans():
    t0 = time.monotonic()
    out = {}
    for n in (6, 7):
        scanned = 0
        hits = []
        for g in enumerate_labeled(EnumerationSpec(n, min_degree=4)):
            scanned += 1
            hyp, reason = evaluate("thm2", 2, g)
            if hyp:
                hits.append(g)
                assert reason is None
        out[n] = (scanned, hits)
    return time.monotonic() - t0, out


def ring_family():
    for k in (2, 3, 4):
        for s in (3, 4, 5):
            for seed in (None, *range(5)):
                yield k, s, ring_of_cliques(k, s, seed)


def join_family():
    for k in (0, 1, 2):
        for n in range(k + 4, 11):
            yield k, n, join_extremal(k, n)


def test_criterion_1_smallest_full_space(thm2_n5_scan):
    elapsed, scanned, hits = thm2_n5_scan
    assert scanned == 1024
    # the only labeled graph on 5 vertices with no 2-degenerate cut
    assert hits == [complete(5)]
    g = hits[0]
    assert 10 * g.m == 27 * g.n - 35 == 100  # the bound is tight there
    assert elapsed < 1.0


def test_criterion_2_pruned_scans_clean(thm2_pruned_scans):
    elapsed, out = thm2_pruned_scans
    scanned6, hits6 = out[6]
    scanned7, hits7 = out[7]
    assert scanned6 == 76 and len(hits6) == 16
    assert scanned7 == 15_796 and len(hits7) == 792
    # the min-degree filter is sound: a vertex of degree <= 3 has a
    # neighborhood of at most 3 vertices, which is always a 2-degenerate
    # cut (or the graph is too small to matter), so no hypothesis hit on
    # 6 or 7 vertices is lost by scanning only min degree >= 4
    report = verify_theorem("thm2", 2, hits6 + hits7)
    assert report.hypothesis_hits == 808
    assert report.passed
    assert elapsed < 300


def test_criterion_3_cut_guarantee_n8():
    t0 = time.monotonic()
    # min degree >= 4 forces connectivity on 8 vertices: two components
    # would need at least 5 vertices each
    spec = EnumerationSpec(8, edge_range=(0, 20), min_degree=4)
    report = verify_theorem_exhaustive("thm3", 2, spec, jobs=1)
    elapsed = time.monotonic() - t0
    assert report.scanned == 4_434_542
    assert report.hypothesis_hits == report.scanned
    assert report.passed
    assert report.exhaustive
    assert elapsed < 3600

    # spot check the existence route against the constructive search
    sample = islice(
        (g for g in enumerate_labeled(spec) if evaluate("thm3", 2, g)[0]), 150
    )
    for g in sample:
        cert = find_min_degenerate_cut(g, 2)
        assert cert is not None
        assert cert.cut_degeneracy <= 2
        assert len(cert.cut) == len(minimum_cuts(g)[0].cut)


def test_criterion_4_ring_sharpness():
    t0 = time.monotonic()
    for k, s, g in ring_family():
        n = (k + 2) * s + 1
        assert g.n == n
        assert g.m == s * (k + 2) * (k + 1) // 2 + s * (k + 2) + (k + 2)
        # exactly one edge over the sparsity threshold
        assert 2 * g.m == (k + 3) * n + (k - 1) + 2
        cuts = minimum_cuts(g)
        assert len(cuts[0].cut) == k + 2
        assert [c.cut for c in cuts] == [tuple(range(k + 2))]
        assert not cuts[0].independent
        assert find_min_degenerate_cut(g, k) is None
    assert time.monotonic() - t0 < 300


def test_criterion_5_join_extremal():
    t0 = time.monotonic()
    for k, n, g in join_family():
        assert g.n == n
        assert g.m == (k + 2) * n - (k + 3) * (k + 2) // 2
        # complete search over all vertex subsets
        assert find_degenerate_cut(g, k) is None
    assert time.monotonic() - t0 < 600


def test_criterion_6_min_degree_zero_exceptions(thm2_n5_scan, thm2_pruned_scans):
    # every graph from criteria 1-5 known to have no k-degenerate cut must
    # have min degree >= k+2; criterion 3 contributes none (its scan proved
    # every hypothesis hit HAS a minimum 2-degenerate cut)
    _, _, hits5 = thm2_n5_scan
    _, out = thm2_pruned_scans
    k2_graphs = hits5 + out[6][1] + out[7][1]
    for g in k2_graphs:
        assert g.min_degree() >= 4  # k + 2 at k = 2
    report = verify_theorem("mindeg", 2, k2_graphs)
    assert report.hypothesis_hits == len(k2_graphs)
    assert report.passed
    for k, _, g in join_family():
        assert g.min_degree() >= k + 2  # criterion 5 shows no k-degenerate cut
    for k, _, g in ring_family():
        # rings have larger k-degenerate cuts, but the property is degree-only
        assert g.min_degree() == k + 2


def test_criterion_7b_bound_on_cutless_graphs(thm2_n5_scan, thm2_pruned_scans):
    # the full edge bound needs k >= 1, so the k=0 joins sit this one out
    _, _, hits5 = thm2_n5_scan
    _, out = thm2_pruned_scans
    for g in hits5 + out[6][1] + out[7][1]:
        assert bound_thm1(2, g.n, g.m)
    for k, n, g in join_family():
        if k >= 1:
            assert bound_thm1(k, n, g.m)


def test_criterion_7c_surd_vs_decimal():
    # near-threshold triples checked against the bound as the paper writes it,
    # 2m - (k - 1/38) n - (13 n / 190) sqrt(k) >= 0, evaluated to 50 digits.
    # A perfect-square k = r^2 with 380 | n puts an exact tie at
    # m = n (190k - 5 + 13r) / 380, where the bound holds with equality.
    rng = random.Random(0x7C)
    tie = Decimal("1e-30")
    ties = 0
    for _ in range(10_000):
        if rng.random() < 0.25:
            k = rng.randint(1, 44) ** 2
            n = 380 * rng.randint(0, 2600)
        else:
            k = rng.randint(1, 2000)
            n = rng.randint(0, 10**6)
        threshold = ((k - 1 / 38) * n + 13 * n / 190 * k**0.5) / 2
        m = max(0, round(threshold) + rng.randint(-3, 3))
        d = surd_decimal(
            2 * m - (k - Fraction(1, 38)) * n, -Fraction(13, 190) * n, k
        )
        if abs(d) <= tie:
            ties += 1
            assert bound_thm1(k, n, m)
        else:
            assert bound_thm1(k, n, m) is (d > 0)
    assert ties > 0


def test_criterion_8_connectivity_oracle_and_core_order():
    fixtures = (
        [(cycle(n), 2) for n in range(3, 9)]
        + [(complete(n), n - 1) for n in range(2, 9)]
        + [
            (complete_bipartite(a, b), min(a, b))
            for a, b in ((1, 3), (2, 2), (2, 5), (3, 3), (3, 4), (2, 7))
        ]
        + [(petersen(), 3)]
    )
    for g, want in fixtures:
        assert vertex_connectivity(g) == want == brute_vertex_connectivity(g)

    rng = random.Random(0x8A)
    for g in random_graph_stream(10_000, 2, 7, seed=0x8B):
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)

    for g in random_graph_stream(1000, 1, 8, seed=0x8C):
        k = rng.randint(0, 4)
        core = frozenset(max_k_core(g, k).core)
        order = list(range(g.n))
        rng.shuffle(order)
        assert peel_with_order(g, k, order) == core


def test_criterion_9_sparse_graphs_have_independent_cuts():
    t0 = time.monotonic()
    expected_totals = {2: 1, 3: 7, 4: 57, 5: 848, 6: 22_819, 7: 1_048_576}
    for n in range(2, 8):
        total = 0
        for g in enumerate_labeled(EnumerationSpec(n, edge_range=(0, 2 * n - 4))):
            total += 1
            cert = find_degenerate_cut(g, 0)
            assert cert is not None, to_graph6(g)
            assert cert.independent
        assert total == expected_totals[n]
    # independent cross-check of the search on the small orders
    for n in range(2, 6):
        for g in enumerate_labeled(EnumerationSpec(n, edge_range=(0, 2 * n - 4))):
            assert has_independent_cut(g)
    assert time.monotonic() - t0 < 300


def test_criterion_10_graph6_round_trip():
    for s in ("A?", "A_", "Bw"):
        assert to_graph6(parse_graph6(s)) == s
    assert parse_graph6("A_").m == 1
    assert parse_graph6("A?").m == 0
    assert parse_graph6("Bw") == complete(3)

    rng = random.Random(0xA0)
    for _ in range(10_000):
        n = rng.randint(0, 62)
        g = random_graph(n, rng, rng.random())
        assert parse_graph6(to_graph6(g)) == g
