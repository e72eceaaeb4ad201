"""Verification layer: exact bound predicates, report aggregation, dedup,
and the parallel scan agreeing with the sequential one."""

import random
import subprocess
import sys

import pytest

from degencut import (
    EnumerationSpec,
    bound_thm1,
    bound_thm2,
    canonical_graph,
    check_min_degree,
    complete,
    cycle,
    enumerate_labeled,
    from_edges,
    hyp_thm3,
    join_extremal,
    random_graph,
    ring_of_cliques,
    to_graph6,
    verify_theorem,
    verify_theorem_exhaustive,
)
from degencut.verify import _validate_which_k, evaluate

from conftest import random_graph_stream


# ---------------------------------------------------------------- bounds


def test_bound_thm1_examples():
    # K_8 at k=6: 2m = 56, rhs = (6 - 1/38)*8 + (13*8/190)sqrt(6) < 49.3
    assert bound_thm1(6, 8, 28)
    # C_5 at k=1: 2m = 10, rhs ~ 4.9 + 0.34*sqrt(1)
    assert bound_thm1(1, 5, 5)
    # sparse graph fails: 2m = 10 vs rhs ~ 19.5 + ... at k=2, n=10
    assert not bound_thm1(2, 10, 5)


def test_bound_thm1_exact_boundary():
    # with n = 190*38 both terms clear the denominators: (2 - 1/38) n = 14250
    # and 13 n / 190 = 494, so at k = 2 the bound reads 2m >= 14250 + 494 sqrt(2)
    n = 190 * 38
    lo = 7474  # 2*7474 = 14948 < 14250 + 494*sqrt(2) ~ 14948.62
    hi = 7475
    assert not bound_thm1(2, n, lo)
    assert bound_thm1(2, n, hi)
    # a tie at a perfect square, k = 4 and n = 380: 380m - 190kn + 5n =
    # 380m - 286900 meets 13 n sqrt(4) = 9880 exactly at m = 781, and
    # equality counts as the bound holding
    assert bound_thm1(4, 380, 781)
    assert not bound_thm1(4, 380, 780)


def test_bound_thm1_refuses_bad_arguments():
    with pytest.raises(ValueError, match="k must be positive"):
        bound_thm1(0, 5, 10)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        bound_thm1(2, -5, 0)


def test_minimum_degree_crossover_for_thm1():
    # 2m >= (k+2)n suffices for the bound exactly while
    # k + 2 >= k - 1/38 + (13/190)sqrt(k), i.e. sqrt(k) <= 385/13.
    # 877 < (385/13)^2 = 877.07... < 878
    n = 2 * 190 * 38
    for k, expect in ((877, True), (878, False)):
        assert bound_thm1(k, n, (k + 2) * n // 2) is expect


def test_bound_thm2_examples():
    assert bound_thm2(5, 10)  # K_5: 100 >= 100, tight
    assert not bound_thm2(5, 9)
    assert bound_thm2(7, 17)  # 170 >= 154
    assert not bound_thm2(8, 18)  # 180 < 181


def test_hyp_thm3_examples():
    # ring construction exceeds the threshold by exactly one edge
    g = ring_of_cliques(2, 3, 0)
    k = 2
    assert 2 * g.m == (k + 3) * g.n + (k - 1) + 2
    assert not hyp_thm3(k, g.n, g.m)
    assert hyp_thm3(k, g.n, g.m - 1)
    assert hyp_thm3(2, 8, 20)  # 40 <= 41
    assert not hyp_thm3(2, 8, 21)
    with pytest.raises(ValueError):
        hyp_thm3(1, 8, 10)  # thm3 needs k >= 2


def test_check_min_degree():
    # the conclusion being tested is min degree >= k + 2
    assert check_min_degree(complete(5), 2)
    assert not check_min_degree(complete(5), 3)
    assert check_min_degree(cycle(4), 0)
    assert not check_min_degree(cycle(4), 1)
    assert check_min_degree(ring_of_cliques(2, 3, 0), 2)
    assert check_min_degree(join_extremal(1, 6), 1)


# ---------------------------------------------------------------- evaluate


def test_evaluate_thm1_on_complete_graph():
    hyp, reason = evaluate("thm1", 1, complete(4))
    assert hyp and reason is None  # n=4 >= 2k+2, no 1-degenerate cut, bound ok


def test_evaluate_small_n_short_circuits():
    hyp, reason = evaluate("thm1", 3, complete(4))  # n < 2k+2
    assert not hyp and reason is None
    hyp, reason = evaluate("thm2", 2, complete(4))  # n < 5
    assert not hyp and reason is None
    assert evaluate("mindeg", 3, complete(4)) == (False, None)  # n < k+2
    assert evaluate("thm3", 2, cycle(7)) == (False, None)  # n < k+6
    with pytest.raises(ValueError):
        evaluate("thm9", 2, complete(4))


def test_evaluate_mindeg_counterexample():
    # K_4 has no 2-degenerate cut (no cuts at all) but min degree 3 < k+2
    hyp, reason = evaluate("mindeg", 2, complete(4))
    assert hyp
    assert reason == "minimum degree 3 < k+2=4"


def test_validate_which_k():
    _validate_which_k("thm2", 2)
    with pytest.raises(ValueError):
        _validate_which_k("thm2", 3)
    with pytest.raises(ValueError):
        _validate_which_k("thm3", 1)
    with pytest.raises(ValueError):
        _validate_which_k("thm1", 0)
    with pytest.raises(ValueError):
        _validate_which_k("mindeg", -1)
    with pytest.raises(ValueError):
        _validate_which_k("thm9", 2)


# ---------------------------------------------------------------- reports


def test_verify_thm2_full_n5_stream():
    report = verify_theorem("thm2", 2, enumerate_labeled(EnumerationSpec(5)))
    assert report.scanned == 1024
    assert report.hypothesis_hits == 1
    assert report.passed
    assert not report.exhaustive
    d = report.to_json_dict()
    assert set(d) == {
        "theorem",
        "k",
        "scanned",
        "hypothesis_hits",
        "violations",
        "exhaustive",
        "seconds",
    }
    assert d["violations"] == []


def test_verify_thm2_only_hit_is_k5():
    hits = [
        g
        for g in enumerate_labeled(EnumerationSpec(5))
        if evaluate("thm2", 2, g)[0]
    ]
    assert hits == [complete(5)]


def test_verify_thm3_vacuous_on_ring():
    g = ring_of_cliques(2, 3, 0)
    report = verify_theorem("thm3", 2, [g])
    assert report.scanned == 1 and report.hypothesis_hits == 0
    assert report.passed


def test_verify_mindeg_on_join():
    report = verify_theorem("mindeg", 1, [join_extremal(1, 6)])
    assert report.hypothesis_hits == 1
    assert report.passed


def test_verify_mindeg_violation_is_replayable():
    report = verify_theorem("mindeg", 2, [complete(4)])
    assert not report.passed
    (v,) = report.violations
    assert v.graph6 == "C~"
    # the violation must reproduce in a fresh process from the graph6 alone
    code = (
        "from degencut import parse_graph6\n"
        "from degencut.verify import evaluate\n"
        f"hyp, reason = evaluate('mindeg', 2, parse_graph6({v.graph6!r}))\n"
        "assert hyp and reason is not None\n"
        "print(reason)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert out.stdout.strip() == v.reason


def test_verify_dedups_repeated_violations():
    # the same counterexample presented twice is recorded once
    a = complete(4)
    b = from_edges(4, [(3, 2), (3, 1), (3, 0), (2, 1), (2, 0), (1, 0)])
    report = verify_theorem("mindeg", 2, [a, b])
    assert report.scanned == 2
    assert report.hypothesis_hits == 2
    assert len(report.violations) == 1


def test_verify_dedups_violations_past_eight_vertices(monkeypatch):
    # every graph reported as a violation: two labelings of one 9-vertex
    # graph must collapse to one record, keyed by the canonical graph6
    import degencut.verify as verify

    monkeypatch.setattr(verify, "evaluate", lambda which, k, g: (True, "forced"))
    rng = random.Random(9)
    g = random_graph(9, rng, 0.5)
    perm = list(range(9))
    rng.shuffle(perm)
    h = from_edges(9, [(perm[u], perm[v]) for u, v in g.edges()])
    assert g != h
    report = verify_theorem("thm2", 2, [g, h])
    assert report.hypothesis_hits == 2
    assert [v.graph6 for v in report.violations] == [to_graph6(canonical_graph(g))]


def test_exhaustive_merge_keeps_one_violation_per_class(monkeypatch):
    # every graph reported as a violation: the 64 labeled graphs on 4
    # vertices fall into 11 isomorphism classes, each recorded once
    import degencut.verify as verify

    monkeypatch.setattr(verify, "evaluate", lambda which, k, g: (True, "forced"))
    graphs = enumerate_labeled(EnumerationSpec(4))
    classes = sorted({to_graph6(canonical_graph(g)) for g in graphs})
    assert len(classes) == 11
    for spec, scanned in (
        (EnumerationSpec(4), 64),
        (EnumerationSpec(4, iso_reject=True), 11),
    ):
        report = verify_theorem_exhaustive("thm2", 2, spec, jobs=1)
        assert report.exhaustive
        assert (report.scanned, report.hypothesis_hits) == (scanned, scanned)
        assert [v.graph6 for v in report.violations] == classes
        assert {v.reason for v in report.violations} == {"forced"}


def test_exhaustive_scan_matches_across_jobs():
    spec = EnumerationSpec(5)
    seq = verify_theorem_exhaustive("thm2", 2, spec, jobs=1)
    par = verify_theorem_exhaustive("thm2", 2, spec, jobs=3)
    a, b = seq.to_json_dict(), par.to_json_dict()
    a.pop("seconds"), b.pop("seconds")
    assert a == b
    assert seq.exhaustive and seq.passed


def test_exhaustive_flag_requires_enumeration_spec():
    report = verify_theorem_exhaustive(
        "mindeg", 0, EnumerationSpec(4, connected_only=True), jobs=2
    )
    assert report.scanned == 38
    # hits are the connected 4-vertex graphs with no independent cut (K_4
    # and the diamond among the isomorphism classes); both have min degree 2
    assert report.passed
    assert report.hypothesis_hits > 0


def test_random_stream_verify_smoke():
    graphs = list(random_graph_stream(80, 4, 8, seed=7))
    report = verify_theorem("thm2", 2, graphs)
    assert report.scanned == 80
    assert report.passed


def test_violations_sorted_and_stable():
    gs = [complete(4), complete(3), complete(4)]
    report = verify_theorem("mindeg", 2, gs)
    keys = [(v.graph6, v.reason) for v in report.violations]
    assert keys == sorted(keys)
    assert all(v.graph6 in (to_graph6(complete(3)), to_graph6(complete(4))) for v in report.violations)
