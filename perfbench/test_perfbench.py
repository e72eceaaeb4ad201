"""Tests of the benchmark itself.

Every workload runs end to end on tiny inputs (`--short`), traced and
untraced. Every correctness check accepts degencut's real answer and rejects
a wrong one, and the independent routines in checks.py agree with networkx
or with direct counts.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_short_run_reports_every_metric(workload, trace):
    p = run_bench(
        ROOT, "--short", "--workload", workload, "--seed", "5",
        "--seconds", "0.2", "--trace", str(trace),
    )
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, p.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        p = run_bench(
            ROOT, "--short", "--workload", "cli_large_graphs", "--seed", "7",
            "--seconds", "0.2", "--trace", "1",
        )
        metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["cut_search.candidates"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    p = run_bench(
        tmp_path, "--workload", "scan_n8_sparse", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""


# --- each check rejects a wrong answer ---


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    """(ops, real outputs) of every workload's short inputs, run in-process."""
    import degencut
    import degencut.cli  # noqa: F401

    out = {}
    for name, build in workloads.WORKLOADS.items():
        ops = build(degencut, 5, True, tmp_path_factory.mktemp(name))
        out[name] = (ops, [op.run() for op in ops])
    return out


def test_real_answers_pass(answers):
    for name, (ops, outs) in answers.items():
        for op, out in zip(ops, outs):
            assert op.check(out) is None, (name, op.label)


def rejects(op, out) -> bool:
    try:
        return op.check(out) is not None
    except (KeyError, ValueError, TypeError, IndexError):
        return True


def test_scan_checks_reject_wrong_counts(answers):
    for name in ("scan_n8_sparse", "scan_cutless_small"):
        ops, outs = answers[name]
        for op, out in zip(ops, outs):
            assert rejects(op, {**out, "scanned": out["scanned"] + 1})
            assert rejects(op, {**out, "hits": out["hits"] + 1})
            assert rejects(op, {**out, "passed": False, "violations": 1})


def _cli(answers, prefix):
    ops, outs = answers["cli_large_graphs"]
    found = [(op, out) for op, out in zip(ops, outs) if op.label.startswith(prefix)]
    assert found, prefix
    return found


def _edited(out, **changes):
    code, text = out
    return code, json.dumps({**json.loads(text), **changes}) + "\n"


def test_analyze_check_rejects_wrong_kappa_and_degeneracy(answers):
    for op, out in _cli(answers, "analyze"):
        got = json.loads(out[1])
        assert rejects(op, _edited(out, kappa=got["kappa"] + 1))
        assert rejects(op, _edited(out, kappa=got["kappa"] - 1))
        assert rejects(op, _edited(out, degeneracy=got["degeneracy"] + 1))
        assert rejects(op, _edited(out, m=got["m"] - 1))


def test_min_cuts_check_rejects_wrong_cuts(answers):
    for op, out in _cli(answers, "min-cuts"):
        got = json.loads(out[1])
        assert rejects(op, _edited(out, kappa=got["kappa"] - 1))
        assert rejects(op, _edited(out, count=2, cuts=got["cuts"] * 2))
        bad = dict(got["cuts"][0], cut=got["cuts"][0]["cut"][1:] + [got["cuts"][0]["cut"][-1] + 1])
        assert rejects(op, _edited(out, cuts=[bad]))
        bad = dict(got["cuts"][0], cut_degeneracy=0)
        assert rejects(op, _edited(out, cuts=[bad]))


def test_find_cut_checks_reject_wrong_verdicts(answers):
    for op, out in _cli(answers, "find-cut --minimum"):
        assert out[0] == 2
        assert rejects(op, (0, out[1]))
        assert rejects(op, (2, json.dumps({"found": True}) + "\n"))
    none_ops = [(op, out) for op, out in _cli(answers, "find-cut --k") if out[0] == 2]
    found_ops = [(op, out) for op, out in _cli(answers, "find-cut --k") if out[0] == 0]
    assert none_ops and found_ops
    for op, out in none_ops:
        assert rejects(op, (0, out[1]))
    for op, out in found_ops:
        cert = json.loads(out[1])
        assert rejects(op, (2, out[1]))
        assert rejects(op, _edited(out, cut=cert["cut"][:-1]))
        assert rejects(op, _edited(out, cut_degeneracy=cert["cut_degeneracy"] + 1))
        assert rejects(op, _edited(out, components=cert["components"][:-1]))


def test_construct_check_rejects_another_graph(answers):
    for op, out in _cli(answers, "construct"):
        code, text = out
        assert rejects(op, (code, text[:-2] + chr(ord(text[-2]) ^ 1) + "\n"))


def test_isofree_check_rejects_missing_or_repeated_classes(answers):
    (op,), (classes,) = answers["isofree_n7"]
    assert rejects(op, classes[:-1])
    assert rejects(op, classes + classes[:1])
    n = len(classes[0])
    swapped = []  # the last class relabeled by swapping vertices 0 and 1
    for v in (1, 0, *range(2, n)):
        row = classes[-1][v]
        bit0, bit1 = row & 1, row >> 1 & 1
        swapped.append(row & ~3 | bit0 << 1 | bit1)
    assert rejects(op, classes + [tuple(swapped)])
    edgeless = (0,) * n  # every vertex below the minimum degree
    assert rejects(op, classes[:-1] + [edgeless])


# --- the independent routines ---


def test_counts_match_direct_enumeration():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for max_deg in range(n):
            for floor in (0, 2, 4):
                direct = 0
                for code in range(1 << len(pairs)):
                    chosen = [p for i, p in enumerate(pairs) if code >> i & 1]
                    deg = [0] * n
                    for u, v in chosen:
                        deg[u] += 1
                        deg[v] += 1
                    direct += max(deg, default=0) <= max_deg and len(chosen) >= floor
                assert checks.count_max_degree(n, max_deg, floor) == direct
    assert checks.count_matchings(7) == 232 == checks.count_min_degree(7, 5)
    assert len(list(checks.space_min_degree(6, 4))) == 76
    assert len(list(checks.space_all(6, 8))) == checks.count_by_edges(6, 8) == 22819


def test_flow_connectivity_matches_networkx():
    import networkx as nx

    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 22)
        p = rng.choice((0.2, 0.4, 0.7, 1.0))
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        want = nx.node_connectivity(checks.nx_graph(n, edges))
        if len(edges) == n * (n - 1) // 2:
            want = n - 1
        assert checks.vertex_connectivity(n, edges) == want


def test_brute_force_cut_oracle_on_known_graphs():
    k5 = checks.rows_of(5, combinations(range(5), 2))
    assert not checks.has_degenerate_cut(k5, 4)
    c5 = checks.rows_of(5, [(i, (i + 1) % 5) for i in range(5)])
    assert checks.has_degenerate_cut(c5, 0)  # {0, 2} is independent
    star_path = checks.rows_of(3, [(0, 1), (1, 2)])
    assert checks.has_degenerate_cut(star_path, 0)
    triangle = checks.rows_of(3, [(0, 1), (1, 2), (0, 2)])
    assert not checks.has_degenerate_cut(triangle, 5)


def test_graph6_encoder_matches_networkx():
    import networkx as nx

    rng = random.Random(3)
    for n in (0, 1, 2, 7, 63, 70):
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.3]
        text = checks.graph6(n, edges)
        back = nx.from_graph6_bytes(text.encode())
        assert sorted(back.nodes()) == list(range(n))
        assert sorted(tuple(sorted(e)) for e in back.edges()) == sorted(edges)
