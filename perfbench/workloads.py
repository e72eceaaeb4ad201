"""The benchmark's four workloads: their inputs, operations and checks.

Each workload builds a list of operations from a seed. An operation is one
exhaustive scan, one CLI command on one graph6 line, or one isomorph-free
stream. `run` calls degencut through its public functions (or
`degencut.cli.main`), always by module attribute at call time, so that a
traced run sees its wrappers. `check` judges the output against checks.py,
which shares no code with degencut, and returns None or the reason it
rejects the output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count
from pathlib import Path
from typing import Any, Callable

import checks


class OperationFailed(RuntimeError):
    """The operation ended in an error (a CLI command exited 1)."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    graphs: Callable[[Any], int]  # input graphs handled, from the output


# --- scans ---


def _scan(dc, which: str, k: int, spec_kwargs: dict) -> dict:
    report = dc.verify_theorem_exhaustive(
        which, k, dc.EnumerationSpec(**spec_kwargs), jobs=1
    )
    return {
        "passed": report.passed,
        "violations": len(report.violations),
        "scanned": report.scanned,
        "hits": report.hypothesis_hits,
    }


def _scan_op(dc, label, which, k, spec_kwargs, judge) -> Op:
    def check(out: dict) -> str | None:
        if not out["passed"] or out["violations"]:
            return f"{label}: report lists {out['violations']} violations"
        return judge(out)

    return Op(
        label,
        lambda: _scan(dc, which, k, spec_kwargs),
        check,
        lambda out: out["scanned"],
    )


def _random_member(rng: random.Random, n: int, min_deg: int, max_edges: int):
    """Edges of a random graph with minimum degree >= min_deg and at most
    max_edges edges: the complement of a random maximal graph of maximum
    degree n-1-min_deg, redrawn until it has enough edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    cap = n - 1 - min_deg
    while True:
        rng.shuffle(pairs)
        deg = [0] * n
        missing = set()
        for u, v in pairs:
            if deg[u] < cap and deg[v] < cap:
                deg[u] += 1
                deg[v] += 1
                missing.add((u, v))
        if len(pairs) - len(missing) <= max_edges:
            return sorted(p for p in pairs if p not in missing)


N8_SAMPLE = 12  # graphs of the scanned space re-checked with networkx


def build_scan_n8_sparse(dc, seed: int, short: bool, workdir: Path) -> list[Op]:
    # min degree 4 on 8 vertices forces connectivity, and 2m <= 2*17 < 5n+1,
    # so every graph of the space meets the thm3 hypothesis
    n, k, min_deg, cap = (8, 2, 5, 20) if short else (8, 2, 4, 17)
    spec = {"n": n, "edge_range": (0, cap), "min_degree": min_deg}
    expected = checks.count_min_degree(n, min_deg, cap)

    @lru_cache(maxsize=None)
    def sample_reason() -> str | None:
        rng = random.Random(seed)
        for _ in range(N8_SAMPLE):
            edges = _random_member(rng, n, min_deg, cap)
            if not checks.has_min_degenerate_cut(checks.nx_graph(n, edges), k):
                return f"networkx finds no {k}-degenerate minimum cut in {edges}"
        return None

    def judge(out: dict) -> str | None:
        if out["scanned"] != expected:
            return f"scanned {out['scanned']}, the space has {expected} graphs"
        if out["hits"] != out["scanned"]:
            return f"hypothesis hits {out['hits']} != scanned {out['scanned']}"
        return sample_reason()

    return [_scan_op(dc, f"thm3 k={k} {spec}", "thm3", k, spec, judge)]


# label, target, k, EnumerationSpec fields, independent size, space, min order
CUTLESS_SCANS = (
    ("thm2_n5_full", "thm2", 2, {"n": 5}, lambda: 2**10, lambda: checks.space_all(5), 5),
    (
        "thm2_n6_mindeg4",
        "thm2",
        2,
        {"n": 6, "min_degree": 4},
        lambda: checks.count_min_degree(6, 4),
        lambda: checks.space_min_degree(6, 4),
        5,
    ),
    (
        "thm2_n7_mindeg4",
        "thm2",
        2,
        {"n": 7, "min_degree": 4},
        lambda: checks.count_min_degree(7, 4),
        lambda: checks.space_min_degree(7, 4),
        5,
    ),
    ("mindeg_k2_n5_full", "mindeg", 2, {"n": 5}, lambda: 2**10, lambda: checks.space_all(5), 4),
    ("mindeg_k3_n6_full", "mindeg", 3, {"n": 6}, lambda: 2**15, lambda: checks.space_all(6), 5),
    (
        "indep_cut_k0_n6_sparse",
        "mindeg",
        0,
        {"n": 6, "edge_range": (0, 8)},
        lambda: checks.count_by_edges(6, 8),
        lambda: checks.space_all(6, 8),
        2,
    ),
)
CUTLESS_SHORT = ("thm2_n5_full", "thm2_n6_mindeg4", "mindeg_k2_n5_full")


def build_scan_cutless_small(dc, seed: int, short: bool, workdir: Path) -> list[Op]:
    ops = []
    for label, which, k, spec, size, space, min_order in CUTLESS_SCANS:
        if short and label not in CUTLESS_SHORT:
            continue

        @lru_cache(maxsize=None)
        def oracle(k=k, size=size, space=space, min_order=min_order):
            graphs = list(space())
            hits = checks.count_without_degenerate_cut(graphs, k, min_order)
            return size(), len(graphs), hits

        def judge(out: dict, label=label, oracle=oracle) -> str | None:
            expected, listed, hits = oracle()
            if listed != expected:
                return f"{label}: oracle space has {listed} graphs, closed form {expected}"
            if out["scanned"] != expected:
                return f"{label}: scanned {out['scanned']}, the space has {expected}"
            if out["hits"] != hits:
                return f"{label}: hypothesis hits {out['hits']}, brute force finds {hits}"
            return None

        ops.append(_scan_op(dc, label, which, k, spec, judge))
    return ops


# --- CLI on large graphs ---


def _cli(dc, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dc.cli.main(argv)
    if code == 1:
        raise OperationFailed(f"exit 1: {err.getvalue().strip()}")
    return code, out.getvalue()


def _gnp_with_min_degree(rng: random.Random, n: int, p: float, min_deg: int):
    """G(n, p) edges, redrawn until the minimum degree is exactly min_deg.

    kappa equals the minimum degree on these graphs, and the flow work grows
    with it, so fixing it keeps the work of a seed close to that of any other.
    """
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if min(deg) == min_deg:
            return edges


def _ring(k: int, s: int, perms) -> tuple[int, list[tuple[int, int]]]:
    """s cliques K_{k+2} in a cycle, clique i's vertex j matched to vertex
    perms[i][j] of clique i+1, and an apex (the last vertex) over clique 0."""
    size = k + 2
    edges = []
    for i in range(s):
        base, nxt = i * size, (i + 1) % s * size
        edges += [(base + a, base + b) for a, b in combinations(range(size), 2)]
        edges += [(base + j, nxt + perms[i][j]) for j in range(size)]
    apex = s * size
    edges += [(j, apex) for j in range(size)]
    return apex + 1, edges


def _join(k: int, n: int) -> list[tuple[int, int]]:
    """K_{k+2} on 0..k+1 joined to an independent set on the rest."""
    return [(u, v) for u in range(k + 2) for v in range(u + 1, n)]


def _json_line(text: str) -> dict:
    lines = text.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one output line, got {len(lines)}")
    return json.loads(lines[0])


def _components(g, cut) -> list[list[int]]:
    import networkx as nx

    rest = g.subgraph(set(g) - set(cut))
    return sorted(sorted(c) for c in nx.connected_components(rest))


def _certificate_reason(g, cert: dict, k: int, kappa: int | None) -> str | None:
    """Re-check a cut certificate with networkx alone."""
    import networkx as nx

    cut = cert["cut"]
    if not checks.separates(g, cut):
        return f"{cut} does not disconnect the graph"
    if kappa is not None and len(cut) != kappa:
        return f"cut {cut} has size {len(cut)}, kappa is {kappa}"
    if sorted(cert["components"]) != _components(g, cut):
        return f"components of G - {cut} differ"
    induced = g.subgraph(cut)
    degen = checks.max_core(induced)
    if cert["cut_degeneracy"] != degen or degen > k:
        return f"cut {cut} has degeneracy {degen}, certificate says {cert['cut_degeneracy']}"
    if cert["independent"] != (induced.number_of_edges() == 0):
        return f"independent flag wrong for {cut}"
    if cert["forest"] != nx.is_forest(induced):
        return f"forest flag wrong for {cut}"
    if cert["bipartite"] != nx.is_bipartite(induced):
        return f"bipartite flag wrong for {cut}"
    return None


# (n, minimum degree) of the G(n, .3) inputs: the most frequent minimum degree
GNP = ((100, 19), (125, 24), (150, 31))
GNP_SHORT = ((24, 3),)
# (k, s, random matchings) for `min-cuts`, `find-cut --minimum --k k`, and
# `find-cut --minimum --k k+1` (which finds clique 0)
RINGS_MIN_CUTS = ((2, 7, False), (2, 7, True), (3, 5, True), (3, 6, False))
RINGS_NONE = ((2, 6, True), (3, 5, False), (3, 6, True))
RINGS_FOUND = ((2, 7, True),)
# (k, n) for `find-cut --k k` (none) and `find-cut --k k+1` (found)
JOINS_NONE = ((2, 14), (3, 14), (2, 12))
JOINS_FOUND = ((2, 13),)
# `construct` commands, compared with the graph6 of `_ring` and `_join`
CONSTRUCT = (("ring", 2, 7), ("ring", 3, 6), ("join", 3, 14))
SHORT_RINGS = ((2, 3, True),)
SHORT_JOINS = ((2, 8),)
SHORT_CONSTRUCT = (("ring", 2, 3), ("join", 2, 8))


def build_cli_large_graphs(dc, seed: int, short: bool, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    counter = count()

    def graph_file(n: int, edges) -> str:
        path = workdir / f"g{next(counter)}.g6"
        path.write_text(checks.graph6(n, edges) + "\n")
        return str(path)

    def add(label: str, argv: list[str], check) -> None:
        ops.append(Op(label, lambda: _cli(dc, argv), check, lambda out: 1))

    def ring_input(k: int, s: int, shuffled: bool):
        perms = []
        for _ in range(s):
            p = list(range(k + 2))
            if shuffled:
                rng.shuffle(p)
            perms.append(p)
        n, edges = _ring(k, s, perms)
        return n, edges, graph_file(n, edges)

    for n, min_deg in GNP_SHORT if short else GNP:
        edges = _gnp_with_min_degree(rng, n, 0.3, min_deg)
        path = graph_file(n, edges)

        def check(out, n=n, edges=edges) -> str | None:
            code, text = out
            got = _json_line(text)
            g = checks.nx_graph(n, edges)
            want = {
                "n": n,
                "m": len(edges),
                "min_degree": min(d for _, d in g.degree()),
                "degeneracy": checks.max_core(g),
                "kappa": checks.vertex_connectivity(n, edges),
            }
            return None if code == 0 and got == want else f"analyze gave {got}, expected {want}"

        add(f"analyze G({n}, .3)", ["analyze", "--input", path], check)

    for k, s, shuffled in SHORT_RINGS if short else RINGS_MIN_CUTS:
        n, edges, path = ring_input(k, s, shuffled)

        def check(out, n=n, edges=edges, k=k) -> str | None:
            import networkx as nx

            code, text = out
            got = _json_line(text)
            g = checks.nx_graph(n, edges)
            kappa = nx.node_connectivity(g)
            clique0 = list(range(k + 2))
            cuts = [sorted(c) for c in nx.all_node_cuts(g)]
            if cuts != [clique0]:
                return f"networkx finds minimum cuts {cuts}, not only clique 0"
            if code != 0 or got["kappa"] != kappa or got["count"] != 1:
                return (
                    f"min-cuts gave kappa {got['kappa']} count {got['count']}, "
                    f"expected {kappa}, 1"
                )
            if [c["cut"] for c in got["cuts"]] != [clique0]:
                return f"min-cuts gave {[c['cut'] for c in got['cuts']]}, expected clique 0"
            return _certificate_reason(g, got["cuts"][0], k + 1, kappa)

        add(f"min-cuts ring({k}, {s})", ["min-cuts", "--input", path], check)

    for k, s, shuffled in SHORT_RINGS if short else RINGS_NONE:
        n, edges, path = ring_input(k, s, shuffled)

        def check(out, n=n, edges=edges, k=k) -> str | None:
            import networkx as nx

            code, text = out
            g = checks.nx_graph(n, edges)
            tame = [c for c in nx.all_node_cuts(g) if checks.induced_degeneracy(g, c) <= k]
            if tame:
                return f"networkx finds {k}-degenerate minimum cuts {tame}"
            return None if (code, _json_line(text)) == (2, {"found": False}) else f"gave {out}"

        add(
            f"find-cut --minimum --k {k} ring({k}, {s})",
            ["find-cut", "--minimum", "--k", str(k), "--input", path],
            check,
        )

    for k, s, shuffled in () if short else RINGS_FOUND:
        n, edges, path = ring_input(k, s, shuffled)

        def check(out, n=n, edges=edges, k=k) -> str | None:
            import networkx as nx

            code, text = out
            got = _json_line(text)
            if code != 0 or not got.get("found"):
                return f"gave {out}"
            g = checks.nx_graph(n, edges)
            return _certificate_reason(g, got, k + 1, nx.node_connectivity(g))

        add(
            f"find-cut --minimum --k {k + 1} ring({k}, {s})",
            ["find-cut", "--minimum", "--k", str(k + 1), "--input", path],
            check,
        )

    for k, n in SHORT_JOINS if short else JOINS_NONE:
        edges = _join(k, n)
        path = graph_file(n, edges)

        def check(out, n=n, edges=edges, k=k) -> str | None:
            # k+2 universal vertices lie in every cut and induce K_{k+2},
            # which is not k-degenerate, so no cut is
            g = checks.nx_graph(n, edges)
            universal = [v for v, d in g.degree() if d == n - 1]
            if len(universal) < k + 2:
                return f"only {len(universal)} universal vertices"
            code, text = out
            return None if (code, _json_line(text)) == (2, {"found": False}) else f"gave {out}"

        add(f"find-cut --k {k} join({k}, {n})", ["find-cut", "--k", str(k), "--input", path], check)

    for k, n in SHORT_JOINS if short else JOINS_FOUND:
        edges = _join(k, n)
        path = graph_file(n, edges)

        def check(out, n=n, edges=edges, k=k) -> str | None:
            code, text = out
            got = _json_line(text)
            if code != 0 or not got.get("found"):
                return f"gave {out}"
            return _certificate_reason(checks.nx_graph(n, edges), got, k + 1, None)

        add(
            f"find-cut --k {k + 1} join({k}, {n})",
            ["find-cut", "--k", str(k + 1), "--input", path],
            check,
        )

    for family, k, size in SHORT_CONSTRUCT if short else CONSTRUCT:
        if family == "ring":
            n, edges = _ring(k, size, [list(range(k + 2))] * size)
            argv = ["construct", "ring", "--k", str(k), "--s", str(size)]
        else:
            n, edges = size, _join(k, size)
            argv = ["construct", "join", "--k", str(k), "--n", str(size)]
        want = checks.graph6(n, edges) + "\n"

        def check(out, want=want) -> str | None:
            return None if out == (0, want) else f"gave {out}, expected {(0, want)}"

        add(" ".join(argv), argv, check)
    return ops


# --- isomorph-free stream ---


def build_isofree_n7(dc, seed: int, short: bool, workdir: Path) -> list[Op]:
    n, min_deg = (5, 3) if short else (7, 5)
    # minimum degree n-2: the complements of the space are the matchings of K_n
    labeled = checks.count_matchings(n)

    def run() -> list[tuple[int, ...]]:
        spec = dc.EnumerationSpec(n, min_degree=min_deg, iso_reject=True)
        return [g.rows for g in dc.enumerate_labeled(spec)]

    def check(classes) -> str | None:
        import networkx as nx

        pairs = list(combinations(range(n), 2))
        graphs = [
            checks.nx_graph(n, [(u, v) for u, v in pairs if rows[u] >> v & 1])
            for rows in classes
        ]
        for g in graphs:
            if min(d for _, d in g.degree()) < min_deg:
                return f"class {sorted(g.edges())} has a vertex of degree < {min_deg}"
        for a, b in combinations(range(len(graphs)), 2):
            if nx.is_isomorphic(graphs[a], graphs[b]):
                return f"classes {a} and {b} are isomorphic"
        orbits = sum(math.factorial(n) // checks.automorphisms(g) for g in graphs)
        if orbits != labeled:
            return f"classes cover {orbits} labeled graphs, the space has {labeled}"
        return None

    return [Op(f"iso-free n={n} min degree {min_deg}", run, check, lambda out: labeled)]


# name -> build(degencut, seed, short, workdir) -> operations; the order and
# the reasons for each are in BENCHMARK.json
WORKLOADS = {
    "scan_n8_sparse": build_scan_n8_sparse,
    "scan_cutless_small": build_scan_cutless_small,
    "cli_large_graphs": build_cli_large_graphs,
    "isofree_n7": build_isofree_n7,
}
