"""Desk-scale verification of the edge-count bounds and cut guarantees.

Four built-in targets, each of the shape hypothesis => conclusion:

  thm1    order >= 2k+2 and no k-degenerate cut
            => 2m >= (k - 1/38) n + (13 n / 190) sqrt(k),
               tested as 380m - 190kn + 5n >= 13 n sqrt(k) in integers
  thm2    order >= 5 and no 2-degenerate cut  =>  10m >= 27n - 35
  thm3    connected, order >= k+6, 2m <= (k+3) n + (k-1)
            => some minimum cut is k-degenerate
  mindeg  order >= k+2 and no k-degenerate cut  =>  minimum degree >= k+2

A report counts every graph scanned, counts hypothesis hits, and records each
conclusion failure as (graph6, reason). Violations are deduplicated by
canonical form (labeled streams hit an isomorphism class many times) and the
stored graph6 string is the canonical representative, so any recorded
violation can be re-verified from the string alone. All bound
comparisons are exact and use integers only.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial

from .connectivity import is_connected
from .cut_search import exists_min_degenerate_cut, has_degenerate_cut
from .enumeration import (
    EnumerationSpec,
    canonical_form,
    enumerate_labeled,
    map_prefixes,
)
from .graph import Graph
from .graph6 import to_graph6

THEOREMS = ("thm1", "thm2", "thm3", "mindeg")


def bound_thm1(k: int, n: int, m: int) -> bool:
    """Exact test of 2m >= (k - 1/38) n + (13 n / 190) sqrt(k).

    Times 190 the bound reads A >= 13 n sqrt(k) with A = 380m - 190kn + 5n,
    all integers. For n >= 0 the right side is nonnegative, so the bound
    holds exactly when A >= 0 and A^2 >= 169 n^2 k.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    a = 380 * m - 190 * k * n + 5 * n
    return a >= 0 and a * a >= 169 * n * n * k


def bound_thm2(n: int, m: int) -> bool:
    """Exact test of 10m >= 27n - 35."""
    return 10 * m >= 27 * n - 35


def hyp_thm3(k: int, n: int, m: int) -> bool:
    """Exact test of 2m <= (k+3) n + (k-1)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return 2 * m <= (k + 3) * n + (k - 1)


@dataclass(frozen=True)
class Violation:
    graph6: str
    reason: str


@dataclass
class VerificationReport:
    theorem: str
    k: int
    scanned: int = 0
    hypothesis_hits: int = 0
    violations: list[Violation] = field(default_factory=list)
    exhaustive: bool = False
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return asdict(self)


def evaluate(which: str, k: int, g: Graph) -> tuple[bool, str | None]:
    """(hypothesis satisfied, violation reason or None). Cheap filters first."""
    n, m = g.n, g.m
    if which == "thm1":
        if n < 2 * k + 2 or has_degenerate_cut(g, k):
            return False, None
        ok = bound_thm1(k, n, m)
        return True, None if ok else f"2m={2 * m} below the thm1 bound at n={n}"
    if which == "thm2":
        if n < 5 or has_degenerate_cut(g, 2):
            return False, None
        ok = bound_thm2(n, m)
        return True, None if ok else f"10m={10 * m} < 27n-35={27 * n - 35}"
    if which == "thm3":
        if n < k + 6 or not hyp_thm3(k, n, m) or not is_connected(g):
            return False, None
        ok = exists_min_degenerate_cut(g, k)
        return True, None if ok else f"no minimum {k}-degenerate cut"
    if which == "mindeg":
        if n < k + 2 or has_degenerate_cut(g, k):
            return False, None
        d = g.min_degree()
        return True, None if d >= k + 2 else f"minimum degree {d} < k+2={k + 2}"
    raise ValueError(f"unknown theorem {which!r}; expected one of {THEOREMS}")


def _validate_which_k(which: str, k: int) -> None:
    if which not in THEOREMS:
        raise ValueError(f"unknown theorem {which!r}; expected one of {THEOREMS}")
    if which == "thm2" and k != 2:
        raise ValueError("thm2 is specific to k=2")
    least = {"thm1": 1, "thm2": 2, "thm3": 2, "mindeg": 0}[which]
    if k < least:
        raise ValueError(f"{which} needs k >= {least}")


def verify_theorem(which: str, k: int, graphs) -> VerificationReport:
    """Scan a graph stream and report hypothesis hits and conclusion failures."""
    _validate_which_k(which, k)
    t0 = time.perf_counter()
    report = VerificationReport(theorem=which, k=k)
    found: dict[str, str] = {}
    for g in graphs:
        report.scanned += 1
        hyp, reason = evaluate(which, k, g)
        if not hyp:
            continue
        report.hypothesis_hits += 1
        if reason is None:
            continue
        found.setdefault(to_graph6(Graph(g.n, canonical_form(g))), reason)
    report.violations = [Violation(s, r) for s, r in sorted(found.items())]
    report.seconds = time.perf_counter() - t0
    return report


def _verify_task(
    which: str, k: int, spec: EnumerationSpec, prefix: tuple[int, ...]
) -> VerificationReport:
    return verify_theorem(which, k, enumerate_labeled(spec, prefix))


def verify_theorem_exhaustive(
    which: str, k: int, spec: EnumerationSpec, jobs: int = 1
) -> VerificationReport:
    """Verify over the full enumeration stream, in this process when jobs <= 1
    (the empty prefix: the whole stream, iso_reject specs included), else split
    across processes. The merged report does not depend on the worker count."""
    _validate_which_k(which, k)
    t0 = time.perf_counter()
    task = partial(_verify_task, which, k)
    parts = [task(spec, ())] if jobs <= 1 else map_prefixes(task, spec, jobs)
    report = VerificationReport(theorem=which, k=k, exhaustive=True)
    merged: dict[str, str] = {}
    for part in parts:
        report.scanned += part.scanned
        report.hypothesis_hits += part.hypothesis_hits
        for v in part.violations:
            merged.setdefault(v.graph6, v.reason)
    report.violations = [Violation(s, r) for s, r in sorted(merged.items())]
    report.seconds = time.perf_counter() - t0
    return report

