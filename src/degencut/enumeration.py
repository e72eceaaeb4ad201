"""Exhaustive labeled-graph enumeration with sound pruning.

The stream walks the edge slots (0,1), (0,2), ..., (n-2,n-1) depth-first,
absent branch before present branch, so its order is fixed for a fixed spec.
Every leaf the walk reaches qualifies, and no prune drops a qualifying graph:

- A slot is forced present when leaving it out would drop an endpoint's
  degree plus its undecided slots below the minimum degree, or the edge
  count plus all undecided slots below the edge floor: no completion could
  reach them.
- A slot is forced absent when taking it would put the edge count plus
  ceil(need/2) above the edge cap, where need is the sum over all vertices
  of max(0, min_degree - degree), n * min_degree at the root. One edge
  lowers need by at most 2, so every completion adds at least ceil(need/2).

The walk takes one stack frame per slot, so under the default recursion
limit it refuses n above 42. The streams of `partition_prefixes(spec, t)`,
in list order, concatenate to the sequential stream; `map_prefixes` runs
them on worker processes.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterator, TypeVar

from .connectivity import is_connected
from .graph import Graph, bits

T = TypeVar("T")

CANONICAL_MAX_N = 8

_PERM_CACHE: dict[int, list[tuple[int, ...]]] = {}


@dataclass(frozen=True)
class EnumerationSpec:
    n: int
    edge_range: tuple[int, int] | None = None  # inclusive bounds on edge count
    min_degree: int | None = None
    connected_only: bool = False
    iso_reject: bool = False


def _validated(spec: EnumerationSpec) -> tuple[int, int, int]:
    n = spec.n
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    max_m = n * (n - 1) // 2
    m_lo, m_hi = spec.edge_range if spec.edge_range is not None else (0, max_m)
    if not (0 <= m_lo <= m_hi <= max_m):
        raise ValueError(f"edge range [{m_lo}, {m_hi}] outside [0, {max_m}]")
    dmin = spec.min_degree or 0
    if dmin < 0:
        raise ValueError("min degree must be nonnegative")
    if spec.iso_reject and n > CANONICAL_MAX_N:
        raise ValueError(f"iso_reject is only supported for n <= {CANONICAL_MAX_N}")
    return m_lo, m_hi, dmin


def _iter_rows(
    n: int, m_lo: int, m_hi: int, dmin: int, prefix: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Yield adjacency row tuples for every graph meeting the constraints."""
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    num = len(slots)
    if dmin > max(n - 1, 0) or (n * dmin + 1) // 2 > m_hi:
        return
    if len(prefix) > num:
        raise ValueError("prefix longer than the slot list")
    if num + 100 > sys.getrecursionlimit():
        raise ValueError(f"{num} edge slots: the walk takes one stack frame per slot")
    choices = [(b,) for b in prefix] + [(0, 1)] * (num - len(prefix))
    rows = [0] * n
    deg = [0] * n
    slack = [n - 1 - dmin] * n  # absent slots each vertex can still afford

    def walk(i: int, m: int, need: int) -> Iterator[tuple[int, ...]]:
        if i == num:
            yield tuple(rows)
            return
        u, v = slots[i]
        if 0 in choices[i] and slack[u] and slack[v] and m + num - i > m_lo:
            slack[u] -= 1
            slack[v] -= 1
            yield from walk(i + 1, m, need)
            slack[u] += 1
            slack[v] += 1
        after = need - (deg[u] < dmin) - (deg[v] < dmin)
        if 1 in choices[i] and m + 1 + (after + 1) // 2 <= m_hi:
            deg[u] += 1
            deg[v] += 1
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            yield from walk(i + 1, m + 1, after)
            deg[u] -= 1
            deg[v] -= 1
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u

    yield from walk(0, 0, n * dmin)


def enumerate_labeled(
    spec: EnumerationSpec, prefix: tuple[int, ...] = ()
) -> Iterator[Graph]:
    """Every labeled graph satisfying `spec`, exactly once, in a fixed order."""
    seen: set[tuple[int, ...]] | None = set() if spec.iso_reject else None
    for rows in _iter_rows(spec.n, *_validated(spec), prefix):
        g = Graph(spec.n, rows)
        if spec.connected_only and not is_connected(g):
            continue
        if seen is not None:
            key = canonical_form(g)
            if key in seen:
                continue
            seen.add(key)
        yield g


def partition_prefixes(spec: EnumerationSpec, tasks: int) -> list[tuple[int, ...]]:
    """Slot-decision prefixes whose streams concatenate to the sequential one.

    Prefixes that admit no graphs yield empty streams, which is harmless.
    iso_reject streams cannot be partitioned (the duplicate filter is global
    state).
    """
    if spec.iso_reject:
        raise ValueError("iso_reject streams cannot be partitioned")
    _validated(spec)
    depth = 0
    while (1 << depth) < tasks and depth < spec.n * (spec.n - 1) // 2:
        depth += 1
    # absent branch explored first, so earlier slots are higher bits
    return [
        tuple(code >> (depth - 1 - i) & 1 for i in range(depth))
        for code in range(1 << depth)
    ]


def map_prefixes(
    task: Callable[..., T], spec: EnumerationSpec, jobs: int
) -> Iterator[T]:
    """`task(spec, prefix)` for each prefix of `partition_prefixes(spec, 4 * jobs)`
    on `jobs` worker processes, yielded in prefix order, so merged results do not
    depend on `jobs`. `task` is pickled: a module-level function or a partial."""
    prefixes = partition_prefixes(spec, 4 * jobs)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(task, [spec] * len(prefixes), prefixes)


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Minimum adjacency-row tuple over all vertex relabelings (n <= 8)."""
    n = g.n
    if n > CANONICAL_MAX_N:
        raise ValueError(f"canonical_form is only supported for n <= {CANONICAL_MAX_N}")
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = list(permutations(range(n)))
    rows = g.rows
    best: tuple[int, ...] | None = None
    for p in _PERM_CACHE[n]:
        relabeled = [0] * n
        for v in range(n):
            pv = p[v]
            acc = 0
            for w in bits(rows[v]):
                acc |= 1 << p[w]
            relabeled[pv] = acc
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def canonical_graph(g: Graph) -> Graph:
    return Graph(g.n, canonical_form(g))
