"""Exhaustive labeled-graph enumeration with sound pruning.

The stream lists every qualifying graph once, in slot order: by its bits on
the edge slots (0,1), (0,2), ..., (n-2,n-1), absent before present, so its
order is fixed for a fixed spec. The slots split at the last TAIL = 4
vertices (all of them when n <= 4). A tail slot joins two tail vertices;
every other slot is a head slot.

- Head. A depth-first walk decides the head slots, absent branch first. No
  prune drops a qualifying graph, since each counts the tail slots as
  undecided:
  - A slot is forced present when leaving it out would drop an endpoint's
    degree plus its undecided slots below the minimum degree, or the edge
    count plus all undecided slots below the edge floor: no completion
    could reach them.
  - A slot is forced absent when taking it would put the edge count plus
    ceil(need/2) above the edge cap, where need is the sum over all
    vertices of max(0, min_degree - degree), n * min_degree at the root.
    One edge lowers need by at most 2, so every completion adds at least
    ceil(need/2).
- Tail. The graphs on the tail vertices, 64 for four, come from a table
  built once per walk, in slot order. A prefix that reaches into the tail
  slots drops the tails that disagree with it there.
- Leaves. At each head leaf the table is filtered to the tails that
  complete it: each tail vertex w gains at least max(min_degree - deg(w), 0)
  tail neighbours, and the tail's edge count lies in the window
  [max(m_lo - m, 0), min(m_hi - m, tail slots)]. The filtered list is kept
  per (deficits, window) key for the rest of the walk.

This is the stream of one walk over all slots, because:

- every tail slot comes after every head slot, so the head leaves in walk
  order, each followed by its tails in slot order, are in slot order,
  prefix streams included;
- at a head leaf every slot of a head vertex is decided, and the walk let
  it take at most n - 1 - min_degree absent slots, so its degree floor holds;
- the filter is exact: it asks of a tail what the tail vertices' degree
  floor and the edge range ask of the whole graph, and nothing else.

The head walk is one loop that keeps its per-slot state in arrays, so it
needs no stack frame per slot and puts no cap on n. The streams of
`partition_prefixes(spec, t)`, in list order, concatenate to the sequential
stream; `map_prefixes` runs them on worker processes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from operator import ge, or_
from typing import Callable, Iterator, TypeVar

from .connectivity import is_connected
from .graph import Graph, bits

T = TypeVar("T")

TAIL = 4  # the last TAIL vertices' subgraphs come off a table built per walk


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
    return m_lo, m_hi, dmin


def _tail_table(
    n: int, fixed: tuple[int, ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(rows, degrees, edge count) of every graph on the last min(TAIL, n) of
    n vertices, in slot order, whose leading tail slots agree with `fixed`.
    Rows have length n, zero at the head vertices; degrees are the tail
    vertices' degrees inside the tail."""
    base = max(n - TAIL, 0)
    pairs = [(u, v) for u in range(base, n) for v in range(u + 1, n)]
    table = []
    for choice in product((0, 1), repeat=len(pairs)):
        if choice[: len(fixed)] != fixed:
            continue
        rows = [0] * n
        for (u, v), bit in zip(pairs, choice):
            rows[u] |= bit << v
            rows[v] |= bit << u
        table.append(
            (tuple(rows), tuple(r.bit_count() for r in rows[base:]), sum(choice))
        )
    return table


def _iter_rows(
    n: int, m_lo: int, m_hi: int, dmin: int, prefix: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Yield adjacency row tuples for every graph meeting the constraints.

    One loop walks the head slots: `branch[i]` is 0 while slot i is
    undecided, 1 inside its absent branch and 2 inside its present branch.
    Leaving a present branch restores the edge count m and the deficit need
    exactly. At a head leaf the tails that complete it are read off the tail
    table, filtered once per (tail deficits, edge window) key."""
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    num = len(slots)
    if dmin > max(n - 1, 0) or (n * dmin + 1) // 2 > m_hi:
        return
    if len(prefix) > num:
        raise ValueError("prefix longer than the slot list")
    base = max(n - TAIL, 0)
    tail = (n - base) * (n - base - 1) // 2
    head = num - tail
    table = _tail_table(n, tuple(prefix[head:]))
    fits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    fixed = prefix[:head]
    absent_ok = [b == 0 for b in fixed] + [True] * (head - len(fixed))
    present_ok = [b == 1 for b in fixed] + [True] * (head - len(fixed))
    rows = [0] * n
    deg = [0] * n
    slack = [n - 1 - dmin] * n  # absent slots each vertex can still afford
    branch = [0] * head
    m, need = 0, n * dmin
    i = 0
    while i >= 0:
        if i == head:
            key = (
                *[max(dmin - d, 0) for d in deg[base:]],
                max(m_lo - m, 0),
                min(m_hi - m, tail),
            )
            tails = fits.get(key)
            if tails is None:
                *short, lo, hi = key
                tails = fits[key] = [
                    t_rows
                    for t_rows, t_deg, t_m in table
                    if lo <= t_m <= hi and all(map(ge, t_deg, short))
                ]
            for t_rows in tails:
                yield tuple(map(or_, rows, t_rows))
            i -= 1
            continue
        u, v = slots[i]
        state = branch[i]
        if state == 0:
            if absent_ok[i] and slack[u] and slack[v] and m + num - i > m_lo:
                slack[u] -= 1
                slack[v] -= 1
                branch[i] = 1
                i += 1
                continue
        elif state == 1:
            slack[u] += 1
            slack[v] += 1
        else:
            deg[u] -= 1
            deg[v] -= 1
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            m -= 1
            need += (deg[u] < dmin) + (deg[v] < dmin)
            branch[i] = 0
            i -= 1
            continue
        after = need - (deg[u] < dmin) - (deg[v] < dmin)
        if present_ok[i] and m + 1 + (after + 1) // 2 <= m_hi:
            deg[u] += 1
            deg[v] += 1
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m, need = m + 1, after
            branch[i] = 2
            i += 1
            continue
        branch[i] = 0
        i -= 1


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
    depend on `jobs`. `task` is pickled: a module-level function or a partial.

    `jobs` is clamped to the CPU count first: the pool forks all its workers at
    the first submit, and more workers than CPUs only add processes."""
    jobs = min(jobs, os.cpu_count() or 1)
    prefixes = partition_prefixes(spec, 4 * jobs)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(task, [spec] * len(prefixes), prefixes)


def _refine(rows: tuple[int, ...], cells: list[int]) -> list[int]:
    """Coarsest equitable refinement of an ordered partition (cell bitmasks).

    Each pass splits every cell by the signature of its vertices, the tuple
    of their neighbour counts in every cell, and orders the sub-cells by
    signature. A pass reads only cell positions and counts, never labels, so
    relabeling the graph and the input partition relabels the output.
    """
    while True:
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            split: dict[tuple[int, ...], int] = {}
            for v in bits(cell):
                row = rows[v]
                sig = tuple((row & c).bit_count() for c in cells)
                split[sig] = split.get(sig, 0) | 1 << v
            out.extend(split[sig] for sig in sorted(split))
        if len(out) == len(cells):
            return cells
        cells = out


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Adjacency rows of `g` relabeled canonically: isomorphic graphs, and only
    they, get equal tuples. Individualization-refinement, as in nauty and
    Traces (McKay & Piperno 2014, "Practical graph isomorphism II").

    The search tree starts at the equitable refinement of the one-cell
    partition. A node whose partition is not discrete has one child per
    vertex w of its first non-singleton cell: w split off in front of that
    cell, then refined again. A leaf is a discrete partition, read as a
    labeling (vertex -> position), and its key is the relabeled row tuple;
    the result is the smallest key over the leaves.

    Complete invariant: every step reads only cell positions and adjacency
    counts, so an isomorphism s: G -> H maps the tree of G node for node
    onto the tree of H, and a leaf labeling L of G to the leaf L o s^-1 of H
    with the same key. Equal key sets give equal minima; a key is the graph
    relabeled, so equal keys imply isomorphic graphs.

    Pruning: two leaves with one key give an automorphism a of G (position
    i of the one to position i of the other). A child w of a node with
    individualized prefix P is skipped when w = b(u) for an earlier child u
    and some b in the group generated by the automorphisms found so far that
    fix P pointwise; b maps the subtree of u onto that of w, key for key. A
    leaf whose key was met first at a leaf whose path agrees with its own up
    to depth j, then differs, yields an a that fixes the first j vertices
    and maps this path's vertex at depth j to the other's, an earlier child
    of the same node; the search drops the rest of this subtree and resumes
    at depth j. Either way the subtrees dropped are images of subtrees
    already searched, so the minimum is unchanged.
    """
    n = g.n
    rows = g.rows
    leaves: dict[tuple[int, ...], list[int]] = {}  # key -> vertex at each position
    autos: list[list[int]] = []
    path: list[int] = []

    def search(cells: list[int]) -> int:
        """Search below `cells`; return the depth at which the search resumes."""
        depth = len(path)
        cells = _refine(rows, cells)
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            order = [c.bit_length() - 1 for c in cells]
            pos = [0] * n
            for i, v in enumerate(order):
                pos[v] = i
            key = tuple(
                sum(1 << pos[w] for w in bits(rows[v])) for v in order
            )
            first = leaves.setdefault(key, order)
            if first is order:
                return depth
            auto = [0] * n
            for v, w in zip(order, first):
                auto[v] = w
            autos.append(auto)
            return next(j for j, v in enumerate(path) if auto[v] != v)
        cell = cells[target]
        orbit = list(range(n))  # union-find over the prefix's stabilizer

        def root(v: int) -> int:
            while orbit[v] != v:
                orbit[v] = orbit[orbit[v]]
                v = orbit[v]
            return v

        used = 0  # automorphisms already merged into `orbit`
        explored: list[int] = []
        for w in bits(cell):
            for auto in autos[used:]:
                if all(auto[v] == v for v in path):
                    for v in range(n):
                        orbit[root(v)] = root(auto[v])
            used = len(autos)
            if any(root(u) == root(w) for u in explored):
                continue
            explored.append(w)
            path.append(w)
            split = cells[:target] + [1 << w, cell ^ 1 << w] + cells[target + 1 :]
            resume = search(split)
            path.pop()
            if resume < depth:
                return resume
        return depth

    if n:
        search([(1 << n) - 1])
    return min(leaves, default=())


def canonical_graph(g: Graph) -> Graph:
    return Graph(g.n, canonical_form(g))
