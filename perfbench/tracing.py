"""Spans and counters recorded around calls into degencut's modules.

A traced run replaces selected functions, in every degencut module that holds
them, with wrappers. A span wrapper records (name, start, end, parent) for
each call, keeps the spans in flat arrays in memory, and adds the call's self
time (its duration minus the time its child spans cover) to a per-name total.
A stream wrapper does the same around each `next()` of a generator and
counts the items it yields. A count wrapper only counts calls. Nothing under
`src/` is changed on disk; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (layer name, module, function): one span per call
SPANS = (
    ("enumeration.canonical_form", "degencut.enumeration", "canonical_form"),
    ("verify.evaluate", "degencut.verify", "evaluate"),
    ("cut_search.find_degenerate_cut", "degencut.cut_search", "find_degenerate_cut"),
    (
        "cut_search.exists_min_degenerate_cut",
        "degencut.cut_search",
        "exists_min_degenerate_cut",
    ),
    (
        "cut_search.find_min_degenerate_cut",
        "degencut.cut_search",
        "find_min_degenerate_cut",
    ),
    ("connectivity.vertex_connectivity", "degencut.connectivity", "vertex_connectivity"),
    ("connectivity.minimum_cuts", "degencut.connectivity", "minimum_cuts"),
    ("connectivity.certify_cut", "degencut.connectivity", "certify_cut"),
    ("graph6.parse", "degencut.graph6", "parse_graph6"),
    ("graph6.to_graph6", "degencut.graph6", "to_graph6"),
    ("cli.main", "degencut.cli", "main"),
)
# (layer name, module, generator function): one span per next(), items counted
STREAMS = (("enumeration.enumerate_labeled", "degencut.enumeration", "enumerate_labeled"),)
# (counter, module, function, replace only in this module or None for all)
COUNTS = (
    ("cut_search.candidates", "degencut.connectivity", "is_cut", "degencut.cut_search"),
    ("degeneracy.is_k_degenerate.calls", "degencut.degeneracy", "is_k_degenerate", None),
)
# evaluate returns (hypothesis holds, reason); count the graphs it holds on
HITS = ("verify.hypothesis_hits", "verify.evaluate")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, name id, start, child time]
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.self_s.append(0.0)
        self.calls.append(0)
        return len(self.names) - 1

    def _open(self, nid: int) -> None:
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        stack.append([idx, nid, start, 0.0])

    def _close(self) -> None:
        end = perf_counter()
        idx, nid, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.self_s[nid] += dur - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][3] += dur

    def _span(self, name: str, fn, hits: str | None):
        nid = self._name_id(name)
        opened, closed, counts = self._open, self._close, self.counts

        def wrapper(*args, **kwargs):
            opened(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                closed()
            if hits is not None and out[0]:
                counts[hits] += 1
            return out

        return wrapper

    def _stream(self, name: str, fn):
        nid = self._name_id(name)
        key = name + ".graphs"
        self.counts[key] = 0
        opened, closed, counts = self._open, self._close, self.counts

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stepped():
                while True:
                    opened(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        closed()
                    counts[key] += 1
                    yield item

            return stepped()

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installing into degencut ---

    def _replace(self, original, wrapper, only: str | None) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "degencut" or mod_name.startswith("degencut.")):
                continue
            if only is not None and mod_name != only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self) -> None:
        for name, module, func in SPANS:
            original = getattr(sys.modules[module], func)
            hits = HITS[0] if name == HITS[1] else None
            if hits is not None:
                self.counts[hits] = 0
            self._replace(original, self._span(name, original, hits), None)
        for name, module, func in STREAMS:
            original = getattr(sys.modules[module], func)
            self._replace(original, self._stream(name, original), None)
        for key, module, func, only in COUNTS:
            original = getattr(sys.modules[module], func)
            self._replace(original, self._count(key, original), only)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # --- results ---

    def layer_totals(self) -> dict[str, float]:
        """Self time and call count per layer, plus the counters."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[name + ".self_s"] = self.self_s[nid]
            out[name + ".calls"] = self.calls[nid]
        out.update(self.counts)
        return out

    def write(self, out_dir: Path, stem: str, header: dict) -> None:
        """Write `<stem>.json` (header, layer totals, layout) and
        `<stem>.spans` (the span arrays, one after another, native order)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / (stem + ".spans")
        with open(spans_path, "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        meta = dict(header)
        meta.update(
            names=self.names,
            totals=self.layer_totals(),
            spans=len(self.span_start),
            spans_file=spans_path.name,
            layout=[
                ["name", self.span_name.typecode, self.span_name.itemsize],
                ["parent", self.span_parent.typecode, self.span_parent.itemsize],
                ["start", self.span_start.typecode, self.span_start.itemsize],
                ["end", self.span_end.typecode, self.span_end.itemsize],
            ],
        )
        (out_dir / (stem + ".json")).write_text(json.dumps(meta, indent=1) + "\n")
