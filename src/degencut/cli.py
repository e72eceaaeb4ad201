"""Command-line front end.

Subcommands:
  analyze            per-graph JSON summary (n, m, min_degree, degeneracy, kappa)
  find-cut --k K     search for a k-degenerate vertex cut (--minimum restricts
                     the search to minimum cuts: [] for a disconnected graph)
  min-cuts           enumerate every minimum vertex cut with certificates
  construct          emit an extremal construction as graph6 (ring | join)
  verify WHICH       scan a graph source against one of the built-in targets
  enumerate --n N    stream labeled graphs as graph6

Graph input is graph6, one per line, from stdin or --input FILE. Results go
to stdout (JSON, or graph6 for construct/enumerate); diagnostics to stderr.
Exit status: 0 success or PASS, 2 counterexample found or no cut exists,
1 usage or input errors. In analyze, find-cut and min-cuts a bad line (graph6
that does not parse, or a graph the command refuses, such as a complete graph
for min-cuts) prints {"line": i, "error": ...} on stdout and the stream goes
on; the exit status is then 1. verify --input names a line that does not
parse on stderr only, scans on, and exits 1 after its report. verify reads
exactly one source, --n N (every labeled graph of order N) or --input, and
refuses (exit 1) --min-deg, --max-edges, --connected and --jobs other than 1
with --input, which never reads them. verify and enumerate refuse a negative
--n, --jobs below 1 and a negative --max-edges; a --max-edges above n(n-1)/2
caps nothing and is taken as n(n-1)/2. find-cut refuses a negative --k, and --minimum with --k below 2,
before it reads any input.
"""

from __future__ import annotations

import argparse
import functools
import json
import string
import sys
from typing import Callable, Iterator

from .connectivity import minimum_cuts, vertex_connectivity
from .constructions import join_extremal, ring_of_cliques
from .cut_search import find_degenerate_cut, find_min_degenerate_cut
from .degeneracy import degeneracy
from .enumeration import EnumerationSpec, enumerate_labeled, map_prefixes
from .graph import Graph
from .graph6 import parse_graph6, to_graph6
from .verify import THEOREMS, verify_theorem, verify_theorem_exhaustive


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage, but 2 is reserved here for mathematical
    # outcomes (counterexample / none exists), so usage errors remap to 1
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="degencut",
        description="Degeneracy, vertex cuts, and edge-count bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="summarize order, size, degeneracy, kappa")
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("--input", metavar="FILE", help="graph6 file (default: stdin)")

    p = sub.add_parser("find-cut", help="search for a k-degenerate vertex cut")
    p.set_defaults(run=_cmd_find_cut)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--minimum", action="store_true", help="minimum cuts only")
    p.add_argument("--input", metavar="FILE")
    p.add_argument("--quiet", action="store_true", help="print found/none only")

    p = sub.add_parser("min-cuts", help="enumerate all minimum vertex cuts")
    p.set_defaults(run=_cmd_min_cuts)
    p.add_argument("--input", metavar="FILE")

    p = sub.add_parser("construct", help="emit an extremal construction as graph6")
    p.set_defaults(run=_cmd_construct)
    fam = p.add_subparsers(dest="family", required=True)
    c = fam.add_parser("ring", help="ring of cliques under one apex vertex")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--s", type=int, required=True, help="number of cliques")
    c.add_argument("--perm-seed", type=int, help="randomize interface matchings")
    c = fam.add_parser("join", help="join of a clique with an independent set")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--n", type=int, required=True, help="total order")

    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--min-deg", type=int, help="scan: minimum degree")
    scan.add_argument("--max-edges", type=int, help="scan: edge cap")
    scan.add_argument("--connected", action="store_true", help="scan: connected only")
    scan.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, at most the CPU count; output does not depend on it",
    )

    p = sub.add_parser("verify", parents=[scan], help="verify a bound or cut guarantee")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("which", choices=THEOREMS, help="verification target")
    p.add_argument("--k", type=int, help="degeneracy parameter (thm2 fixes 2)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--n", type=int, help="scan all labeled graphs of order N")
    source.add_argument("--input", metavar="FILE", help="verify graphs from a graph6 file")
    p.add_argument("--quiet", action="store_true", help="print PASS/FAIL only")

    p = sub.add_parser("enumerate", parents=[scan], help="stream labeled graphs as graph6")
    p.set_defaults(run=_cmd_enumerate)
    p.add_argument("--n", type=int, required=True)

    return parser


def _input_lines(path: str | None) -> Iterator[tuple[int, str]]:
    """(line number, text) per non-blank line of path or stdin. Latin-1 passes
    each byte to the parser as itself; only ASCII whitespace is stripped."""
    source = sys.stdin.fileno() if path is None else path
    with open(source, encoding="latin-1", closefd=path is not None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if line := raw.strip(string.whitespace):
                yield lineno, line


def _input_graphs(path: str | None, failed: list[int]) -> Iterator[Graph]:
    """The graph on each input line that parses. A line that does not is
    named on stderr, its number goes on failed, and the stream goes on."""
    for lineno, line in _input_lines(path):
        try:
            g = parse_graph6(line)
        except ValueError as exc:
            failed.append(lineno)
            print(f"degencut: error: line {lineno}: {exc}", file=sys.stderr)
            continue
        yield g


def _each_graph(path: str | None, handle: Callable[[Graph], str]) -> int:
    """Print `handle(g)` for the graph on each non-blank input line. A line
    that does not parse, or whose graph `handle` refuses with ValueError,
    prints {"line": i, "error": ...} instead, plus a message on stderr, and
    the stream goes on. Returns 1 if any line failed, else 0."""
    failed = False
    for lineno, line in _input_lines(path):
        try:
            record = handle(parse_graph6(line))
        except ValueError as exc:
            failed = True
            print(json.dumps({"line": lineno, "error": str(exc)}))
            print(f"degencut: error: line {lineno}: {exc}", file=sys.stderr)
            continue
        print(record)
    return 1 if failed else 0


def _analyze(g: Graph) -> str:
    return json.dumps(
        {
            "n": g.n,
            "m": g.m,
            "min_degree": g.min_degree() if g.n else None,
            "degeneracy": degeneracy(g),
            "kappa": vertex_connectivity(g) if g.n >= 2 else None,
        }
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    return _each_graph(args.input, _analyze)


def _cmd_find_cut(args: argparse.Namespace) -> int:
    if args.k < 0:
        raise ValueError(f"k must be nonnegative, got {args.k}")
    if args.minimum and args.k < 2:
        raise ValueError(f"k must be at least 2, got {args.k}")
    missing = False
    search = find_min_degenerate_cut if args.minimum else find_degenerate_cut

    def handle(g: Graph) -> str:
        nonlocal missing
        cert = search(g, args.k)
        if cert is None:
            missing = True
            return "none" if args.quiet else json.dumps({"found": False})
        if args.quiet:
            return "found"
        return json.dumps({"found": True, **cert.to_json_dict()})

    return _each_graph(args.input, handle) or (2 if missing else 0)


def _min_cuts(g: Graph) -> str:
    cuts = minimum_cuts(g)
    return json.dumps(
        {
            "kappa": len(cuts[0].cut),
            "count": len(cuts),
            "cuts": [c.to_json_dict() for c in cuts],
        }
    )


def _cmd_min_cuts(args: argparse.Namespace) -> int:
    return _each_graph(args.input, _min_cuts)


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.family == "ring":
        g = ring_of_cliques(args.k, args.s, args.perm_seed)
    else:
        g = join_extremal(args.k, args.n)
    print(to_graph6(g))
    return 0


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")


def _scan_spec(args: argparse.Namespace) -> EnumerationSpec:
    """The labeled stream named by --n, --min-deg, --max-edges and
    --connected. A cap above n(n-1)/2 bounds nothing, so it is clamped there;
    a negative cap is left for the enumeration to refuse."""
    edge_range = None
    if args.max_edges is not None:
        edge_range = (0, min(args.max_edges, args.n * (args.n - 1) // 2))
    return EnumerationSpec(
        n=args.n,
        edge_range=edge_range,
        min_degree=args.min_deg,
        connected_only=args.connected,
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    k = 2 if args.k is None and args.which == "thm2" else args.k
    if k is None:
        raise ValueError(f"--k is required for {args.which}")
    _check_jobs(args.jobs)
    failed: list[int] = []
    if args.n is not None:
        spec = _scan_spec(args)
        report = verify_theorem_exhaustive(args.which, k, spec, jobs=args.jobs)
    else:
        unread = args.min_deg is not None or args.max_edges is not None
        if unread or args.connected or args.jobs != 1:
            raise ValueError("--min-deg, --max-edges, --connected and --jobs need --n")
        report = verify_theorem(args.which, k, _input_graphs(args.input, failed))
    if args.quiet:
        print("PASS" if report.passed else "FAIL")
    else:
        print(json.dumps(report.to_json_dict()))
    return 1 if failed else 0 if report.passed else 2


def _enumerate_task(spec: EnumerationSpec, prefix: tuple[int, ...]) -> str:
    return "".join(to_graph6(g) + "\n" for g in enumerate_labeled(spec, prefix))


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _check_jobs(args.jobs)
    spec = _scan_spec(args)
    out = sys.stdout
    if args.jobs <= 1:
        for g in enumerate_labeled(spec):
            out.write(to_graph6(g) + "\n")
        return 0
    for chunk in map_prefixes(_enumerate_task, spec, args.jobs):
        out.write(chunk)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError) as exc:
        print(f"degencut: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
