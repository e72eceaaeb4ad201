#!/usr/bin/env python3
"""Run the full battery of exhaustive desk scans and write one JSON report
per scan.

Every scan streams a pruned labeled enumeration through a verification
target and must come back with zero violations. The n=8 sparse scan is the
expensive one; the whole battery took 9.4-9.8 s in one process and 6.0 s
under --jobs 2 (2-vCPU x86_64, Python 3.11.7, two runs each). --quick drops it.

Usage:
  python3 scripts/run_desk_scans.py [--out results] [--jobs N] [--quick]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degencut import EnumerationSpec, verify_theorem_exhaustive

SCANS = [
    # name, target, k, spec
    ("thm2_n5_full", "thm2", 2, EnumerationSpec(5)),
    ("thm2_n6_mindeg4", "thm2", 2, EnumerationSpec(6, min_degree=4)),
    ("thm2_n7_mindeg4", "thm2", 2, EnumerationSpec(7, min_degree=4)),
    ("mindeg_k2_n5_full", "mindeg", 2, EnumerationSpec(5)),
    ("mindeg_k3_n6_full", "mindeg", 3, EnumerationSpec(6)),
    ("indep_cut_k0_n6_sparse", "mindeg", 0, EnumerationSpec(6, edge_range=(0, 8))),
    (
        "thm3_k2_n8_sparse",
        "thm3",
        2,
        EnumerationSpec(8, edge_range=(0, 20), min_degree=4),
    ),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="report directory")
    ap.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, at most the CPU count; reports do not depend on it",
    )
    ap.add_argument("--quick", action="store_true", help="skip the n=8 scan")
    args = ap.parse_args()
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    failed = []
    for name, which, k, spec in SCANS:
        if args.quick and spec.n >= 8:
            print(f"{name:28s} skipped (--quick)")
            continue
        report = verify_theorem_exhaustive(which, k, spec, jobs=args.jobs)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{name:28s} {status}  scanned={report.scanned:>9,}"
            f"  hits={report.hypothesis_hits:>7,}  {report.seconds:7.2f}s"
        )
        if not report.passed:
            failed.append(name)

    if failed:
        print(f"violations found in: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
