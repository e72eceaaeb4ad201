"""scripts/construction_atlas.py end to end: with its defaults it prints one
JSON line per ring of cliques (exactly one edge over the thm3 threshold, one
minimum cut, and that cut not k-degenerate) and per clique-join (no
k-degenerate cut at all). The script imports from the package's top level,
so this also checks that those names stay exported."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "construction_atlas.py"


def test_atlas_defaults_hold_every_extremal_property():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    rings = [line for line in lines if line["family"] == "ring"]
    joins = [line for line in lines if line["family"] == "join"]
    # rings: k = 2..4, s = 3..5, the fixed matching and seeds 0..2;
    # joins: k = 0..2, n = k+4..10
    assert (len(rings), len(joins), len(lines)) == (36, 18, 54)
    for ring in rings:
        assert ring["edges_over_threshold"] == 1, ring
        assert ring["minimum_cuts"] == 1, ring
        assert ring["min_cut_is_degenerate"] is False, ring
    for join in joins:
        assert join["has_degenerate_cut"] is False, join
