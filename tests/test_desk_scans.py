"""scripts/run_desk_scans.py end to end: the quick battery passes, its
reports carry the same verdict fields under one and two worker processes,
and a worker count below 1 is refused before any report is written."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_desk_scans.py"
VERDICT = ("theorem", "k", "scanned", "hypothesis_hits", "violations", "exhaustive")


def test_quick_desk_scans_pass_under_one_and_two_jobs(tmp_path):
    reports = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--quick", "--jobs", str(jobs), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        ran = [line.split() for line in proc.stdout.splitlines() if "skipped" not in line]
        assert ran and all(fields[1] == "PASS" for fields in ran), proc.stdout
        written = {path.stem: json.loads(path.read_text()) for path in out.glob("*.json")}
        assert sorted(written) == sorted(fields[0] for fields in ran)
        reports.append({name: [r[f] for f in VERDICT] for name, r in written.items()})
    assert reports[0] == reports[1]


def test_desk_scans_refuse_jobs_below_one(tmp_path):
    for jobs in ("0", "-3"):
        out = tmp_path / f"jobs{jobs}"
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--quick", "--jobs", jobs, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"--jobs must be at least 1, got {jobs}" in proc.stderr
        assert not out.exists()
