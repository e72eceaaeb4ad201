"""CLI behavior: JSON shapes, exit codes (0 ok / 2 counterexample or no cut /
1 usage and input errors), quiet modes, and worker-count invariance. In-process
calls always pass --input so stdin stays untouched; piping goes through a
subprocess running `python -m degencut`, which needs no install. The console
script mapping in pyproject.toml is checked separately."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from degencut import (
    RingSpec,
    complete,
    cycle,
    parse_graph6,
    petersen,
    ring_of_cliques,
    to_graph6,
)
from degencut.cli import main


def write_graphs(tmp_path, *graphs):
    f = tmp_path / "graphs.g6"
    f.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    return str(f)


def run_cli(*argv, input=None):
    return subprocess.run(
        [sys.executable, "-m", "degencut", *argv],
        input=input,
        capture_output=True,
        text=True,
        timeout=300,
    )


# ---------------------------------------------------------------- in-process


def test_analyze_json_shape(tmp_path, capsys):
    path = write_graphs(tmp_path, complete(5))
    assert main(["analyze", "--input", path]) == 0
    out = capsys.readouterr().out.strip()
    assert json.loads(out) == {
        "n": 5,
        "m": 10,
        "min_degree": 4,
        "degeneracy": 4,
        "kappa": 4,
    }


def test_analyze_multiple_lines(tmp_path, capsys):
    path = write_graphs(tmp_path, cycle(4), petersen())
    assert main(["analyze", "--input", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    first, second = map(json.loads, lines)
    assert first["kappa"] == 2 and first["degeneracy"] == 2
    assert second == {"n": 10, "m": 15, "min_degree": 3, "degeneracy": 3, "kappa": 3}


def test_find_cut_found_and_none(tmp_path, capsys):
    path = write_graphs(tmp_path, cycle(5), complete(4))
    rc = main(["find-cut", "--k", "2", "--input", path])
    out = capsys.readouterr().out.splitlines()
    assert rc == 2  # at least one graph had no qualifying cut
    first = json.loads(out[0])
    assert first["found"] is True
    assert first["cut_degeneracy"] <= 2
    assert len(first["components"]) >= 2
    assert json.loads(out[1]) == {"found": False}


def test_find_cut_quiet(tmp_path, capsys):
    path = write_graphs(tmp_path, cycle(5), complete(4))
    rc = main(["find-cut", "--k", "2", "--quiet", "--input", path])
    assert rc == 2
    assert capsys.readouterr().out.splitlines() == ["found", "none"]


def test_find_cut_minimum_on_complete_graph_is_input_error(tmp_path, capsys):
    path = write_graphs(tmp_path, complete(4))
    rc = main(["find-cut", "--k", "2", "--minimum", "--input", path])
    assert rc == 1
    assert capsys.readouterr().err.startswith("degencut: error:")


def test_find_cut_refuses_bad_k_before_reading_input(tmp_path, capsys):
    path = write_graphs(tmp_path, cycle(5), cycle(6))
    for flags, message in (
        (["--k", "-1"], "k must be nonnegative, got -1"),
        (["--k", "-1", "--minimum"], "k must be nonnegative, got -1"),
        (["--k", "1", "--minimum"], "k must be at least 2, got 1"),
        (["--k", "0", "--minimum", "--quiet"], "k must be at least 2, got 0"),
    ):
        assert main(["find-cut", *flags, "--input", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"degencut: error: {message}\n"
    # the refusal comes before the input is opened
    assert main(["find-cut", "--k", "-1", "--input", str(tmp_path / "absent.g6")]) == 1
    assert capsys.readouterr().err == "degencut: error: k must be nonnegative, got -1\n"
    piped = run_cli("find-cut", "--k", "1", "--minimum", input="D~{\n" * 3)
    assert (piped.returncode, piped.stdout) == (1, "")
    assert piped.stderr == "degencut: error: k must be at least 2, got 1\n"


def test_min_cuts_square(tmp_path, capsys):
    path = write_graphs(tmp_path, cycle(4))
    assert main(["min-cuts", "--input", path]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["kappa"] == 2
    assert got["count"] == 2
    assert [c["cut"] for c in got["cuts"]] == [[0, 2], [1, 3]]
    assert all(c["independent"] for c in got["cuts"])


def test_construct_ring_round_trips(capsys):
    assert main(["construct", "ring", "--k", "2", "--s", "3"]) == 0
    g = parse_graph6(capsys.readouterr().out.strip())
    assert g == ring_of_cliques(RingSpec(2, 3))
    assert (g.n, g.m) == (13, 34)


def test_construct_ring_seeded(capsys):
    assert main(["construct", "ring", "--k", "3", "--s", "4", "--perm-seed", "7"]) == 0
    a = capsys.readouterr().out.strip()
    assert main(["construct", "ring", "--k", "3", "--s", "4", "--perm-seed", "7"]) == 0
    assert capsys.readouterr().out.strip() == a


def test_construct_join(capsys):
    assert main(["construct", "join", "--k", "2", "--n", "8"]) == 0
    g = parse_graph6(capsys.readouterr().out.strip())
    assert (g.n, g.m) == (8, 22)
    assert g.min_degree() == 4


def test_verify_quiet_pass(capsys):
    rc = main(["verify", "thm2", "--n", "5", "--exhaustive", "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "PASS"


def test_verify_report_json(capsys):
    rc = main(["verify", "thm2", "--n", "5", "--exhaustive"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["theorem"] == "thm2"
    assert got["k"] == 2
    assert got["scanned"] == 1024
    assert got["hypothesis_hits"] == 1
    assert got["violations"] == []
    assert got["exhaustive"] is True
    assert got["seconds"] >= 0


def test_verify_counterexample_exits_2(tmp_path, capsys):
    path = write_graphs(tmp_path, complete(4))
    rc = main(["verify", "mindeg", "--k", "2", "--input", path])
    out = capsys.readouterr().out
    assert rc == 2
    got = json.loads(out)
    assert got["violations"] == [
        {"graph6": "C~", "reason": "minimum degree 3 < k+2=4"}
    ]
    assert got["exhaustive"] is False


def test_verify_sample_mode(capsys):
    rc = main(["verify", "thm2", "--n", "6", "--sample", "40", "--seed", "3"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["scanned"] == 40
    assert not got["exhaustive"]


def test_verify_sample_is_seed_deterministic(capsys):
    argv = ["verify", "mindeg", "--k", "0", "--n", "5", "--sample", "25"]
    # no --seed draws from seed 0
    for first, second in ((["--seed", "11"], ["--seed", "11"]), ([], ["--seed", "0"])):
        main(argv + first)
        a = json.loads(capsys.readouterr().out)
        main(argv + second)
        b = json.loads(capsys.readouterr().out)
        a.pop("seconds"), b.pop("seconds")
        assert a == b


# ---------------------------------------------------------------- errors


def test_verify_requires_k_for_thm1(capsys):
    rc = main(["verify", "thm1", "--n", "4", "--exhaustive"])
    assert rc == 1
    assert "degencut: error: --k is required for thm1" in capsys.readouterr().err


def test_verify_source_conflict(capsys):
    rc = main(["verify", "thm2", "--n", "5", "--exhaustive", "--sample", "3"])
    assert rc == 1
    assert "exactly one" in capsys.readouterr().err


def test_verify_needs_a_source(capsys):
    rc = main(["verify", "thm2"])
    assert rc == 1
    assert "degencut: error:" in capsys.readouterr().err


def test_verify_thm2_rejects_other_k(capsys):
    rc = main(["verify", "thm2", "--k", "3", "--n", "5", "--exhaustive"])
    assert rc == 1
    assert "thm2 is specific to k=2" in capsys.readouterr().err


def test_verify_refuses_negative_order_and_sample(tmp_path, capsys):
    path = write_graphs(tmp_path, complete(5))
    for flags, message in (
        (["--n", "-1", "--sample", "3"], "--n must be nonnegative"),
        (["--n", "-1", "--sample", "0"], "--n must be nonnegative"),
        (["--n", "-1", "--exhaustive"], "--n must be nonnegative"),
        (["--input", path, "--n", "-1"], "--n must be nonnegative"),
        (["--n", "5", "--sample", "-3"], "--sample must be nonnegative"),
    ):
        assert main(["verify", "thm2", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"degencut: error: {message}")


def test_verify_refuses_enumeration_filters_without_exhaustive(tmp_path, capsys):
    path = write_graphs(tmp_path, complete(5))
    filters = "--min-deg, --max-edges and --connected need --exhaustive"
    cases = [
        ([*source, *flags], filters)
        for source in (["--n", "6", "--sample", "5"], ["--input", path])
        for flags in (["--min-deg", "4"], ["--max-edges", "3"], ["--connected"])
    ] + [
        (["--n", "5", "--sample", "3", "--jobs", "4"], "--jobs needs --exhaustive"),
        (["--input", path, "--jobs", "2"], "--jobs needs --exhaustive"),
        (["--input", path, "--n", "7"], "--n does not apply to --input"),
        (["--n", "5", "--exhaustive", "--seed", "9"], "--seed needs --sample"),
        (["--input", path, "--seed", "0"], "--seed needs --sample"),
        (["--n", "5", "--exhaustive", "--jobs", "0"], "--jobs must be at least 1"),
        (["--n", "5", "--sample", "3", "--jobs", "-3"], "--jobs must be at least 1"),
    ]
    for argv, message in cases:
        assert main(["verify", "thm2", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"degencut: error: {message}")
    assert main(["verify", "thm2", "--n", "5", "--sample", "3", "--jobs", "1", "--quiet"]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_enumerate_refuses_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        assert main(["enumerate", "--n", "4", "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"degencut: error: --jobs must be at least 1, got {jobs}\n"


def test_verify_unknown_target_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm9", "--n", "5", "--exhaustive"])
    assert exc.value.code == 1


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["find-cut"])
    assert exc.value.code == 1
    assert "error: the following arguments are required: --k" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_bad_graph6_input(tmp_path, capsys):
    f = tmp_path / "bad.g6"
    f.write_text("D~{\n!!!\n")
    rc = main(["analyze", "--input", str(f)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("degencut: error: line 2:")


def test_verify_input_goes_past_a_bad_line(tmp_path, capsys):
    f = tmp_path / "mixed.g6"
    f.write_text("D~{\nbad\nD~{\n")
    rc = main(["verify", "thm2", "--input", str(f)])
    captured = capsys.readouterr()
    assert rc == 1
    assert json.loads(captured.out)["scanned"] == 2
    assert captured.err.startswith("degencut: error: line 2:")
    assert captured.err.count("\n") == 1


def test_min_cuts_and_minimum_find_cut_go_past_a_complete_graph(tmp_path, capsys):
    path = write_graphs(tmp_path, cycle(4), complete(4), cycle(5))
    for argv in (["min-cuts"], ["find-cut", "--k", "2", "--minimum"]):
        assert main([*argv, "--input", path]) == 1
        captured = capsys.readouterr()
        first, error, last = map(json.loads, captured.out.splitlines())
        assert error == {"line": 2, "error": "no cuts exist: graph is complete"}
        assert "error" not in first and "error" not in last
        assert captured.err == (
            "degencut: error: line 2: no cuts exist: graph is complete\n"
        )


def test_missing_file(capsys):
    rc = main(["analyze", "--input", "/nonexistent/nope.g6"])
    assert rc == 1
    assert "degencut: error:" in capsys.readouterr().err


# ---------------------------------------------------------------- subprocess


def test_entry_point_pipes_stdin():
    out = run_cli("analyze", input="D~{\n")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {
        "n": 5,
        "m": 10,
        "min_degree": 4,
        "degeneracy": 4,
        "kappa": 4,
    }


def test_stream_goes_past_a_bad_line():
    # the blank line is skipped but still counted, so the bad line is line 3
    out = run_cli("analyze", input="D~{\n\nbad\nD~{\n")
    assert out.returncode == 1
    first, error, last = map(json.loads, out.stdout.splitlines())
    assert first == last == {
        "n": 5,
        "m": 10,
        "min_degree": 4,
        "degeneracy": 4,
        "kappa": 4,
    }
    assert error["line"] == 3 and error["error"]
    assert out.stderr.startswith("degencut: error: line 3:")


def test_module_invocation():
    out = run_cli("construct", "join", "--k", "1", "--n", "6")
    assert out.returncode == 0
    g = parse_graph6(out.stdout.strip())
    assert (g.n, g.m) == (6, 12)


def test_console_script_maps_to_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"degencut": "degencut.cli:main"}
    module, _, attr = scripts["degencut"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_verify_jobs_do_not_change_the_report():
    base = ["verify", "thm2", "--n", "5", "--exhaustive"]
    a = run_cli(*base, "--jobs", "1")
    b = run_cli(*base, "--jobs", "2")
    assert a.returncode == b.returncode == 0
    ja, jb = json.loads(a.stdout), json.loads(b.stdout)
    ja.pop("seconds"), jb.pop("seconds")
    assert ja == jb


def test_enumerate_jobs_do_not_change_the_bytes():
    a = run_cli("enumerate", "--n", "4", "--jobs", "1")
    b = run_cli("enumerate", "--n", "4", "--jobs", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert len(a.stdout.splitlines()) == 64


def test_enumerate_filters():
    out = run_cli("enumerate", "--n", "4", "--connected", "--max-edges", "3")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    # connected 4-vertex graphs with at most 3 edges are the 16 labeled trees
    assert len(lines) == 16
    assert all(parse_graph6(s).m == 3 for s in lines)


def test_verify_counterexample_exit_code_via_subprocess(tmp_path):
    path = write_graphs(tmp_path, complete(4))
    out = run_cli("verify", "mindeg", "--k", "2", "--input", path, "--quiet")
    assert out.returncode == 2
    assert out.stdout.strip() == "FAIL"
