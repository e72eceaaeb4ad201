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
    complete,
    cycle,
    parse_graph6,
    ring_of_cliques,
    to_graph6,
)
from degencut.cli import main
from degencut.graph import petersen


def write_graphs(tmp_path, *graphs):
    f = tmp_path / "graphs.g6"
    f.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    return str(f)


def run_cli(*argv, input=None):
    # Latin-1 both ways, so each character of input reaches the child as the
    # one byte of the same number
    return subprocess.run(
        [sys.executable, "-m", "degencut", *argv],
        input=input,
        capture_output=True,
        encoding="latin-1",
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
    out = capsys.readouterr().out
    # pinned: a change to the wiring changes this line
    assert out == "L~`HW}GPHDaN{?\n"
    g = parse_graph6(out.strip())
    assert g == ring_of_cliques(2, 3)
    assert (g.n, g.m) == (13, 34)


def test_construct_ring_seeded(capsys):
    assert main(["construct", "ring", "--k", "3", "--s", "4", "--perm-seed", "7"]) == 0
    a = capsys.readouterr().out
    # pinned: a change to the wiring or to the order of the seeded draws
    # changes this line
    assert a == "T~|?g[f`w?_H@B?b_Dy?CG?U?CWOOw_@~w??\n"
    assert parse_graph6(a.strip()) == ring_of_cliques(3, 4, 7)
    assert main(["construct", "ring", "--k", "3", "--s", "4", "--perm-seed", "7"]) == 0
    assert capsys.readouterr().out == a


def test_construct_join(capsys):
    assert main(["construct", "join", "--k", "2", "--n", "8"]) == 0
    g = parse_graph6(capsys.readouterr().out.strip())
    assert (g.n, g.m) == (8, 22)
    assert g.min_degree() == 4


def test_verify_quiet_pass(capsys):
    rc = main(["verify", "thm2", "--n", "5", "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "PASS"


def test_verify_report_json(capsys):
    rc = main(["verify", "thm2", "--n", "5"])
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


def test_edge_cap_above_the_complete_graph_caps_nothing(capsys):
    assert main(["enumerate", "--n", "4", "--max-edges", "20"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 64
    assert main(["verify", "thm2", "--n", "5", "--max-edges", "11"]) == 0
    assert json.loads(capsys.readouterr().out)["scanned"] == 1024
    for argv in (
        ["enumerate", "--n", "4", "--max-edges", "-1"],
        ["verify", "thm2", "--n", "5", "--max-edges", "-1"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("degencut: error: edge range [0, -1] outside")


# ---------------------------------------------------------------- errors


def test_verify_requires_k_for_thm1(capsys):
    rc = main(["verify", "thm1", "--n", "4"])
    assert rc == 1
    assert "degencut: error: --k is required for thm1" in capsys.readouterr().err


def test_verify_source_conflict(tmp_path, capsys):
    path = write_graphs(tmp_path, complete(5))
    for argv, first in (
        (["--n", "5", "--input", path], "--n"),
        (["--input", path, "--n", "7"], "--input"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm2", *argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument " + first in captured.err


def test_verify_has_no_random_sample_source(capsys):
    for argv in (["--n", "5", "--sample", "3"], ["--n", "5", "--seed", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm2", *argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


def test_verify_has_no_exhaustive_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm2", "--n", "5", "--exhaustive"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --exhaustive" in captured.err


def test_verify_needs_a_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm2"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: one of the arguments --n --input is required" in captured.err


def test_verify_thm2_rejects_other_k(capsys):
    rc = main(["verify", "thm2", "--k", "3", "--n", "5"])
    assert rc == 1
    assert "thm2 is specific to k=2" in capsys.readouterr().err


def test_verify_and_enumerate_refuse_negative_order(capsys):
    # the enumeration refuses the order before any worker starts
    for argv in (
        ["verify", "thm2", "--n", "-1"],
        ["verify", "thm2", "--n", "-1", "--jobs", "2"],
        ["enumerate", "--n", "-1"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "degencut: error: vertex count must be nonnegative\n"


def test_verify_refuses_enumeration_filters_without_n(tmp_path, capsys):
    path = write_graphs(tmp_path, complete(5))
    unread = "--min-deg, --max-edges, --connected and --jobs need --n"
    cases = [
        (["--input", path, *flags], unread)
        for flags in (
            ["--min-deg", "4"],
            ["--max-edges", "3"],
            ["--connected"],
            ["--jobs", "2"],
        )
    ] + [
        (["--n", "5", "--jobs", "0"], "--jobs must be at least 1"),
        (["--input", path, "--jobs", "-3"], "--jobs must be at least 1"),
    ]
    for argv, message in cases:
        assert main(["verify", "thm2", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"degencut: error: {message}")
    assert main(["verify", "thm2", "--n", "5", "--jobs", "1", "--quiet"]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_enumerate_refuses_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        assert main(["enumerate", "--n", "4", "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"degencut: error: --jobs must be at least 1, got {jobs}\n"


def test_verify_unknown_target_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm9", "--n", "5"])
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
    # a byte that is not UTF-8 fails its own line only, named by its number
    good = to_graph6(cycle(5)).encode()
    f.write_bytes(good + b"\n\xff\xfe\n" + good + b"\n")
    for argv in (["analyze"], ["find-cut", "--k", "2"], ["min-cuts"]):
        assert main([*argv, "--input", str(f)]) == 1
        captured = capsys.readouterr()
        first, error, last = map(json.loads, captured.out.splitlines())
        assert first == last and "error" not in first
        assert error["line"] == 2
        assert error["error"].startswith("byte 255 outside graph6 range 63..126")
        assert captured.err.startswith("degencut: error: line 2: byte 255 ")
    # a line ends at \n, \r\n or \r, and only ASCII whitespace is stripped
    f.write_bytes(b"D~{\rD~{\r\nD~{\xa0\n")
    assert main(["analyze", "--input", str(f)]) == 1
    first, second, third = map(json.loads, capsys.readouterr().out.splitlines())
    assert first == second and "error" not in first
    assert third["line"] == 3 and third["error"].startswith("byte 160 ")


def test_verify_input_goes_past_a_bad_line(tmp_path, capsys):
    f = tmp_path / "mixed.g6"
    for bad in (b"bad", b"\xff\xfe"):
        f.write_bytes(b"D~{\n" + bad + b"\nD~{\n")
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


def test_minimum_find_cut_gives_a_disconnected_graph_the_empty_cut(tmp_path, capsys):
    f = tmp_path / "split.g6"
    f.write_text("CO\n")  # one edge on four vertices
    assert main(["find-cut", "--minimum", "--k", "2", "--input", str(f)]) == 0
    found = json.loads(capsys.readouterr().out)
    assert found["found"] is True and found["cut"] == []
    assert main(["min-cuts", "--input", str(f)]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert [c["cut"] for c in listed["cuts"]] == [found["cut"]]


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
    for bad in ("bad", "\xff\xfe"):
        out = run_cli("analyze", input="D~{\n\n" + bad + "\nD~{\n")
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
    assert error["error"].startswith("byte 255 outside graph6 range 63..126")
    good = to_graph6(cycle(5))
    for argv in (["find-cut", "--k", "2"], ["min-cuts"]):
        out = run_cli(*argv, input=f"{good}\n\xff\xfe\n{good}\n")
        assert out.returncode == 1
        first, error, last = map(json.loads, out.stdout.splitlines())
        assert first == last and "error" not in first
        assert error["line"] == 2
        assert error["error"].startswith("byte 255 outside graph6 range 63..126")


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
    base = ["verify", "thm2", "--n", "5"]
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
