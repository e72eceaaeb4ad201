"""Codec tests for the graph6 line format.

Fixed vectors first (these pin the bit order: upper triangle, column-major,
6-bit chunks offset by 63), then round trips and strict error reporting.
"""

import random

import pytest
from hypothesis import given, strategies as st

from degencut import (
    Graph6Error,
    complete,
    empty_graph,
    from_edges,
    parse_graph6,
    random_graph,
    to_graph6,
)


def test_fixed_vectors_encode():
    assert to_graph6(empty_graph(2)) == "A?"
    assert to_graph6(complete(2)) == "A_"
    assert to_graph6(complete(3)) == "Bw"
    assert to_graph6(complete(4)) == "C~"
    assert to_graph6(empty_graph(0)) == "?"


def test_fixed_vectors_parse():
    assert parse_graph6("A?") == empty_graph(2)
    assert parse_graph6("A_") == complete(2)
    assert parse_graph6("Bw") == complete(3)
    assert parse_graph6("C~") == complete(4)
    assert parse_graph6("?") == empty_graph(0)


def test_column_major_bit_order():
    # bit 0 is the (0,1) cell, bit 1 is (0,2), bit 2 is (1,2), bit 3 is (0,3)
    assert parse_graph6("BO") == from_edges(3, [(0, 2)])
    assert to_graph6(from_edges(3, [(0, 2)])) == "BO"
    assert parse_graph6("BG") == from_edges(3, [(1, 2)])


def test_trailing_newline_tolerated():
    assert parse_graph6("C~\n") == complete(4)
    assert parse_graph6("C~\r\n") == complete(4)


def test_long_form_threshold():
    g = empty_graph(63)
    s = to_graph6(g)
    assert s.startswith("~")
    assert len(s) == 4 + (63 * 62 // 2 + 5) // 6
    assert parse_graph6(s) == g
    assert to_graph6(empty_graph(62))[0] != "~"


def test_round_trip_medium_sizes():
    rng = random.Random(3)
    for n in (1, 13, 62, 63, 80):
        g = random_graph(n, rng, 0.3)
        assert parse_graph6(to_graph6(g)) == g


def test_round_trip_long_form_at_random_densities():
    # the column slices of the parser cross the short/long form boundary
    # (62 | 63), a 64-bit word, and reach the largest order of a 3-byte count
    # whose payload stays small (258)
    rng = random.Random(23)
    for n in (62, 63, 64, 200, 258):
        for p in (0.0, rng.random(), rng.random(), 1.0):
            g = random_graph(n, rng, p)
            s = to_graph6(g)
            assert parse_graph6(s) == g
            assert to_graph6(parse_graph6(s)) == s


@given(st.integers(min_value=0, max_value=30), st.randoms(use_true_random=False))
def test_round_trip_small(n, pyrng):
    g = random_graph(n, pyrng, 0.5)
    s = to_graph6(g)
    assert parse_graph6(s) == g
    assert to_graph6(parse_graph6(s)) == s


def test_vertex_count_cap():
    with pytest.raises(ValueError):
        to_graph6(empty_graph(258048))
    with pytest.raises(Graph6Error):
        parse_graph6("~~" + "?" * 10)


def test_empty_line_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_byte_out_of_range_reports_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A" + chr(200))
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(chr(30) + "?")
    assert exc.value.offset == 0


def test_truncated_and_oversized_payloads_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")  # one byte too many for n=4
    with pytest.raises(Graph6Error):
        parse_graph6("D~")  # n=5 needs two payload bytes
    with pytest.raises(Graph6Error):
        parse_graph6("~?")  # long form cut off inside the count


def test_nonzero_padding_rejected():
    # n=2 uses one payload bit; "@" sets a padding bit instead
    with pytest.raises(Graph6Error):
        parse_graph6("A@")



@pytest.mark.parametrize(
    "line, message, offset",
    [
        ("", "empty graph6 line", 0),
        ("A" + chr(200), "byte 200 outside graph6 range 63..126", 1),
        ("~~" + "?" * 10, "vertex counts above 258047 are not supported", 1),
        ("~?", "truncated vertex count", 2),
        ("D~", "truncated payload: need 2 bytes for n=5, got 1", 2),
        ("~??~", "truncated payload: need 326 bytes for n=63, got 0", 4),
        ("C~~", "trailing bytes after payload", 2),
        ("~??~" + "?" * 327, "trailing bytes after payload", 330),
        ("A@", "nonzero padding bits", 1),
        ("~??~" + "?" * 325 + "@", "nonzero padding bits", 329),
    ],
)
def test_each_error_names_its_byte_offset(line, message, offset):
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(line)
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset
