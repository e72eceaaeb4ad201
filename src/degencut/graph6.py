"""graph6 text codec.

One graph per line. The vertex count is one byte (n + 63) for n <= 62, or a
'~' escape followed by three bytes holding n in big-endian 6-bit groups for
63 <= n <= 258047. The payload packs the upper triangle of the adjacency
matrix column by column -- pair order (0,1), (0,2), (1,2), (0,3), ... -- six
bits per byte, most significant bit first, offset by 63, zero-padded to a
whole byte.
"""

from __future__ import annotations

from .graph import Graph

N_MAX = 258047  # largest vertex count this codec accepts


class Graph6Error(ValueError):
    """Malformed graph6 input. `offset` is the byte position within the line."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def to_graph6(g: Graph) -> str:
    n = g.n
    if n > N_MAX:
        raise Graph6Error(f"graph6 supports at most {N_MAX} vertices, got {n}")
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    nb = n * (n - 1) // 2
    acc = 0
    for v in range(1, n):
        row = g.rows[v]
        for u in range(v):
            acc = acc << 1 | (row >> u & 1)
    pad = -nb % 6
    acc <<= pad
    total = nb + pad
    payload = "".join(chr(63 + (acc >> s & 63)) for s in range(total - 6, -1, -6))
    return head + payload


def parse_graph6(text: str) -> Graph:
    line = text.rstrip("\r\n")
    if not line:
        raise Graph6Error("empty graph6 line", offset=0)
    for i, ch in enumerate(line):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)} outside graph6 range 63..126", offset=i)
    if ord(line[0]) == 126:
        if len(line) >= 2 and ord(line[1]) == 126:
            raise Graph6Error("vertex counts above 258047 are not supported", offset=1)
        if len(line) < 4:
            raise Graph6Error("truncated vertex count", offset=len(line))
        n = 0
        for ch in line[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = line[4:]
        body_offset = 4
    else:
        n = ord(line[0]) - 63
        body = line[1:]
        body_offset = 1
    nb = n * (n - 1) // 2
    want = (nb + 5) // 6
    if len(body) < want:
        raise Graph6Error(
            f"truncated payload: need {want} bytes for n={n}, got {len(body)}",
            offset=body_offset + len(body),
        )
    if len(body) > want:
        raise Graph6Error("trailing bytes after payload", offset=body_offset + want)
    acc = 0
    for ch in body:
        acc = acc << 6 | (ord(ch) - 63)
    pad = -nb % 6
    if pad and acc & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", offset=body_offset + want - 1)
    # column v, the cells (0, v) .. (v-1, v), reads reversed as v's lower row
    cells = format(acc >> pad, f"0{nb}b")
    rows = [0] * n
    for v in range(1, n):
        low = rows[v] = int(cells[v * (v - 1) // 2:v * (v + 1) // 2][::-1], 2)
        while low:
            bit = low & -low
            rows[bit.bit_length() - 1] |= 1 << v
            low ^= bit
    return Graph(n, tuple(rows))

