"""Edge-list and graph6 text formats, reading and bit-exact writing.

Edge-list files: first meaningful line is "n m", followed by m lines "u v".
Blank lines and lines starting with '#' are ignored everywhere.

graph6: the standard printable-ASCII encoding.  The writer emits the size
field N(n) followed by the upper triangle of the adjacency matrix in
column-major order, packed MSB-first into 6-bit groups offset by 63, with
zero padding.  The reader accepts an optional ">>graph6<<" header and
rejects malformed input, naming the offending character position.
"""

import re

from .errors import FormatError
from .graph import MAX_VERTICES, Graph, _graph_from_edges, build_graph

GRAPH6_HEADER = ">>graph6<<"
# complete 4096 has 8.4 million edges: its edge list as one string of line
# strings outgrows 1 GiB of address space
_EDGE_LIST_CHUNK_LINES = 1 << 16
_INTEGER = re.compile(r"-?[0-9]+")


def _int_pair(parts: list[str]) -> tuple[int, int] | None:
    """Two decimal integers, or None; digits int() refuses (too many) count as malformed."""
    if len(parts) != 2 or not all(_INTEGER.fullmatch(p) for p in parts):
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        return None


def parse_edge_list(text: str) -> Graph:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise FormatError("empty input: expected a header line 'n m'")
    lineno, header = lines[0]
    pair = _int_pair(header.split())
    if pair is None:
        raise FormatError(f"line {lineno}: expected header 'n m', got {header!r}")
    n, m = pair
    if m < 0:
        raise FormatError(f"line {lineno}: edge count {m} is negative")
    body = lines[1:]
    if len(body) != m:
        raise FormatError(f"header declares {m} edges but {len(body)} edge lines follow")
    edges = []
    for lineno, entry in body:
        pair = _int_pair(entry.split())
        if pair is None:
            raise FormatError(f"line {lineno}: expected edge 'u v', got {entry!r}")
        edges.append(pair)
    return build_graph(n, edges)


def edge_list_chunks(g: Graph):
    """The edge-list text of g in pieces of at most _EDGE_LIST_CHUNK_LINES
    lines each, so a writer never holds more than one piece of a large graph."""
    yield f"{g.n} {g.m}\n"
    edges = g.edges
    for start in range(0, len(edges), _EDGE_LIST_CHUNK_LINES):
        yield "".join([f"{u} {v}\n" for u, v in edges[start:start + _EDGE_LIST_CHUNK_LINES]])


def write_edge_list(g: Graph) -> str:
    return "".join(edge_list_chunks(g))


def _g6_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    return bytes(
        [126, 126]
        + [((n >> shift) & 63) + 63 for shift in (30, 24, 18, 12, 6, 0)]
    )


def write_graph6(g: Graph) -> str:
    n = g.n
    out = bytearray(_g6_size(n))
    bit = 5
    acc = 0
    for j in range(1, n):
        col = g.adj_bits[j]
        for i in range(j):
            if col >> i & 1:
                acc |= 1 << bit
            bit -= 1
            if bit < 0:
                out.append(acc + 63)
                acc = 0
                bit = 5
    if bit != 5:
        out.append(acc + 63)
    return out.decode("ascii")


def parse_graph6(text: str) -> Graph:
    line = text.strip()
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):].strip()
    if not line:
        raise FormatError("empty graph6 input")
    data = line.encode("ascii", errors="replace")
    for pos, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise FormatError(f"graph6: invalid character {chr(byte)!r} at position {pos}")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise FormatError("graph6: truncated size field")
            vals = [b - 63 for b in data[2:8]]
            n = 0
            for v in vals:
                n = n << 6 | v
            body = data[8:]
        else:
            if len(data) < 4:
                raise FormatError("graph6: truncated size field")
            n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
            body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 1:
        raise FormatError(f"graph6: vertex count {n} out of range")
    if n > MAX_VERTICES:
        raise FormatError(f"graph6: vertex count {n} exceeds the cap of {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6: expected {need} data characters for n={n}, got {len(body)}")
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            group, offset = divmod(bit, 6)
            if (body[group] - 63) >> (5 - offset) & 1:
                edges.append((i, j))
            bit += 1
    while bit < need * 6:
        group, offset = divmod(bit, 6)
        if (body[group] - 63) >> (5 - offset) & 1:
            raise FormatError(f"graph6: nonzero padding bit at position {len(data) - len(body) + group}")
        bit += 1
    edges.sort()
    return _graph_from_edges(n, tuple(edges))


def parse_graph_text(text: str, fmt: str = "auto") -> Graph:
    """Parse either supported format; 'auto' sniffs by the first meaningful line."""
    if fmt == "edgelist":
        return parse_edge_list(text)
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt != "auto":
        raise FormatError(f"unknown format {fmt!r}")
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            return parse_edge_list(text)
        return parse_graph6(text)
    raise FormatError("empty input")
