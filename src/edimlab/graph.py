"""Immutable simple graphs on vertex set {0..n-1} with BFS distance machinery.

Edges are stored canonically as (min, max) pairs sorted ascending, so two
graphs compare equal exactly when they have the same vertex count and edge
set.  Adjacency is stored once, as per-vertex bitmasks, which the search
kernels and BFS operate on; the sorted neighbour tuples of `adjacency` are
read off them on first use.

`bfs_levels` is the one distance kernel: a BFS over the adjacency masks
that returns, per source, the mask of the vertices at each distance.  The
distance rows, the diameter and the solvers' pair bitsets are all read
off those level masks.  `all_pairs_distances` returns them as a
`DistanceMatrix`, which spreads them into distance rows only when its
rows are read.  A Graph computes its connectivity, its DistanceMatrix and
its edge levels (read off the same masks by `_edge_levels`) on first use
and keeps them, outside `==` and `hash`, for as long as it lives: every
solve and check on it reads the same ones.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    BadParamsError,
    DisconnectedError,
    DuplicateEdgeError,
    NotAnEdgeError,
    SameVertexError,
    SelfLoopError,
    VertexOutOfRangeError,
)

MAX_VERTICES = 4096


@dataclass(frozen=True, repr=False)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    adj_bits: tuple[int, ...] = field(compare=False)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj_bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_bits[u] >> v & 1)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(bits_of(a)) for a in self.adj_bits)

    @cached_property
    def connected(self) -> bool:
        return _levels_from(self.adj_bits, 0)[1] == (1 << self.n) - 1

    @cached_property
    def distances(self) -> "DistanceMatrix":
        return DistanceMatrix(self.n, tuple(map(tuple, bfs_levels(self))))

    @cached_property
    def edge_levels(self) -> tuple[tuple[int, ...], ...]:
        """edge_levels[v][d]: mask of the edge indices at distance d from v."""
        return _edge_levels(self, self.distances.levels)


@dataclass(frozen=True)
class DistanceMatrix:
    """Distances of a connected graph as BFS level masks: levels[v][k] is
    the mask of the vertices at distance k from v.  The rows, d[v][u] =
    distance from v to u, are read off the masks on first use."""

    n: int
    levels: tuple[tuple[int, ...], ...]

    @cached_property
    def d(self) -> tuple[tuple[int, ...], ...]:
        return tuple(level_rows(self.levels, self.n))


def check_vertices(n: int, vertices) -> None:
    """Raise VertexOutOfRangeError for a vertex outside 0..n-1 (a negative
    index would otherwise wrap around in a distance row)."""
    for v in vertices:
        if not 0 <= v < n:
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{n - 1}")


def bits_of(mask: int):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _graph_from_edges(n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    # Trusted path: edges must already be canonical (u < v), sorted, duplicate-free.
    adj_bits = [0] * n
    for u, v in edges:
        adj_bits[u] |= 1 << v
        adj_bits[v] |= 1 << u
    return Graph(n, edges, tuple(adj_bits))


def build_graph(n: int, edge_pairs) -> Graph:
    """Validate and build a simple graph on vertices 0..n-1."""
    if type(n) is not int or n < 1:
        raise BadParamsError(f"vertex count must be a positive integer, got {n!r}")
    if n > MAX_VERTICES:
        raise BadParamsError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
    seen: set[tuple[int, int]] = set()
    canon: list[tuple[int, int]] = []
    for pair in edge_pairs:
        u, v = pair
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) uses a vertex outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        # a canonical tuple pair is kept as given, not copied
        key = (v, u) if u > v else pair if type(pair) is tuple else (u, v)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        canon.append(key)
    canon.sort()
    return _graph_from_edges(n, tuple(canon))


def _levels_from(adj: tuple[int, ...], src: int) -> tuple[list[int], int]:
    """Level masks of the BFS from src (levels[d] = vertices at distance d),
    and the mask of every vertex reached.  The one BFS loop of the package."""
    seen = frontier = 1 << src
    levels = [frontier]
    while True:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        if not frontier:
            return levels, seen
        levels.append(frontier)
        seen |= frontier


def _edge_levels(g: Graph, levels) -> tuple[tuple[int, ...], ...]:
    """Edge masks by distance from each source of `levels`, over edge indices.

    An edge is within distance d of v iff one of its endpoints is, so the
    edges at distance d are E(seen<=d) ^ E(seen<d): one OR of an incident-edge
    mask per vertex and source.
    """
    incident = [0] * g.n
    for k, (x, y) in enumerate(g.edges):
        incident[x] |= 1 << k
        incident[y] |= 1 << k
    out = []
    for masks in levels:
        reached = 0
        edge_masks = []
        for mask in masks:
            grown = reached
            while mask:
                low = mask & -mask
                grown |= incident[low.bit_length() - 1]
                mask ^= low
            edge_masks.append(grown ^ reached)
            reached = grown
        out.append(tuple(edge_masks))
    return tuple(out)


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (vacuously for n = 1)."""
    return g.connected


def bfs_levels(g: Graph, sources=None) -> list[list[int]]:
    """BFS level masks from each source: levels[i][d] is the mask of the
    vertices at distance d from sources[i] (from vertex i when sources is
    None, meaning every vertex; otherwise a sequence).  Raises
    VertexOutOfRangeError for a source outside 0..n-1 and DisconnectedError
    if some vertex is unreachable.
    """
    n = g.n
    adj = g.adj_bits
    full = (1 << n) - 1
    if sources is None:
        sources = range(n)
    else:
        check_vertices(n, sources)
    out = []
    for src in sources:
        levels, seen = _levels_from(adj, src)
        if seen != full:
            raise DisconnectedError(f"vertex {(seen ^ full).bit_length() - 1} unreachable from {src}")
        out.append(levels)
    return out


def level_rows(levels: list[list[int]], size: int) -> list[tuple[int, ...]]:
    """Level masks spread into distance rows: rows[i][o] = d for o in levels[i][d]."""
    rows = []
    for masks in levels:
        row = [0] * size
        for d, mask in enumerate(masks):
            while mask:
                low = mask & -mask
                row[low.bit_length() - 1] = d
                mask ^= low
        rows.append(tuple(row))
    return rows


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex, once per graph; raises DisconnectedError if a pair is unreachable."""
    return g.distances


def diameter(g: Graph) -> int:
    return max(map(len, all_pairs_distances(g).levels)) - 1


def max_degree(g: Graph) -> int:
    return max((a.bit_count() for a in g.adj_bits), default=0)


def edge_vertex_distance(dm: DistanceMatrix, e: tuple[int, int], v: int) -> int:
    """Distance from edge e = {x, y} to vertex v: min(d(x, v), d(y, v))."""
    x, y = e
    if not (0 <= x < dm.n and 0 <= y < dm.n) or dm.d[x][y] != 1:
        raise NotAnEdgeError(f"({x}, {y}) is not an edge")
    check_vertices(dm.n, (v,))
    return min(dm.d[x][v], dm.d[y][v])


def non_mutual_neighbors(g: Graph, v1: int, v2: int) -> set[int]:
    """Symmetric difference of the two open neighbourhoods."""
    if not (0 <= v1 < g.n) or not (0 <= v2 < g.n):
        raise VertexOutOfRangeError(f"vertex pair ({v1}, {v2}) outside 0..{g.n - 1}")
    if v1 == v2:
        raise SameVertexError(f"need two distinct vertices, got {v1} twice")
    return set(bits_of(g.adj_bits[v1] ^ g.adj_bits[v2]))
