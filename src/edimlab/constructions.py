"""Builders for the graph families used by the theorem checkers.

Vertex labelings written out by the builders:

construct_F(k): vertices 0..k-1 are the clique B = {b_1..b_k} (b_i at index
i-1); vertices k..k+2^k-1 are the clique A = {a_S : S subseteq B}, where
a_S sits at index k + bitmask(S) with bit i-1 meaning b_i in S.  b_i and
a_S are adjacent exactly when b_i in S.

construct_H(k): F_k joined with a single extra vertex t at index k + 2^k.

cartesian_path(g, m): the Cartesian product of g with a path on m copies;
copy i (1-based) of vertex v sits at index (i-1)*n + v, labeled "v(i)".

_path_product_problem(g, m): the cover-search instance of the edge problem
of g x P_m, whose `solve` gives the value and witness of
`edge_metric_dimension(cartesian_path(g, m).graph)` without a BFS on the
product.  Distances add across the factors, d((u, i), (v, j)) =
d_g(u, v) + |i - j|, so from landmark (u, i) an edge of copy j lies at
its distance from u in g plus |i - j|, and the rung (v, j)-(v, j+1) at
d_g(u, v) plus the distance from i to {j, j+1}.  The product's edge
levels are therefore g's BFS level masks and g's edge levels, both kept
by g (`g.distances.levels`, `g.edge_levels`), shifted.
Copies count from 0 here: landmark (u, i) keeps cartesian_path's index
i*n + u.  The objects are numbered by copy, then rungs: edge k of g in
copy j is object j*|E| + k, and the rung (v, j)-(v, j+1) is object
m*|E| + j*n + v.  The value and the witness do not depend on how the
objects are numbered.  It refuses what the generic solve refuses, before
reading any distance: a bad m, a product over the vertex cap, then, by
`resolver._guard`, a disconnected g and a product over the solvers'
pair-bit cap.  The product has n*m >= 2n landmarks and
m*|E| + (m-1)*n > max(n, |E|) objects, so its guard refuses whatever the
guard of g's joint cover refuses: the product check asks for this
instance first, then solves g's joint cover.  The product check reads g
alone: it asks this instance for its bounds, on edge levels composed from
the levels g keeps, so it builds no product and runs no BFS on one.
"""

from dataclasses import dataclass
from math import comb

from .errors import BadParamsError, KOutOfRangeError, MTooSmallError, NoEdgesError
from .graph import MAX_VERTICES, Graph, _graph_from_edges, build_graph
from .resolver import _Cover, _guard, min_joint_cover

MAX_FK_K = 11  # 2^k + k (+1 for H_k) must stay within MAX_VERTICES


@dataclass(frozen=True)
class LabeledConstruction:
    graph: Graph
    labels: tuple[str, ...]


def _check_k(k) -> None:
    """The one check of the family parameter k that F_k and H_k take."""
    if type(k) is not int or not 1 <= k <= MAX_FK_K:
        raise KOutOfRangeError(f"k must be in 1..{MAX_FK_K}, got {k!r}")


def _family_counts(name: str, k: int) -> tuple[int, int]:
    """(vertices, edges) of F_k, or of H_k when name is "H", from k alone:
    F_k has the cliques B and A and k 2^(k-1) edges between them, and H_k
    adds t, adjacent to all of F_k."""
    _check_k(k)
    n = k + (1 << k)
    m = comb(k, 2) + comb(1 << k, 2) + (k << (k - 1))
    return (n + 1, m + n) if name == "H" else (n, m)


def construct_F(k: int) -> LabeledConstruction:
    """Two glued cliques: B of size k and A of size 2^k indexed by subsets of B."""
    _check_k(k)
    n = k + (1 << k)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
    for s in range(1 << k):
        for t in range(s + 1, 1 << k):
            edges.append((k + s, k + t))
        for i in range(k):
            if s >> i & 1:
                edges.append((i, k + s))
    labels = [f"b{i + 1}" for i in range(k)]
    for s in range(1 << k):
        members = ",".join(str(i + 1) for i in range(k) if s >> i & 1)
        labels.append("a{" + members + "}")
    edges.sort()
    return LabeledConstruction(_graph_from_edges(n, tuple(edges)), tuple(labels))


def construct_H(k: int) -> LabeledConstruction:
    """F_k joined with one vertex t, which is adjacent to everything."""
    base = construct_F(k)
    return LabeledConstruction(join(base.graph, build_graph(1, [])), base.labels + ("t",))


def _within_cap(what: str, n: int) -> int:
    """n, the vertex count of the graph `what` would build, if within the cap."""
    if n > MAX_VERTICES:
        raise BadParamsError(f"{what} would have {n} vertices, cap is {MAX_VERTICES}")
    return n


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides; g2 shifts up by g1.n."""
    n = _within_cap("join", g1.n + g2.n)
    shift = g1.n
    edges = list(g1.edges)
    edges.extend((u + shift, v + shift) for u, v in g2.edges)
    edges.extend((u, v + shift) for u in range(g1.n) for v in range(g2.n))
    edges.sort()
    return _graph_from_edges(n, tuple(edges))


def _check_path_copies(m) -> None:
    """The one check of the path-copy count m that products take."""
    if not isinstance(m, int) or m < 2:
        raise MTooSmallError(f"need at least 2 path copies, got {m!r}")


def _product_order(n: int, m) -> int:
    """Vertex count of an n-vertex graph times an m-copy path, within the caps."""
    _check_path_copies(m)
    return _within_cap("product", n * m)


def cartesian_path(g: Graph, m: int) -> LabeledConstruction:
    """Cartesian product of g with a path on m copies (m >= 2)."""
    n = g.n
    total = _product_order(n, m)
    edges = []
    for i in range(m):
        base = i * n
        edges.extend((base + u, base + v) for u, v in g.edges)
        if i + 1 < m:
            edges.extend((base + v, base + n + v) for v in range(n))
    edges.sort()
    labels = tuple(f"{v}({i + 1})" for i in range(m) for v in range(n))
    return LabeledConstruction(_graph_from_edges(total, tuple(edges)), labels)


def _path_product_counts(n: int, size: int, m) -> tuple[int, int]:
    """(vertices, edges) of an n-vertex graph with `size` edges times an
    m-copy path, after the checks of m and of the vertex cap."""
    return _product_order(n, m), m * size + (m - 1) * n


def _path_product_problem(g: Graph, m: int) -> _Cover:
    """The edge problem of g x P_m over its composed edge levels, once the
    refusals of the generic solve pass: m, the vertex cap, then resolver's
    guard (module docstring)."""
    total, n_obj = _path_product_counts(g.n, g.m, m)
    _guard(g, total, n_obj, "edge metric dimension")
    return _Cover(_path_product_edge_levels(g, m), n_obj)


def _path_product_edge_levels(g: Graph, m: int) -> list[list[int]]:
    """Edge masks of g x P_m by distance from each of its vertices, read off
    g's distances and g's edge levels; objects and landmarks numbered as in
    the module docstring."""
    n, size = g.n, g.m
    rungs = m * size
    n_obj = rungs + (m - 1) * n
    vlevels, elevels = g.distances.levels, g.edge_levels
    # u's edge and vertex levels, each packed in one integer with level d at bit d * n_obj
    packed = []
    for u in range(n):
        edges = verts = 0
        for d, (e_mask, v_mask) in enumerate(zip(elevels[u], vlevels[u])):
            edges |= e_mask << d * n_obj
            verts |= v_mask << d * n_obj
        packed.append((edges, verts))
    full = (1 << n_obj) - 1
    levels = []
    for i in range(m):
        # copy j lies |i - j| levels beyond copy i, rung j as far as i is from {j, j + 1}
        e_shifts = [abs(i - j) * n_obj + j * size for j in range(m)]
        r_shifts = [max(j - i, i - 1 - j, 0) * n_obj + rungs + j * n for j in range(m - 1)]
        extra = max(i, m - 1 - i)
        for u in range(n):
            edges, verts = packed[u]
            acc = 0
            for shift in e_shifts:
                acc |= edges << shift
            for shift in r_shifts:
                acc |= verts << shift
            levels.append([acc >> d * n_obj & full for d in range(len(vlevels[u]) + extra)])
    return levels


def product_upper_witness(g: Graph, m: int) -> set[int]:
    """Edge generator of size k+1 for the product of g with an m-copy path.

    Built by `witness_from_joint_cover` from the joint-cover witness pair.
    """
    _check_path_copies(m)
    if g.m == 0:
        raise NoEdgesError("product witness requires at least one edge")
    return witness_from_joint_cover(g, m, min_joint_cover(g)[1])


def witness_from_joint_cover(g: Graph, m: int, cover) -> set[int]:
    """Puts M = S ∪ T of the joint-cover pair (S, T) in the first copy,
    and adds the last copy of t = min(M)."""
    s, t = cover
    witness = set(s) | set(t)
    witness.add((m - 1) * g.n + min(witness))
    return witness


# name: (smallest value of each parameter, vertex count, edge count, edge
# list); each list is canonical and sorted, as the trusted _graph_from_edges requires
_FAMILIES = {
    "path": ((1,), lambda n: n, lambda n: n - 1, lambda n: [(i, i + 1) for i in range(n - 1)]),
    "cycle": (
        (3,),
        lambda n: n,
        lambda n: n,
        lambda n: [(0, 1), (0, n - 1)] + [(i, i + 1) for i in range(1, n - 1)],
    ),
    "complete": (
        (1,),
        lambda n: n,
        lambda n: comb(n, 2),
        lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)],
    ),
    "star": (
        (1,),
        lambda leaves: leaves + 1,
        lambda leaves: leaves,
        lambda leaves: [(0, i) for i in range(1, leaves + 1)],
    ),
    "complete_bipartite": (
        (1, 1),
        lambda a, b: a + b,
        lambda a, b: a * b,
        lambda a, b: [(i, a + j) for i in range(a) for j in range(b)],
    ),
    "grid": (
        (1, 1),
        lambda rows, cols: rows * cols,
        lambda rows, cols: rows * (cols - 1) + (rows - 1) * cols,
        lambda rows, cols: sorted(
            [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
            + [(v, v + cols) for v in range((rows - 1) * cols)]
        ),
    ),
}


def _standard_counts(name: str, params) -> tuple[int, int]:
    """(vertices, edges) of a named family from its parameters alone, after
    the checks of their count, integer type and smallest values, and of the
    vertex cap."""
    params = tuple(params)
    if name not in _FAMILIES:
        raise BadParamsError(f"unknown family {name!r}; choose from {sorted(_FAMILIES)}")
    mins, order, size, _ = _FAMILIES[name]
    if len(params) != len(mins) or not all(type(p) is int for p in params):
        raise BadParamsError(f"family {name!r} takes {len(mins)} integer parameter(s), got {params!r}")
    if any(p < low for p, low in zip(params, mins)):
        lows = ", ".join(map(str, mins))
        raise BadParamsError(f"family {name!r} needs parameters >= {lows}, got {params!r}")
    return _within_cap(f"family {name!r}", order(*params)), size(*params)


def standard_family(name: str, params) -> Graph:
    """Named small families: path n, cycle n, complete n, star leaves,
    complete_bipartite a b, grid rows cols.

    The parameters and the vertex count are checked (`_standard_counts`)
    before any edge is listed.
    """
    params = tuple(params)
    n, _ = _standard_counts(name, params)
    return _graph_from_edges(n, tuple(_FAMILIES[name][3](*params)))
