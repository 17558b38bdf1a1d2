"""Exhaustive enumeration of small connected graphs, plus surveys.

Graphs on n vertices are encoded as adjacency bitmasks: pair (i, j) with
i < j gets bit p in the lexicographic pair ordering.
`enumerate_connected_graphs` streams every labeled graph in ascending
mask order.  `_class_levels` lists one graph per isomorphism class with
the weight n!/|Aut|, the number of labeled graphs in the class.  The
classes on n vertices are grown from those on n - 1 by adding a vertex,
and most children are skipped: the new vertex's neighbourhood
must be least under the parent's automorphisms, and no vertex whose
removal leaves the child connected may outrank the new one
(`_class_levels` gives the rules and why no class is lost).  The second
rule is asked from degrees first, before a child is built: a non-cut
vertex u of the parent stays non-cut when the new vertex gets k >= 2
neighbours, with degree deg(u) + [u a neighbour] against the new one's
k, so a neighbourhood holding a non-cut u with deg(u) >= k, or missing
one with deg(u) >= k + 1, is dropped (the degree rule: 244, 2032 and
26166 children are built up to n = 6, 7 and 8, against 388, 4159 and
71300).  When every such vertex that ties the new one is the new one's
image under some automorphism of the child (the orbit test:
`_automorphisms` with the new vertex pinned to it, skipped for a twin of
the new vertex, which their transposition maps to it: 37, 200 and 2064
pinned searches, against 107, 527 and 4300), the top-ranked ones form
one orbit, so the class is generated exactly once; it keeps the child's
own mask, and its weight follows by orbit-stabilizer from the parent's.
Only children whose ties span two orbits go to `canonical_mask` (none up
to n = 6, 40 up to n = 7 and 740 up to n = 8).  `connected_classes`
names the classes of the one level it returns by their canonical masks,
the lowest over all relabellings (112, 893 and 11857 `canonical_mask`
calls up to n = 6, 7 and 8, generation included).

Surveys, ratio sweeps and theorem sweeps all run through `class_sweep`,
which holds the census cap and fans each level out over `--threads`
workers.  They solve each class once and add up the weights, so their
counts are those of the labeled census.  A survey row keeps the lowest
mask with its (dim, edim) as a graph6 example; that mask is the least
canonical mask of the row's classes, and the independence number α
finds it with few canonical labellings.  With off(i) = i(2n - i - 1)/2
the first mask bit of label i's row, a class on n >= 2 vertices has its
canonical mask in [2^off(n-1-α), 2^off(n-α)): a largest independent set
on labels n-α..n-1 leaves every row from n-α up empty, and in every
labelling the α + 1 labels n-1-α..n-1 hold an edge.  The ranges are
disjoint and fall as α grows, so only a row's classes of largest α are
named (28 of 112 classes at n = 6, 85 of 853 at n = 7, 313 of 11117 at
n = 8).  The graphs attaining the extreme ratio are every relabelling
of the attaining classes, listed in ascending mask order.  Aggregation
is order-independent, so multi-process runs merge to identical output.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations, repeat
from math import factorial
from operator import or_

from ._par import item_blocks, run_blocks
from .errors import BadParamsError, NTooLargeError
from .formats import write_graph6
from .graph import Graph, _graph_from_edges, _levels_from, is_connected
from .resolver import _problem

MAX_ENUM_N = 8
CENSUS_MAX_N = 7  # largest n that a census or theorem sweep solves

# canonical_mask's state bytes: a placed vertex, and the table shifting each row up one bit
_PLACED = 255
_SHIFT_ROWS = bytes(range(0, 256, 2)) + bytes([_PLACED]) * 128


@dataclass(frozen=True)
class SurveyRow:
    n: int
    dim: int
    edim: int
    count: int
    example_graph6: str


def _check_enum_n(n: int, cap: int = MAX_ENUM_N, what: str = "exhaustive enumeration") -> None:
    if type(n) is not int or n < 1:
        raise BadParamsError(f"need a positive vertex count, got {n!r}")
    if n > cap:
        raise NTooLargeError(f"{what} capped at n={cap}, got {n}")


def _graph_of_mask(n: int, mask: int) -> Graph:
    """The graph on n vertices with this adjacency mask, connected or not."""
    edges = []
    bit = 1
    for i in range(n):
        for j in range(i + 1, n):
            if mask & bit:
                edges.append((i, j))
            bit <<= 1
    return _graph_from_edges(n, tuple(edges))


def _connected_graph_from_mask(n: int, mask: int) -> Graph | None:
    g = _graph_of_mask(n, mask)
    return g if is_connected(g) else None


def enumerate_connected_graphs(n: int):
    """Yield every labeled connected graph on n vertices in ascending mask order."""
    _check_enum_n(n)
    for mask in range(1 << (n * (n - 1) // 2)):
        g = _connected_graph_from_mask(n, mask)
        if g is not None:
            yield g


def _pair_bits(n: int) -> list[list[int]]:
    """bits[i][j] = bits[j][i] = the mask bit of pair {i, j}."""
    bits = [[0] * n for _ in range(n)]
    p = 0
    for i in range(n):
        for j in range(i + 1, n):
            bits[i][j] = bits[j][i] = 1 << p
            p += 1
    return bits


@cache
def _spread_bytes(n: int) -> list[int]:
    """spread[a]: the n bytes (a >> v & 1 for v in range(n)), read big-endian."""
    return [int.from_bytes(bytes(a >> v & 1 for v in range(n)), "big") for a in range(1 << n)]


def canonical_mask(n: int, adj_bits) -> tuple[int, int]:
    """Lowest mask over all n! relabellings of a graph, and how many reach it.

    The count is |Aut|; n is at most MAX_ENUM_N.  Labels are placed n-1,
    n-2, ..., 0.  The row of label i is its adjacency to the labels placed
    before it, read with label n-1 as the most significant bit, and it
    fills the mask bits of the pairs (i, j > i), which lie above those of
    every lower label.  So after each placement only the partial
    labellings whose new row is the least one can still reach the lowest
    mask.  Partial labellings that leave the same rows to their unplaced
    vertices have the same futures and are kept once, with their
    multiplicity.
    """
    _check_enum_n(n)
    # A state holds one byte per vertex: its row so far, or _PLACED.  Rows
    # have at most n - 1 <= 7 bits, so shifting one never reaches _PLACED,
    # and OR-ing states as big-endian integers ORs them byte by byte.
    spread = _spread_bytes(n)
    place = [spread[a] | _PLACED << 8 * (n - 1 - u) for u, a in enumerate(adj_bits)]
    states = {bytes(n): 1}  # -> number of partial labellings leaving it
    mask = 0
    for label in range(n - 1, -1, -1):
        best = min(map(min, states))
        nxt: dict[bytes, int] = {}
        for state, count in states.items():
            u = state.find(best)
            if u < 0:
                continue
            shifted = int.from_bytes(state.translate(_SHIFT_ROWS), "big")
            while u >= 0:
                child = (shifted | place[u]).to_bytes(n, "big")
                nxt[child] = nxt.get(child, 0) + count
                u = state.find(best, u + 1)
        states = nxt
        mask |= best << (label * (2 * n - label - 1) // 2)
    return mask, states[bytes([_PLACED]) * n]


def _automorphisms(adj, first: int = 0, to: int | None = None):
    """Yield every permutation p of the vertices with p(u) ~ p(v) exactly when
    u ~ v; given `to`, only those with p(first) = to.

    adj holds the adjacency bitmasks.  Backtracking maps `first`, then the
    other vertices in ascending order, each to an unused vertex of its
    degree whose adjacency to the images so far is the image of its own
    adjacency to the vertices mapped before it.  The first item, or None,
    answers whether some automorphism maps `first` to `to`.
    """
    n = len(adj)
    deg = [a.bit_count() for a in adj]
    of_degree: dict[int, list[int]] = {}
    for t, d in enumerate(deg):
        of_degree.setdefault(d, []).append(t)
    # each step's vertex, its candidate images, and the mask of its neighbours mapped before it
    steps = []
    mapped = 0
    for v in (first, *range(first), *range(first + 1, n)):
        steps.append((v, of_degree[deg[v]], adj[v] & mapped))
        mapped |= 1 << v
    if to is not None:
        steps[0] = (first, [to] if deg[to] == deg[first] else [], 0)
    image = [0] * n

    def extend(i: int, used: int):
        if i == n:
            yield tuple(image)
            return
        v, same, before = steps[i]
        want = 0
        while before:
            low = before & -before
            want |= 1 << image[low.bit_length() - 1]
            before ^= low
        for t in same:
            if not used >> t & 1 and adj[t] & used == want:
                image[v] = t
                yield from extend(i + 1, used | 1 << t)

    return extend(0, 0)


def _orbit_minima(adj, sets=None) -> list[tuple[int, int]]:
    """(s, orbit size) for each vertex set s, as a mask, of `sets` that is
    least among its images under Aut.

    `sets` lists masks in ascending order and is a union of orbits under
    Aut; by default it is every non-empty set."""
    n = len(adj)
    perms = list(_automorphisms(adj))
    bit_images = [[1 << p[v] for p in perms] for v in range(n)]
    seen: set[int] = set()
    least = []
    for s in range(1, 1 << n) if sets is None else sets:
        if s not in seen:
            images = [0] * len(perms)
            for v in range(n):
                if s >> v & 1:
                    images = list(map(or_, images, bit_images[v]))
            size = len(seen)
            seen.update(images)
            least.append((s, len(seen) - size))  # orbits are disjoint
    return least


def _pieces_without(adj, u: int) -> list[int]:
    """The components, as vertex masks, of the graph with vertex u removed."""
    keep = ~(1 << u)
    rest = [a & keep for a in adj]
    left = (1 << len(adj)) - 1 & keep
    pieces = []
    while left:
        piece = _levels_from(rest, (left & -left).bit_length() - 1)[1]
        pieces.append(piece)
        left &= ~piece
    return pieces


def _rank(adj, deg, v: int) -> tuple:
    """Isomorphism-invariant key of vertex v: its degree, its neighbours'
    degrees sorted, and the number of edges among its neighbours.

    The edge count splits ties that degrees leave, so fewer classes get
    more than one child (12486 children for the 12112 classes up to n = 8,
    13033 without it)."""
    nbrs = [x for x in range(len(adj)) if adj[v] >> x & 1]
    return deg[v], sorted(deg[x] for x in nbrs), sum((adj[x] & adj[v]).bit_count() for x in nbrs)


def _rival(child, pieces) -> list[int] | None:
    """The parent's vertices u whose removal leaves the child connected
    (non-cut u) and that tie the child's new (last) vertex w by `_rank`, or
    None when a non-cut u outranks w.

    pieces[u] are the components of the parent minus u; the child minus u
    is connected exactly when w has a neighbour in each.
    """
    w = len(child) - 1
    deg = [a.bit_count() for a in child]
    top = None
    tied = []
    for u in range(w):
        if deg[u] < deg[w]:
            continue
        above = deg[u] > deg[w]
        if not above:
            if top is None:
                top = _rank(child, deg, w)
            rank = _rank(child, deg, u)
            if rank < top:
                continue
            above = rank > top
        if all(child[w] & piece for piece in pieces[u]):
            if above:
                return None
            tied.append(u)
    return tied


def _degree_rule_sets(adj, pieces) -> list[int]:
    """The neighbourhoods of a new vertex w, as ascending masks, that the
    degree rule keeps; pieces[u] are the components of the parent minus u.

    A set of k >= 2 vertices is dropped when it holds a non-cut vertex of
    degree at least k or misses one of degree at least k + 1.  Let `top`
    be the largest degree of a non-cut vertex: every k from 2 to top - 1
    is dropped, and k = top is dropped when the set meets the non-cut
    vertices of degree top."""
    top = ties = 0
    for u, a in enumerate(adj):
        if len(pieces[u]) < 2:
            d = a.bit_count()
            if d > top:
                top, ties = d, 1 << u
            elif d == top:
                ties |= 1 << u
    return [
        s for s in range(1, 1 << len(adj))
        if (k := s.bit_count()) == 1 or k > top or k == top and not s & ties
    ]


def _one_orbit(child, tied) -> bool:
    """Whether automorphisms of the child map its new (last) vertex w to
    every vertex of `tied`: the first item of a pinned search per vertex,
    skipping those on the cycle of w under an automorphism already found.

    Twin rule: a tied u adjacent to the same vertices as w outside {u, w}
    needs no search, since the transposition (u w) keeps every adjacency
    and maps w to u.  Up to n = 6, 7 and 8 it leaves 37, 200 and 2064
    pinned searches, against 107, 527 and 4300."""
    w = len(child) - 1
    left = {u for u in tied if (child[u] ^ child[w]) & ~(1 << u | 1 << w)}
    while left:
        u = left.pop()
        p = next(_automorphisms(child, w, u), None)
        if p is None:
            return False
        u = p[u]
        while u != w:
            left.discard(u)
            u = p[u]
    return True


def _mask_of(adj) -> int:
    """The adjacency mask of the graph with these adjacency bitmasks."""
    n = len(adj)
    mask = 0
    for i, a in enumerate(adj):
        mask |= a >> (i + 1) << (i * (2 * n - i - 1) // 2)
    return mask


def _class_levels(n_max: int):
    """Yield (n, classes) for n = 1..n_max: (mask, n!/|Aut|) per class, by mask.

    Each class on n >= 2 vertices is built from a class on n-1 vertices,
    the parent, by adding a new vertex w with a non-empty neighbourhood.
    Three exact rules skip most children.  Orbit rule: the neighbourhood
    must be the least of its images under Aut(parent).  A parent of weight
    (n-1)! has only the identity automorphism, so every non-empty
    neighbourhood is least and Aut is not listed for it.  Deletion rule,
    after McKay's canonical deletion ("Isomorph-free exhaustive
    generation", J. Algorithms 1998): no vertex whose removal leaves the
    child connected (a non-cut vertex) may outrank w by `_rank`, an
    isomorphism invariant.  Degree rule, asked before a child is built
    (`_degree_rule_sets`): a neighbourhood S of k >= 2 vertices is
    dropped when it holds a non-cut vertex u of the parent with
    deg(u) >= k, or misses one with deg(u) >= k + 1.

    The degree rule drops only children that the deletion rule drops.  The
    child minus u is the connected parent minus u plus w joined to S minus
    u, which is non-empty, so u is non-cut in the child too; its degree
    there is deg(u) + [u in S] and w's is k, so u outranks w.  Automorphisms
    of the parent keep degrees and non-cut vertices, so the kept sets are a
    union of orbits, and `_orbit_minima` over them gives the same minima
    and orbit sizes.  A singleton S keeps the deletion rule alone: its
    vertex is a cut vertex of the child.  Up to n = 6, 7 and 8 the degree
    rule leaves 244, 2032 and 26166 children for `_rival`, against 388,
    4159 and 71300; in process `_class_levels(7)` took about 35 ms against
    49 ms, and `_class_levels(8)` 0.43 s against 0.71 s.

    Every class G keeps a child.  G is connected and has at least two
    vertices, so it has non-cut vertices; let v be one of highest rank
    among them.  G - v is connected, so an isomorphism maps it to a parent
    P and v's neighbourhood to a non-empty set S' of P's vertices.  Some
    automorphism of P maps S' to the least of its images S, and P plus a
    vertex joined to S is isomorphic to G with w as the image of v.
    Isomorphisms keep ranks and non-cut vertices, so no non-cut vertex
    outranks w and the child is kept.  Every kept child is connected, so
    the levels hold exactly the classes.

    Take a kept child as G, let `tied` be the parent's vertices that are
    non-cut in G and tie w in rank, and T = |tied| + 1 the number of G's
    top-ranked non-cut vertices.  When automorphisms of G map w to every
    vertex of `tied` (`_one_orbit`; true when `tied` is empty), those T
    vertices form w's orbit under Aut(G), since automorphisms keep rank
    and non-cut vertices.  A twin of w in `tied`, adjacent to the same
    vertices outside the two, is w's image under their transposition, so
    `_one_orbit` searches only for the others (the twin rule).  Every
    choice of v above then gives the same parent P and the same least set
    S, so the class is generated exactly once, and is keyed by the
    child's own mask.  The stabilizer of w in
    Aut(G) is the stabilizer of S in Aut(P), so by orbit-stabilizer
    |Aut(G)| = T (n-1)!/(weight(P) |orbit(S)|), and the weight is
    n weight(P) |orbit(S)|/T.  Whether the top-ranked non-cut vertices
    form one orbit is a property of G, so a class whose ties span two
    orbits is reached only through children that fail the test.  Those go
    to `canonical_mask`, which names the class by its lowest mask and
    counts its automorphisms, and they merge by mask.
    """
    level = [(0, 1)]
    yield 1, level
    for n in range(2, n_max + 1):
        weights: dict[int, int] = {}
        new = 1 << (n - 1)
        rigid = factorial(n - 1)
        total = factorial(n)
        for parent, weight in level:
            adj = _graph_of_mask(n - 1, parent).adj_bits
            pieces = [_pieces_without(adj, u) for u in range(n - 1)]
            sets = _degree_rule_sets(adj, pieces)
            minima = zip(sets, repeat(1)) if weight == rigid else _orbit_minima(adj, sets)
            for nbrs, orbit in minima:
                child = [a | new if nbrs >> v & 1 else a for v, a in enumerate(adj)]
                child.append(nbrs)
                tied = _rival(child, pieces)
                if tied is None:
                    continue
                if tied and not _one_orbit(child, tied):
                    mask, aut = canonical_mask(n, child)
                    weights[mask] = total // aut
                else:
                    weights[_mask_of(child)] = n * weight * orbit // (len(tied) + 1)
        level = sorted(weights.items())
        yield n, level


def connected_classes(n: int) -> list[tuple[int, int]]:
    """One connected graph per isomorphism class on n vertices.

    Returns (canonical mask, n!/|Aut|) pairs in ascending mask order; the
    weights add up to the number of labeled connected graphs.  Only this
    level's classes are renamed by `canonical_mask`.
    """
    _check_enum_n(n)
    for _, level in _class_levels(n):
        pass
    return sorted((canonical_mask(n, _graph_of_mask(n, mask).adj_bits)[0], weight) for mask, weight in level)


def labeled_masks(n: int, mask: int) -> list[int]:
    """Masks of every relabelling of the graph with this mask, ascending."""
    bits = _pair_bits(n)
    edges = _graph_of_mask(n, mask).edges
    found = set()
    for perm in permutations(range(n)):
        out = 0
        for i, j in edges:
            out |= bits[perm[i]][perm[j]]
        found.add(out)
    return sorted(found)


def _independence_number(adj, left: int | None = None) -> int:
    """α: the most pairwise non-adjacent vertices among the vertex mask
    `left` (default all) of the graph with these adjacency bitmasks.

    A largest independent set either holds the lowest vertex v of `left`
    and none of its neighbours, or misses v; when v has no neighbour in
    `left`, holding it is never worse."""
    if left is None:
        left = (1 << len(adj)) - 1
    if not left:
        return 0
    low = left & -left
    rest = left ^ low
    nbrs = adj[low.bit_length() - 1] & rest
    held = 1 + _independence_number(adj, rest & ~nbrs)
    return max(held, _independence_number(adj, rest)) if nbrs else held


def _survey_block(job) -> list[tuple[int, int, int, int, int]]:
    """(mask, weight, dim, edim, α) of each class in one block."""
    n, classes = job
    out = []
    for mask, weight in classes:
        g = _connected_graph_from_mask(n, mask)
        dim, edim = _problem(g, False).value(), _problem(g, True).value()
        out.append((mask, weight, dim, edim, _independence_number(g.adj_bits)))
    return out


def class_sweep(block_fn, n_lo: int, n_max: int, threads: int, *args):
    """Yield (n, block results) for n = n_lo..n_max.

    Each level's classes are split into contiguous blocks, and
    block_fn((n, block, *args)) runs on every block, in-process or on up
    to `threads` workers; the results come back in block order.  The
    classes are `_class_levels(n_max)`'s, most of them keyed by the mask
    they were generated with: no caller depends on which graph stands for
    a class.
    """
    _check_enum_n(n_max, CENSUS_MAX_N, "census")
    if n_lo > n_max:
        raise BadParamsError(f"nothing to sweep below n={n_lo}, got n_max={n_max}")
    for n, classes in _class_levels(n_max):
        if n >= n_lo:
            jobs = [(n, block, *args) for block in item_blocks(classes, threads)]
            yield n, run_blocks(block_fn, jobs, threads)


def _solved_classes(n: int, threads: int) -> list[tuple[int, int, int, int, int]]:
    """(mask, weight, dim, edim, α) of every class on n vertices, in
    ascending mask order; the classes are `class_sweep`'s."""
    return [
        row for _, blocks in class_sweep(_survey_block, n, n, threads)
        for block in blocks for row in block
    ]


def survey_triples(n: int, threads: int = 1) -> list[SurveyRow]:
    """(dim, edim) census over all labeled connected graphs on n vertices.

    Each isomorphism class is solved once and counted with its weight; the
    classes are `_class_levels(n)`'s, most of them unnamed.
    A row's example is its lowest labeled mask, the least canonical mask
    of its classes, and only the row's classes of largest independence
    number α go to `canonical_mask`.  That is exact: with
    off(i) = i(2n - i - 1)/2 the first mask bit of label i's row, a class's
    canonical mask lies in [2^off(n-1-α), 2^off(n-α)) for n >= 2.  A
    largest independent set on labels n-α..n-1 leaves every row from n-α
    up empty, so its mask is below 2^off(n-α); in every labelling the
    α + 1 labels n-1-α..n-1 hold an edge, so every mask is at least
    2^off(n-1-α).  These ranges are disjoint and fall as α grows.  The
    least of the named masks does not depend on the order of the blocks.
    """
    classes_of: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for mask, weight, dim, edim, alpha in _solved_classes(n, threads):
        classes_of.setdefault((dim, edim), []).append((alpha, mask, weight))
    rows = []
    for (dim, edim), classes in sorted(classes_of.items()):
        top = max(classes)[0]
        example = min(
            canonical_mask(n, _graph_of_mask(n, mask).adj_bits)[0]
            for alpha, mask, _ in classes if alpha == top
        )
        count = sum(weight for *_, weight in classes)
        rows.append(SurveyRow(n, dim, edim, count, write_graph6(_connected_graph_from_mask(n, example))))
    return rows


def ratio_extremes(n: int, threads: int = 1) -> tuple[Fraction, list[str]]:
    """Maximum edim/dim over the n-vertex census, with every witness graph.

    Graphs with dim = 0 (the single-vertex graph) are excluded.  Returns the
    exact ratio and the graph6 encodings of all maximizing labeled graphs,
    in ascending mask order: every relabelling of every maximizing class,
    whichever graph stands for it.
    """
    solved = _solved_classes(n, threads)
    ratios = {mask: Fraction(edim, dim) for mask, _, dim, edim, _ in solved if dim}
    if not ratios:
        raise BadParamsError(f"no graph with dim > 0 exists at n={n}")
    best = max(ratios.values())
    masks = sorted(m for c, r in ratios.items() if r == best for m in labeled_masks(n, c))
    return best, [write_graph6(_connected_graph_from_mask(n, mask)) for mask in masks]
