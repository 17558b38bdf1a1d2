"""Exact minimum resolving sets for vertices and for edges.

A landmark set S resolves the vertex set when the distance tuples to S are
pairwise distinct, and resolves the edge set when the edge-to-landmark
distance tuples are pairwise distinct.  The solver reduces both problems to
hitting every object pair with a landmark that separates it: for each
candidate landmark v it builds a big-integer bitset whose bit p is set
exactly when v separates the p-th object pair: pair (i, j) with i < j is
bit i * (objects + 1) + j, so the pairs are the bits above the diagonal of
a grid with one spare column.  A set S is a generator iff the union of its
bitsets covers every pair.

The bitsets come straight from the level masks a graph keeps: the BFS
levels of its `DistanceMatrix` (`g.distances.levels`) for vertices and
its edge levels (`g.edge_levels`, read off the same masks) for edges; two
objects at the same level are not separated.  A graph keeps its
connectivity, distances and edge levels once computed, so every solve on
one graph (as both of `min_joint_cover`'s) shares one BFS and one
connectivity test.  Each solve asks `_guard` before it reads any
levels.  `is_vertex_generator` and `is_edge_generator` keep their own
definition, pairwise distinct signature tuples, and run the BFS from the
landmarks only (`graph.bfs_levels`), with the edge levels read off those
landmark levels.

Search order contract: the reported witness is the lexicographically least
basis of minimum size, i.e. the first generator met when scanning subset
sizes ascending and combinations lexicographically within each size.  The
implementation reaches the same answer faster, by one descent from an
upper bound, `_Cover._least(upper, floor)`, whose gate picks the engine
once: a depth-first branch-and-bound over the pairs' separator sets when
refuting upper - 1 could scan many landmark subsets, and otherwise
lexicographic scans that refute sizes upper - 1, upper - 2, ... down to
floor (generator existence is monotone in size).  `value` and `solve`
start it from a greedy cover's size, `fits(s)` from s + 1 with floor s.
All scans are one generator, which yields the covers of one size in
lexicographic order: its first item at the optimum is the witness and all
its items are the bases, so the answers do not depend on which engine
found the value.  Suffix unions of the bitsets prune scan subtrees that
cannot cover the remaining pairs.

One instance per problem: `_Cover(levels, objects)` holds the pair
bitsets of one vertex or edge problem and finds its minimal separator
sets at most once.  `solve` gives the value, the witness and, on request,
the bases; `value` scans for no witness; `fits(s)` answers "do at most s
landmarks cover every pair?", so a check that needs only bounds on the
optimum pays for refutations, not a full solve.  `_problem` is the one
way from a graph to its instance: it asks the guard, then reads the
levels.

One guard: `_guard(g, landmarks, objects, what)` tests that g is connected,
then that landmarks x C(objects, 2) is within MAX_PAIR_BITS (`_pair_cap`).
`_problem`, `min_joint_cover` (once, over the larger of its two object
counts) and the product's instance, `constructions._path_product_problem`,
ask it before anything is read.  `compute --construct F|H K` asks
`_pair_cap` alone, from the family's counts, before it builds the graph.

Minimal separator sets: the branch-and-bound, and every scan of an
instance that has found them, work over the distinct inclusion-minimal
separator sets instead of over all pairs (a dense 22-vertex edim solve has
about 6400 pairs but about 420 such sets).  The answers cannot change: S
covers every pair iff S meets every pair's separator set, iff S meets
every inclusion-minimal one, since each separator set contains a minimal
one.  So the covers of each size are the same family, listed by the same
generator in the same order, and the value, the witness and the bases are
those of the full instance.  For the same reason a greedy cover of the
minimal sets covers every pair, so the branch-and-bound starts from the
lesser of its upper bound and that cover's size.  It decides its last
level inline: a child that could beat the best size found only by one
more landmark gets no node of its own, just a test of the landmarks that
separate one of its uncovered pairs.

A solve whose landmarks x C(objects, 2) exceeds MAX_PAIR_BITS raises
NTooLargeError from `_guard` before it computes anything; the bitsets
take about twice that, landmarks x objects x (objects + 1) bits.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import DisconnectedError, NoEdgesError, NTooLargeError
from .graph import (
    DistanceMatrix,
    Graph,
    _edge_levels,
    all_pairs_distances,
    bfs_levels,
    check_edge,
    check_vertices,
    is_connected,
    level_rows,
)

# Sizes are refuted by branch-and-bound once a lexicographic refutation of
# greedy - 1 may scan at least this many landmark subsets, C(landmarks,
# greedy - 1); below it the lexicographic scans are cheaper.  Measured on
# seeded G(n, p) with n = 8..24 and p = 0.2..0.8 (dim and edim, 2-vCPU
# Xeon, Python 3.11): branch-and-bound took 1.2-1.8x the time of the scans
# below 10^4.25 subsets, broke even at 10^4.5-10^4.75, and took 0.5-0.8x
# from 10^5 up.  All graphs with n <= 6 stay on the scans (C(6, 4) = 15).
BRANCH_AND_BOUND_MIN_SUBSETS = 50_000

# Inputs whose landmarks x C(objects, 2) exceeds this are refused before any
# distance is computed.  The bitsets are about twice as wide (objects + 1 bits
# a row), so at the cap they take about 1 GiB.  F_6 and H_6 count about 1.9e8
# bits; `complete 300` would count 3.0e11 for edim.
MAX_PAIR_BITS = 1 << 32


@dataclass(frozen=True)
class DimensionResult:
    value: int
    witness: tuple[int, ...]
    all_bases: tuple[tuple[int, ...], ...] | None = None


def vertex_signature(dm: DistanceMatrix, x: int, landmarks) -> tuple[int, ...]:
    """Distances from vertex x to the landmarks, in the given order."""
    check_vertices(dm.n, (x, *landmarks))
    return tuple(dm.d[x][v] for v in landmarks)


def edge_signature(dm: DistanceMatrix, e: tuple[int, int], landmarks) -> tuple[int, ...]:
    """Distances from edge e to the landmarks, in the given order."""
    check_edge(dm, e)
    check_vertices(dm.n, landmarks)
    x, y = e
    dx, dy = dm.d[x], dm.d[y]
    return tuple(min(dx[v], dy[v]) for v in landmarks)


def _is_generator(g: Graph, s, n_obj: int, object_levels) -> bool:
    if not is_connected(g):
        raise DisconnectedError("generator check requires a connected graph")
    # BFS from the landmarks only, even when g.distances is cached: reading the
    # all-source level masks would make a check on a fresh large graph build
    # them (path:700 under tracemalloc: 31.8 MB and 5.0 s, against 0.11 MB
    # and 0.014 s for 2 landmarks), and no pair-bit guard covers this check.
    # rows[i][o]: distance of object o to the i-th landmark; o's signature is its column
    rows = level_rows(object_levels(bfs_levels(g, sorted(s))), n_obj)
    if not rows:
        # every object has the empty signature
        return n_obj <= 1
    return len(set(zip(*rows))) == n_obj


def is_vertex_generator(g: Graph, s) -> bool:
    """True when the vertices of g have pairwise distinct signatures over s."""
    return _is_generator(g, s, g.n, lambda levels: levels)


def is_edge_generator(g: Graph, s) -> bool:
    """True when the edges of g have pairwise distinct signatures over s."""
    return _is_generator(g, s, g.m, lambda levels: _edge_levels(g, levels))


def _spaced(count: int, gap: int) -> int:
    """One bit every `gap` bits: the sum of 2^(k * gap) for k < count."""
    return ((1 << count * gap) - 1) // ((1 << gap) - 1)


def _pair_bitsets(levels: list[list[int]], n_obj: int) -> tuple[list[int], int]:
    """levels[v][d] = mask of the objects at distance d from landmark v.

    Returns per-landmark bitsets of the separated pairs, and the universe:
    pair (i, j) with i < j is bit i * (n_obj + 1) + j, monotone in (i, j)
    like the lexicographic rank.  Per level mask M, M * rep copies M into
    every row, `& diag` keeps the diagonal bits of M's rows, and M times
    that puts M in those rows: the pairs at equal distance, carry-free.
    """
    if n_obj < 2:
        return [0] * len(levels), 0
    rep, diag = _spaced(n_obj, n_obj), _spaced(n_obj, n_obj + 1)
    # row i: 2^(i * (n_obj + 1)) * (2^n_obj - 2^(i + 1)), the bits of j > i
    universe = (diag << n_obj) - (_spaced(n_obj, n_obj + 2) << 1)
    bits = []
    for masks in levels:
        same = 0
        for mask in masks:
            same |= mask * (mask * rep & diag)
        bits.append(universe ^ (universe & same))
    return bits, universe


def _greedy_cover_size(bits: list[int], universe: int) -> int:
    # largest union first; equals largest gain, without big-int negation
    cover = 0
    size = 0
    while cover != universe:
        best, most = cover, cover.bit_count()
        for b in bits:
            grown = cover | b
            count = grown.bit_count()
            if count > most:
                best, most = grown, count
        if best == cover:
            raise AssertionError("landmark bitsets cannot cover the pair universe")
        cover = best
        size += 1
    return size


def _covers(bits: list[int], suffix: list[int], universe: int, size: int):
    """Yield every cover of exactly `size` landmarks, in lexicographic order.

    Depth-first over the landmarks with an explicit stack: `chosen` holds
    the landmarks taken, `above` the covers before each of them, and v is
    the next candidate for the open slot.
    """
    n = len(bits)
    chosen: list[int] = []
    above: list[int] = []
    cover, slots, v = 0, size, 0
    while True:
        # suffix unions shrink as v grows, so the first failure ends the slot
        if v <= n - slots and cover | suffix[v] == universe:
            grown = cover | bits[v]
            if grown == universe:
                # covered already: any slots - 1 later landmarks complete it
                for rest in combinations(range(v + 1, n), slots - 1):
                    yield (*chosen, v, *rest)
            elif slots > 1:
                chosen.append(v)
                above.append(cover)
                cover = grown
                slots -= 1
            v += 1
        elif chosen:
            v = chosen.pop() + 1
            cover = above.pop()
            slots += 1
        else:
            return


def _separator_counts(bits: list[int]) -> list[int]:
    """Bit-sliced count, per pair, of the landmarks whose bitsets hold it.

    Slice k holds bit k of every pair's count, so the counts of all pairs
    are kept in len(bits).bit_length() big integers.
    """
    counts = [0] * len(bits).bit_length()
    for b in bits:
        for k, s in enumerate(counts):
            counts[k] = s ^ b
            b &= s
            if not b:
                break
    return counts


def _suffix_unions(bits: list[int]) -> list[int]:
    suffix = [0] * (len(bits) + 1)
    for i in range(len(bits) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | bits[i]
    return suffix


def _minimal_separators(bits: list[int], universe: int, rows, n_obj: int) -> tuple[list[int], list[int]]:
    """The distinct inclusion-minimal separator sets, and bitsets over them.

    Returns (kept, reduced): kept[k] is a landmark mask, and bit k of
    reduced[v] is set iff landmark v is in kept[k].  Pairs are taken in
    ascending order of their separator count; each pair still standing
    keeps its separator set, read from the distance columns, and strikes
    every pair whose separators contain it (the AND of its landmarks'
    bitsets), duplicates included.  A pair with fewer separators came
    earlier, so every kept set is minimal.
    """
    cols = list(zip(*rows))
    landmarks = range(len(bits))
    counts = _separator_counts(bits)
    kept: list[int] = []
    reduced = [0] * len(bits)
    alive = universe
    c = 0
    while alive:
        c += 1
        # pairs with exactly c separators
        cls = alive
        for k, s in enumerate(counts):
            cls &= s if c >> k & 1 else universe ^ s
        while cls:
            i, j = divmod(cls.bit_length() - 1, n_obj + 1)
            ci, cj = cols[i], cols[j]
            sep = 0
            struck = alive
            k = 1 << len(kept)
            for v in landmarks:
                if ci[v] != cj[v]:
                    sep |= 1 << v
                    struck &= bits[v]
                    reduced[v] |= k
            kept.append(sep)
            alive ^= struck
            cls &= alive
    return kept, reduced


def _branch_and_bound_size(bits: list[int], universe: int, seps: list[int], upper: int) -> int:
    """min(upper, fewest landmarks whose bitsets cover `universe`), for any
    upper >= 1: `upper` need not be the size of a cover (`_Cover.fits(s)`
    descends from s + 1), and only covers smaller than it are searched for.

    seps[p] is the mask of the landmarks whose bitsets hold pair p.
    Depth-first over uncovered pairs: each node branches on a pair with the
    fewest allowed separating landmarks, and child t takes the t-th of them
    while the earlier ones stay forbidden in it and below.  A node is cut
    when its chosen count plus a greedy packing of uncovered pairs with
    pairwise disjoint allowed separators reaches the best size found.  A
    child that could beat the best size only by one more landmark is
    decided without a node of its own.
    """
    # complements within the universe: `x & ~b` on big ints costs several
    # times `x & c`, and so does `x & -x`, so pairs are picked by top bit
    outside = [universe ^ b for b in bits]
    best = upper

    def rec(unc: int, size: int, allowed: int, counts: list[int]) -> None:
        # counts: bit-sliced count, per uncovered pair, of the allowed
        # landmarks separating it (see _separator_counts); every caller
        # passes a list of its own, so this node updates it in place
        nonlocal best
        fewest = unc
        for s in reversed(counts):
            t = fewest ^ (fewest & s)
            if t:
                fewest = t
        branch = seps[fewest.bit_length() - 1] & allowed
        if not branch:
            return
        # disjoint packing: every packed pair needs a landmark of its own
        bound = size + 1
        left = unc
        hits = branch
        while True:
            while hits:
                h = hits & -hits
                hits ^= h
                left &= outside[h.bit_length() - 1]
            if not left or bound >= best:
                break
            pick = left & fewest or left
            hits = seps[pick.bit_length() - 1] & allowed
            bound += 1
        if bound >= best:
            return
        while branch:
            low = branch & -branch
            branch ^= low
            allowed ^= low
            v = low.bit_length() - 1
            keep = outside[v]
            nxt = unc & keep
            if not nxt:
                best = size + 1
                return
            if size + 2 >= best:
                # nxt needs another landmark, and size + 2 cannot beat best
                continue
            if size + 3 == best:
                # the last level, decided here: the child beats best only
                # if one more allowed landmark covers nxt, and that landmark
                # separates nxt's top pair.  No return on success: a later
                # sibling may still cover alone.  best - size stays <= 3, so
                # no later sibling recurses and counts need no update.
                hits = seps[nxt.bit_length() - 1] & allowed
                while hits:
                    h = hits & -hits
                    hits ^= h
                    if not nxt & outside[h.bit_length() - 1]:
                        best = size + 2
                        break
                continue
            rec(nxt, size + 1, allowed, [s & keep for s in counts])
            if size + 1 >= best:
                return
            # the later siblings forbid this landmark: subtract its pairs
            borrow = unc & bits[v]
            for k, s in enumerate(counts):
                counts[k] = s ^ borrow
                borrow ^= borrow & s
                if not borrow:
                    break

    rec(universe, 0, (1 << len(bits)) - 1, _separator_counts(bits))
    # rec refers to itself through its closure; break that cycle so the
    # bitsets are freed now, not at some later full collection
    rec = None
    return best


def _guard(g: Graph, landmarks: int, objects: int, what: str) -> None:
    """The guards of every cover-search instance, asked before any level is
    read: g connected, then `_pair_cap`."""
    if not is_connected(g):
        raise DisconnectedError(f"{what} requires a connected graph")
    _pair_cap(landmarks, objects)


def _pair_cap(landmarks: int, objects: int) -> None:
    """The guard's count check, landmarks x C(objects, 2) within
    MAX_PAIR_BITS, which a caller that knows the counts before it builds
    the graph asks alone."""
    need = landmarks * comb(objects, 2)
    if need > MAX_PAIR_BITS:
        raise NTooLargeError(
            f"{landmarks} landmarks and {objects} objects need {need} bits of pair "
            f"bitsets, over the cap of {MAX_PAIR_BITS}"
        )


class _Cover:
    """The cover search of one problem: the fewest landmarks whose pair
    bitsets, built once from `levels`, cover every pair of the objects."""

    __slots__ = ("levels", "n_obj", "bits", "universe", "minimal")

    def __init__(self, levels: list[list[int]], n_obj: int):
        self.levels, self.n_obj = levels, n_obj
        self.bits, self.universe = _pair_bitsets(levels, n_obj)
        self.minimal = None

    def generates(self, s) -> bool:
        """True when the pair bitsets of the landmarks s cover the universe."""
        bits = self.bits
        cover = 0
        for v in s:
            cover |= bits[v]
        return cover == self.universe

    def _gated(self, size: int) -> bool:
        """Whether refuting `size` landmarks takes the branch-and-bound."""
        return comb(len(self.bits), size) >= BRANCH_AND_BOUND_MIN_SUBSETS

    def _reduced(self) -> tuple[list[int], list[int], int]:
        """(kept, bitsets, universe) over the minimal separator sets, found once."""
        if self.minimal is None:
            kept, reduced = _minimal_separators(
                self.bits, self.universe, level_rows(self.levels, self.n_obj), self.n_obj)
            self.minimal = kept, reduced, (1 << len(kept)) - 1
        return self.minimal

    def _scan(self) -> tuple[list[int], list[int], int]:
        """(bitsets, suffix unions, universe) for the lexicographic scans, over
        the minimal separator sets once found: the same covers, in the same order."""
        bits, universe = self.minimal[1:] if self.minimal else (self.bits, self.universe)
        return bits, _suffix_unions(bits), universe

    def _least(self, upper: int, floor: int) -> tuple[int, tuple[int, ...] | None]:
        """The one descent, and the only caller of `_gated`: (v, a cover of v
        landmarks met on the way, or None), for upper >= 1, with
        v = min(upper, value()) when value() >= floor; when value() < floor it
        may stop at any v from min(upper, value()) to min(upper, floor).
        Gated at upper - 1, the branch-and-bound over the minimal separator
        sets gives v, with no witness; otherwise scans refute upper - 1,
        upper - 2, ... down to floor (generator existence is monotone in size)."""
        if self._gated(upper - 1):
            kept, bits, universe = self._reduced()
            # a greedy cover of the minimal sets covers every pair; it is the
            # smaller one in 43 of the 191 gated hard_gnp seed-0 solves
            return _branch_and_bound_size(bits, universe, kept, min(upper, _greedy_cover_size(bits, universe))), None
        scan = self._scan()
        witness = None
        while upper > floor and (found := next(_covers(*scan, upper - 1), None)):
            witness, upper = found, upper - 1
        return upper, witness

    def fits(self, size: int) -> bool:
        """True when at most `size` landmarks cover every pair, that is when
        value() <= size: the descent from size + 1 that stops at size."""
        if size < 1 or self.universe == 0:
            return size >= 0 and self.universe == 0
        return self._least(min(size, len(self.bits)) + 1, size)[0] <= size

    def value(self) -> int:
        """The fewest landmarks that cover every pair, with no witness scan."""
        return self._least(_greedy_cover_size(self.bits, self.universe), 1)[0] if self.universe else 0

    def solve(self, want_all: bool) -> DimensionResult:
        """The optimum, its lex-least witness, and every basis if `want_all`."""
        if self.universe == 0:
            # no pair to separate (one vertex, or at most one edge): the empty set
            return DimensionResult(0, (), ((),) if want_all else None)
        opt, witness = self._least(_greedy_cover_size(self.bits, self.universe), 1)
        covers = _covers(*self._scan(), opt)
        if want_all:
            all_bases = tuple(covers)
            return DimensionResult(opt, all_bases[0], all_bases)
        return DimensionResult(opt, witness or next(covers))


def _problem(g: Graph, edges: bool) -> _Cover:
    """The cover search of g's edge problem if `edges`, else of its vertex
    problem, behind `_guard`."""
    n_obj = g.m if edges else g.n
    _guard(g, g.n, n_obj, "edge metric dimension" if edges else "metric dimension")
    return _Cover(g.edge_levels if edges else all_pairs_distances(g).levels, n_obj)


def metric_dimension(g: Graph, want_all_bases: bool = False) -> DimensionResult:
    """Minimum vertex set with pairwise distinct vertex signatures."""
    return _problem(g, False).solve(want_all_bases)


def edge_metric_dimension(g: Graph, want_all_bases: bool = False) -> DimensionResult:
    """Minimum vertex set with pairwise distinct edge signatures."""
    return _problem(g, True).solve(want_all_bases)


def min_joint_cover(g: Graph) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Smallest |S ∪ T| over all minimum vertex bases S and edge bases T.

    Returns (k, (S, T)) with the lexicographically least achieving pair.
    """
    # C(objects, 2) grows with the objects: one guard covers both instances
    _guard(g, g.n, max(g.n, g.m), "joint cover")
    if g.m == 0:
        raise NoEdgesError("joint cover requires at least one edge")
    vres = _Cover(all_pairs_distances(g).levels, g.n).solve(True)
    eres = _Cover(g.edge_levels, g.m).solve(True)
    # the bases come in lexicographic order: the first pair at the least size is the least
    t_masks = [(sum(1 << v for v in t), t) for t in eres.all_bases]
    best = None
    for s in vres.all_bases:
        s_mask = sum(1 << v for v in s)
        for t_mask, t in t_masks:
            size = (s_mask | t_mask).bit_count()
            if best is None or size < best[0]:
                best = size, s, t
    return best[0], (best[1], best[2])
