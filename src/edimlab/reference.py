"""Unoptimized reference solvers and the solver-equivalence sweep.

These scan subset sizes ascending and combinations lexicographically,
rebuilding every signature tuple from the distance matrix for each
candidate subset.  No bitsets, no pruning, no shortcuts: slow on purpose,
so they can serve as an independent check on the optimized solver.
"""

from itertools import combinations

from .errors import DisconnectedError
from .experiments import enumerate_connected_graphs
from .formats import write_graph6
from .graph import Graph, all_pairs_distances, is_connected
from .resolver import DimensionResult, edge_metric_dimension, metric_dimension


def _scan(objects, dm, n_landmarks: int, want_all: bool) -> DimensionResult:
    for size in range(n_landmarks + 1):
        found = []
        for comb in combinations(range(n_landmarks), size):
            sigs = set()
            ok = True
            for obj in objects:
                sig = tuple(min(dm.d[v][x] for x in obj) for v in comb)
                if sig in sigs:
                    ok = False
                    break
                sigs.add(sig)
            if ok:
                if not want_all:
                    return DimensionResult(size, comb, None)
                found.append(comb)
        if found:
            return DimensionResult(size, found[0], tuple(found))
    raise AssertionError("full landmark set failed to resolve")


def metric_dimension_naive(g: Graph, want_all_bases: bool = False) -> DimensionResult:
    if not is_connected(g):
        raise DisconnectedError("metric dimension requires a connected graph")
    dm = all_pairs_distances(g)
    return _scan([(x,) for x in range(g.n)], dm, g.n, want_all_bases)


def edge_metric_dimension_naive(g: Graph, want_all_bases: bool = False) -> DimensionResult:
    if not is_connected(g):
        raise DisconnectedError("edge metric dimension requires a connected graph")
    dm = all_pairs_distances(g)
    return _scan(list(g.edges), dm, g.n, want_all_bases)


def equivalence_sweep(n: int) -> list[str]:
    """Compare optimized and naive solvers on every connected graph with n vertices.

    Returns mismatch descriptions; an empty list means full agreement on
    both the value and the lexicographically-first witness.
    """
    bad = []
    for g in enumerate_connected_graphs(n):
        for name, fast, slow in (
            ("dim", metric_dimension, metric_dimension_naive),
            ("edim", edge_metric_dimension, edge_metric_dimension_naive),
        ):
            a = fast(g)
            b = slow(g)
            if (a.value, a.witness) != (b.value, b.witness):
                bad.append(
                    f"{name} mismatch on {write_graph6(g)}: "
                    f"optimized ({a.value}, {a.witness}) vs naive ({b.value}, {b.witness})"
                )
    return bad
