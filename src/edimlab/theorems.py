"""Executable checks for the structural results on edge metric dimension.

Every check returns a TheoremReport with verdict "holds", "fails", or
"not_applicable".  A fails verdict always carries a certificate with the
concrete numbers needed to re-check the violation independently;
not_applicable records which precondition excluded the instance.  Passing
instances keep the certificate empty.

A sweepable statement needs dim or edim only against a threshold, so its
check decides that threshold with the refutations of the graph's
cover-search instance (`resolver._problem(g, edges).fits(s)`, "do at most
s landmarks resolve the objects?"): edim = n - 1 is "not n - 2 but
n - 1", and a bound that grows with dim or edim holds exactly when no
fewer landmarks than the least value meeting it suffice.  The instance
gives its `value()` only for a failure's certificate.

CHECKS is the one registry of the statements that a sweep over all small
connected graphs can check: it maps each id to its checker and to the
smallest n the sweep feeds it.  The CLI takes its `verify` choices and its
single-graph dispatch from it; F_k and H_k are checked per k instead, by
one certification of their values (no witness scan) for k to MAX_FAMILY_K.
"""

import json
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from math import comb

from .constructions import (
    _check_path_copies,
    _path_product_problem,
    construct_F,
    construct_H,
    join,
    witness_from_joint_cover,
)
from .errors import DisconnectedError, KOutOfRangeError
from .experiments import _connected_graph_from_mask, class_sweep, labeled_masks
from .formats import write_graph6
from .graph import Graph, bits_of, build_graph, diameter, is_connected, max_degree
from .resolver import _problem, min_joint_cover

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"

MAX_FAMILY_K = 6  # the last k whose F_k and H_k edim instances fit resolver.MAX_PAIR_BITS

@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    graph: str
    verdict: str
    certificate: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_record(self) -> str:
        cert = json.dumps(self.certificate, sort_keys=True) if self.certificate else "{}"
        return f"{self.theorem_id}\t{self.graph}\t{self.verdict}\t{cert}"


def _graph_id(g: Graph) -> str:
    """g's graph6, by which a check reports it; a disconnected g is refused."""
    if not is_connected(g):
        raise DisconnectedError("theorem checks require a connected graph")
    return write_graph6(g)


def full_edim_condition(g: Graph) -> tuple[bool, tuple[int, int] | None]:
    """Do all vertex pairs admit a hub neighbour?

    For vertices v1 != v2 a hub is a common neighbour u that is also
    adjacent to every non-mutual neighbour of v1 and v2.  Returns
    (True, None) or (False, first_pair_without_hub).
    """
    if not is_connected(g):
        raise DisconnectedError("condition check requires a connected graph")
    adj = g.adj_bits
    for v1 in range(g.n):
        a1 = adj[v1]
        for v2 in range(v1 + 1, g.n):
            need = a1 ^ adj[v2]
            hub_found = False
            for u in bits_of(a1 & adj[v2]):
                if need & ~adj[u] == 0:
                    hub_found = True
                    break
            if not hub_found:
                return False, (v1, v2)
    return True, None


def _least(bound: Callable[[int], int], target: int) -> int:
    """The least k >= 0 with target <= bound(k), for bound non-decreasing in k."""
    k = 0
    while bound(k) < target:
        k += 1
    return k


def _na(theorem_id: str, gid: str, reason: str, **extra) -> TheoremReport:
    cert = {"reason": reason}
    cert.update(extra)
    return TheoremReport(theorem_id, gid, NOT_APPLICABLE, cert)


def check_ncondition_theorem(g: Graph) -> TheoremReport:
    """edim = n-1 exactly when every vertex pair has a hub neighbour."""
    gid = _graph_id(g)
    if g.n < 2 or g.m < 2:
        return _na("ncondition", gid, "needs n >= 2 and at least 2 edges", n=g.n, m=g.m)
    problem = _problem(g, True)
    full = not problem.fits(g.n - 2) and problem.fits(g.n - 1)
    cond, pair = full_edim_condition(g)
    if full == cond:
        return TheoremReport("ncondition", gid, HOLDS)
    cert = {"n": g.n, "edim": problem.value(), "condition": cond}
    if pair is not None:
        cert["pair_without_hub"] = list(pair)
    return TheoremReport("ncondition", gid, FAILS, cert)


def check_corollary_diam_triangle(g: Graph) -> TheoremReport:
    """edim = n-1 forces diameter <= 2 and every edge inside a triangle."""
    gid = _graph_id(g)
    if g.n < 2 or g.m < 2:
        return _na("corollary", gid, "needs n >= 2 and at least 2 edges", n=g.n, m=g.m)
    fits = _problem(g, True).fits
    if fits(g.n - 2) or not fits(g.n - 1):
        return TheoremReport("corollary", gid, HOLDS)
    edim = g.n - 1
    diam = diameter(g)
    if diam > 2:
        return TheoremReport(
            "corollary", gid, FAILS, {"n": g.n, "edim": edim, "diameter": diam}
        )
    for x, y in g.edges:
        if g.adj_bits[x] & g.adj_bits[y] == 0:
            return TheoremReport(
                "corollary", gid, FAILS,
                {"n": g.n, "edim": edim, "edge_outside_triangle": [x, y]},
            )
    return TheoremReport("corollary", gid, HOLDS)


def check_vertex_count_bound(g: Graph) -> TheoremReport:
    """n <= dim + diameter^dim.

    The bound does not fall as dim grows, so it holds exactly when
    dim >= k0, the least k with n <= k + diameter^k.
    """
    gid = _graph_id(g)
    if g.n < 2:
        return _na("vertex_bound", gid, "needs n >= 2", n=g.n)
    problem = _problem(g, False)
    diam = diameter(g)
    if not problem.fits(_least(lambda k: k + diam**k, g.n) - 1):
        return TheoremReport("vertex_bound", gid, HOLDS)
    dim = problem.value()
    bound = dim + diam**dim
    return TheoremReport(
        "vertex_bound", gid, FAILS,
        {"n": g.n, "dim": dim, "diameter": diam, "bound": bound},
    )


def _edge_count_bound(k: int, diam: int) -> int:
    return comb(k, 2) + (k * diam ** (k - 1) if k >= 1 else 0) + diam**k


def check_edge_count_bound(g: Graph) -> TheoremReport:
    """m <= C(k, 2) + k * diameter^(k-1) + diameter^k with k = edim.

    Decided as the vertex bound is: it holds exactly when edim >= k0, the
    least k whose bound reaches m.
    """
    gid = _graph_id(g)
    if g.m < 1:
        return _na("edge_bound", gid, "needs at least one edge", m=g.m)
    problem = _problem(g, True)
    diam = diameter(g)
    if not problem.fits(_least(lambda k: _edge_count_bound(k, diam), g.m) - 1):
        return TheoremReport("edge_bound", gid, HOLDS)
    k = problem.value()
    bound = _edge_count_bound(k, diam)
    return TheoremReport(
        "edge_bound", gid, FAILS,
        {"m": g.m, "edim": k, "diameter": diam, "bound": bound},
    )


def check_max_degree_lemmas(g: Graph) -> TheoremReport:
    """A universal vertex forces edim >= n-2; two universal vertices force edim = n-1."""
    gid = _graph_id(g)
    if g.n < 3:
        return _na("degree_lemmas", gid, "needs n >= 3", n=g.n)
    if max_degree(g) < g.n - 1:
        return TheoremReport("degree_lemmas", gid, HOLDS)
    problem = _problem(g, True)
    fits = problem.fits
    universal = sum(1 for a in g.adj_bits if a.bit_count() == g.n - 1)
    # edim is n - 2 or n - 1, and n - 1 when two vertices are universal
    if fits(g.n - 3) or not fits(g.n - 1) or (universal >= 2 and fits(g.n - 2)):
        return TheoremReport(
            "degree_lemmas", gid, FAILS,
            {"n": g.n, "edim": problem.value(), "universal_vertices": universal},
        )
    return TheoremReport("degree_lemmas", gid, HOLDS)


def _certify(theorem_id: str, k: int, construct, closed_form) -> TheoremReport:
    """(dim, edim) of the family graph construct(k) against closed_form(k),
    values only; k is checked before any graph is built."""
    if type(k) is not int or not 1 <= k <= MAX_FAMILY_K:
        raise KOutOfRangeError(f"full certification supports k in 1..{MAX_FAMILY_K}, got {k!r}")
    g = construct(k).graph
    gid = f"{theorem_id[0].upper()}_{k}"
    dim, edim = _problem(g, False).value(), _problem(g, True).value()
    want_dim, want_edim = closed_form(k)
    if (dim, edim) == (want_dim, want_edim):
        return TheoremReport(theorem_id, gid, HOLDS)
    cert = {"k": k, "dim": dim, "edim": edim, "expected_dim": want_dim, "expected_edim": want_edim}
    if theorem_id == "hk":
        cert["n"] = g.n
    return TheoremReport(theorem_id, gid, FAILS, cert)


def check_Fk_theorem(k: int) -> TheoremReport:
    """dim(F_k) = k and edim(F_k) = k + 2^k - 2."""
    return _certify("fk", k, construct_F, lambda k: (k, k + (1 << k) - 2))


def check_Hk_theorem(k: int) -> TheoremReport:
    """dim(H_k) = k+1 and edim(H_k) = k + 2^k, which is n - 1."""
    return _certify("hk", k, construct_H, lambda k: (k + 1, k + (1 << k)))


def join_K1_predicate(g: Graph) -> bool:
    """For every x, some u is adjacent to every vertex outside N(x), x included."""
    if not is_connected(g):
        raise DisconnectedError("join predicate requires a connected graph")
    full = (1 << g.n) - 1
    adj = g.adj_bits
    for x in range(g.n):
        rest = full & ~adj[x]
        if not any(rest & ~adj[u] == 0 for u in range(g.n)):
            return False
    return True


def check_join_K1_theorem(g: Graph) -> TheoremReport:
    """edim(g + K_1) is n when the neighbourhood-cover predicate holds, else n-1."""
    gid = _graph_id(g)
    if g.n < 2:
        return _na("join", gid, "needs n >= 2", n=g.n)
    predicate = join_K1_predicate(g)
    joined = join(g, build_graph(1, []))
    expected = g.n if predicate else g.n - 1
    problem = _problem(joined, True)
    if problem.fits(expected) and not problem.fits(expected - 1):
        return TheoremReport("join", gid, HOLDS)
    return TheoremReport(
        "join", gid, FAILS,
        {"n": g.n, "predicate": predicate, "edim_of_join": problem.value(), "expected": expected},
    )


def check_product_theorem(g: Graph, m: int) -> TheoremReport:
    """k <= edim(g x P_m) <= k+1 for the joint-cover number k, with the
    constructed upper witness actually generating.

    Decided on the product's cover-search instance, over its edge levels
    composed from g's distances, so no product is built: the witness has k + 1
    landmarks, so when it generates edim <= k + 1.  For edim >= k, read
    the landmarks of any edge generator of g x P_m as vertices of g: from
    (u, i), two rungs between copies 1 and 2 are separated exactly when u
    separates their vertices in g, and two edges of copy 1 exactly when u
    separates those edges in g, so the landmarks resolve both V(g) and
    E(g), and edim >= max(dim, edim(g)).  The joint cover's bases have
    those sizes, so when k is the larger, edim >= k is settled; otherwise
    it takes a refutation of k - 1 landmarks on the product.  edim itself
    is solved only for the certificate of a failure.  The product's
    instance is asked for first, so a product over the vertex cap or the
    pair-bit cap is refused before the joint cover is solved.
    """
    _check_path_copies(m)
    gid = f"{_graph_id(g)} m={m}"
    if g.m < 1:
        return _na("product", gid, "needs at least one edge", edges=g.m)
    # the product's guard refuses all that the joint cover's would, so no solve is wasted
    product = _path_product_problem(g, m)
    k, cover = min_joint_cover(g)
    witness = witness_from_joint_cover(g, m, cover)
    witness_ok = product.generates(witness)
    if witness_ok and (k == max(map(len, cover)) or not product.fits(k - 1)):
        return TheoremReport("product", gid, HOLDS)
    edim = product.value()
    return TheoremReport(
        "product", gid, FAILS,
        {"joint_k": k, "edim_of_product": edim, "m": m,
         "witness": sorted(witness), "witness_generates": witness_ok},
    )


@dataclass(frozen=True)
class SweepSummary:
    theorem_id: str
    graphs: int
    holds: int
    fails: int
    not_applicable: int
    failures: tuple[TheoremReport, ...]
    per_n: tuple[tuple[int, int, int, int, int], ...]  # (n, graphs, holds, fails, na)

    @property
    def ok(self) -> bool:
        return self.fails == 0


@dataclass(frozen=True)
class Checker:
    run: Callable[[Graph, int | None], TheoremReport]  # run(g, m); only product reads m
    min_n: int  # smallest n whose graphs a sweep feeds to it


# The sweepable statements.  Each run looks its check_* function up by
# global name when called, so a patched or wrapped theorems.check_* sees
# every sweep call.
CHECKS = {
    "ncondition": Checker(lambda g, m: check_ncondition_theorem(g), 3),
    "corollary": Checker(lambda g, m: check_corollary_diam_triangle(g), 3),
    "vertex_bound": Checker(lambda g, m: check_vertex_count_bound(g), 2),
    "edge_bound": Checker(lambda g, m: check_edge_count_bound(g), 2),
    "degree_lemmas": Checker(lambda g, m: check_max_degree_lemmas(g), 3),
    "join": Checker(lambda g, m: check_join_K1_theorem(g), 2),
    "product": Checker(lambda g, m: check_product_theorem(g, m), 2),
}


def _sweep_block(job) -> tuple[Counter, list[TheoremReport]]:
    """Graphs per verdict, and failures, of one block of classes; a failing
    class is rechecked on every relabelling."""
    n, classes, theorem_id, m = job
    run = CHECKS[theorem_id].run
    counts: Counter = Counter()
    failures: list[TheoremReport] = []
    for mask, weight in classes:
        report = run(_connected_graph_from_mask(n, mask), m)
        if report.verdict != FAILS:
            counts[report.verdict] += weight
            continue
        for labeled in labeled_masks(n, mask):
            report = run(_connected_graph_from_mask(n, labeled), m)
            counts[report.verdict] += 1
            if report.verdict == FAILS:
                failures.append(report)
    return counts, failures


def sweep_theorem(theorem_id: str, n_max: int, threads: int = 1, m: int = 2) -> SweepSummary:
    """Run one checker over every labeled connected graph with n up to n_max.

    Every statement is invariant under relabelling, so the checker runs on
    one graph per isomorphism class and the class counts with its weight,
    the number of labeled graphs in it.  A class that fails is expanded:
    the checker runs again on each of its labeled graphs, and each is
    counted and reported on its own, so the counts, failures and
    certificates are those of a sweep over every labeled graph.  None of
    this depends on which graph stands for a class, so the sweep takes
    `class_sweep`'s classes: a class that the orbit test shows is
    generated once is keyed by the mask it was generated with, not its
    lowest, and only children whose ties span two orbits are labelled
    (see `experiments._class_levels`).  A sweep whose
    n_max is below the checker's min_n would check nothing, and is refused.
    """
    if theorem_id not in CHECKS:
        raise KeyError(f"unknown sweepable theorem {theorem_id!r}")
    if theorem_id == "product":
        _check_path_copies(m)
    total: Counter = Counter()
    per_n = []
    failures: list[TheoremReport] = []
    levels = class_sweep(_sweep_block, CHECKS[theorem_id].min_n, n_max, threads, theorem_id, m)
    for n, blocks in levels:
        counts: Counter = Counter()
        for block_counts, block_failures in blocks:
            counts.update(block_counts)
            failures.extend(block_failures)
        total.update(counts)
        per_n.append((n, counts.total(), counts[HOLDS], counts[FAILS], counts[NOT_APPLICABLE]))
    failures.sort(key=lambda r: r.graph)
    return SweepSummary(
        theorem_id, total.total(), total[HOLDS], total[FAILS], total[NOT_APPLICABLE],
        tuple(failures), tuple(per_n),
    )
