import hashlib
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edimlab import (
    BadParamsError,
    DisconnectedError,
    KOutOfRangeError,
    MTooSmallError,
    NTooLargeError,
    build_graph,
    cartesian_path,
    check_corollary_diam_triangle,
    check_edge_count_bound,
    check_Fk_theorem,
    check_Hk_theorem,
    check_join_K1_theorem,
    check_max_degree_lemmas,
    check_ncondition_theorem,
    check_product_theorem,
    check_vertex_count_bound,
    construct_F,
    construct_H,
    edge_metric_dimension,
    enumerate_connected_graphs,
    full_edim_condition,
    is_connected,
    is_edge_generator,
    join_K1_predicate,
    max_degree,
    metric_dimension,
    min_joint_cover,
    parse_graph6,
    product_upper_witness,
    sweep_theorem,
    write_graph6,
)
from edimlab import resolver, theorems
from edimlab.constructions import _path_product_problem, join, witness_from_joint_cover
from edimlab.experiments import _class_levels, _graph_of_mask, connected_classes
from edimlab.theorems import FAILS, HOLDS, MAX_FAMILY_K, NOT_APPLICABLE, TheoremReport

from conftest import complete, connected_graphs, cycle, neighbours_from_edges, path, star


def test_full_edim_condition_examples():
    assert full_edim_condition(complete(4)) == (True, None)
    ok, pair = full_edim_condition(path(3))
    assert not ok and pair == (0, 1)


def test_full_edim_condition_fails_on_F2_at_the_predicted_pair():
    g = construct_F(2).graph
    ok, _ = full_edim_condition(g)
    assert not ok
    # direct recheck for the empty-set / full-set clique pair (indices 2 and 5):
    # a hub must be adjacent to 2, to 5, and to every non-mutual neighbour
    nbrs = neighbours_from_edges(g)
    need = nbrs[2] ^ nbrs[5]
    hubs = [u for u in range(g.n) if {2, 5} | need <= nbrs[u]]
    assert hubs == []


def test_ncondition_checker():
    assert check_ncondition_theorem(complete(4)).verdict == HOLDS
    assert check_ncondition_theorem(path(4)).verdict == HOLDS
    report = check_ncondition_theorem(path(2))
    assert report.verdict == NOT_APPLICABLE
    assert report.certificate["reason"]


def test_corollary_checker():
    assert check_corollary_diam_triangle(complete(4)).verdict == HOLDS
    assert check_corollary_diam_triangle(cycle(5)).verdict == HOLDS
    assert check_corollary_diam_triangle(build_graph(1, [])).verdict == NOT_APPLICABLE


def test_vertex_count_bound_checker():
    assert check_vertex_count_bound(path(5)).verdict == HOLDS
    assert check_vertex_count_bound(construct_F(2).graph).verdict == HOLDS
    assert check_vertex_count_bound(build_graph(1, [])).verdict == NOT_APPLICABLE


def test_edge_count_bound_checker():
    assert check_edge_count_bound(complete(4)).verdict == HOLDS
    assert check_edge_count_bound(path(5)).verdict == HOLDS
    assert check_edge_count_bound(path(2)).verdict == HOLDS  # edim 0, bound 1
    assert check_edge_count_bound(build_graph(1, [])).verdict == NOT_APPLICABLE


def test_max_degree_lemma_checker():
    assert check_max_degree_lemmas(star(4)).verdict == HOLDS
    assert check_max_degree_lemmas(complete(4)).verdict == HOLDS
    assert check_max_degree_lemmas(cycle(5)).verdict == HOLDS  # no universal vertex
    assert check_max_degree_lemmas(path(2)).verdict == NOT_APPLICABLE


def test_fk_hk_checkers():
    for k in (1, 2, 3):
        assert check_Fk_theorem(k).verdict == HOLDS
    for k in (1, 2):
        assert check_Hk_theorem(k).verdict == HOLDS
    with pytest.raises(KOutOfRangeError):
        check_Fk_theorem(7)
    with pytest.raises(KOutOfRangeError):
        check_Hk_theorem(7)


@pytest.mark.parametrize("check, k", [
    (check_Fk_theorem, 5),
    (check_Hk_theorem, 4),
    (check_Hk_theorem, 5),
    pytest.param(check_Fk_theorem, 6, marks=pytest.mark.extended),
    pytest.param(check_Hk_theorem, 6, marks=pytest.mark.extended),
])
def test_the_families_hold_up_to_max_family_k(check, k):
    assert check(k).verdict == HOLDS


def test_max_family_k_is_the_last_k_whose_edim_instances_fit_the_pair_bit_cap():
    for build in (construct_F, construct_H):
        g = build(MAX_FAMILY_K).graph
        resolver._guard(g, g.n, g.m, "edge metric dimension")
        g = build(MAX_FAMILY_K + 1).graph
        with pytest.raises(NTooLargeError):
            resolver._guard(g, g.n, g.m, "edge metric dimension")


@pytest.mark.parametrize("k", [0, MAX_FAMILY_K + 1, 11, 3.0])
def test_a_family_k_out_of_range_is_refused_before_its_graph_is_built(monkeypatch, k):
    def unbuilt(k):
        raise AssertionError(f"built the family graph for k = {k}")

    for name in ("construct_F", "construct_H"):
        monkeypatch.setattr(theorems, name, unbuilt)
    for check in (check_Fk_theorem, check_Hk_theorem):
        with pytest.raises(KOutOfRangeError, match=f"1..{MAX_FAMILY_K}"):
            check(k)


def test_a_family_that_misses_its_closed_form_fails_with_its_values(monkeypatch):
    # checked against the graph for k - 1, F_3 and H_3 miss their values
    for name in ("construct_F", "construct_H"):
        build = getattr(theorems, name)
        monkeypatch.setattr(theorems, name, lambda k, build=build: build(k - 1))
    assert check_Fk_theorem(4).to_record() == (
        'fk\tF_4\tfails\t{"dim": 3, "edim": 9, "expected_dim": 4, "expected_edim": 18, "k": 4}'
    )
    assert check_Hk_theorem(4).to_record() == (
        'hk\tH_4\tfails\t{"dim": 4, "edim": 11, "expected_dim": 5, "expected_edim": 20, "k": 4, "n": 12}'
    )


def test_join_predicate_examples():
    assert join_K1_predicate(complete(2))
    assert join_K1_predicate(complete(5))
    assert join_K1_predicate(cycle(4))
    # the centre of a 3-path neighbours both leaves, so the predicate holds
    assert join_K1_predicate(path(3))
    assert not join_K1_predicate(path(4))
    assert not join_K1_predicate(cycle(6))


def test_join_checker():
    assert check_join_K1_theorem(cycle(4)).verdict == HOLDS
    assert check_join_K1_theorem(path(3)).verdict == HOLDS
    assert check_join_K1_theorem(path(4)).verdict == HOLDS
    assert check_join_K1_theorem(build_graph(1, [])).verdict == NOT_APPLICABLE


def test_product_checker():
    assert check_product_theorem(path(3), 4).verdict == HOLDS
    assert check_product_theorem(complete(3), 2).verdict == HOLDS
    with pytest.raises(MTooSmallError):
        check_product_theorem(path(3), 1)
    # the one-vertex graph has no edge, so no joint cover: not applicable,
    # after the checks of m and of connectivity
    report = check_product_theorem(build_graph(1, []), 2)
    assert report.to_record() == (
        'product\t@ m=2\tnot_applicable\t{"edges": 0, "reason": "needs at least one edge"}'
    )
    with pytest.raises(MTooSmallError):
        check_product_theorem(build_graph(1, []), 1)


@pytest.mark.parametrize("g, m, error, match", [
    # 200 landmarks x C(2 * 4950 + 100, 2) is about 1.0e10 pair bits
    (complete(100), 2, NTooLargeError, "bits of pair bitsets"),
    (complete(60), 100, BadParamsError, "product would have 6000 vertices"),
], ids=["pair_bit_cap", "vertex_cap"])
def test_the_product_check_refuses_a_product_over_a_cap_before_the_joint_cover(monkeypatch, g, m, error, match):
    def unsolved(g):
        raise AssertionError("solved the joint cover of a refused product")

    monkeypatch.setattr(theorems, "min_joint_cover", unsolved)
    with pytest.raises(error, match=match):
        check_product_theorem(g, m)


def test_the_products_guard_refuses_whatever_the_joint_covers_guard_refuses(monkeypatch):
    # n*m >= 2n landmarks and m|E| + (m-1)n > max(n, |E|) objects: with the
    # cap one bit below g's joint-cover need, the product is refused first
    def unsolved(g):
        raise AssertionError("solved the joint cover of a refused product")

    monkeypatch.setattr(theorems, "min_joint_cover", unsolved)
    for n in range(2, 6):
        for mask, _ in connected_classes(n):
            g = _graph_of_mask(n, mask)
            monkeypatch.setattr(resolver, "MAX_PAIR_BITS", n * comb(max(n, g.m), 2) - 1)
            with pytest.raises(NTooLargeError):
                resolver.min_joint_cover(g)
            for m in (2, 3):
                with pytest.raises(NTooLargeError):
                    check_product_theorem(g, m)


F_QP_M2_RECORD = (
    'product\tF~qP_ m=2\tfails\t{"edim_of_product": 4, "joint_k": 5, "m": 2, '
    '"witness": [1, 2, 4, 5, 6, 8], "witness_generates": true}'
)


def test_product_counterexample_to_the_minimum_bases_reading():
    # The class whose 2520 relabellings fail the n = 7 product sweep: the
    # joint cover over minimum bases has k = 5, yet edim(G x P_m) = 4.
    g = parse_graph6("F~qP_")
    assert (metric_dimension(g).value, edge_metric_dimension(g).value) == (2, 4)
    assert min_joint_cover(g) == (5, ((4, 5), (1, 2, 4, 6)))
    for m in (2, 3):
        assert edge_metric_dimension(cartesian_path(g, m).graph).value == 4
    witness = product_upper_witness(g, 2)
    assert sorted(witness) == [1, 2, 4, 5, 6, 8]
    assert is_edge_generator(cartesian_path(g, 2).graph, witness)
    assert check_product_theorem(g, 2).to_record() == F_QP_M2_RECORD


# a G(13, 0.85) draw of the seeded graphs beyond the census (below)
L13 = parse_graph6(r"L\]~r]h\z^v~~V")
L13_RECORDS = {
    m: f'product\tL\\]~r]h\\z^v~~V m={m}\tfails\t{{"edim_of_product": 11, "joint_k": 12, "m": {m}, '
    f'"witness": [0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, {last}], "witness_generates": true}}'
    for m, last in ((2, 13), (3, 26))
}
# an edge generator of G x P_m with 11 landmarks, numbered as cartesian_path numbers them
L13_PRODUCT_GENERATORS = {
    2: (0, 3, 4, 5, 6, 7, 8, 9, 23, 24, 25),
    3: (0, 3, 4, 5, 6, 7, 8, 9, 36, 37, 38),
}


@pytest.mark.parametrize("m", [2, 3])
def test_a_second_product_counterexample_at_n13(m):
    # dim 5 and edim 11 bound edim(G x P_m) below by 11 (the projection
    # bound), an 11-landmark generator bounds it above, and the joint cover
    # over minimum bases has k = 12: edim of the product is k - 1, as for F~qP_
    g = L13
    assert (g.n, g.m) == (13, 60)
    assert (metric_dimension(g).value, edge_metric_dimension(g).value) == (5, 11)
    assert min_joint_cover(g) == (12, ((1, 3, 4, 6, 7), (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)))
    product = cartesian_path(g, m).graph
    assert is_edge_generator(product, L13_PRODUCT_GENERATORS[m])
    report = check_product_theorem(g, m)
    assert report.to_record() == L13_RECORDS[m]
    assert is_edge_generator(product, report.certificate["witness"])


def test_the_product_edim_is_at_least_the_factors_dim_and_edim():
    # From landmark (u, i), two rungs between the same two copies of g are
    # separated exactly when u separates their vertices in g, and two edges
    # of one copy exactly when u separates those edges in g; so the
    # landmarks of a product generator, read as vertices of g, resolve both
    # the vertices and the edges of g.
    for n in range(2, 7):
        for mask, _ in connected_classes(n):
            g = _graph_of_mask(n, mask)
            floor = max(metric_dimension(g).value, edge_metric_dimension(g).value)
            for m in (2, 3):
                assert _path_product_problem(g, m).value() >= floor, (n, mask, m)


def test_the_joint_cover_is_its_larger_basis_on_110_of_the_112_classes_at_n6():
    tight = 0
    for mask, _ in connected_classes(6):
        k, (s, t) = min_joint_cover(_graph_of_mask(6, mask))
        tight += k == max(len(s), len(t))
    assert tight == 110


def _exact_product_report(g, m):
    """The product check's report by its defining rule: edim of the built
    product solved exactly, and the witness tested on the built product."""
    k, cover = min_joint_cover(g)
    edim = _path_product_problem(g, m).value()
    witness = witness_from_joint_cover(g, m, cover)
    witness_ok = is_edge_generator(cartesian_path(g, m).graph, witness)
    gid = f"{write_graph6(g)} m={m}"
    if k <= edim <= k + 1 and witness_ok:
        return TheoremReport("product", gid, HOLDS)
    return TheoremReport(
        "product", gid, FAILS,
        {"joint_k": k, "edim_of_product": edim, "m": m,
         "witness": sorted(witness), "witness_generates": witness_ok},
    )


def test_product_check_matches_its_exact_rule_on_every_class():
    for n in range(2, 7):
        for mask, _ in connected_classes(n):
            g = _graph_of_mask(n, mask)
            for m in (2, 3, 4):
                assert check_product_theorem(g, m) == _exact_product_report(g, m), (n, mask, m)


@given(connected_graphs(max_n=8), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
@example(g=parse_graph6("F~qP_"), m=2)  # fails: edim of the product is k - 1
@example(g=path(2), m=2)
def test_product_check_matches_its_exact_rule(g, m):
    assert check_product_theorem(g, m) == _exact_product_report(g, m)


@pytest.fixture
def solved(monkeypatch):
    """The object count of every cover-search instance asked for its
    optimum, by `solve` or by `value`."""
    calls = []
    for name in ("solve", "value"):
        real = getattr(resolver._Cover, name)

        def spy(self, *args, real=real):
            calls.append(self.n_obj)
            return real(self, *args)

        monkeypatch.setattr(resolver._Cover, name, spy)
    return calls


def test_a_holding_product_check_solves_no_product(monkeypatch, solved):
    # the verdict needs the witness test, and a refutation of k - 1 only
    # when k exceeds dim and edim of the factor:
    # C_5 x P_2 has 10 vertices and 15 edges, C_5 itself 5 and 5
    greedy = []
    real_greedy = resolver._greedy_cover_size

    def greedy_spy(bits, universe):
        greedy.append(len(bits))
        return real_greedy(bits, universe)

    monkeypatch.setattr(resolver, "_greedy_cover_size", greedy_spy)
    assert check_product_theorem(cycle(5), 2).verdict == HOLDS
    assert solved == [5, 5] and greedy == [5, 5]  # the joint cover's two solves on C_5


@pytest.mark.parametrize("g, m, sizes, verdict", [
    (cycle(5), 2, [], HOLDS),  # k = 2 = max(dim, edim): the projection bound settles edim >= k
    (parse_graph6("F~qP_"), 2, [4], FAILS),  # k = 5 > max(2, 4)
    (parse_graph6("EVz?"), 3, [3], HOLDS),  # k = 4 > max(2, 3), one of two such classes at n = 6
])
def test_the_product_check_refutes_k_minus_1_only_when_k_exceeds_dim_and_edim(monkeypatch, g, m, sizes, verdict):
    asked = []
    real_fits = resolver._Cover.fits

    def fits_spy(self, size):
        asked.append(size)
        return real_fits(self, size)

    # the joint cover asks no fits question: every size asked is the product's
    monkeypatch.setattr(resolver._Cover, "fits", fits_spy)
    report = check_product_theorem(g, m)
    assert report.verdict == verdict and asked == sizes
    if verdict == FAILS:
        assert report.to_record() == F_QP_M2_RECORD


@pytest.mark.extended
@pytest.mark.parametrize("m, digest", [
    (2, "406f12d2e8dce0deb0a4422d94502144c03c6a707deccb5133a93809b6ab8f66"),
    (3, "6c762e38e9855a5facf75ffe26a5855e2b4ec161b0e0232ec821e364de55ecfa"),
])
def test_product_checks_on_every_10th_class_at_n8_keep_their_records(m, digest):
    # the digests were taken with k - 1 refuted on every product, so the
    # projection bound's shortcut must leave all 1112 records as they were
    reports = [check_product_theorem(_graph_of_mask(8, mask), m) for mask, _ in connected_classes(8)[::10]]
    assert len(reports) == 1112
    assert sum(r.verdict == FAILS for r in reports) == 13
    records = "\n".join(r.to_record() for r in reports)
    assert hashlib.sha256(records.encode()).hexdigest() == digest


def _minimum_joint_witnesses(g, m):
    """(k, every witness the product check could build on g x P_m from a
    minimum joint cover): M = S u T over minimum vertex bases S and minimum
    edge bases T with |M| = k, in the first copy, plus the last copy of
    any vertex of M."""
    vertex = [sum(1 << v for v in s) for s in metric_dimension(g, True).all_bases]
    edge = [sum(1 << v for v in t) for t in edge_metric_dimension(g, True).all_bases]
    unions = {s | t for s in vertex for t in edge}
    k = min(u.bit_count() for u in unions)
    firsts = [[v for v in range(g.n) if u >> v & 1] for u in sorted(unions) if u.bit_count() == k]
    return k, [[*first, (m - 1) * g.n + x] for first in firsts for x in first]


def _count_generating_joint_witnesses(levels):
    """Check every minimum joint witness of every class for m = 2 and 3,
    and count them."""
    count = 0
    for n, classes in levels:
        for mask, _ in classes:
            g = _graph_of_mask(n, mask)
            k, cover = min_joint_cover(g)
            for m in (2, 3):
                product = _path_product_problem(g, m)
                size, witnesses = _minimum_joint_witnesses(g, m)
                assert size == k and sorted(witness_from_joint_cover(g, m, cover)) in witnesses
                for witness in witnesses:
                    assert product.generates(witness), (n, mask, m, witness)
                count += len(witnesses)
    return count


def test_every_minimum_joint_witness_generates_the_product_up_to_n7():
    # The check's witness comes from the lex-first joint cover, which
    # depends on the labelling; since every choice generates, the product
    # verdict is the same on every labelling of a class.
    levels = [(n, classes) for n, classes in _class_levels(7) if n >= 2]
    assert _count_generating_joint_witnesses(levels) == 2 * 28860


@pytest.mark.extended
def test_every_minimum_joint_witness_generates_the_product_at_n8():
    levels = list(_class_levels(8))[-1:]
    assert _count_generating_joint_witnesses(levels) == 2 * 491724


def _beyond_the_census():
    """G(n, p) for n = 9..14 at p = 0.25, 0.5 and 0.85, each redrawn until
    connected, then G + K_1 of each p = 0.85 draw.  A string seed, which
    random.Random hashes the same way in every process, gives the same
    graphs everywhere."""
    rng = random.Random("beyond:0")
    graphs = []
    for n in range(9, 15):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for p in (0.25, 0.5, 0.85):
            g = build_graph(n, [e for e in pairs if rng.random() < p])
            while not is_connected(g):
                g = build_graph(n, [e for e in pairs if rng.random() < p])
            graphs.append(g)
    return graphs + [join(g, build_graph(1, [])) for g in graphs[2::3]]


def test_every_statement_on_seeded_graphs_beyond_the_census():
    graphs = _beyond_the_census()
    assert len(graphs) == 24 and L13 in graphs
    # the rare sides are reached: edim = n - 1 by the hub condition, and a universal vertex
    assert sum(full_edim_condition(g)[0] for g in graphs) == 10
    assert sum(max_degree(g) == g.n - 1 for g in graphs) == 11
    failures = []
    for theorem_id, checker in theorems.CHECKS.items():
        verdicts = Counter()
        for g in graphs:
            report = checker.run(g, 2)
            verdicts[report.verdict] += 1
            if report.verdict == FAILS:
                failures.append(report.to_record())
        want = {HOLDS: 23, FAILS: 1} if theorem_id == "product" else {HOLDS: 24}
        assert verdicts == want, theorem_id
    assert failures == [L13_RECORDS[2]]


@pytest.mark.parametrize("check", [
    check_vertex_count_bound, check_edge_count_bound,
    check_corollary_diam_triangle, check_ncondition_theorem,
])
@pytest.mark.parametrize("g", [cycle(5), complete(4)], ids=["C5", "K4"])
def test_a_check_tests_connectivity_once_and_runs_one_all_source_bfs(bfs_runs, check, g):
    # the check's graph id, its solve and the diameter (reached on K_4 by
    # corollary, where edim = n - 1) share one BFS per kind; a fresh copy,
    # since the parametrized graph is shared between cases
    g = build_graph(g.n, g.edges)
    assert check(g).verdict == HOLDS
    assert bfs_runs == [0, *range(g.n)]


# The threshold checks' reports by their defining rules: dim or edim solved
# exactly and compared with the statement.  Each reads the helpers it shares
# with its check (full_edim_condition, diameter, max_degree,
# join_K1_predicate) through `theorems`, so a replaced helper applies to both.

def _exact_ncondition_report(g):
    gid = write_graph6(g)
    if g.n < 2 or g.m < 2:
        return check_ncondition_theorem(g)  # not applicable; no solve
    edim = edge_metric_dimension(g).value
    cond, pair = theorems.full_edim_condition(g)
    if (edim == g.n - 1) == cond:
        return TheoremReport("ncondition", gid, HOLDS)
    cert = {"n": g.n, "edim": edim, "condition": cond}
    if pair is not None:
        cert["pair_without_hub"] = list(pair)
    return TheoremReport("ncondition", gid, FAILS, cert)


def _exact_corollary_report(g):
    gid = write_graph6(g)
    if g.n < 2 or g.m < 2:
        return check_corollary_diam_triangle(g)
    edim = edge_metric_dimension(g).value
    if edim != g.n - 1:
        return TheoremReport("corollary", gid, HOLDS)
    diam = theorems.diameter(g)
    if diam > 2:
        return TheoremReport("corollary", gid, FAILS, {"n": g.n, "edim": edim, "diameter": diam})
    for x, y in g.edges:
        if g.adj_bits[x] & g.adj_bits[y] == 0:
            return TheoremReport(
                "corollary", gid, FAILS, {"n": g.n, "edim": edim, "edge_outside_triangle": [x, y]})
    return TheoremReport("corollary", gid, HOLDS)


def _exact_vertex_bound_report(g):
    gid = write_graph6(g)
    if g.n < 2:
        return check_vertex_count_bound(g)
    dim = metric_dimension(g).value
    diam = theorems.diameter(g)
    bound = dim + diam**dim
    if g.n <= bound:
        return TheoremReport("vertex_bound", gid, HOLDS)
    return TheoremReport(
        "vertex_bound", gid, FAILS, {"n": g.n, "dim": dim, "diameter": diam, "bound": bound})


def _exact_edge_bound_report(g):
    gid = write_graph6(g)
    if g.m < 1:
        return check_edge_count_bound(g)
    k = edge_metric_dimension(g).value
    diam = theorems.diameter(g)
    bound = comb(k, 2) + (k * diam ** (k - 1) if k >= 1 else 0) + diam**k
    if g.m <= bound:
        return TheoremReport("edge_bound", gid, HOLDS)
    return TheoremReport(
        "edge_bound", gid, FAILS, {"m": g.m, "edim": k, "diameter": diam, "bound": bound})


def _exact_degree_lemmas_report(g):
    gid = write_graph6(g)
    if g.n < 3:
        return check_max_degree_lemmas(g)
    if theorems.max_degree(g) < g.n - 1:
        return TheoremReport("degree_lemmas", gid, HOLDS)
    edim = edge_metric_dimension(g).value
    universal = sum(1 for a in g.adj_bits if a.bit_count() == g.n - 1)
    if edim not in (g.n - 1, g.n - 2) or (universal >= 2 and edim != g.n - 1):
        return TheoremReport(
            "degree_lemmas", gid, FAILS, {"n": g.n, "edim": edim, "universal_vertices": universal})
    return TheoremReport("degree_lemmas", gid, HOLDS)


def _exact_join_report(g):
    gid = write_graph6(g)
    if g.n < 2:
        return check_join_K1_theorem(g)
    predicate = theorems.join_K1_predicate(g)
    edim = edge_metric_dimension(join(g, build_graph(1, []))).value
    expected = g.n if predicate else g.n - 1
    if edim == expected:
        return TheoremReport("join", gid, HOLDS)
    return TheoremReport(
        "join", gid, FAILS,
        {"n": g.n, "predicate": predicate, "edim_of_join": edim, "expected": expected})


EXACT_REPORTS = {
    "ncondition": _exact_ncondition_report,
    "corollary": _exact_corollary_report,
    "vertex_bound": _exact_vertex_bound_report,
    "edge_bound": _exact_edge_bound_report,
    "degree_lemmas": _exact_degree_lemmas_report,
    "join": _exact_join_report,
}

# per check, the helper it reads and a stand-in that makes the statement fail
# on some graphs, so the failure path and its certificate are compared too
FORCED_FAILURES = {
    "ncondition": ("full_edim_condition", lambda real: lambda g: (not real(g)[0], real(g)[1])),
    "corollary": ("diameter", lambda real: lambda g: 3),
    "vertex_bound": ("diameter", lambda real: lambda g: max(1, real(g) - 1)),
    "edge_bound": ("diameter", lambda real: lambda g: 1),
    "degree_lemmas": ("max_degree", lambda real: lambda g: g.n - 1),
    "join": ("join_K1_predicate", lambda real: lambda g: not real(g)),
}


def _forced(monkeypatch, theorem_id):
    attr, stand_in = FORCED_FAILURES[theorem_id]
    monkeypatch.setattr(theorems, attr, stand_in(getattr(theorems, attr)))


@pytest.mark.parametrize("forced", [False, True], ids=["as_is", "forced"])
@pytest.mark.parametrize("theorem_id", sorted(EXACT_REPORTS))
def test_threshold_checks_match_their_exact_rules_on_every_class(monkeypatch, theorem_id, forced):
    if forced:
        _forced(monkeypatch, theorem_id)
    run, exact = theorems.CHECKS[theorem_id].run, EXACT_REPORTS[theorem_id]
    verdicts = Counter()
    for n in range(1, 7):
        for mask, _ in connected_classes(n):
            g = _graph_of_mask(n, mask)
            report = run(g, None)
            assert report == exact(_graph_of_mask(n, mask)), (n, mask)
            verdicts[report.verdict] += 1
    # the statements hold, and every stand-in makes some classes fail
    assert bool(verdicts[FAILS]) == forced, verdicts


@given(connected_graphs(max_n=8), st.sampled_from(sorted(EXACT_REPORTS)), st.booleans())
@settings(max_examples=60, deadline=None)
@example(g=complete(5), theorem_id="corollary", forced=True)
@example(g=star(5), theorem_id="degree_lemmas", forced=False)
def test_threshold_checks_match_their_exact_rules(g, theorem_id, forced):
    with pytest.MonkeyPatch.context() as monkeypatch:
        if forced:
            _forced(monkeypatch, theorem_id)
        report = theorems.CHECKS[theorem_id].run(g, None)
        assert report == EXACT_REPORTS[theorem_id](build_graph(g.n, g.edges))


@pytest.mark.parametrize("check", [check_ncondition_theorem, check_vertex_count_bound])
def test_a_holding_threshold_check_solves_nothing(monkeypatch, solved, check):
    for n in range(3, 7):
        for mask, _ in connected_classes(n):
            assert check(_graph_of_mask(n, mask)).verdict == HOLDS
    assert solved == []
    # a failure still solves once, for its certificate
    _forced(monkeypatch, check(cycle(5)).theorem_id)
    assert check(cycle(5)).verdict == FAILS
    assert solved == [5]


def test_a_product_check_runs_only_the_factors_connectivity_test_and_all_source_bfs(bfs_runs):
    # the solve and the witness test read the product's edge levels composed
    # from C_5's distances: no BFS runs on C_5 x P_2
    assert check_product_theorem(cycle(5), 2).verdict == HOLDS
    assert bfs_runs == [0, 0, 1, 2, 3, 4]


def test_reports_carry_graph_id_and_record_shape():
    report = check_ncondition_theorem(complete(4))
    assert report.graph == "C~"
    assert report.to_record() == "ncondition\tC~\tholds\t{}"
    na = check_ncondition_theorem(path(2))
    assert "reason" in na.certificate


# small disconnected graphs, some below a checker's smallest n or edge count
DISCONNECTED = [
    build_graph(3, [(0, 1)]),
    build_graph(2, []),
    build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
]


@pytest.mark.parametrize("theorem_id", sorted(theorems.CHECKS))
@pytest.mark.parametrize("g", DISCONNECTED, ids=["P2+K1", "2K1", "K3+K2"])
def test_every_check_refuses_a_disconnected_graph(theorem_id, g):
    with pytest.raises(DisconnectedError):
        theorems.CHECKS[theorem_id].run(g, 2)


def test_small_sweeps_all_hold():
    for theorem in ("ncondition", "corollary", "vertex_bound", "edge_bound",
                    "degree_lemmas", "join"):
        summary = sweep_theorem(theorem, 5)
        assert summary.ok, summary
        assert summary.failures == ()
        assert summary.holds + summary.not_applicable == summary.graphs
    summary = sweep_theorem("product", 3, m=2)
    assert summary.ok and summary.graphs == 5


def test_sweep_counts_are_deterministic_across_threads():
    a = sweep_theorem("ncondition", 5, threads=1)
    b = sweep_theorem("ncondition", 5, threads=3)
    assert a == b


def _fake_vertex_bound(g):
    """Fails on unicyclic graphs (m = n) with a labelling-dependent certificate;
    trees are not applicable; everything else holds."""
    gid = write_graph6(g)
    if g.m == g.n:
        return TheoremReport("vertex_bound", gid, FAILS, {"edges": [list(e) for e in g.edges]})
    if g.m == g.n - 1:
        return TheoremReport("vertex_bound", gid, NOT_APPLICABLE, {"reason": "tree"})
    return TheoremReport("vertex_bound", gid, HOLDS)


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_classes_are_expanded_to_every_labeled_graph(monkeypatch, threads):
    monkeypatch.setattr(theorems, "check_vertex_count_bound", _fake_vertex_bound)
    per_n, failures = [], []
    for n in range(2, 6):
        tally = {HOLDS: 0, FAILS: 0, NOT_APPLICABLE: 0}
        for g in enumerate_connected_graphs(n):
            report = _fake_vertex_bound(g)
            tally[report.verdict] += 1
            if report.verdict == FAILS:
                failures.append(report)
        per_n.append((n, sum(tally.values()), tally[HOLDS], tally[FAILS], tally[NOT_APPLICABLE]))
    failures.sort(key=lambda r: r.graph)
    summary = sweep_theorem("vertex_bound", 5, threads=threads)
    assert summary.per_n == tuple(per_n)
    assert summary.failures == tuple(failures)
    assert summary.fails == sum(row[3] for row in per_n) > 0
    assert (summary.graphs, summary.holds, summary.not_applicable) == (
        sum(row[1] for row in per_n), sum(row[2] for row in per_n), sum(row[4] for row in per_n),
    )


def _rendered(monkeypatch) -> list:
    """The graphs whose graph6 a report renders from now on."""
    seen = []
    real = theorems.write_graph6

    def spy(g):
        seen.append(g)
        return real(g)

    monkeypatch.setattr(theorems, "write_graph6", spy)
    return seen


@pytest.mark.parametrize("theorem_id", ["ncondition", "vertex_bound"])
def test_a_passing_sweep_renders_no_graph6(monkeypatch, theorem_id):
    rendered = _rendered(monkeypatch)
    summary = sweep_theorem(theorem_id, 6)
    # every labeled connected graph from the checker's min_n up to 6 vertices (OEIS A001187)
    labeled = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
    assert summary.ok and summary.graphs == sum(labeled[n] for n in range(theorems.CHECKS[theorem_id].min_n, 7))
    assert rendered == []


def test_a_report_renders_its_graph6_once_when_read(monkeypatch):
    rendered = _rendered(monkeypatch)
    g = cycle(5)
    report = check_ncondition_theorem(g)
    assert rendered == []
    assert report.to_record() == f"ncondition\t{write_graph6(g)}\tholds\t{{}}"
    assert report.to_dict()["graph"] == report.graph == "Dhc"
    assert rendered == [g]
    product = check_product_theorem(g, 3)
    assert (product.graph, product.graph) == ("Dhc m=3", "Dhc m=3") and rendered == [g, g]
    named = TheoremReport("product", "Dhc", HOLDS, m=3)
    assert named == product and len(rendered) == 2
