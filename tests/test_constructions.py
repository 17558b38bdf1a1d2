import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edimlab import (
    BadParamsError,
    DisconnectedError,
    KOutOfRangeError,
    MTooSmallError,
    NTooLargeError,
    all_pairs_distances,
    build_graph,
    cartesian_path,
    check_Fk_theorem,
    connected_classes,
    construct_F,
    construct_H,
    edge_metric_dimension,
    is_edge_generator,
    join,
    max_degree,
    min_joint_cover,
    product_upper_witness,
    standard_family,
    survey_triples,
)
from edimlab.constructions import (
    MAX_FK_K,
    _path_product_edge_levels,
    _path_product_problem,
    _standard_counts,
    witness_from_joint_cover,
)
from edimlab.experiments import _graph_of_mask
from edimlab.graph import _edge_levels, level_rows

from conftest import complete, connected_graphs, cycle, path


def test_construct_F1_is_a_path():
    got = construct_F(1)
    assert got.graph.edges == ((0, 2), (1, 2))
    assert got.labels == ("b1", "a{}", "a{1}")


def test_construct_F2_shape():
    got = construct_F(2)
    assert (got.graph.n, got.graph.m) == (6, 11)
    assert got.labels == ("b1", "b2", "a{}", "a{1}", "a{2}", "a{1,2}")
    assert max_degree(got.graph) == 5
    # a_B sits at the top index and is adjacent to everything
    assert got.graph.degree(5) == 5


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_construct_F_adjacency_rule(k):
    g = construct_F(k).graph
    assert g.n == k + (1 << k)
    for i in range(k):
        for j in range(k):
            if i != j:
                assert g.has_edge(i, j)
        for s in range(1 << k):
            assert g.has_edge(i, k + s) == bool(s >> i & 1)
    for s in range(1 << k):
        for t in range(s + 1, 1 << k):
            assert g.has_edge(k + s, k + t)


def test_construct_F_rejects_bad_k():
    with pytest.raises(KOutOfRangeError):
        construct_F(0)
    with pytest.raises(KOutOfRangeError):
        construct_F(MAX_FK_K + 1)


@pytest.mark.parametrize("call, error", [
    (lambda: build_graph(True, []), BadParamsError),
    (lambda: construct_F(True), KOutOfRangeError),
    (lambda: standard_family("path", [True]), BadParamsError),
    (lambda: survey_triples(True), BadParamsError),
    (lambda: check_Fk_theorem(True), KOutOfRangeError),
], ids=["build_graph", "construct_F", "standard_family", "survey_triples", "check_Fk_theorem"])
def test_a_bool_is_not_an_integer_parameter(call, error):
    with pytest.raises(error, match="True"):
        call()


def test_construct_H_adds_universal_vertex():
    got = construct_H(1)
    assert got.graph.n == 4
    assert got.labels[-1] == "t"
    assert got.graph.degree(3) == 3
    h2 = construct_H(2).graph
    assert h2.n == 7
    assert h2.degree(6) == 6
    # a_B keeps full degree after the join
    assert h2.degree(5) == 6


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_construct_H_is_F_joined_with_one_vertex(k):
    f, got = construct_F(k), construct_H(k)
    t = f.graph.n
    listed = sorted([*f.graph.edges, *((v, t) for v in range(t))])
    assert got.graph == join(f.graph, build_graph(1, [])) == build_graph(t + 1, listed)
    assert got.labels == (*f.labels, "t")


def test_join_examples():
    k1 = build_graph(1, [])
    assert join(k1, k1) == complete(2)
    fan = join(path(3), k1)
    assert (fan.n, fan.m) == (4, 5)
    wheel = join(cycle(4), k1)
    assert (wheel.n, wheel.m) == (5, 8)
    assert wheel.degree(4) == 4


def test_join_shifts_second_operand():
    g = join(path(2), path(2))
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_cartesian_path_examples():
    one = cartesian_path(build_graph(1, []), 4)
    assert one.graph == path(4)
    square = cartesian_path(path(2), 2)
    assert (square.graph.n, square.graph.m) == (4, 4)
    assert all(square.graph.degree(v) == 2 for v in range(4))
    grid = cartesian_path(path(3), 4)
    assert (grid.graph.n, grid.graph.m) == (12, 17)
    assert grid.labels[:4] == ("0(1)", "1(1)", "2(1)", "0(2)")


def test_cartesian_path_rejects_small_m():
    with pytest.raises(MTooSmallError):
        cartesian_path(path(3), 1)


@given(connected_graphs(max_n=5), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_cartesian_distance_law(g, m):
    prod = cartesian_path(g, m).graph
    dg = all_pairs_distances(g).d
    dp = all_pairs_distances(prod).d
    for i in range(m):
        for j in range(m):
            for v in range(g.n):
                for w in range(g.n):
                    assert dp[i * g.n + v][j * g.n + w] == dg[v][w] + abs(i - j)


@given(connected_graphs(min_n=1, max_n=6), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
@example(g=build_graph(1, []), m=3)
def test_path_product_edge_levels_are_the_products_edge_levels(g, m):
    prod = cartesian_path(g, m).graph
    # object number of each product edge: copy j's edge k, then rung (v, j)
    number = {}
    for j in range(m):
        for k, (x, y) in enumerate(g.edges):
            number[(j * g.n + x, j * g.n + y)] = j * g.m + k
        if j + 1 < m:
            for v in range(g.n):
                number[(j * g.n + v, (j + 1) * g.n + v)] = m * g.m + j * g.n + v
    assert sorted(number.values()) == list(range(prod.m))
    want = level_rows(_edge_levels(prod, all_pairs_distances(prod).levels), prod.m)
    got = level_rows(_path_product_edge_levels(g, m), prod.m)
    for row, want_row in zip(got, want, strict=True):
        assert [row[number[e]] for e in prod.edges] == list(want_row)


def test_path_product_edim_equals_the_generic_solve_on_every_class():
    for n in range(1, 7):
        for mask, _ in connected_classes(n):
            g = _graph_of_mask(n, mask)
            for m in (2, 3):
                got = _path_product_problem(g, m).solve(False)
                assert got == edge_metric_dimension(cartesian_path(g, m).graph), (n, mask, m)


@given(connected_graphs(min_n=1, max_n=8), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
@example(g=build_graph(1, []), m=2)  # the product is P_2, one edge
@example(g=build_graph(1, []), m=4)
@example(g=path(2), m=3)
def test_path_product_edim_equals_the_generic_solve(g, m):
    assert _path_product_problem(g, m).solve(False) == edge_metric_dimension(cartesian_path(g, m).graph)


def _witness_tests_agree(g, m, seed):
    """Whether each landmark set tried on g x P_m generates, after asserting
    that the test on the composed edge levels gives the same answer as
    `is_edge_generator` on the built product.  The sets are the joint-cover
    witness of the product check and four seeded subsets of at most k + 1
    landmarks."""
    k, cover = min_joint_cover(g)
    rng = random.Random(seed)
    landmark_sets = [witness_from_joint_cover(g, m, cover)]
    landmark_sets += [rng.sample(range(m * g.n), rng.randint(1, k + 1)) for _ in range(4)]
    product = _path_product_problem(g, m)
    prod = cartesian_path(g, m).graph
    answers = set()
    for s in landmark_sets:
        got = product.generates(s)
        assert got == is_edge_generator(prod, s), (g.n, g.edges, m, sorted(s))
        answers.add(got)
    return answers


def test_the_witness_test_on_composed_levels_matches_the_built_product_on_every_class():
    answers = set()
    for n in range(2, 7):
        for mask, _ in connected_classes(n):
            g = _graph_of_mask(n, mask)
            for m in (2, 3, 4):
                answers |= _witness_tests_agree(g, m, f"{n}:{mask}:{m}")
    # the seeded subsets include sets that do not generate
    assert answers == {True, False}


@given(connected_graphs(max_n=8), st.integers(2, 4), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
@example(g=path(2), m=2, seed=0)
def test_the_witness_test_on_composed_levels_matches_the_built_product(g, m, seed):
    _witness_tests_agree(g, m, seed)


def test_path_product_edim_refuses_what_the_generic_solve_refuses():
    k100 = complete(100)
    disconnected = [build_graph(2, []), build_graph(4, [(0, 1), (2, 3)]), build_graph(101, k100.edges)]
    for g in disconnected:
        for solve in (_path_product_problem, lambda g, m: edge_metric_dimension(cartesian_path(g, m).graph)):
            # connectivity is tested before the pair-bit cap, which K_100 + K_1 exceeds
            with pytest.raises(DisconnectedError):
                solve(g, 2)
    with pytest.raises(MTooSmallError):
        _path_product_problem(path(3), 1)
    with pytest.raises(BadParamsError):
        _path_product_problem(path(2049), 2)
    # 200 landmarks x C(2 * 4950 + 100, 2) is about 1.0e10 pair bits
    with pytest.raises(NTooLargeError):
        edge_metric_dimension(cartesian_path(k100, 2).graph)


def test_path_product_edim_tests_the_cap_before_reading_distances(bfs_runs):
    # on a fresh K_100: only g's connectivity test, no all-source BFS
    with pytest.raises(NTooLargeError):
        _path_product_problem(complete(100), 2)
    assert bfs_runs == [0]


def test_standard_families():
    assert path(1).n == 1
    assert cycle(3) == complete(3)
    assert standard_family("star", [4]).m == 4
    kb = standard_family("complete_bipartite", [2, 3])
    assert (kb.n, kb.m) == (5, 6)
    assert not kb.has_edge(0, 1) and kb.has_edge(0, 2)
    grid = standard_family("grid", [3, 4])
    assert grid == cartesian_path(path(4), 3).graph


def _plain_family(n, adjacent):
    """n vertices, and an edge u < v wherever adjacent(u, v) holds."""
    return n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if adjacent(u, v))


def _plain_grid(rows, cols):
    """rows x cols cells numbered row by row, adjacent at Manhattan distance 1."""
    def adjacent(u, v):
        return abs(u // cols - v // cols) + abs(u % cols - v % cols) == 1

    return _plain_family(rows * cols, adjacent)


def _validated(n, edges):
    g = build_graph(n, edges)
    return g.n, g.edges


PLAIN_FAMILIES = (
    [("path", (n,), _plain_family(n, lambda u, v: v == u + 1)) for n in range(1, 12)]
    + [("cycle", (n,), _plain_family(n, lambda u, v, n=n: v == u + 1 or (u, v) == (0, n - 1)))
       for n in range(3, 12)]
    + [("complete", (n,), _plain_family(n, lambda u, v: True)) for n in range(1, 10)]
    + [("star", (n,), _plain_family(n + 1, lambda u, v: u == 0)) for n in range(1, 10)]
    + [("complete_bipartite", (a, b), _plain_family(a + b, lambda u, v, a=a: u < a <= v))
       for a in range(1, 5) for b in range(1, 5)]
    + [("grid", (r, c), _plain_grid(r, c)) for r in range(1, 6) for c in range(1, 6)]
    # too large for the plain builders: the validating build_graph on unsorted
    # lists, the cycle's wrap edge written (n - 1, 0)
    + [("complete", (300,), _validated(300, combinations(range(300), 2))),
       ("grid", (64, 64), _validated(4096, [(v, v + 1) for v in range(4096) if (v + 1) % 64]
                                     + [(v, v + 64) for v in range(4096 - 64)])),
       ("cycle", (4096,), _validated(4096, [(i, (i + 1) % 4096) for i in range(4096)]))]
)


@pytest.mark.parametrize("name, params, expected", PLAIN_FAMILIES)
def test_standard_family_matches_a_plain_builder(name, params, expected):
    g = standard_family(name, params)
    assert (g.n, g.edges) == expected
    assert _standard_counts(name, params) == (g.n, g.m)


def test_standard_family_rejects_bad_input():
    bad = [
        ("mystery", [3]),
        ("cycle", [2]),
        ("grid", [3]),
        ("path", [0]),
        ("star", [0]),
        ("complete_bipartite", [0, 2]),
        ("grid", [0, 3]),
        ("path", [3.0]),
        ("complete", ["3"]),
    ]
    for name, params in bad:
        for build in (standard_family, _standard_counts):
            with pytest.raises(BadParamsError):
                build(name, params)
    over_the_cap = [
        ("path", [4097], 4097),
        ("cycle", [4097], 4097),
        ("complete", [4097], 4097),
        ("star", [4096], 4097),
        ("complete_bipartite", [4000, 97], 4097),
        ("grid", [64, 65], 4160),
        # far over the cap: refused from the parameters, before any edge is listed
        ("complete", [10**9], 10**9),
        ("grid", [10**6, 10**6], 10**12),
    ]
    for name, params, order in over_the_cap:
        for build in (standard_family, _standard_counts):
            with pytest.raises(BadParamsError, match=f"would have {order} vertices, cap is 4096"):
                build(name, params)


def test_product_upper_witness_examples():
    assert product_upper_witness(path(3), 3) == {0, 6}
    assert product_upper_witness(complete(3), 2) == {0, 1, 3}


@given(connected_graphs(max_n=5), st.integers(2, 3))
@settings(max_examples=25, deadline=None)
def test_product_upper_witness_generates(g, m):
    k, _ = min_joint_cover(g)
    witness = product_upper_witness(g, m)
    assert len(witness) == k + 1
    assert is_edge_generator(cartesian_path(g, m).graph, witness)
