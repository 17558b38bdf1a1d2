from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edimlab import (
    BadParamsError,
    DisconnectedError,
    DuplicateEdgeError,
    NotAnEdgeError,
    SameVertexError,
    SelfLoopError,
    VertexOutOfRangeError,
    all_pairs_distances,
    bfs_levels,
    build_graph,
    construct_F,
    diameter,
    edge_vertex_distance,
    is_connected,
    max_degree,
    non_mutual_neighbors,
)
from edimlab.graph import MAX_VERTICES

from conftest import bfs_oracle, complete, connected_graphs, cycle, neighbours_from_edges, path, star


def test_build_canonicalizes_edges():
    g = build_graph(3, [(2, 1), (1, 0)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.adjacency == ((1,), (0, 2), (1,))
    assert g == build_graph(3, [(0, 1), (1, 2)])


@st.composite
def _graph_inputs(draw):
    """build_graph arguments on 1..8 vertices, any edge subset in any order:
    isolated vertices included."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]


@given(_graph_inputs())
@settings(max_examples=60, deadline=None)
def test_adjacency_degree_and_max_degree_follow_the_edges(inputs):
    g, twin = build_graph(*inputs), build_graph(*inputs)
    before = hash(g)
    nbrs = neighbours_from_edges(g)
    assert g.adjacency == tuple(tuple(sorted(row)) for row in nbrs)
    assert [g.degree(v) for v in range(g.n)] == [len(row) for row in nbrs]
    assert max_degree(g) == max(map(len, nbrs))
    # adjacency is derived state: reading it leaves == and hash alone
    assert g == twin and hash(g) == before == hash(twin)


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(2, [(0, 0)])


def test_build_rejects_duplicate_in_either_order():
    with pytest.raises(DuplicateEdgeError):
        build_graph(4, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range_vertex():
    with pytest.raises(VertexOutOfRangeError):
        build_graph(3, [(0, 3)])


def test_build_rejects_bad_sizes():
    with pytest.raises(BadParamsError):
        build_graph(0, [])
    with pytest.raises(BadParamsError):
        build_graph(MAX_VERTICES + 1, [])


def test_single_vertex_graph_is_connected():
    g = build_graph(1, [])
    assert is_connected(g)
    assert diameter(g) == 0
    assert max_degree(g) == 0


def test_is_connected():
    assert is_connected(path(4))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))


def test_distances_on_c6():
    dm = all_pairs_distances(cycle(6))
    assert dm.d[0][3] == 3
    assert dm.d[0][5] == 1


def test_distances_raise_on_disconnected():
    with pytest.raises(DisconnectedError):
        all_pairs_distances(build_graph(3, [(0, 1)]))


def test_distance_matrix_invariants_exhaustive_small():
    from edimlab.experiments import enumerate_connected_graphs

    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            d = all_pairs_distances(g).d
            for i in range(n):
                assert d[i][i] == 0
                for j in range(n):
                    assert d[i][j] == d[j][i]
                    assert (d[i][j] == 1) == g.has_edge(i, j)
                    for k in range(n):
                        assert d[i][j] <= d[i][k] + d[k][j]


@pytest.mark.extended
@pytest.mark.parametrize("n", [6, 7])
def test_distance_matrix_invariants_exhaustive_extended(n):
    from edimlab.experiments import enumerate_connected_graphs

    for g in enumerate_connected_graphs(n):
        d = all_pairs_distances(g).d
        for i in range(n):
            row = d[i]
            assert row[i] == 0
            for j in range(i + 1, n):
                assert row[j] == d[j][i]
                assert (row[j] == 1) == g.has_edge(i, j)
                # d[i][j] <= d[i][k] + d[k][j] for every k, reading d[k][j] as
                # d[j][k]: symmetry is asserted for every pair
                assert row[j] <= min(map(add, row, d[j]))


@given(connected_graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_distances_match_bfs_oracle(g):
    d = all_pairs_distances(g).d
    oracle = bfs_oracle(g)
    for i in range(g.n):
        for j in range(g.n):
            assert d[i][j] == oracle[i][j]


@given(connected_graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_bfs_levels_match_bfs_oracle(g):
    oracle = bfs_oracle(g)
    sources = [g.n - 1, 0, g.n - 1]
    for src, levels in zip(sources, bfs_levels(g, sources)):
        ecc = max(oracle[src].values())
        want = [sum(1 << v for v, d in oracle[src].items() if d == k) for k in range(ecc + 1)]
        assert levels == want
    assert len(bfs_levels(g)) == g.n and bfs_levels(g, []) == []
    assert all_pairs_distances(g).levels == tuple(map(tuple, bfs_levels(g)))


def test_bfs_levels_refuse_bad_sources_and_disconnected_graphs():
    for bad in (-1, 3):
        with pytest.raises(VertexOutOfRangeError):
            bfs_levels(path(3), [bad])
    with pytest.raises(DisconnectedError):
        bfs_levels(build_graph(3, [(0, 1)]), [2])


def test_diameters():
    assert diameter(complete(5)) == 1
    assert diameter(path(5)) == 4
    assert diameter(construct_F(2).graph) == 2
    assert diameter(build_graph(1, [])) == 0
    with pytest.raises(DisconnectedError):
        diameter(build_graph(3, [(0, 1)]))


def test_max_degrees():
    assert max_degree(star(4)) == 4
    assert max_degree(cycle(5)) == 2
    assert max_degree(construct_F(2).graph) == 5


def test_edge_vertex_distance():
    dm = all_pairs_distances(path(3))
    assert edge_vertex_distance(dm, (0, 1), 0) == 0
    assert edge_vertex_distance(dm, (0, 1), 2) == 1
    dm4 = all_pairs_distances(cycle(4))
    assert edge_vertex_distance(dm4, (0, 1), 2) == 1


def test_edge_vertex_distance_rejects_non_edge():
    dm = all_pairs_distances(cycle(4))
    with pytest.raises(NotAnEdgeError):
        edge_vertex_distance(dm, (0, 2), 1)
    with pytest.raises(NotAnEdgeError):
        edge_vertex_distance(dm, (1, 1), 0)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_edge_distance_zero_iff_endpoint(g):
    dm = all_pairs_distances(g)
    for e in g.edges:
        for v in range(g.n):
            assert (edge_vertex_distance(dm, e, v) == 0) == (v in e)


def test_non_mutual_neighbors_examples():
    assert non_mutual_neighbors(complete(4), 0, 1) == {0, 1}
    assert non_mutual_neighbors(path(3), 0, 2) == set()
    assert non_mutual_neighbors(star(3), 0, 1) == {0, 1, 2, 3}


def test_non_mutual_neighbors_rejects_same_vertex():
    with pytest.raises(SameVertexError):
        non_mutual_neighbors(path(3), 1, 1)
    with pytest.raises(VertexOutOfRangeError):
        non_mutual_neighbors(path(3), 0, 5)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_non_mutual_is_symmetric_difference(g):
    nbrs = neighbours_from_edges(g)
    for v1 in range(g.n):
        for v2 in range(v1 + 1, g.n):
            got = non_mutual_neighbors(g, v1, v2)
            n1, n2 = nbrs[v1], nbrs[v2]
            assert got == (n1 | n2) - (n1 & n2)
            assert got == non_mutual_neighbors(g, v2, v1)
