"""dim and edim of families with known closed forms, against their formulas.

The formulas are from the literature, stated here on their own: the
solver's answers are checked against them and every witness against the
generator predicates, so no expected value comes from the solver itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edimlab import (
    build_graph,
    edge_metric_dimension,
    is_edge_generator,
    is_vertex_generator,
    join,
    metric_dimension,
    standard_family,
)

from conftest import complete, cycle, neighbours_from_edges, path


def _edim(g):
    res = edge_metric_dimension(g)
    assert len(res.witness) == res.value and is_edge_generator(g, res.witness), g.edges
    return res.value


def _dim(g):
    res = metric_dimension(g)
    assert len(res.witness) == res.value and is_vertex_generator(g, res.witness), g.edges
    return res.value


def _cone(g):
    """g joined with one vertex adjacent to all of it: wheels and fans."""
    return join(g, build_graph(1, []))


@pytest.mark.parametrize("n", range(3, 12))
def test_cycles_have_edim_2_and_complete_graphs_n_minus_1(n):
    assert _edim(cycle(n)) == 2
    assert _edim(complete(n)) == n - 1


@pytest.mark.parametrize("a", range(2, 7))
def test_complete_bipartite_graphs_have_edim_a_plus_b_minus_2(a):
    for b in range(2, 7):
        assert _edim(standard_family("complete_bipartite", [a, b])) == a + b - 2, (a, b)


@pytest.mark.parametrize("rows", range(2, 7))
def test_grids_have_edim_2(rows):
    for cols in range(2, 7):
        assert _edim(standard_family("grid", [rows, cols])) == 2, (rows, cols)


def test_wheels_have_their_edim_and_dim():
    # W_n = C_n + K_1: edim n for n = 3, 4 and n - 1 from n = 5 on;
    # dim floor((2n + 2) / 5) from n = 7 on
    for n in range(3, 12):
        assert _edim(_cone(cycle(n))) == (n if n <= 4 else n - 1), n
    for n in range(7, 16):
        assert _dim(_cone(cycle(n))) == (2 * n + 2) // 5, n


def test_fans_have_edim_n_minus_1():
    # F_{1,n} = P_n + K_1
    for n in range(4, 12):
        assert _edim(_cone(path(n))) == n - 1, n


def _slater(g):
    """L - ex of a tree: its leaves, less its exterior major vertices (the
    vertices of degree at least 3 that a path of degree-2 vertices joins
    to a leaf); 1 for a path."""
    nbrs = neighbours_from_edges(g)
    leaves = [v for v in range(g.n) if len(nbrs[v]) == 1]
    exterior = set()
    for leaf in leaves:
        prev, v = leaf, next(iter(nbrs[leaf]))
        while len(nbrs[v]) == 2:
            prev, v = v, next(w for w in nbrs[v] if w != prev)
        if len(nbrs[v]) >= 3:
            exterior.add(v)
    return len(leaves) - len(exterior) if exterior else 1


def _assert_dim_and_edim_l_minus_ex(tree):
    """dim = edim = L - ex for a networkx tree, witnesses checked."""
    g = build_graph(tree.number_of_nodes(), [tuple(sorted(e)) for e in tree.edges()])
    want = _slater(g)
    assert (_dim(g), _edim(g)) == (want, want), g.edges


def _every_tree_has_dim_and_edim_l_minus_ex(sizes) -> int:
    """Check every tree with a vertex count in sizes; return how many there were."""
    nx = pytest.importorskip("networkx")
    trees = 0
    for n in sizes:
        for t in nx.nonisomorphic_trees(n):
            _assert_dim_and_edim_l_minus_ex(t)
            trees += 1
    return trees


def test_every_tree_up_to_12_vertices_has_dim_and_edim_l_minus_ex():
    assert _every_tree_has_dim_and_edim_l_minus_ex(range(3, 13)) == 985


@pytest.mark.extended
def test_every_tree_with_13_to_16_vertices_has_dim_and_edim_l_minus_ex():
    # 1301 + 3159 + 7741 + 19320 trees, the counts of OEIS A000055
    assert _every_tree_has_dim_and_edim_l_minus_ex(range(13, 17)) == 31521


# the Prüfer sequences of the labelled trees with 3 to 30 vertices; past 30
# a solve can take seconds, as sparse graphs are where the exact search is slowest
pruefer_sequences = st.integers(3, 30).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
)


@settings(max_examples=100, deadline=None)
@given(pruefer_sequences)
def test_random_labelled_trees_up_to_30_vertices_have_dim_and_edim_l_minus_ex(seq):
    nx = pytest.importorskip("networkx")
    _assert_dim_and_edim_l_minus_ex(nx.from_prufer_sequence(seq))
