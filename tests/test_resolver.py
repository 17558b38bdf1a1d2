import random
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edimlab import resolver
from edimlab import (
    DisconnectedError,
    NoEdgesError,
    NotAnEdgeError,
    NTooLargeError,
    VertexOutOfRangeError,
    all_pairs_distances,
    build_graph,
    cartesian_path,
    check_product_theorem,
    connected_classes,
    construct_F,
    edge_metric_dimension,
    edge_signature,
    is_connected,
    is_edge_generator,
    is_vertex_generator,
    metric_dimension,
    min_joint_cover,
    vertex_signature,
)
from edimlab.experiments import _graph_of_mask
from edimlab.graph import level_rows
from edimlab.reference import edge_metric_dimension_naive, metric_dimension_naive

from conftest import bfs_oracle, complete, connected_graphs, cycle, path, star


def test_vertex_signature_examples():
    assert vertex_signature(all_pairs_distances(path(3)), 2, [0]) == (2,)
    assert vertex_signature(all_pairs_distances(path(3)), 2, []) == ()
    assert vertex_signature(all_pairs_distances(cycle(4)), 2, [0, 1]) == (2, 1)


def test_edge_signature_examples():
    dm = all_pairs_distances(path(3))
    assert edge_signature(dm, (0, 1), [0]) == (0,)
    assert edge_signature(dm, (1, 2), [0]) == (1,)
    assert edge_signature(all_pairs_distances(complete(3)), (1, 2), [0]) == (1,)
    with pytest.raises(NotAnEdgeError):
        edge_signature(dm, (0, 2), [0])


def test_generator_predicates():
    assert is_vertex_generator(path(3), {0})
    assert not is_vertex_generator(cycle(4), {0})
    assert is_vertex_generator(cycle(4), set(range(4)))
    assert is_edge_generator(path(3), {0})
    assert not is_edge_generator(complete(3), {0})
    assert is_edge_generator(star(3), {1, 2})


def test_generator_predicates_require_connected():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(DisconnectedError):
        is_vertex_generator(g, {0})
    # no landmark, so no BFS: the connectivity test still refuses g
    with pytest.raises(DisconnectedError):
        is_edge_generator(g, ())


def test_landmarks_outside_the_graph_are_refused():
    p4 = path(4)
    dm = all_pairs_distances(p4)
    for bad in (-1, -4, 4):
        with pytest.raises(VertexOutOfRangeError):
            is_vertex_generator(p4, [bad])
        with pytest.raises(VertexOutOfRangeError):
            is_edge_generator(p4, [0, bad])
        with pytest.raises(VertexOutOfRangeError):
            vertex_signature(dm, 0, [bad])
        with pytest.raises(VertexOutOfRangeError):
            vertex_signature(dm, bad, [0])
        with pytest.raises(VertexOutOfRangeError):
            edge_signature(dm, (0, 1), [bad])


def test_empty_landmark_set_generates_at_most_one_object():
    k1, k2 = build_graph(1, []), path(2)
    assert is_vertex_generator(k1, ())
    assert not is_vertex_generator(k2, ())
    assert is_edge_generator(k1, ())
    witness = edge_metric_dimension(k2).witness  # the empty edim witness of K_2
    assert witness == () and is_edge_generator(k2, witness)
    assert not is_edge_generator(path(3), ())


def test_dimension_values():
    assert metric_dimension(path(5)).value == 1
    assert metric_dimension(path(5)).witness == (0,)
    assert metric_dimension(complete(4)).value == 3
    assert edge_metric_dimension(complete(4)).value == 3
    assert edge_metric_dimension(path(5)).witness == (0,)
    assert metric_dimension(cycle(5)).value == 2
    assert edge_metric_dimension(cycle(5)).value == 2
    f2 = construct_F(2).graph
    assert metric_dimension(f2).value == 2
    assert edge_metric_dimension(f2).value == 4


def test_degenerate_conventions():
    k1 = build_graph(1, [])
    res = metric_dimension(k1, want_all_bases=True)
    assert (res.value, res.witness, res.all_bases) == (0, (), ((),))
    res = edge_metric_dimension(k1, want_all_bases=True)  # m = 0
    assert (res.value, res.witness, res.all_bases) == (0, (), ((),))
    p2 = path(2)
    res = edge_metric_dimension(p2, want_all_bases=True)
    assert (res.value, res.witness, res.all_bases) == (0, (), ((),))
    assert metric_dimension(p2).value == 1


def test_solvers_reject_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        metric_dimension(g)
    with pytest.raises(DisconnectedError):
        edge_metric_dimension(g)


def test_all_bases_enumeration():
    res = metric_dimension(path(5), want_all_bases=True)
    assert res.all_bases == ((0,), (4,))
    assert res.witness == res.all_bases[0]
    res = metric_dimension(complete(4), want_all_bases=True)
    assert res.all_bases == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def test_witness_is_lexicographically_first():
    for g in (cycle(6), star(4), complete(5)):
        fast = metric_dimension(g, want_all_bases=True)
        slow = metric_dimension_naive(g, want_all_bases=True)
        assert fast.witness == slow.witness == min(slow.all_bases)
        assert fast.all_bases == slow.all_bases


def test_min_joint_cover_examples():
    assert min_joint_cover(path(3)) == (1, ((0,), (0,)))
    assert min_joint_cover(complete(3)) == (2, ((0, 1), (0, 1)))
    assert min_joint_cover(complete(4))[0] == 3


def test_min_joint_cover_requires_edges():
    with pytest.raises(NoEdgesError):
        min_joint_cover(build_graph(1, []))


def test_joint_cover_tests_and_searches_its_graph_once(bfs_runs):
    # one connectivity test from vertex 0, then one BFS from every vertex
    assert min_joint_cover(cycle(5)) == (2, ((0, 1), (0, 1)))
    assert bfs_runs == [0, 0, 1, 2, 3, 4]


@pytest.mark.parametrize("solve", [edge_metric_dimension, min_joint_cover])
def test_solves_test_the_pair_bit_cap_before_building_edge_levels(solve, bfs_runs, edge_level_builds):
    # complete 300 needs 300 x C(44850, 2), about 3.0e11, edge pair bits:
    # refused after g's connectivity test, before any all-source BFS
    with pytest.raises(NTooLargeError):
        solve(complete(300))
    assert bfs_runs == [0]
    assert edge_level_builds == []


def test_product_check_builds_its_graphs_edge_levels_once(edge_level_builds):
    g = cycle(5)
    assert check_product_theorem(g, 2).verdict == "holds"
    assert edge_level_builds == [g]
    edge_metric_dimension(g)
    assert edge_level_builds == [g]


@given(connected_graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_solves_on_a_graph_with_cached_distances_match_a_fresh_graph(g):
    all_pairs_distances(g)
    g.edge_levels
    fresh = build_graph(g.n, g.edges)
    assert g == fresh and hash(g) == hash(fresh)
    assert metric_dimension(g, True) == metric_dimension(fresh, True)
    assert edge_metric_dimension(g, True) == edge_metric_dimension(fresh, True)


@given(connected_graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_joint_cover_bounds(g):
    dim = metric_dimension(g).value
    edim = edge_metric_dimension(g).value
    k, (s, t) = min_joint_cover(g)
    assert max(dim, edim) <= k <= dim + edim
    assert len(s) == dim and len(t) == edim
    assert len(set(s) | set(t)) == k


@given(connected_graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_generator_supersets_stay_generators(g):
    res = edge_metric_dimension(g)
    assert is_edge_generator(g, res.witness)
    assert len(res.witness) == res.value
    grown = set(res.witness) | {max(range(g.n), key=lambda v: v not in res.witness)}
    assert is_edge_generator(g, grown)


@given(connected_graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_edim_at_most_n_minus_1(g):
    assert edge_metric_dimension(g).value <= g.n - 1


@given(connected_graphs(max_n=6))
@settings(max_examples=30, deadline=None)
def test_matches_naive_on_random_graphs(g):
    fast = metric_dimension(g)
    slow = metric_dimension_naive(g)
    assert (fast.value, fast.witness) == (slow.value, slow.witness)
    fast = edge_metric_dimension(g)
    slow = edge_metric_dimension_naive(g)
    assert (fast.value, fast.witness) == (slow.value, slow.witness)


def _gnp_connected(rng, n, p):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        edges = [e for e in pairs if rng.random() < p]
        if is_connected(build_graph(n, edges)):
            return build_graph(n, edges)


@pytest.fixture
def bnb_calls(monkeypatch):
    """Records (greedy upper bound, optimum) of every branch-and-bound run."""
    calls = []
    real = resolver._branch_and_bound_size

    def spy(bits, universe, seps, upper):
        calls.append((upper, real(bits, universe, seps, upper)))
        return calls[-1][1]

    monkeypatch.setattr(resolver, "_branch_and_bound_size", spy)
    return calls


def test_branch_and_bound_matches_naive(monkeypatch, bnb_calls):
    # every solve takes the branch-and-bound path, whatever its size
    monkeypatch.setattr(resolver, "BRANCH_AND_BOUND_MIN_SUBSETS", 0)
    rng = random.Random(20161106)
    for _ in range(24):
        g = _gnp_connected(rng, rng.randint(7, 9), rng.choice((0.5, 0.65, 0.8)))
        for fast, slow in (
            (metric_dimension, metric_dimension_naive),
            (edge_metric_dimension, edge_metric_dimension_naive),
        ):
            a, b = fast(g, want_all_bases=True), slow(g, want_all_bases=True)
            assert (a.value, a.witness, a.all_bases) == (b.value, b.witness, b.all_bases), g.edges
    assert len(bnb_calls) == 48
    # on some graphs the search beat the greedy bound, not just confirmed it
    assert any(best < upper for upper, best in bnb_calls)


def test_branch_and_bound_returns_the_lesser_of_upper_and_the_optimum(monkeypatch):
    # upper need not be a cover size: fits passes size + 1
    monkeypatch.setattr(resolver, "BRANCH_AND_BOUND_MIN_SUBSETS", 10**9)  # optimum from the scans
    graphs = [_graph_of_mask(n, mask) for n in range(1, 7) for mask, _ in connected_classes(n)]
    rng = random.Random(18)
    graphs += [_gnp_connected(rng, n, p) for n in range(8, 15) for p in (0.3, 0.5, 0.7)]
    for g in graphs:
        for kind, (levels, n_obj) in _object_levels(g).items():
            cover = resolver._Cover(levels, n_obj)
            if cover.universe == 0:
                continue
            opt = cover.value()
            kept, reduced, sets = cover._reduced()
            for upper in range(1, len(cover.bits) + 2):
                got = resolver._branch_and_bound_size(reduced, sets, kept, upper)
                assert got == min(upper, opt), (g.edges, kind, upper)


def test_search_path_is_chosen_from_the_input(bnb_calls):
    # n <= 6: C(6, greedy - 1) is tiny, so sizes are refuted by lex scans
    edge_metric_dimension(complete(6))
    metric_dimension(complete(6))
    assert bnb_calls == []
    # dense n = 22: edim about 12 of 22 landmarks, far past the crossover
    g = _gnp_connected(random.Random(3), 22, 0.5)
    res = edge_metric_dimension(g)
    assert len(bnb_calls) == 1
    assert is_edge_generator(g, res.witness) and len(res.witness) == res.value
    # the 12-vertex products G □ P_2 of n = 6 graphs stay on the scans too
    del bnb_calls[:]
    edge_metric_dimension(cartesian_path(complete(6), 2).graph)
    assert bnb_calls == []


@given(connected_graphs(min_n=1, max_n=8))
@settings(max_examples=40, deadline=None)
@example(g=build_graph(1, []))  # no pair in either universe
@example(g=path(2))  # one edge: no edge pair
@example(g=complete(8))
def test_fits_answers_whether_the_minimum_cover_has_at_most_size_landmarks(g):
    for gate in (0, 10**9):  # branch-and-bound always, then never
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(resolver, "BRANCH_AND_BOUND_MIN_SUBSETS", gate)
            for levels, n_obj in _object_levels(g).values():
                # one instance per gate answers every size
                cover = resolver._Cover(levels, n_obj)
                value = cover.value()
                for size in range(-2, len(cover.bits) + 1):
                    assert cover.fits(size) == (value <= size), (g.edges, n_obj, gate, size)


def test_an_instance_finds_its_minimal_separator_sets_once(monkeypatch):
    monkeypatch.setattr(resolver, "BRANCH_AND_BOUND_MIN_SUBSETS", 0)  # branch-and-bound always
    calls = []
    real = resolver._minimal_separators

    def spy(bits, universe, rows, n_obj):
        calls.append(n_obj)
        return real(bits, universe, rows, n_obj)

    monkeypatch.setattr(resolver, "_minimal_separators", spy)
    g = _gnp_connected(random.Random(5), 9, 0.5)
    for levels, n_obj in _object_levels(g).values():
        cover = resolver._Cover(levels, n_obj)
        answers = [cover.fits(size) for size in range(1, g.n + 1)]
        res = cover.solve(True)
        assert answers == [res.value <= size for size in range(1, g.n + 1)]
    # one call per instance: the vertex problem's, then the edge problem's
    assert calls == [g.n, g.m]


def test_a_gated_fits_leaves_the_solve_answers_unchanged(monkeypatch):
    # the gate sits at C(landmarks, size): fits(size) takes the branch-and-bound
    # and finds the minimal separator sets, the solve's descent from the greedy
    # bound stays on the scans, and then scans those minimal sets
    rng = random.Random(27)
    checked = 0
    for _ in range(8):
        g = _gnp_connected(rng, rng.randint(8, 10), 0.5)
        for levels, n_obj in _object_levels(g).values():
            cover = resolver._Cover(levels, n_obj)
            n = len(cover.bits)
            size = n // 2
            gate = comb(n, size)
            if comb(n, resolver._greedy_cover_size(cover.bits, cover.universe) - 1) >= gate:
                continue
            monkeypatch.setattr(resolver, "BRANCH_AND_BOUND_MIN_SUBSETS", gate)
            fresh = resolver._Cover(levels, n_obj)
            want = fresh.solve(True)
            assert fresh.minimal is None  # the fresh solve scanned all pairs
            assert cover.fits(size) == (want.value <= size) and cover.minimal is not None
            assert cover.solve(True) == want, (g.edges, n_obj)
            checked += 1
    assert checked >= 8


def test_bitsets_that_cannot_cover_the_universe_raise():
    # objects 0 and 1 share a level at both landmarks: no landmark separates them
    cover = resolver._Cover([[0b011, 0b100], [0b111]], 3)
    with pytest.raises(AssertionError, match="cannot cover the pair universe"):
        cover.value()


def _separator_sets(g):
    """Per kind, the separator set of every object pair, from oracle distances."""
    dist = bfs_oracle(g)
    objects = {"dim": [(x,) for x in range(g.n)], "edim": list(g.edges)}
    return {
        kind: [
            frozenset(v for v in range(g.n) if min(dist[v][x] for x in a) != min(dist[v][x] for x in b))
            for i, a in enumerate(objs) for b in objs[i + 1:]
        ]
        for kind, objs in objects.items()
    }


def _object_levels(g):
    """Per kind, (level masks of the objects from every landmark, object count)."""
    levels = all_pairs_distances(g).levels
    return {"dim": (levels, g.n), "edim": (g.edge_levels, g.m)}


def test_level_bitsets_match_brute_force_separation():
    rng = random.Random(10)
    for n in range(2, 13):
        for p in (0.3, 0.6):
            g = _gnp_connected(rng, n, p)
            dm = all_pairs_distances(g)
            objects = {"dim": range(n), "edim": g.edges}
            signature = {"dim": vertex_signature, "edim": edge_signature}
            generator = {"dim": is_vertex_generator, "edim": is_edge_generator}
            seps = _separator_sets(g)
            for kind, (levels, n_obj) in _object_levels(g).items():
                bits, universe = resolver._pair_bitsets(levels, n_obj)
                # pair (i, j), i < j, is bit i * (n_obj + 1) + j
                pos = [i * (n_obj + 1) + j for i in range(n_obj) for j in range(i + 1, n_obj)]
                assert universe == sum(1 << q for q in pos)
                assert bits == [sum(1 << q for q, s in zip(pos, seps[kind]) if v in s) for v in range(n)]
                # landmark-only generator checks against signatures over all-pairs rows
                for s in [(), (0,), tuple(range(n))] + [
                    tuple(sorted(rng.sample(range(n), rng.randint(1, n)))) for _ in range(6)
                ]:
                    distinct = len({signature[kind](dm, o, s) for o in objects[kind]}) == n_obj
                    assert generator[kind](g, s) == distinct, (g.edges, kind, s)


@st.composite
def _level_partitions(draw):
    """(object count, per landmark a partition of the objects into level labels)."""
    n_obj = draw(st.integers(0, 40))
    labels = st.lists(st.integers(0, 4), min_size=n_obj, max_size=n_obj)
    return n_obj, draw(st.lists(labels, min_size=1, max_size=3))


@given(_level_partitions())
@example((0, [[]]))
@example((1, [[0]]))
@example((2, [[0, 0], [0, 1]]))
@settings(max_examples=200, deadline=None)
def test_pair_bitsets_separate_exactly_the_pairs_in_different_levels(case):
    n_obj, partitions = case
    levels = [
        [m for m in (sum(1 << o for o, d in enumerate(lab) if d == level) for level in range(5)) if m]
        for lab in partitions
    ]
    bits, universe = resolver._pair_bitsets(levels, n_obj)
    above = {i * (n_obj + 1) + j: (i, j) for i in range(n_obj) for j in range(i + 1, n_obj)}
    assert universe.bit_count() == len(above) == n_obj * (n_obj - 1) // 2
    assert universe == sum(1 << q for q in above)
    for lab, b in zip(partitions, bits):
        assert b & ~universe == 0
        assert {q for q in above if b >> q & 1} == {q for q, (i, j) in above.items() if lab[i] != lab[j]}


def test_min_joint_cover_is_the_least_pair_of_bases():
    # brute force over every pair of minimum bases: least (|S ∪ T|, S, T)
    for n in range(2, 6):
        for mask, _ in connected_classes(n):
            g = _graph_of_mask(n, mask)
            pairs = product(metric_dimension(g, True).all_bases, edge_metric_dimension(g, True).all_bases)
            k, s, t = min((len(set(s) | set(t)), s, t) for s, t in pairs)
            assert min_joint_cover(g) == (k, (s, t)), mask


def test_minimal_separators_are_the_inclusion_minimal_sets():
    rng = random.Random(8)
    cases = [(_gnp_connected(rng, n, p), ("dim", "edim")) for n in range(7, 13) for p in (0.3, 0.6)]
    # dense n = 22 edim, as in the gated solves: 5778 pairs, 541 kept sets
    cases.append((_gnp_connected(random.Random(3), 22, 0.5), ("edim",)))
    for g, kinds in cases:
        n = g.n
        levels = _object_levels(g)
        seps = _separator_sets(g)
        for kind in kinds:
            obj_levels, n_obj = levels[kind]
            bits, universe = resolver._pair_bitsets(obj_levels, n_obj)
            rows = level_rows(obj_levels, n_obj)
            kept, reduced = resolver._minimal_separators(bits, universe, rows, n_obj)
            got = [frozenset(v for v in range(n) if sep >> v & 1) for sep in kept]
            distinct = set(seps[kind])
            assert len(got) == len(set(got))
            assert set(got) == {s for s in distinct if not any(t < s for t in distinct)}
            assert reduced == [sum(1 << k for k, s in enumerate(got) if v in s) for v in range(n)]


@pytest.mark.parametrize(
    "n, p, value, witness",
    [
        (28, 0.5, 13, (0, 1, 7, 10, 13, 14, 17, 18, 19, 23, 25, 26, 27)),
        (40, 0.2, 9, (0, 2, 4, 7, 8, 11, 13, 24, 33)),
        pytest.param(
            32, 0.5, 13, (1, 2, 3, 5, 7, 8, 9, 19, 20, 22, 23, 25, 31), marks=pytest.mark.extended
        ),
    ],
)
def test_larger_random_graphs(n, p, value, witness):
    # the graphs of perfbench/gen.gnp_connected(random.Random(1), n, p)
    res = edge_metric_dimension(_gnp_connected(random.Random(1), n, p))
    assert (res.value, res.witness) == (value, witness)


def _inclusion_minimal(sets):
    """The distinct sets that contain no other: a landmark set hits every one
    of `sets` exactly when it hits every inclusion-minimal one."""
    kept = []
    for s in sorted(set(sets), key=len):
        if not any(k <= s for k in kept):
            kept.append(s)
    return kept


def _milp_value(n, separators):
    """Smallest landmark set hitting every separator set, by integer
    programming, with one row per inclusion-minimal separator set."""
    np = pytest.importorskip("numpy")
    opt = pytest.importorskip("scipy.optimize")
    rows = np.array([[1.0 if v in sep else 0.0 for v in range(n)] for sep in _inclusion_minimal(separators)])
    res = opt.milp(
        c=np.ones(n),
        constraints=opt.LinearConstraint(rows, lb=1, ub=np.inf),
        integrality=np.ones(n),
        bounds=opt.Bounds(0, 1),
    )
    assert res.success
    return round(res.fun)


@pytest.mark.parametrize(
    "n, p, seed",
    [(12, 0.5, 1), (14, 0.3, 2), (16, 0.5, 3), (18, 0.5, 4), (22, 0.5, 5), (24, 0.5, 6)],
)
def test_values_match_integer_programming(monkeypatch, n, p, seed):
    g = _gnp_connected(random.Random(seed), n, p)
    solvers = {"dim": metric_dimension, "edim": edge_metric_dimension}
    for kind, seps in _separator_sets(g).items():
        want = _milp_value(n, seps)
        assert solvers[kind](g).value == want
        with monkeypatch.context() as m:
            m.setattr(resolver, "BRANCH_AND_BOUND_MIN_SUBSETS", 0)
            assert solvers[kind](g).value == want
