import hashlib
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from edimlab import (
    NTooLargeError,
    build_graph,
    canonical_mask,
    connected_classes,
    construct_F,
    edge_metric_dimension,
    enumerate_connected_graphs,
    full_edim_condition,
    is_connected,
    labeled_masks,
    metric_dimension,
    parse_graph6,
    ratio_extremes,
    survey_triples,
    write_graph6,
)
from edimlab import experiments
from edimlab.experiments import (
    _automorphisms,
    _class_levels,
    _degree_rule_sets,
    _graph_of_mask,
    _independence_number,
    _one_orbit,
    _orbit_minima,
    _pieces_without,
    _rival,
)

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def _recount_descending(n):
    """Independent tally: walk masks high-to-low with its own connectivity test."""
    count = 0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range((1 << len(pairs)) - 1, -1, -1):
        edges = [pairs[p] for p in range(len(pairs)) if mask >> p & 1]
        if is_connected(build_graph(n, edges)):
            count += 1
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_connected_counts_match_independent_recount(n):
    assert sum(1 for _ in enumerate_connected_graphs(n)) == EXPECTED_COUNTS[n]
    assert _recount_descending(n) == EXPECTED_COUNTS[n]


def test_connected_count_n6():
    assert sum(1 for _ in enumerate_connected_graphs(6)) == EXPECTED_COUNTS[6]


def test_enumeration_streams_ascending_distinct_graphs():
    got = list(enumerate_connected_graphs(3))
    assert len(set(g.edges for g in got)) == 4
    masks = []
    for g in got:
        mask = 0
        bit = 0
        for i in range(3):
            for j in range(i + 1, 3):
                if g.has_edge(i, j):
                    mask |= 1 << bit
                bit += 1
        masks.append(mask)
    assert masks == sorted(masks)


# connected graphs on n vertices: up to isomorphism (OEIS A001349) and labeled (A001187)
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
A001187 = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256, 8: 251548592}


def _mask_of(n, edges):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sum(1 << pairs.index((min(u, v), max(u, v))) for u, v in edges)


def _adj_bits(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _relabelled_masks(n, edges):
    """Brute force: the mask of every relabelling, one per permutation."""
    return [_mask_of(n, [(p[u], p[v]) for u, v in edges]) for p in permutations(range(n))]


def test_class_counts_and_weights_match_oeis():
    for n, classes in _class_levels(7):
        for level in (classes, connected_classes(n)):
            assert len(level) == A001349[n]
            assert sum(weight for _, weight in level) == A001187[n]
            masks = [mask for mask, _ in level]
            assert masks == sorted(set(masks))


@pytest.mark.extended
def test_classes_at_n8_match_oeis():
    classes = connected_classes(8)
    assert len(classes) == A001349[8]
    assert sum(weight for _, weight in classes) == A001187[8]
    masks = [mask for mask, _ in classes]
    assert all(a < b for a, b in zip(masks, masks[1:]))


def _unpruned_class_levels(n_max):
    """Reference: every non-empty neighbourhood of a new vertex, for every parent."""
    level = [(0, 1)]
    yield 1, level
    for n in range(2, n_max + 1):
        auts = {}
        new = 1 << (n - 1)
        for parent, _ in level:
            adj = [*_graph_of_mask(n - 1, parent).adj_bits, 0]
            for nbrs in range(1, new):
                child = [a | new if nbrs >> v & 1 else a for v, a in enumerate(adj)]
                child[-1] = nbrs
                mask, aut = canonical_mask(n, child)
                auts[mask] = aut
        level = [(mask, factorial(n) // auts[mask]) for mask in sorted(auts)]
        yield n, level


def _levels_named_canonically(n_max):
    """_class_levels(n_max), each class renamed by its lowest mask."""
    for n, classes in _class_levels(n_max):
        yield n, sorted((canonical_mask(n, _graph_of_mask(n, mask).adj_bits)[0], w) for mask, w in classes)


def test_pruned_class_levels_equal_the_unpruned_loop():
    # a class generated once is keyed by its own labelled mask and weighed
    # by orbit-stabilizer; renamed, the levels are the unpruned loop's
    assert list(_levels_named_canonically(7)) == list(_unpruned_class_levels(7))


def test_orbit_minima_are_every_vertex_set_exactly_for_rigid_classes():
    # _class_levels skips _orbit_minima for a parent of weight n!: with only
    # the identity automorphism, every non-empty vertex set is least in its orbit
    for n, classes in _class_levels(6):
        for mask, weight in classes:
            least = [s for s, _ in _orbit_minima(_graph_of_mask(n, mask).adj_bits)]
            every_set = least == list(range(1, 1 << n))
            assert every_set == (weight == factorial(n)), (n, mask)


def test_orbit_sizes_times_stabilizers_are_the_automorphism_count():
    for n, classes in _class_levels(5):
        for mask, weight in classes:
            adj = _graph_of_mask(n, mask).adj_bits
            auts = list(_automorphisms(adj))
            for s, orbit in _orbit_minima(adj):
                stabilizer = [p for p in auts if sum(1 << p[v] for v in range(n) if s >> v & 1) == s]
                assert orbit * len(stabilizer) == len(auts) == factorial(n) // weight


def test_sweep_levels_are_the_canonical_levels_class_for_class():
    # the sweeps read _class_levels' labelled representatives; renamed, each
    # level is connected_classes' class for class, with the same weights
    for n, named in _levels_named_canonically(7):
        assert named == connected_classes(n)
        assert len(named) == A001349[n]
        assert sum(weight for _, weight in named) == A001187[n]


@pytest.mark.extended
def test_sweep_levels_at_n8_are_the_canonical_levels():
    named = list(_levels_named_canonically(8))[-1][1]
    assert named == list(_unpruned_class_levels(8))[-1][1]
    assert len(named) == A001349[8]
    assert sum(weight for _, weight in named) == A001187[8]


def _calls(monkeypatch, name) -> list:
    """The arguments of each later call of experiments.<name>."""
    seen = []
    real = getattr(experiments, name)

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(experiments, name, spy)
    return seen


def _canonical_mask_calls(monkeypatch) -> list:
    """The arguments of each later call of experiments.canonical_mask."""
    return _calls(monkeypatch, "canonical_mask")


# generation names only children whose tied vertices span two orbits, and
# connected_classes renames the one level it returns; the degree rule
# leaves _rival 244 and 2032 children (388 and 4159 without it), and the
# twin rule leaves 37 and 200 pinned automorphism searches (107 and 527)
@pytest.mark.parametrize("n, calls", [
    (6, {"_class_levels": 0, "connected_classes": 112, "_rival": 244, "pinned": 37}),
    (7, {"_class_levels": 40, "connected_classes": 893, "_rival": 2032, "pinned": 200}),
])
def test_sweep_levels_call_canonical_mask_only_for_tied_children(monkeypatch, n, calls):
    seen = _canonical_mask_calls(monkeypatch)
    rivals = _calls(monkeypatch, "_rival")
    searches = _calls(monkeypatch, "_automorphisms")
    list(_class_levels(n))
    assert len(seen) == calls["_class_levels"]
    assert len(rivals) == calls["_rival"]
    assert sum(len(args) == 3 for args in searches) == calls["pinned"]
    seen.clear()
    connected_classes(n)
    assert len(seen) == calls["connected_classes"]


def _tied_children(n):
    """(child, tied) for every kept child on n vertices with a tied top,
    as `_class_levels`' loop builds them."""
    new = 1 << (n - 1)
    for parent, _ in list(_class_levels(n - 1))[-1][1]:
        adj = _graph_of_mask(n - 1, parent).adj_bits
        pieces = [_pieces_without(adj, u) for u in range(n - 1)]
        for nbrs, _ in _orbit_minima(adj):
            child = [a | new if nbrs >> v & 1 else a for v, a in enumerate(adj)]
            child.append(nbrs)
            tied = _rival(child, pieces)
            if tied:
                yield child, tied


def _children(n):
    """(adj, pieces, nbrs, child) for every parent on n - 1 vertices and
    every non-empty neighbourhood nbrs of the new vertex."""
    new = 1 << (n - 1)
    for parent, _ in list(_class_levels(n - 1))[-1][1]:
        adj = _graph_of_mask(n - 1, parent).adj_bits
        pieces = [_pieces_without(adj, u) for u in range(n - 1)]
        for nbrs in range(1, new):
            child = [a | new if nbrs >> v & 1 else a for v, a in enumerate(adj)]
            child.append(nbrs)
            yield adj, pieces, nbrs, child


def _high(adj, pieces, k):
    """The parent's non-cut vertices of degree at least k, as a mask."""
    return sum(1 << u for u, a in enumerate(adj) if len(pieces[u]) < 2 and a.bit_count() >= k)


@pytest.mark.parametrize("n", range(2, 8))
def test_degree_rule_drops_only_children_that_rival_rejects(n):
    # every parent with up to 6 vertices, every non-empty neighbourhood S
    dropped = 0
    kept_of = {}
    for adj, pieces, s, child in _children(n):
        key = tuple(adj)
        if key not in kept_of:
            kept_of[key] = set(_degree_rule_sets(adj, pieces))
        k = s.bit_count()
        # the rule as stated: S holds a non-cut u with deg(u) >= k, or misses one with deg(u) >= k + 1
        drop = k >= 2 and bool(s & _high(adj, pieces, k) or ~s & _high(adj, pieces, k + 1))
        assert (s not in kept_of[key]) == drop, (adj, s)
        if drop:
            assert _rival(child, pieces) is None, (adj, s)
            dropped += 1
    assert dropped == {2: 0, 3: 0, 4: 3, 5: 31, 6: 308, 7: 4050}[n]


def test_orbit_minima_over_the_degree_rule_sets_are_the_full_minima_kept():
    # the kept sets are a union of orbits, so the minima and orbit sizes are unchanged
    for n, classes in _class_levels(6):
        for mask, _ in classes:
            adj = _graph_of_mask(n, mask).adj_bits
            sets = _degree_rule_sets(adj, [_pieces_without(adj, u) for u in range(n)])
            kept = set(sets)
            assert _orbit_minima(adj, sets) == [(s, size) for s, size in _orbit_minima(adj) if s in kept]


def test_twin_rule_skips_only_images_of_w(monkeypatch):
    # a tied twin of w is never searched for, and some listed automorphism maps w to it
    searches = _calls(monkeypatch, "_automorphisms")
    twins = 0
    for n in range(2, 8):
        w = n - 1
        for child, tied in _tied_children(n):
            skipped = [u for u in tied if not (child[u] ^ child[w]) & ~(1 << u | 1 << w)]
            if not skipped:
                continue
            searches.clear()
            _one_orbit(child, tied)
            assert not {args[2] for args in searches} & set(skipped), (child, tied)
            images = {p[w] for p in _automorphisms(child)}
            assert images >= set(skipped), (child, tied)
            twins += len(skipped)
    assert twins == 458


def _assert_pinned_search_finds_the_listed_images(adj):
    n = len(adj)
    auts = list(_automorphisms(adj))
    for w in range(n):
        images = {p[w] for p in auts}
        for u in range(n):
            found = next(_automorphisms(adj, w, u), None)
            assert (found is not None) == (u in images), (adj, w, u)
            if found is not None:
                assert found in auts and found[w] == u


def test_pinned_search_maps_w_to_u_exactly_when_some_automorphism_does():
    for n, classes in _class_levels(6):
        for mask, _ in classes:
            _assert_pinned_search_finds_the_listed_images(_graph_of_mask(n, mask).adj_bits)


def test_pinned_search_on_the_tied_children_at_n7():
    children = list(_tied_children(7))
    assert len(children) == 506 - 101  # the tied children up to n = 7, less those up to n = 6
    split = 0
    for child, tied in children:
        _assert_pinned_search_finds_the_listed_images(child)
        auts = list(_automorphisms(child))
        one_orbit = {p[6] for p in auts} >= set(tied)
        assert _one_orbit(child, tied) == one_orbit
        split += not one_orbit
    assert split == 40


def test_automorphisms_are_the_permutations_fixing_the_graph():
    for n, classes in _class_levels(6):
        for mask, _ in classes:
            g = _graph_of_mask(n, mask)
            relabelled = zip(permutations(range(n)), _relabelled_masks(n, g.edges))
            fixing = {p for p, image in relabelled if image == mask}
            auts = list(_automorphisms(g.adj_bits))
            assert len(auts) == len(fixing) == canonical_mask(n, g.adj_bits)[1]
            assert set(auts) == fixing


def test_pieces_without_are_the_networkx_components():
    nx = pytest.importorskip("networkx")
    for n, classes in _class_levels(6):
        for mask, _ in classes:
            g = _graph_of_mask(n, mask)
            h = nx.Graph(g.edges)
            h.add_nodes_from(range(n))
            for u in range(n):
                h_u = h.subgraph(set(range(n)) - {u})
                want = [sum(1 << v for v in c) for c in nx.connected_components(h_u)]
                assert _pieces_without(g.adj_bits, u) == sorted(want, key=lambda m: m & -m)


def test_classes_match_the_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if 1 <= n <= 7 and nx.is_connected(h):
            nodes = sorted(h.nodes())
            edges = [(nodes.index(u), nodes.index(v)) for u, v in h.edges()]
            atlas[n].add(canonical_mask(n, _adj_bits(n, edges))[0])
    for n in atlas:
        assert {mask for mask, _ in connected_classes(n)} == atlas[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_mask_is_the_lowest_relabelling_and_counts_automorphisms(n):
    lowest = {}
    for g in enumerate_connected_graphs(n):
        masks = _relabelled_masks(n, g.edges)
        mask, aut = canonical_mask(n, g.adj_bits)
        assert mask == min(masks)
        own = _mask_of(n, g.edges)
        assert aut == masks.count(own)  # permutations that fix the graph
        assert labeled_masks(n, own) == sorted(set(masks))
        lowest.setdefault(mask, []).append(own)
    assert sorted(lowest) == [mask for mask, _ in connected_classes(n)]
    weights = dict(connected_classes(n))
    for mask, members in lowest.items():
        assert min(members) == mask
        assert weights[mask] == len(members)


def test_enumeration_caps_n():
    with pytest.raises(NTooLargeError):
        list(enumerate_connected_graphs(9))


def test_survey_n3():
    rows = survey_triples(3)
    assert [(r.n, r.dim, r.edim, r.count) for r in rows] == [(3, 1, 1, 3), (3, 2, 2, 1)]
    assert [r.example_graph6 for r in rows] == ["Bo", "Bw"]


def test_survey_n5_has_full_edim_row():
    rows = survey_triples(5)
    assert sum(r.count for r in rows) == EXPECTED_COUNTS[5]
    top = [r for r in rows if (r.dim, r.edim) == (4, 4)]
    assert len(top) == 1 and top[0].count == 1  # only K_5 needs four vertex landmarks
    g = parse_graph6(top[0].example_graph6)
    assert (g.n, g.m) == (5, 10)


def test_survey_examples_decode_and_match():
    for row in survey_triples(4):
        g = parse_graph6(row.example_graph6)
        assert metric_dimension(g).value == row.dim
        assert edge_metric_dimension(g).value == row.edim


def test_survey_full_edim_rows_pass_condition():
    for n in (3, 4, 5):
        for row in survey_triples(n):
            g = parse_graph6(row.example_graph6)
            assert full_edim_condition(g)[0] == (row.edim == n - 1)


def test_independence_number_is_the_networkx_clique_number_of_the_complement():
    nx = pytest.importorskip("networkx")
    for n, classes in _class_levels(7):
        for mask, _ in classes:
            g = _graph_of_mask(n, mask)
            h = nx.complement(nx.Graph(g.edges))
            h.add_nodes_from(range(n))
            assert _independence_number(g.adj_bits) == max(map(len, nx.find_cliques(h))), (n, mask)


def _assert_canonical_masks_in_the_alpha_bracket(n, classes):
    """2^off(n-1-α) <= canonical mask < 2^off(n-α), off(i) the first bit of label i's row."""
    def off(i):
        return i * (2 * n - i - 1) // 2

    for mask, _ in classes:
        alpha = _independence_number(_graph_of_mask(n, mask).adj_bits)
        assert 1 << off(n - 1 - alpha) <= mask < 1 << off(n - alpha), (n, mask, alpha)


def test_canonical_masks_lie_in_the_bracket_of_their_independence_number():
    # the survey names only each row's classes of largest α: the brackets
    # are disjoint and fall as α grows
    for n in range(2, 8):
        _assert_canonical_masks_in_the_alpha_bracket(n, connected_classes(n))


@pytest.mark.extended
def test_canonical_masks_at_n8_lie_in_the_alpha_bracket():
    _assert_canonical_masks_in_the_alpha_bracket(8, connected_classes(8))


# class generation's calls for ties spanning two orbits (0 at n <= 6, 40 at
# n <= 7), plus one per class of largest α in each (dim, edim) row
@pytest.mark.parametrize("n, calls", [(6, 28), (7, 125)])
def test_survey_calls_canonical_mask_for_the_largest_alpha_classes_only(monkeypatch, n, calls):
    seen = _canonical_mask_calls(monkeypatch)
    survey_triples(n)
    assert len(seen) == calls


def test_survey_threads_equivalence():
    assert survey_triples(5, threads=3) == survey_triples(5, threads=1)


def test_ratio_extremes_small():
    ratio, witnesses = ratio_extremes(3)
    assert ratio == Fraction(1)
    assert len(witnesses) == 4
    ratio, _ = ratio_extremes(4)
    assert ratio == Fraction(3, 2)
    ratio, _ = ratio_extremes(5)
    assert ratio == Fraction(2)


def test_ratio_witnesses_attain_the_ratio():
    ratio, witnesses = ratio_extremes(4)
    for g6 in witnesses:
        g = parse_graph6(g6)
        assert Fraction(edge_metric_dimension(g).value, metric_dimension(g).value) == ratio


def test_ratio_n6_reaches_two_via_F2():
    ratio, witnesses = ratio_extremes(6)
    assert ratio >= 2
    assert write_graph6(construct_F(2).graph) in witnesses


@pytest.mark.parametrize("n", [3, 4, 5])
def test_class_census_matches_a_labeled_reference(n):
    """Survey rows and ratio witnesses equal a tally over every labeled graph."""
    rows, best, witnesses = {}, None, []
    for g in enumerate_connected_graphs(n):  # ascending masks
        dim, edim = metric_dimension(g).value, edge_metric_dimension(g).value
        count, example = rows.get((dim, edim), (0, write_graph6(g)))
        rows[(dim, edim)] = (count + 1, example)
        ratio = Fraction(edim, dim)
        if best is None or ratio > best:
            best, witnesses = ratio, []
        if ratio == best:
            witnesses.append(write_graph6(g))
    assert [(r.dim, r.edim, r.count, r.example_graph6) for r in survey_triples(n)] == [
        (dim, edim, count, example) for (dim, edim), (count, example) in sorted(rows.items())
    ]
    assert ratio_extremes(n) == (best, witnesses)
    assert ratio_extremes(n, threads=2) == (best, witnesses)


# SHA-256 of the witnesses' graph6 lines as ratio_extremes printed them on
# canonically named classes: every relabelling of each maximising class,
# which the generated representatives must leave unchanged
RATIO_EXTREMES = {
    3: (Fraction(1), 4, "1cd627bfb40d865b9cb9db170c9cc42ed01a165e77c8b343af8c58ea5a6aa3c9"),
    4: (Fraction(3, 2), 6, "d7d7714b3dd19ee91428eb41e68f99dea73143c9746fe93f88f2184125ebacc8"),
    5: (Fraction(2), 15, "e4ef7380a815ea967c672c9f5c07e8fd5b426dd4b9e971ecd183ed75c79f1c66"),
    6: (Fraction(2), 4152, "13c15ad248d0b2447c6623bf4dbc2edc0bfe2d7c62a1c88ce58a583544f795f8"),
}


@pytest.mark.parametrize("n", sorted(RATIO_EXTREMES))
def test_ratio_extremes_on_the_sweep_classes_are_unchanged(n):
    ratio, witnesses = ratio_extremes(n)
    digest = hashlib.sha256("\n".join(witnesses).encode()).hexdigest()
    assert (ratio, len(witnesses), digest) == RATIO_EXTREMES[n]
