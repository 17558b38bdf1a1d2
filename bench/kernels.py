"""Best-of-R seconds of the pair-bitset kernels of the exact solvers.

    python3 bench/kernels.py [--repeat R] [--fk K [K ...]] [--census N [N ...]]

Times graph._edge_levels, the pair bitsets a resolver._Cover instance
builds (resolver._pair_bitsets) and its minimal separator sets
(resolver._minimal_separators, found anew on every call) on fixed inputs:
the Cartesian product with P_2 of the first product6 graph of seed 0,
hard_gnp graph 0 of seed 0 (both from perfbench/gen.py), and F_k for each
K of --fk (default 4 and 5).  Each kernel runs on the levels of the dim
problem and of the edim problem (_edge_levels on edim only).  On the
product, the edim problem also times
constructions._path_product_edge_levels, the same edge levels composed
from the factor's distances and edge levels, and the product check's
witness test both ways: _Cover.generates, the union of the witness
landmarks' pair-bitset rows over the composed levels, and cartesian_path +
is_edge_generator, a built product and a BFS from the witness.  It then
times the product check's verdict both ways: the decision (an instance
over the composed levels, the witness test, and edim >= k from the
projection bound edim >= max(dim, edim) of the factor, or, when k exceeds
both, _Cover.fits refuting k - 1 landmarks) and _Cover.value, the exact
edim.  It exits 1 if either pair of answers disagrees.  On hard_gnp graph
0 it also times the gated search over the minimal separator sets:
resolver._greedy_cover_size on those sets, resolver._branch_and_bound_size
from the greedy bound _Cover.value starts it from and from the optimum
(the refutation alone), and the witness scan, the first cover
resolver._covers yields at the optimum.  It exits 1 if a branch-and-bound
value is not _Cover.value's.  The graphs' distances, and the factor's
edge levels, are computed before any timing.  For each N of --census
(default 6) it times class generation, experiments._class_levels(N),
which calls canonical_mask only for children whose tied top-ranked
non-cut vertices span two orbits; and experiments.canonical_mask over
every child it names, experiments._orbit_minima over every parent it
lists the automorphisms of, experiments._rival, the deletion rule, over
every child it builds (those the degree rule keeps), and
experiments._one_orbit, the orbit test, over every child whose new
vertex ties a non-cut vertex in rank.  Their objects are the classes on
N vertices, the children (so the canonical_mask, _rival and _one_orbit
lines give their call counts) and the parents.  It then times
connected_classes(N)'s naming step: canonical_mask over every class on
N vertices, whose object count is that step's call count.  Last it
times the survey's naming step on the classes on N vertices, solved
beforehand: experiments._independence_number over every class, then
canonical_mask over each (dim, edim) row's classes of largest
independence number, the only ones survey_triples names; the objects are
the classes and the canonical_mask calls.
Prints one tab-separated line per input, problem and kernel: input,
problem, objects, kernel, best seconds.  Each K must be 1 to
theorems.MAX_FAMILY_K (6), the F_K whose edim fits the solvers' pair-bit
cap, and each N must be a census size, 1 to 7; any other K or N exits 2
before anything is built or timed.  Needs only the standard library and
this checkout's src/.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from edimlab import experiments, resolver  # noqa: E402
from edimlab.constructions import (  # noqa: E402
    _path_product_edge_levels,
    cartesian_path,
    construct_F,
    witness_from_joint_cover,
)
from edimlab.graph import _edge_levels, all_pairs_distances, build_graph  # noqa: E402
from edimlab.theorems import MAX_FAMILY_K  # noqa: E402


def best_of(repeat: int, fn, *args):
    """(best seconds over `repeat` calls, result of the last call)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def inputs(fk):
    """(name, graph, factor): factor is the graph whose product with P_2 is
    graph, or None."""
    n, edges = gen.product6_graphs(0)[0]
    factor = build_graph(n, edges)
    yield "product", cartesian_path(factor, 2).graph, factor
    n, edges = gen.hard_gnp_graphs(0)[0]
    yield "hard_gnp0", build_graph(n, edges), None
    for k in fk:
        yield f"F_{k}", construct_F(k).graph, None


def product_check(repeat: int, name: str, factor, composed, n_obj: int) -> None:
    """Time the product check's witness test and its verdict on factor x P_2,
    each both ways; exit 1 if either pair disagrees."""
    k, cover = resolver.min_joint_cover(factor)
    witness = witness_from_joint_cover(factor, 2, cover)
    product = resolver._Cover(composed, n_obj)

    def decision():
        product = resolver._Cover(composed, n_obj)
        return product.generates(witness) and (k == max(map(len, cover)) or not product.fits(k - 1))

    def exact():
        edim = resolver._Cover(composed, n_obj).value()
        return k <= edim <= k + 1 and product.generates(witness)

    checks = {
        "witness tests": [
            ("_Cover.generates", product.generates, witness),
            ("cartesian_path+is_edge_generator",
             lambda: resolver.is_edge_generator(cartesian_path(factor, 2).graph, witness)),
        ],
        "verdicts": [("decision", decision), ("_Cover.value", exact)],
    }
    for what, ways in checks.items():
        answers = set()
        for kernel, fn, *args in ways:
            secs, ok = best_of(repeat, fn, *args)
            answers.add(ok)
            print(f"{name}\tedim\t{n_obj}\t{kernel}\t{secs:.6g}", flush=True)
        if len(answers) != 1:
            sys.exit(f"{name}: the {what} disagree")


def minimal_sets(cover):
    """cover's minimal separator sets, found anew rather than read from its cache."""
    cover.minimal = None
    return cover._reduced()


def gated_search(repeat: int, name: str, problem: str, cover) -> None:
    """Time the kernels of the gated search over cover's minimal separator
    sets; exit 1 if a branch-and-bound value is not cover.value()'s."""
    kept, reduced, sets = cover._reduced()
    opt = cover.value()
    secs, greedy = best_of(repeat, resolver._greedy_cover_size, reduced, sets)
    print(f"{name}\t{problem}\t{cover.n_obj}\t_greedy_cover_size(minimal sets)\t{secs:.6g}", flush=True)
    starts = {"greedy": min(resolver._greedy_cover_size(cover.bits, cover.universe), greedy), "optimum": opt}
    for start, upper in starts.items():
        secs, value = best_of(repeat, resolver._branch_and_bound_size, reduced, sets, kept, upper)
        print(f"{name}\t{problem}\t{cover.n_obj}\t_branch_and_bound_size(from {start})\t{secs:.6g}", flush=True)
        if value != opt:
            sys.exit(f"{name} {problem}: branch-and-bound from {upper} gave {value}, _Cover.value {opt}")
    suffix = resolver._suffix_unions(reduced)
    secs, _ = best_of(repeat, lambda: next(resolver._covers(reduced, suffix, sets, opt)))
    print(f"{name}\t{problem}\t{cover.n_obj}\twitness scan\t{secs:.6g}", flush=True)


def census_calls(n: int) -> dict[str, list[tuple]]:
    """The arguments of every canonical_mask, _orbit_minima, _rival and
    _one_orbit call that one run of _class_levels(n) makes."""
    calls: dict[str, list[tuple]] = {
        name: [] for name in ("canonical_mask", "_orbit_minima", "_rival", "_one_orbit")
    }
    real = {name: getattr(experiments, name) for name in calls}

    def recorder(name):
        def record(*args):
            calls[name].append(args)
            return real[name](*args)
        return record

    for name in calls:
        setattr(experiments, name, recorder(name))
    try:
        for _ in experiments._class_levels(n):
            pass
    finally:
        for name, fn in real.items():
            setattr(experiments, name, fn)
    return calls


def census(repeat: int, n: int) -> None:
    """Time class generation up to n vertices and its kernels, then
    connected_classes(n)'s naming of the classes on n vertices."""
    name = f"census{n}"
    secs, levels = best_of(repeat, lambda: list(experiments._class_levels(n)))
    print(f"{name}\tgeneration\t{len(levels[-1][1])}\t_class_levels\t{secs:.6g}", flush=True)
    for kernel, args in census_calls(n).items():
        fn = getattr(experiments, kernel)
        secs, _ = best_of(repeat, lambda: [fn(*a) for a in args])
        print(f"{name}\tgeneration\t{len(args)}\t{kernel}\t{secs:.6g}", flush=True)
    adj = [experiments._graph_of_mask(n, mask).adj_bits for mask, _ in levels[-1][1]]
    secs, _ = best_of(repeat, lambda: [experiments.canonical_mask(n, a) for a in adj])
    print(f"{name}\tconnected_classes naming\t{len(adj)}\tcanonical_mask\t{secs:.6g}", flush=True)


def survey_naming(repeat: int, n: int) -> None:
    """Time the survey's naming step on the classes on n vertices: α of
    every class, then canonical_mask over each row's classes of largest α."""
    name = f"census{n}"
    solved = experiments._solved_classes(n, 1)
    adj = {mask: experiments._graph_of_mask(n, mask).adj_bits for mask, *_ in solved}
    secs, _ = best_of(repeat, lambda: [experiments._independence_number(a) for a in adj.values()])
    print(f"{name}\tsurvey naming\t{len(adj)}\t_independence_number\t{secs:.6g}", flush=True)
    rows: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for mask, _, dim, edim, alpha in solved:
        rows.setdefault((dim, edim), []).append((alpha, mask))
    named = [adj[mask] for classes in rows.values() for alpha, mask in classes if alpha == max(classes)[0]]
    secs, _ = best_of(repeat, lambda: [experiments.canonical_mask(n, a) for a in named])
    print(f"{name}\tsurvey naming\t{len(named)}\tcanonical_mask(largest alpha)\t{secs:.6g}", flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=10, help="calls per kernel; the best is printed")
    ap.add_argument("--fk", type=int, nargs="+", default=[4, 5], metavar="K")
    ap.add_argument("--census", type=int, nargs="+", default=[6], metavar="N")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    for k in args.fk:
        if not 1 <= k <= MAX_FAMILY_K:
            ap.error(f"--fk {k}: K must be 1 to {MAX_FAMILY_K}, where F_K's edim fits the pair-bit cap")
    for n in args.census:
        if not 1 <= n <= experiments.CENSUS_MAX_N:
            ap.error(f"--census {n}: N must be a census size, 1 to {experiments.CENSUS_MAX_N}")
    for name, g, factor in inputs(args.fk):
        levels = all_pairs_distances(g).levels
        if factor is not None:
            factor.edge_levels  # kept by the factor, read by _path_product_edge_levels
        for problem in ("dim", "edim"):
            n_obj = g.n
            obj_levels = levels
            if problem == "edim":
                n_obj = g.m
                secs, obj_levels = best_of(args.repeat, _edge_levels, g, levels)
                print(f"{name}\t{problem}\t{n_obj}\t_edge_levels\t{secs:.6g}", flush=True)
                if factor is not None:
                    secs, composed = best_of(args.repeat, _path_product_edge_levels, factor, 2)
                    print(f"{name}\t{problem}\t{n_obj}\t_path_product_edge_levels\t{secs:.6g}", flush=True)
                    product_check(args.repeat, name, factor, composed, n_obj)
            secs, cover = best_of(args.repeat, resolver._Cover, obj_levels, n_obj)
            print(f"{name}\t{problem}\t{n_obj}\t_pair_bitsets\t{secs:.6g}", flush=True)
            secs, _ = best_of(args.repeat, minimal_sets, cover)
            print(f"{name}\t{problem}\t{n_obj}\t_minimal_separators\t{secs:.6g}", flush=True)
            if name == "hard_gnp0":
                gated_search(args.repeat, name, problem, cover)
    for n in args.census:
        census(args.repeat, n)
        survey_naming(args.repeat, n)


if __name__ == "__main__":
    main()
