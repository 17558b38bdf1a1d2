import json
import subprocess
import sys
import time

import pytest

from edimlab import parse_edge_list, write_edge_list
from edimlab.cli import main
from edimlab.theorems import CHECKS

from conftest import cli_env, path as path_graph


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "edimlab", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


@pytest.fixture()
def p5_file(tmp_path):
    f = tmp_path / "p5.el"
    f.write_text(write_edge_list(path_graph(5)))
    return f


def test_compute_dim_from_file(p5_file):
    proc = run_cli("compute", "dim", str(p5_file))
    assert proc.returncode == 0
    assert proc.stdout == "value: 1\nwitness: [0]\n"


def test_compute_edim_inline_construct():
    proc = run_cli("compute", "edim", "--construct", "F", "2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "value: 4"


def test_compute_joint():
    proc = run_cli("compute", "joint", "--construct", "complete", "3")
    assert proc.returncode == 0
    assert proc.stdout == "value: 2\nvertex_basis: [0, 1]\nedge_basis: [0, 1]\n"


def test_compute_all_bases(p5_file):
    proc = run_cli("compute", "dim", str(p5_file), "--all-bases")
    assert proc.returncode == 0
    assert "basis: [0]" in proc.stdout and "basis: [4]" in proc.stdout


def test_compute_reads_graph6(tmp_path):
    f = tmp_path / "c5.g6"
    f.write_text("Dhc\n")
    proc = run_cli("compute", "edim", str(f))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "value: 2"


def test_exit_code_2_on_parse_error(tmp_path):
    f = tmp_path / "bad.el"
    f.write_text("3 2\n0 1\n")
    proc = run_cli("compute", "dim", str(f))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        # verify --graph: a missing file
        ("verify", "ncondition", "--graph", "{tmp}/nonexistent.el"),
        # compute INPUT: a directory
        ("compute", "dim", "{tmp}"),
        # compute INPUT: a file that is not UTF-8
        ("compute", "dim", "{tmp}/latin1.el"),
        # a graph spec naming a directory, and one naming a non-UTF-8 file
        ("construct", "prod", "--g", "{tmp}", "--m", "2"),
        ("verify", "ncondition", "--g", "{tmp}/latin1.el"),
    ],
)
def test_exit_code_2_on_unreadable_input(tmp_path, argv):
    (tmp_path / "latin1.el").write_bytes(b"# caf\xe9\n2 1\n0 1\n")
    proc = run_cli(*(a.format(tmp=tmp_path) for a in argv))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("construct", "F", "2", "-o", "{out}"),
    ("survey", "3", "-o", "{out}"),
    ("verify", "ncondition", "--sweep", "3", "--report", "{out}"),
])
@pytest.mark.parametrize("out", ["{tmp}/missing/out", "{tmp}"])  # no such directory, a directory
def test_exit_code_2_on_unwritable_output(tmp_path, capsys, argv, out):
    out = out.format(tmp=tmp_path)
    assert main([a.format(out=out) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write output file {out!r}")


# commands that write a file, each with the sidecar file it writes too
_WRITERS = [
    (("construct", "F", "2", "-o"), ".labels.json"),
    (("construct", "prod", "--g", "path:3", "--m", "2", "-o"), ".labels.json"),
    (("survey", "3", "-o"), ".manifest.json"),
    (("verify", "ncondition", "--sweep", "3", "--report"), None),
    (("verify", "ncondition", "--g", "path:3", "--report"), None),
    (("verify", "fk", "--kmax", "1", "--report"), None),
]


@pytest.mark.parametrize("argv, refused", [
    (argv, refused)
    for argv, sidecar in _WRITERS
    for refused in ("missing/out.txt", ".", *([f"out.txt{sidecar}"] if sidecar else []))
])
def test_an_unwritable_output_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, refused):
    from edimlab import cli

    called = []

    def spy(name):
        def record(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"{name} ran before the output path was checked")
        return record

    for name in ("sweep_theorem", "survey_triples", "construct_F", "standard_family",
                 "cartesian_path", "check_Fk_theorem"):
        monkeypatch.setattr(cli, name, spy(name))
    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    refused = tmp_path / refused
    target = refused
    if refused.suffix == ".json":  # the sidecar is a directory; the output file is fine
        refused.mkdir()
        target = out
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, str(target)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"error: cannot write output file {str(refused)!r}")
    assert called == []
    assert sorted(tmp_path.rglob("*")) == before and out.read_text() == "kept\n"


def test_a_sweeps_stdout_does_not_depend_on_threads(capsys):
    # the sweep's blocks mix classes named by their lowest mask with
    # classes keyed by the mask they were generated with
    outs = []
    for threads in ("1", "2"):
        assert main(["--threads", threads, "verify", "ncondition", "--sweep", "6"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0]
    assert outs[0].endswith("summary: 27474 graphs, 27474 holds, 0 fails, 0 not_applicable (all hold)\n")


def test_graph_spec_names_a_file_with_a_colon(tmp_path):
    (tmp_path / "g:1.txt").write_text(write_edge_list(path_graph(3)))
    proc = run_cli("verify", "product", "--g", "g:1.txt", "--m", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "product\tBg m=3\tholds" in proc.stdout
    proc = run_cli("construct", "join", "--g1", str(tmp_path / "g:1.txt"), "--g2", "path:1",
                   "--format", "graph6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Cn\n"  # P_3 joined with K_1: K_4 minus the edge 02
    # a family spec still parses when no such file exists
    proc = run_cli("construct", "prod", "--g", "path:3", "--m", "2", cwd=tmp_path)
    assert proc.returncode == 0 and proc.stdout.startswith("6 7\n")


def test_exit_code_2_on_bad_params():
    proc = run_cli("compute", "dim", "--construct", "F", "99")
    assert proc.returncode == 2


def _limit_address_space_to_1_gib():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv, order",
    [
        (("compute", "dim", "--construct", "complete", "20000"), 20000),
        (("verify", "ncondition", "--g", "star:30000000"), 30000001),
        (("construct", "family", "grid", "3000", "3000"), 9000000),
    ],
)
def test_exit_code_2_on_family_over_the_vertex_cap(argv, order):
    # refused from the parameters alone, so memory stays small
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    proc = subprocess.run(
        [sys.executable, "-m", "edimlab", *argv],
        capture_output=True, text=True, env=cli_env(), preexec_fn=_limit_address_space_to_1_gib,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert f"would have {order} vertices" in lines[0]


def test_family_at_the_vertex_cap_fits_in_1_gib():
    # complete 4096's edge list is 8.4 million lines: written in chunks, never whole
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    with subprocess.Popen(
        [sys.executable, "-m", "edimlab", "construct", "family", "complete", "4096"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
        preexec_fn=_limit_address_space_to_1_gib,
    ) as proc:
        header = proc.stdout.readline()
        edges = sum(1 for _ in proc.stdout)
        err = proc.stderr.read().decode()
    assert proc.returncode in (0, 2), err
    if proc.returncode == 0:
        assert (header, edges) == (b"4096 8386560\n", 8386560)
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "dim", "--construct", "complete", "4096"),
        ("compute", "joint", "--construct", "complete", "4096"),
        pytest.param(("compute", "edim", "--construct", "complete", "4096"), marks=pytest.mark.extended),
        pytest.param(("verify", "ncondition", "--g", "complete:4096"), marks=pytest.mark.extended),
    ],
)
def test_solves_at_the_vertex_cap_fit_in_1_gib(argv):
    # complete 4096's edge levels alone take several GB: the solves must be
    # refused by the pair-bit cap before any levels are built
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    proc = subprocess.run(
        [sys.executable, "-m", "edimlab", *argv],
        capture_output=True, text=True, env=cli_env(), preexec_fn=_limit_address_space_to_1_gib,
    )
    assert proc.returncode in (0, 2), proc.stderr
    if proc.returncode == 2:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        # path copies: m < 2 is refused by a sweep as by a single graph
        ("verify", "product", "--sweep", "3", "--m", "0"),
        ("verify", "product", "--sweep", "3"),
        ("verify", "product", "--g", "path:3", "--m", "0"),
        ("verify", "product", "--g", "path:1", "--m", "1"),
        # sweep sizes below 1, as for survey
        ("verify", "ncondition", "--sweep", "0"),
        ("verify", "join", "--sweep", "-3"),
        ("survey", "0"),
        # family ranges below 1, and past the last k whose edim fits the
        # pair-bit cap (6), refused before any k is solved
        ("verify", "fk", "--kmax", "0"),
        ("verify", "hk", "--kmax", "-2"),
        ("verify", "fk", "--kmax", "7"),
        ("verify", "hk", "--kmax", "12"),
        # sweeps that would check nothing: n_max below the checker's smallest n
        ("verify", "ncondition", "--sweep", "2"),
        ("verify", "corollary", "--sweep", "2"),
        ("verify", "degree_lemmas", "--sweep", "2"),
        ("verify", "vertex_bound", "--sweep", "1"),
        ("verify", "edge_bound", "--sweep", "1"),
        ("verify", "join", "--sweep", "1"),
        ("verify", "product", "--sweep", "1", "--m", "2"),
        # worker counts below 1, for a sweep and for a census
        ("--threads", "0", "verify", "ncondition", "--sweep", "3"),
        ("--threads", "-3", "survey", "3"),
    ],
)
def test_exit_code_2_on_out_of_range_sweep_and_family(argv, capsys):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
    if argv == ("verify", "product", "--sweep", "3"):
        assert err == "error: verify product needs --m M, at least 2\n"


@pytest.mark.parametrize("argv", [
    ("survey", "8"),
    ("survey", "9"),
    ("verify", "ncondition", "--sweep", "8"),
    ("verify", "vertex_bound", "--sweep", "9"),
])
def test_census_sizes_past_the_census_cap_exit_2_naming_it(argv, capsys):
    # n = 8 is within the enumeration cap but past the census cap, and so is
    # n = 9: both are refused by the cap that applies, n = 7
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: census capped at n=7, got {argv[-1]}\n"


@pytest.mark.extended
def test_product_sweep_fails_at_n7(capsys):
    # one class of 7!/2 labeled graphs, F~qP_, fails; see test_theorems
    assert main(["verify", "product", "--sweep", "7", "--m", "2"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[5] == "n=7: 1866256 graphs, 1863736 holds, 2520 fails, 0 not_applicable"
    assert lines[6] == (
        'product\tF@U}w m=2\tfails\t{"edim_of_product": 4, "joint_k": 5, "m": 2, '
        '"witness": [0, 1, 2, 3, 4, 7], "witness_generates": true}'
    )
    assert lines[-1] == (
        "summary: 1893731 graphs, 1891211 holds, 2520 fails, 0 not_applicable (2520 FAILURES)"
    )
    assert len(lines) == 6 + 2520 + 1


def test_memory_guard_refuses_before_any_distance_is_computed(monkeypatch, capsys):
    from edimlab import graph, resolver, theorems

    def unreachable(*args):
        raise AssertionError("a distance was computed past the memory guard")

    # every distance comes from graph.bfs_levels: a Graph's distances call it
    # on first use (all_pairs_distances, diameter), and resolver imports it by
    # name for the generator checks
    for module, name in ((graph, "bfs_levels"), (resolver, "bfs_levels"),
                         (resolver, "all_pairs_distances")):
        monkeypatch.setattr(module, name, unreachable)
    # the spy is on the solvers' and the checks' path: below the guard, a
    # solve, a diameter or a check reaches it on a fresh graph
    for solve in (resolver.metric_dimension, resolver.edge_metric_dimension,
                  resolver.min_joint_cover, graph.all_pairs_distances, graph.diameter,
                  theorems.check_vertex_count_bound):
        with pytest.raises(AssertionError, match="past the memory guard"):
            solve(path_graph(3))
    # edim of K_300: 300 landmarks x C(44850, 2) edge pairs, about 3.0e11 bits
    assert main(["compute", "edim", "--construct", "complete", "300"]) == 2
    assert "bits of pair bitsets" in capsys.readouterr().err
    # the joint cover guards both of its solves before its one BFS
    assert main(["compute", "joint", "--construct", "complete", "300"]) == 2
    assert "bits of pair bitsets" in capsys.readouterr().err
    # dim of P_2100: 2100 landmarks x C(2100, 2) vertex pairs, about 4.6e9 bits
    assert main(["compute", "dim", "--construct", "path", "2100"]) == 2
    assert "bits of pair bitsets" in capsys.readouterr().err
    # a theorem check reads the graph's distances only through its solve
    assert main(["verify", "vertex_bound", "--g", "path:2100"]) == 2
    assert "bits of pair bitsets" in capsys.readouterr().err
    # the product check guards K_100 x P_2 before it solves K_100's joint cover
    assert main(["verify", "product", "--g", "complete:100", "--m", "2"]) == 2
    assert "bits of pair bitsets" in capsys.readouterr().err


def _over_cap(landmarks, objects, need):
    return f"error: {landmarks} landmarks and {objects} objects need {need} bits of pair bitsets, over the cap of 4294967296\n"


# compute of F_k and H_k over the pair-bit cap or with k out of range, each
# with the stderr it printed when the builder ran before the refusal
_OVER_CAP = [
    ("dim", "F", "11", _over_cap(2059, 2059, 4362425949)),
    ("dim", "H", "11", _over_cap(2060, 2060, 4368786200)),
    ("edim", "F", "7", _over_cap(135, 8597, 4988237310)),
    ("edim", "H", "7", _over_cap(136, 8732, 5184258256)),
    ("edim", "F", "11", _over_cap(2059, 2107447, 4572350007497679)),
    ("joint", "F", "7", _over_cap(135, 8597, 4988237310)),
    ("joint", "H", "10", _over_cap(1035, 529975, 145351762311375)),
    ("dim", "H", "12", "error: k must be in 1..11, got 12\n"),
    ("edim", "F", "0", "error: k must be in 1..11, got 0\n"),
]


@pytest.mark.parametrize("kind, family, k, err", _OVER_CAP, ids=[" ".join(c[:3]) for c in _OVER_CAP])
def test_families_over_the_pair_bit_cap_are_refused_unbuilt(monkeypatch, capsys, kind, family, k, err):
    from edimlab import cli

    def unbuilt(k):
        raise AssertionError(f"the family graph was built for k={k}")

    monkeypatch.setattr(cli, "construct_F", unbuilt)
    monkeypatch.setattr(cli, "construct_H", unbuilt)
    assert main(["compute", kind, "--construct", family, k]) == 2
    assert capsys.readouterr() == ("", err)


# compute of named families over the pair-bit cap, at sizes that build fast
_FAMILY_OVER_CAP = [
    ("edim", "complete", ["150"]),
    ("joint", "complete", ["150"]),
    ("dim", "path", ["2100"]),
    ("dim", "cycle", ["2100"]),
    ("dim", "star", ["2100"]),
    ("edim", "complete_bipartite", ["100", "100"]),
    ("edim", "grid", ["40", "40"]),
]


def _unbuilt(name, params):
    raise AssertionError(f"the family graph {name} {params} was built")


@pytest.mark.parametrize("kind, family, params", _FAMILY_OVER_CAP,
                         ids=[" ".join([c[0], c[1], *c[2]]) for c in _FAMILY_OVER_CAP])
def test_named_families_over_the_pair_bit_cap_are_refused_unbuilt(monkeypatch, capsys, kind, family, params):
    from edimlab import cli, resolver
    from edimlab.constructions import standard_family
    from edimlab.errors import NTooLargeError

    # the refusal the solver's guard gives on the built graph
    g = standard_family(family, [int(p) for p in params])
    with pytest.raises(NTooLargeError) as built:
        if kind == "joint":
            resolver.min_joint_cover(g)
        else:
            resolver._problem(g, kind == "edim")
    monkeypatch.setattr(cli, "standard_family", _unbuilt)
    assert main(["compute", kind, "--construct", family, *params]) == 2
    assert capsys.readouterr() == ("", f"error: {built.value}\n")


def test_complete_4096_is_refused_from_its_counts(monkeypatch, capsys):
    from edimlab import cli

    monkeypatch.setattr(cli, "standard_family", _unbuilt)
    assert main(["compute", "edim", "--construct", "complete", "4096"]) == 2
    assert capsys.readouterr() == ("", _over_cap(4096, 8386560, 144044810745937920))


# verify of F_k and H_k over the pair-bit cap, each with the stderr it
# printed when the family graph was built before the refusal
_VERIFY_OVER_CAP = [
    (("ncondition", "--g", "F:11"), _over_cap(2059, 2107447, 4572350007497679)),
    (("edge_bound", "--g", "H:10"), _over_cap(1035, 529975, 145351762311375)),
    (("vertex_bound", "--g", "H:11"), _over_cap(2060, 2060, 4368786200)),
    (("vertex_bound", "--g", "F:11"), _over_cap(2059, 2059, 4362425949)),
    (("corollary", "--g", "F:7"), _over_cap(135, 8597, 4988237310)),
    (("degree_lemmas", "--g", "H:7"), _over_cap(136, 8732, 5184258256)),
    (("join", "--g", "F:7"), _over_cap(136, 8732, 5184258256)),
    (("product", "--g", "F:7", "--m", "2"), _over_cap(270, 17329, 40537383120)),
    # m, then the product's vertex cap, before the pair-bit cap; k before m
    (("product", "--g", "F:7", "--m", "1"), "error: need at least 2 path copies, got 1\n"),
    (("product", "--g", "H:11", "--m", "2"), "error: product would have 4120 vertices, cap is 4096\n"),
    (("product", "--g", "F:12", "--m", "1"), "error: k must be in 1..11, got 12\n"),
    (("product", "--g", "F:7"), "error: verify product needs --m M, at least 2\n"),
]


@pytest.mark.parametrize("argv, err", _VERIFY_OVER_CAP, ids=[" ".join(c[0]) for c in _VERIFY_OVER_CAP])
def test_verify_of_families_over_the_pair_bit_cap_is_refused_unbuilt(monkeypatch, capsys, argv, err):
    from edimlab import cli

    def unbuilt(k):
        raise AssertionError(f"the family graph was built for k={k}")

    monkeypatch.setattr(cli, "construct_F", unbuilt)
    monkeypatch.setattr(cli, "construct_H", unbuilt)
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("theorem", sorted(CHECKS))
def test_verify_asks_the_cap_of_the_instance_each_check_builds_first(monkeypatch, theorem):
    from edimlab import cli, resolver
    from edimlab.constructions import _family_counts, construct_F, construct_H
    from edimlab.errors import NTooLargeError

    assert set(cli._FIRST_INSTANCE) == set(CHECKS)
    asked = []

    def first_ask(landmarks, objects):
        asked.append((landmarks, objects))
        raise NTooLargeError("stop at the first instance")

    monkeypatch.setattr(resolver, "_pair_cap", first_ask)
    for name, build in (("F", construct_F), ("H", construct_H)):
        for k in range(1, 5):
            g = build(k).graph
            # degree_lemmas builds its instance only on a graph with a universal vertex
            assert max(a.bit_count() for a in g.adj_bits) == g.n - 1
            asked.clear()
            with pytest.raises(NTooLargeError):
                CHECKS[theorem].run(g, 3)
            assert asked == [cli._FIRST_INSTANCE[theorem](*_family_counts(name, k), 3)], (name, k)


@pytest.mark.parametrize("argv", [
    ("verify", "ncondition", "--g", "F:11"),
    ("verify", "vertex_bound", "--g", "H:11"),
    ("verify", "edge_bound", "--g", "H:10"),
])
def test_verify_of_families_over_the_pair_bit_cap_exits_fast_in_1_gib(argv):
    # building F_11 took 1.3 s and about 300 MB before the refusal
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "edimlab", *argv],
        capture_output=True, text=True, env=cli_env(), preexec_fn=_limit_address_space_to_1_gib,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "bits of pair bitsets" in proc.stderr
    assert elapsed < 1.0, elapsed


def test_families_within_the_pair_bit_cap_are_built_and_solved(capsys):
    # F_6's edim instance is the largest within the cap; its dim and H_2's joint solve
    assert main(["compute", "dim", "--construct", "F", "6"]) == 0
    assert capsys.readouterr().out.startswith("value: ")
    assert main(["compute", "joint", "--construct", "H", "2"]) == 0
    assert capsys.readouterr().out.startswith("value: ")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("verify", "ncondition", "--g", "path:5", "--m", "7"), "--m"),
        (("verify", "join", "--g", "path:3", "--m", "0"), "--m"),
        (("verify", "corollary", "--sweep", "3", "--m", "2"), "--m"),
        (("verify", "fk", "--kmax", "2", "--m", "3"), "--m"),
        (("verify", "hk", "--kmax", "1", "--m", "2"), "--m"),
        (("construct", "F", "2", "--g", "path:3"), "--g"),
        (("construct", "H", "1", "--m", "0"), "--m"),
        (("construct", "family", "path", "3", "--g1", "path:2"), "--g1"),
        (("construct", "join", "--g1", "path:2", "--g2", "path:1", "--m", "2"), "--m"),
        (("construct", "join", "--g1", "path:2", "--g2", "path:1", "--g", "path:3"), "--g"),
        (("construct", "prod", "--g", "path:3", "--m", "2", "--g2", "path:1"), "--g2"),
        (("construct", "prod", "3", "--g", "path:3", "--m", "2"), "positional"),
        (("construct", "join", "4", "--g1", "path:2", "--g2", "path:1"), "positional"),
        (("compute", "joint", "--construct", "path", "3", "--all-bases"), "--all-bases"),
        (("compute", "dim", "--construct", "path", "3", "--format", "graph6"), "--format"),
        # --threads is read by sweeps and survey only
        (("--threads", "2", "compute", "dim", "--construct", "path", "3"), "--threads"),
        (("--threads", "1", "compute", "joint", "--construct", "path", "3"), "--threads"),
        (("--threads", "2", "construct", "F", "2"), "--threads"),
        (("--threads", "2", "construct", "prod", "--g", "path:3", "--m", "2"), "--threads"),
        (("--threads", "2", "verify", "ncondition", "--g", "path:5"), "--threads"),
        (("--threads", "2", "verify", "product", "--g", "path:3", "--m", "2"), "--threads"),
        (("--threads", "2", "verify", "fk", "--kmax", "2"), "--threads"),
        (("--threads", "1", "verify", "hk", "--kmax", "1"), "--threads"),
        # and refused the same after the subcommand
        (("compute", "dim", "--construct", "path", "3", "--threads", "2"), "--threads"),
        (("construct", "F", "2", "--threads", "2"), "--threads"),
        (("verify", "ncondition", "--g", "path:5", "--threads", "2"), "--threads"),
        (("verify", "fk", "--threads", "1", "--kmax", "2"), "--threads"),
    ],
)
def test_options_a_subcommand_does_not_read_exit_2(argv, option, capsys):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and option in err


@pytest.mark.parametrize("argv", [("survey", "4"), ("verify", "ncondition", "--sweep", "4")])
def test_threads_may_follow_the_subcommand(argv, capsys):
    outs = []
    for words in (("--threads", "2", *argv), (*argv, "--threads", "2")):
        assert main(list(words)) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0]


def test_the_default_format_is_accepted_with_construct(capsys):
    assert main(["compute", "dim", "--construct", "path", "3", "--format", "auto"]) == 0
    assert capsys.readouterr().out == "value: 1\nwitness: [0]\n"


@pytest.mark.parametrize(
    "argv, positionals_first",
    [
        ("compute dim --all-bases g.el", "compute dim g.el --all-bases"),
        ("compute edim --format edgelist g.el", "compute edim g.el --format edgelist"),
        ("construct F -o f.el 2", "construct F 2 -o f.el"),
        ("construct family --format graph6 cycle 5", "construct family cycle 5 --format graph6"),
        ("construct family cycle --format graph6 5", "construct family cycle 5 --format graph6"),
    ],
)
def test_positionals_may_follow_an_option(argv, positionals_first, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.el").write_text(write_edge_list(path_graph(4)))
    outs = []
    for words in (positionals_first, argv):
        assert main(words.split()) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0]


@pytest.mark.parametrize("argv", [
    "compute dim --all-bases g.el h.el",
    "compute dim --bogus g.el",
    "--bogus compute dim --all-bases g.el",
    "survey 4 -o s.csv 5",
])
def test_an_unrecognized_word_after_an_option_still_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_exit_code_3_on_disconnected_input(tmp_path):
    f = tmp_path / "disc.el"
    f.write_text("4 2\n0 1\n2 3\n")
    proc = run_cli("compute", "dim", str(f))
    assert proc.returncode == 3


@pytest.mark.parametrize("theorem", ["ncondition", "corollary", "vertex_bound", "edge_bound",
                                     "degree_lemmas", "join", "product"])
@pytest.mark.parametrize("text", ["3 1\n0 1\n", "2 0\n", "5 4\n0 1\n1 2\n0 2\n3 4\n"],
                         ids=["P2+K1", "2K1", "K3+K2"])
def test_verify_exits_3_on_a_disconnected_graph(tmp_path, capsys, theorem, text):
    f = tmp_path / "disc.el"
    f.write_text(text)
    extra = ["--m", "2"] if theorem == "product" else []
    assert main(["verify", theorem, "--graph", str(f), *extra]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "connected" in err


@pytest.mark.parametrize(
    "argv, sources",
    [
        (("compute", "dim", "{file}", "--construct", "path", "5"), ("input file", "--construct")),
        (("verify", "ncondition", "--graph", "{file}", "--g", "path:5"), ("--graph", "--g")),
        (("verify", "ncondition", "--g", "path:5", "--sweep", "3"), ("--g", "--sweep")),
        (("verify", "fk", "--kmax", "1", "--sweep", "3"), ("--sweep", "--kmax")),
    ],
)
def test_exit_code_2_on_two_graph_sources(p5_file, capsys, argv, sources):
    assert main([a.format(file=p5_file) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
    assert all(source in err for source in sources)


def test_construct_writes_graph_and_labels(tmp_path):
    out = tmp_path / "f2.el"
    proc = run_cli("construct", "F", "2", "-o", str(out))
    assert proc.returncode == 0
    g = parse_edge_list(out.read_text())
    assert (g.n, g.m) == (6, 11)
    labels = json.loads((tmp_path / "f2.el.labels.json").read_text())
    assert labels["0"] == "b1" and labels["5"] == "a{1,2}"


def test_construct_product_inline_spec(tmp_path):
    out = tmp_path / "grid.el"
    proc = run_cli("construct", "prod", "--g", "path:3", "--m", "4", "-o", str(out))
    assert proc.returncode == 0
    g = parse_edge_list(out.read_text())
    assert (g.n, g.m) == (12, 17)


def test_construct_family_to_stdout():
    proc = run_cli("construct", "family", "cycle", "5")
    assert proc.returncode == 0
    assert proc.stdout.startswith("5 5\n")


def test_construct_join_operands():
    proc = run_cli("construct", "join", "--g1", "cycle:4", "--g2", "path:1")
    assert proc.returncode == 0
    assert proc.stdout.startswith("5 8\n")


def test_construct_graph6_output():
    proc = run_cli("construct", "family", "complete", "4", "--format", "graph6")
    assert proc.returncode == 0
    assert proc.stdout == "C~\n"


def test_verify_fk_range():
    proc = run_cli("verify", "fk", "--kmax", "3")
    assert proc.returncode == 0
    assert proc.stdout.count("\tholds") == 3
    assert "summary: 3 checked, 3 holds, 0 fails" in proc.stdout


@pytest.mark.parametrize("theorem", sorted(CHECKS))
def test_every_check_reports_the_one_vertex_graph_as_not_applicable(theorem, capsys):
    # the product check too: an edgeless graph has no joint cover
    m = ("--m", "2") if theorem == "product" else ()
    assert main(["verify", theorem, "--g", "path:1", *m]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    record, summary = out.splitlines()
    assert record.split("\t")[2] == "not_applicable"
    assert summary == "summary: 1 checked, 0 holds, 0 fails, 1 not_applicable"


def test_verify_single_graph(p5_file):
    proc = run_cli("verify", "ncondition", "--graph", str(p5_file))
    assert proc.returncode == 0
    assert "holds" in proc.stdout


def test_verify_product_instance():
    proc = run_cli("verify", "product", "--g", "path:3", "--m", "3")
    assert proc.returncode == 0
    assert "product\tBg m=3\tholds" in proc.stdout


def test_verify_sweep_with_report(tmp_path):
    report = tmp_path / "report.json"
    proc = run_cli("verify", "ncondition", "--sweep", "4", "--report", str(report))
    assert proc.returncode == 0
    assert "all hold" in proc.stdout
    doc = json.loads(report.read_text())
    assert doc["theorem_id"] == "ncondition"
    assert doc["summary"]["fails"] == 0
    assert doc["failures"] == []
    assert doc["per_n"][-1]["n"] == 4


def test_verify_requires_scope():
    proc = run_cli("verify", "ncondition")
    assert proc.returncode == 2


def test_verify_exit_code_4_on_failure(monkeypatch, capsys):
    from edimlab import theorems
    from edimlab.theorems import TheoremReport

    monkeypatch.setattr(
        theorems, "check_ncondition_theorem",
        lambda g: TheoremReport("ncondition", "stub", "fails", {"n": g.n}),
    )
    code = main(["verify", "ncondition", "--g", "path:3"])
    assert code == 4
    assert "fails" in capsys.readouterr().out


def test_survey_stdout():
    proc = run_cli("survey", "3")
    assert proc.returncode == 0
    assert proc.stdout == "n,dim,edim,count,example_graph6\n3,1,1,3,Bo\n3,2,2,1,Bw\n"


def test_survey_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "s.csv"
    proc = run_cli("survey", "4", "-o", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,dim,edim,count,example_graph6"
    assert sum(int(line.split(",")[3]) for line in lines[1:]) == 38
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["tool_version"]
    assert "input_digest" not in manifest  # a survey reads no input
    assert manifest["outputs"][0]["path"] == "s.csv"
    assert len(manifest["outputs"][0]["sha256"]) == 64


def test_survey_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_cli("survey", "4", "-o", str(a / "s.csv"))
    run_cli("--threads", "2", "survey", "4", "-o", str(b / "s.csv"))
    assert (a / "s.csv").read_bytes() == (b / "s.csv").read_bytes()
    assert (a / "s.csv.manifest.json").read_bytes() == (b / "s.csv.manifest.json").read_bytes()
