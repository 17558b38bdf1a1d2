"""Tests of the benchmark's own parts: seeded generators, declared metrics, tracing.

    python3 -m pytest -q perfbench
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402

import pytest  # noqa: E402

from edimlab import cli, formats, graph, resolver, theorems  # noqa: E402


def _graph6_list(edge_lists):
    return [formats.write_graph6(g) for g in worker._graphs(edge_lists)]


def test_one_seed_gives_one_graph6_list():
    for make in (gen.hard_gnp_graphs, gen.product6_graphs):
        first = _graph6_list(make(7))
        assert first == _graph6_list(make(7))
        assert first != _graph6_list(make(8))


def test_generated_graphs_are_connected_and_sized_as_declared():
    hard = worker._graphs(gen.hard_gnp_graphs(7))
    assert [g.n for g in hard] == [n for n, _, count in gen.HARD_GNP_CLASSES for _ in range(count)]
    small = worker._graphs(gen.product6_graphs(7))
    assert len(small) == gen.PRODUCT6_COUNT and {g.n for g in small} == {gen.PRODUCT6_N}
    assert all(graph.is_connected(g) for g in hard + small)


class _Stub:
    ops = [0, 1, 2]

    def run(self, op):
        return op

    def check(self, i, out):
        return 1


def _traced_dim_call() -> Tracer:
    tracer = Tracer()
    tracer.install(worker.LAYER_MODULES)
    try:
        resolver.metric_dimension(graph.build_graph(4, [(0, 1), (1, 2), (2, 3)]))
    finally:
        tracer.uninstall()
    return tracer


def test_printed_metric_names_are_declared_in_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    end_to_end = set(worker.measure(_Stub(), 0.0)["metrics"]) | {"setup_s"}
    assert end_to_end == {m["name"] for m in spec["end_to_end"]}
    walls = dict.fromkeys(("untraced", "traced", "census6", "census6_par"), 1.0)
    tracer = _traced_dim_call()
    per_layer = worker.layer_metrics(tracer, 1, walls, tracer)
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]


def test_checks_reject_wrong_outputs():
    text = "n=3: 5 graphs, 5 holds, 0 fails, 0 not_applicable\nsummary: 5 graphs\n"
    census = worker.Census(1, {"census": {"verify ncondition --sweep 6": worker._sha256(text)}})
    with pytest.raises(worker.Mismatch, match="want 4"):
        census.check(1, (0, text))
    with pytest.raises(worker.Mismatch, match="exit code"):
        census.check(1, (4, text))
    hard = worker.HardGnp(7, {})
    g = hard.ops[0]
    wrong = resolver.DimensionResult(1, (0,))
    with pytest.raises(worker.Mismatch, match="dim witness"):
        hard.check(0, (wrong, resolver.edge_metric_dimension(g)))
    product = worker.Product6(7, {})
    with pytest.raises(worker.Mismatch):
        product.check(0, theorems.TheoremReport("product", "x m=2", theorems.FAILS))
    recorded = json.loads(worker.EXPECTED_PATH.read_text())
    product = worker.Product6(worker.DEFAULT_SEED, recorded)
    ok = theorems.TheoremReport("product", "x m=2", theorems.HOLDS)
    assert product.check(0, ok) == 1
    recorded["product6"]["graph6_sha256"] = "0" * 64
    with pytest.raises(worker.Mismatch, match="recorded default seed"):
        worker.Product6(worker.DEFAULT_SEED, recorded).check(0, ok)


def test_host_speed_scales_by_the_samples_near_an_op():
    host = worker.HostSpeed()
    host.begin, host.end = [0.0, 0.5, 5.0], [0.001, 0.503, 5.009]
    host.samples = [0.001, 0.003, 0.009]
    nominal = worker.REF_NOMINAL_S
    assert host.own_time(0.4, 0.6) == pytest.approx(0.2 - 0.003)
    assert host.own_time(0.502, 4.0) == pytest.approx(4.0 - 0.503)
    assert host.scale(0.2, 0.3) == nominal / 0.002
    assert host.scale(4.5, 4.6) == nominal / 0.009
    assert host.scale(2.5, 2.6) == nominal / 0.003
    assert host.scale() == nominal / 0.003
    measured = worker.measure(_Stub(), 0.0)
    notes = measured["notes"]
    assert notes["reference_samples"] == 2
    assert measured["metrics"]["latency_p50_s"] == pytest.approx(notes["raw_latency_p50_s"] * measured["host_scale"])


def test_tail_keeps_ten_samples_beyond():
    assert worker.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_tracer_nests_spans_and_restores_the_program():
    original = resolver.metric_dimension
    tracer = _traced_dim_call()
    assert resolver.metric_dimension is original
    names = [tracer.names[i] for i in tracer.name_of]
    assert names == ["resolver.dim", "graph.is_connected", "graph.apd"]
    assert list(tracer.parent) == [-1, 0, 0]
    calls, self_s, layers, root = tracer.summary()
    assert calls["graph.apd"] == 1 and tracer.counts["resolver.pairs"] == 6
    assert abs(sum(layers.values()) - root) < 1e-9


def test_traced_parallel_sweep_matches_untraced_output():
    argv = ["--threads", "2", "verify", "ncondition", "--sweep", "4"]
    plain = io.StringIO()
    with redirect_stdout(plain):
        assert cli.main(argv) == 0
    tracer = Tracer()
    tracer.install(worker.LAYER_MODULES)
    traced = io.StringIO()
    try:
        with redirect_stdout(traced):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert traced.getvalue() == plain.getvalue()
    assert tracer.counts["par.blocks"] > 0
