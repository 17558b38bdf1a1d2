"""Workload process of the edimlab benchmark.

`run.py` starts this script in a fresh interpreter once per measured run
and a few more times with --setup-only, so set-up time includes the
interpreter start and the import.  The script builds the workload's
inputs from the seed, prints the monotonic time at which they were ready,
runs whole passes over the inputs until --seconds have gone by, checks
every output, and prints one JSON document as its last line.

    python3 perfbench/worker.py --workload census6 --seed 0 --seconds 10 --trace 0
    python3 perfbench/worker.py --record    # rewrite expected.json from this commit
"""

import argparse
import bisect
import hashlib
import io
import json
import math
import random
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# importing the package is part of set-up
from edimlab import _par, cli, constructions, experiments, formats, graph, resolver, theorems  # noqa: E402

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
SPAN_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 0
CENSUS_THREADS_PAR = 2

# labeled connected graphs on n vertices, OEIS A001187
A001187 = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}

CENSUS_COMMANDS = (
    ("survey", "6"),
    ("verify", "ncondition", "--sweep", "6"),
    ("verify", "vertex_bound", "--sweep", "6"),
)

LAYER_MODULES = {
    "cli": cli,
    "_par": _par,
    "experiments": experiments,
    "theorems": theorems,
    "constructions": constructions,
    "resolver": resolver,
    "graph": graph,
    "formats": formats,
}


# The host's speed moves by 20-65 percent in phases of seconds to minutes
# (other tenants share its cores), and a phase often covers whole runs.  So
# a measured run also times a fixed kernel of the benchmark's own code every
# REF_EVERY_S, from a timer signal, inside ops as well as between them.  The
# kernel's time is taken out of the op it interrupted, and each op's time is
# scaled to the speed at which the kernel takes REF_NOMINAL_S, using the
# samples within REF_WINDOW_S of the op.  The kernel does not call the
# program, so a change to the program moves the scaled times as much as the
# raw ones.  REF_NOMINAL_S is about the kernel's median time on the host of
# the baseline (perfbench/baseline.json).
REF_NOMINAL_S = 0.0045
REF_EVERY_S = 0.25
REF_WINDOW_S = 2.0


def reference_kernel_s() -> float:
    """Seconds taken by 96 seeded G(16, 0.25) draws with connectivity checks."""
    rng = random.Random("reference")
    t0 = time.perf_counter()
    for _ in range(96):
        gen.gnp_connected(rng, 16, 0.25)
    return time.perf_counter() - t0


class HostSpeed:
    """Reference kernel samples taken from SIGALRM while the context is open."""

    def __init__(self):
        self.samples: list[float] = []
        self.begin: list[float] = []
        self.end: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        self.begin.append(time.perf_counter())
        self.samples.append(reference_kernel_s())
        self.end.append(time.perf_counter())

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def own_time(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent in the kernel."""
        lo = bisect.bisect_left(self.end, t0)
        hi = bisect.bisect_right(self.begin, t1)
        return t1 - t0 - sum(
            max(0.0, min(t1, e) - max(t0, b)) for b, e in zip(self.begin[lo:hi], self.end[lo:hi])
        )

    def scale(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Factor from seconds measured over [t0, t1] to seconds at the nominal
        speed, from the samples that ended within REF_WINDOW_S of that interval
        (from all samples, if none did)."""
        lo = bisect.bisect_left(self.end, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.end, t1 + REF_WINDOW_S)
        return REF_NOMINAL_S / statistics.median(self.samples[lo:hi] or self.samples)


class Mismatch(Exception):
    """An output that disagrees with what the benchmark knows to be right."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _graphs(edge_lists):
    return [graph.build_graph(n, edges) for n, edges in edge_lists]


def _graph6_digest(graphs) -> str:
    return _sha256("\n".join(formats.write_graph6(g) for g in graphs))


def _check_inputs(name: str, i: int, graphs, expected: dict) -> None:
    """At the first op, compare the generated graphs with the recorded default seed."""
    if i == 0 and _graph6_digest(graphs) != expected["graph6_sha256"]:
        raise Mismatch(f"{name}: generated graphs differ from the recorded default seed")


class Census:
    """The three census commands through the in-process CLI at a fixed --threads."""

    def __init__(self, threads: int, expected: dict):
        self.ops = [["--threads", str(threads), *argv] for argv in CENSUS_COMMANDS]
        self.expected = expected["census"]

    def run(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def check(self, i: int, out) -> int:
        rc, text = out
        key = " ".join(CENSUS_COMMANDS[i])
        if rc != 0:
            raise Mismatch(f"{key}: exit code {rc}")
        if _sha256(text) != self.expected[key]:
            raise Mismatch(f"{key}: stdout differs from the recorded SHA-256")
        if CENSUS_COMMANDS[i][0] == "survey":
            rows = [line.split(",") for line in text.splitlines()[1:]]
            total = sum(int(r[3]) for r in rows)
            if total != A001187[6] or any(r[0] != "6" for r in rows):
                raise Mismatch(f"{key}: survey counts sum to {total}, want {A001187[6]}")
            return total
        total = 0
        for n, count in re.findall(r"^n=(\d+): (\d+) graphs", text, re.M):
            if int(count) != A001187[int(n)]:
                raise Mismatch(f"{key}: {count} graphs at n={n}, want {A001187[int(n)]}")
            total += int(count)
        if f"summary: {total} graphs" not in text:
            raise Mismatch(f"{key}: summary line disagrees with the per-n lines")
        return total


class HardGnp:
    """dim and edim of seeded connected G(n, p) graphs."""

    def __init__(self, seed: int, expected: dict):
        self.ops = _graphs(gen.hard_gnp_graphs(seed))
        self.expected = expected["hard_gnp"] if seed == DEFAULT_SEED else None

    def run(self, g):
        return resolver.metric_dimension(g), resolver.edge_metric_dimension(g)

    @staticmethod
    def record(out) -> str:
        """'value:witness value:witness' for dim then edim, e.g. '2:0,3 3:0,1,4'."""
        return " ".join(f"{r.value}:{','.join(map(str, r.witness))}" for r in out)

    def check(self, i: int, out) -> int:
        dim, edim = out
        if self.expected is not None:
            _check_inputs("hard_gnp", i, self.ops, self.expected)
            if self.record(out) != self.expected["results"][i]:
                raise Mismatch(f"hard_gnp[{i}]: {self.record(out)} != {self.expected['results'][i]}")
            return 1
        g = self.ops[i]
        if len(dim.witness) != dim.value or not resolver.is_vertex_generator(g, dim.witness):
            raise Mismatch(f"hard_gnp[{i}]: dim witness {dim.witness} does not resolve the vertices")
        if len(edim.witness) != edim.value or not resolver.is_edge_generator(g, edim.witness):
            raise Mismatch(f"hard_gnp[{i}]: edim witness {edim.witness} does not resolve the edges")
        return 1


class Product6:
    """The path-product theorem with m = 2 on seeded connected 6-vertex graphs."""

    def __init__(self, seed: int, expected: dict):
        self.ops = _graphs(gen.product6_graphs(seed))
        self.expected = expected["product6"] if seed == DEFAULT_SEED else None
        self.k_checked: set[int] = set()

    def run(self, g):
        return theorems.check_product_theorem(g, 2)

    def check(self, i: int, report) -> int:
        if report.verdict != theorems.HOLDS:
            raise Mismatch(f"product6[{i}]: {report.to_record()}")
        if self.expected is not None and i not in self.k_checked:
            _check_inputs("product6", i, self.ops, self.expected)
            k = resolver.min_joint_cover(self.ops[i])[0]
            if k != int(self.expected["joint_k"][i]):
                raise Mismatch(f"product6[{i}]: joint k {k} != recorded {self.expected['joint_k'][i]}")
            self.k_checked.add(i)
        return 1


WORKLOADS = {
    "census6": lambda seed, expected: Census(1, expected),
    "hard_gnp": HardGnp,
    "product6": Product6,
}


def run_pass(workload, tracer=None):
    """Run every op once; returns (per-op start, per-op seconds, per-op output or None)."""
    starts, times, outs = [], [], []
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception:
            traceback.print_exc()
            out = None
        starts.append(t0)
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return starts, times, outs


def check_passes(workload, passes) -> tuple[int, int, int]:
    """(attempted, failed, verified graphs) over every op of every pass."""
    attempted = failed = graphs = 0
    for *_, outs in passes:
        for i, out in enumerate(outs):
            attempted += 1
            if out is None:
                failed += 1
                continue
            try:
                graphs += workload.check(i, out)
            except Mismatch as exc:
                print(f"mismatch: {exc}", file=sys.stderr)
                failed += 1
    return attempted, failed, graphs


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with 10 samples beyond it.

    With fewer than 11 samples no percentile has 10 beyond it; the maximum
    is returned with 0 beyond.
    """
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], 100.0, 0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered), 10


def timing_metrics(pass_times: list[list[float]], graphs_per_pass: float) -> tuple[dict, float, int]:
    """Time metrics from per-op seconds of each pass, and the tail's percentile
    and samples beyond it.  Each op's time is its median over the passes."""
    per_op = [statistics.median(ts) for ts in zip(*pass_times)]
    tail_value, tail_pct, beyond = tail(per_op)
    metrics = {
        "graphs_per_s": graphs_per_pass / sum(per_op),
        "latency_p50_s": statistics.median(per_op),
        "latency_tail_s": tail_value,
    }
    return metrics, tail_pct, beyond


def measure(workload, seconds: float) -> dict:
    """Whole passes until `seconds` have gone by, at least one.

    Each op's time in a pass is scaled by the host speed around it (see
    REF_NOMINAL_S); throughput is the verified graphs of one pass over the
    sum of the ops' medians.  The unscaled values are in the notes.
    """
    passes = []
    attempted = failed = graphs = 0
    with HostSpeed() as host:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            result = run_pass(workload)
            # checked now and dropped, so peak memory does not grow with the passes
            counts = check_passes(workload, [result])
            attempted, failed, graphs = attempted + counts[0], failed + counts[1], graphs + counts[2]
            passes.append(result[:2])
        wall = time.perf_counter() - start
    raw = [[host.own_time(s, s + t) for s, t in zip(starts, times)] for starts, times in passes]
    scaled = [
        [t * host.scale(s, s + wall) for s, wall, t in zip(starts, times, own)]
        for (starts, times), own in zip(passes, raw)
    ]
    metrics, tail_pct, beyond = timing_metrics(scaled, graphs / len(passes))
    raw_metrics, _, _ = timing_metrics(raw, graphs / len(passes))
    return {
        "metrics": {
            **metrics,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "attempted": attempted,
        "failed": failed,
        "host_scale": host.scale(),
        "notes": {
            "passes": len(passes),
            "ops_per_pass": len(workload.ops),
            "wall_s": wall,
            "pass_walls_s": [round(sum(times), 3) for times in raw],
            "host_scale": host.scale(),
            "reference_samples": len(host.samples),
            **{f"raw_{name}": value for name, value in raw_metrics.items()},
            "latency_tail_percentile": tail_pct,
            "latency_tail_samples_beyond": beyond,
            "failed_frac": failed / attempted,
        },
    }


def _timed_pass(workload, tracer=None) -> tuple[float, tuple]:
    t0 = time.perf_counter()
    result = run_pass(workload, tracer)
    return time.perf_counter() - t0, result


def layer_metrics(tracer: Tracer, graphs: int, walls: dict[str, float], par_tracer: Tracer) -> dict:
    """Per-layer metrics from the spans and counts of one traced pass.

    `graphs` is the number of graphs the traced pass verified; `walls` holds
    untraced and traced wall seconds of the workload and untraced wall
    seconds of one census6 and one census6_par pass.  The par.* counts come
    from `par_tracer`, the trace of the pass whose fan-out they describe.
    """
    calls, self_s, layers, _ = tracer.summary()
    par_calls, par_self_s, _, _ = par_tracer.summary()
    masks = calls.get("experiments.decode", 0)
    enumerated = tracer.counts["experiments.graphs_enumerated"]
    solves = calls.get("resolver.dim", 0) + calls.get("resolver.edim", 0)
    return {
        "experiments.masks_visited": masks,
        "experiments.graphs_enumerated": enumerated,
        "experiments.useful_ratio": enumerated / masks if masks else 0.0,
        "experiments.self_s": layers.get("experiments", 0.0),
        "graph.apd.calls": calls.get("graph.apd", 0),
        "graph.apd.self_s": self_s.get("graph.apd", 0.0),
        "graph.is_connected.calls": calls.get("graph.is_connected", 0),
        "graph.is_connected.self_s": self_s.get("graph.is_connected", 0.0),
        "graph.self_s": layers.get("graph", 0.0),
        "resolver.dim.calls": calls.get("resolver.dim", 0),
        "resolver.dim.self_s": self_s.get("resolver.dim", 0.0),
        "resolver.edim.calls": calls.get("resolver.edim", 0),
        "resolver.edim.self_s": self_s.get("resolver.edim", 0.0),
        "resolver.pairs": tracer.counts["resolver.pairs"],
        "resolver.solves_per_graph": solves / graphs if graphs else 0.0,
        "resolver.joint.calls": calls.get("resolver.joint", 0),
        "resolver.joint.self_s": self_s.get("resolver.joint", 0.0),
        "resolver.bases_enumerated": tracer.counts["resolver.bases_enumerated"],
        "resolver.generator_check.self_s": self_s.get("resolver.generator_check", 0.0),
        "resolver.self_s": layers.get("resolver", 0.0),
        "theorems.checks": sum(c for n, c in calls.items() if n.startswith("theorems.check_")),
        "theorems.self_s": layers.get("theorems", 0.0),
        "formats.graph6.calls": calls.get("formats.graph6", 0),
        "formats.self_s": layers.get("formats", 0.0),
        "constructions.calls": sum(c for n, c in calls.items() if n.startswith("constructions.")),
        "constructions.self_s": layers.get("constructions", 0.0),
        "par.blocks": par_tracer.counts["par.blocks"],
        "par.fanout_s": par_self_s.get("par.run_blocks", 0.0),
        "par.scaling_efficiency": walls["census6"] / (2 * walls["census6_par"]),
        "cli.self_s": layers.get("cli", 0.0),
        "trace.overhead_ratio": walls["traced"] / walls["untraced"],
        "trace.unexplained_frac": (walls["traced"] - sum(layers.values())) / walls["traced"],
    }


def _traced_pass(workload) -> tuple[float, tuple, Tracer]:
    tracer = Tracer()
    tracer.install(LAYER_MODULES)
    try:
        wall, result = _timed_pass(workload, tracer)
    finally:
        tracer.uninstall()
    return wall, result, tracer


def measure_traced(name: str, workload, expected: dict, seed: int) -> dict:
    """One untraced and one traced pass of the workload, then untraced passes
    of census6 (unless the workload is census6) and census6_par, for
    par.scaling_efficiency.

    census6_par is the census at --threads 2, the only pass in which _par
    forks workers; it is not a workload of its own, because two workers on
    the two vCPUs of a shared host time the host's scheduler more than the
    program.  In the census6 run its pass is traced too, and the par.*
    counts come from that trace; elsewhere they come from the workload's
    own trace, where _par stays idle.
    """
    untraced_wall, untraced = _timed_pass(workload)
    traced_wall, traced, tracer = _traced_pass(workload)
    walls = {"untraced": untraced_wall, "traced": traced_wall}
    checked = [(workload, untraced)]
    traces = {name: tracer}
    par = Census(CENSUS_THREADS_PAR, expected)
    if name == "census6":
        walls["census6"] = untraced_wall
        _, result, traces["census6_par"] = _traced_pass(par)
        checked.append((par, result))
    else:
        census = Census(1, expected)
        walls["census6"], result = _timed_pass(census)
        checked.append((census, result))
    walls["census6_par"], result = _timed_pass(par)
    checked.append((par, result))
    attempted = failed = 0
    for done, result in checked:
        counts = check_passes(done, [result])
        attempted, failed = attempted + counts[0], failed + counts[1]
    counts = check_passes(workload, [traced])
    attempted, failed = attempted + counts[0], failed + counts[1]
    span_files = []
    for traced_name, written in traces.items():
        span_path = SPAN_DIR / f"spans-{traced_name}-seed{seed}.tsv.gz"
        written.write(span_path)
        span_files.append(str(span_path.relative_to(ROOT)))
    return {
        "metrics": layer_metrics(tracer, counts[2], walls, traces.get("census6_par", tracer)),
        "attempted": attempted,
        "failed": failed,
        "notes": {
            "spans": len(tracer.start),
            "span_files": span_files,
            **{f"{key}_wall_s": wall for key, wall in walls.items()},
        },
    }


def record_expected() -> None:
    """Write expected.json from the outputs of the program at this commit."""
    doc = {"census": {}, "default_seed": DEFAULT_SEED}
    census = Census(1, {"census": {}})
    for argv, (rc, text) in zip(CENSUS_COMMANDS, map(census.run, census.ops)):
        if rc != 0:
            raise SystemExit(f"{argv}: exit code {rc}")
        doc["census"][" ".join(argv)] = _sha256(text)
    graphs = _graphs(gen.hard_gnp_graphs(DEFAULT_SEED))
    doc["hard_gnp"] = {
        "graph6_sha256": _graph6_digest(graphs),
        "results": [HardGnp.record((resolver.metric_dimension(g), resolver.edge_metric_dimension(g)))
                    for g in graphs],
    }
    graphs = _graphs(gen.product6_graphs(DEFAULT_SEED))
    doc["product6"] = {
        "graph6_sha256": _graph6_digest(graphs),
        "joint_k": "".join(str(resolver.min_joint_cover(g)[0]) for g in graphs),
    }
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.record:
        record_expected()
        return 0
    expected = json.loads(EXPECTED_PATH.read_text())
    workload = WORKLOADS[args.workload](args.seed, expected)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.trace:
        result = measure_traced(args.workload, workload, expected, args.seed)
    else:
        result = measure(workload, args.seconds)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
