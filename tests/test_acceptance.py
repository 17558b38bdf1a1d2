"""Acceptance gate: one test per numbered criterion, end to end.

Every test prints a single [PASS] or [FAIL] line with the measured
numbers (run with -s to see them on success).  The large-size variants
of criteria 3, 4, and 5 carry the `extended` marker and are skipped
by default; select them with `pytest -m extended`.
"""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

from edimlab import (
    cartesian_path,
    construct_F,
    construct_H,
    diameter,
    edge_metric_dimension,
    equivalence_sweep,
    full_edim_condition,
    is_edge_generator,
    is_vertex_generator,
    metric_dimension,
    min_joint_cover,
    product_upper_witness,
    standard_family,
    sweep_theorem,
)

from conftest import cli_env

CONNECTED_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {num}. {label}: {detail}"
    print(line)
    assert ok, line


def _corpus_ok(summary, n_values) -> bool:
    """Zero failures, and every n in scope saw the full connected-graph count."""
    per_n = {n: graphs for n, graphs, _holds, _fails, _na in summary.per_n}
    return summary.ok and all(per_n.get(n) == CONNECTED_COUNTS[n] for n in n_values)


def test_01_fk_values():
    t0 = time.perf_counter()
    ok = True
    parts = []
    for k in (1, 2, 3, 4):
        g = construct_F(k).graph
        d = metric_dimension(g)
        e = edge_metric_dimension(g)
        ok = ok and (d.value, e.value) == (k, k + 2**k - 2)
        ok = ok and is_vertex_generator(g, d.witness)
        ok = ok and is_edge_generator(g, e.witness)
        parts.append(f"F_{k} dim={d.value} edim={e.value}")
    # F_4: 20 vertices, where certifying edim = 18 refutes all C(20, 17) smaller sets
    ratio = Fraction(e.value, d.value)
    ok = ok and (g.n, g.m) == (20, 158)
    ok = ok and (d.value, e.value) == (4, 18)
    ok = ok and ratio > Fraction(3)
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _verdict(1, "F_k values with certified witnesses", ok,
             f"{', '.join(parts)}, F_4 n={g.n} m={g.m} ratio={ratio} in {dt:.2f}s")


def test_02_hk_values():
    ok = True
    parts = []
    for k in (1, 2):
        g = construct_H(k).graph
        d = metric_dimension(g)
        e = edge_metric_dimension(g)
        holds, _ = full_edim_condition(g)
        ok = ok and (d.value, e.value) == (k + 1, k + 2**k)
        ok = ok and e.value == g.n - 1 and holds
        parts.append(f"H_{k} dim={d.value} edim={e.value}=n-1 condition={holds}")
    _verdict(2, "H_k values and the full-edim condition", ok, ", ".join(parts))


def test_03_characterization_sweep():
    t0 = time.perf_counter()
    s = sweep_theorem("ncondition", 6, threads=1)
    dt = time.perf_counter() - t0
    ok = _corpus_ok(s, (3, 4, 5, 6)) and dt < 60.0
    _verdict(3, "edim = n-1 characterization, all connected graphs n <= 6", ok,
             f"{s.graphs} graphs, {s.fails} fails, {s.not_applicable} n/a in {dt:.1f}s")


@pytest.mark.extended
def test_03_characterization_sweep_extended_n7():
    t0 = time.perf_counter()
    s = sweep_theorem("ncondition", 7, threads=2)
    dt = time.perf_counter() - t0
    ok = _corpus_ok(s, (3, 4, 5, 6, 7)) and dt < 1800.0
    _verdict(3, "characterization sweep at n = 7 (extended)", ok,
             f"{s.graphs} graphs, {s.fails} fails in {dt:.0f}s")


def test_04_corollary_sweep():
    s = sweep_theorem("corollary", 6, threads=1)
    ok = _corpus_ok(s, (3, 4, 5, 6))
    _verdict(4, "full edim forces diameter <= 2 and triangle cover, n <= 6", ok,
             f"{s.graphs} graphs, {s.fails} fails")


@pytest.mark.extended
def test_04_corollary_sweep_extended_n7():
    t0 = time.perf_counter()
    s = sweep_theorem("corollary", 7, threads=2)
    dt = time.perf_counter() - t0
    ok = _corpus_ok(s, (3, 4, 5, 6, 7)) and dt < 1800.0
    _verdict(4, "corollary sweep at n = 7 (extended)", ok,
             f"{s.graphs} graphs, {s.fails} fails in {dt:.0f}s")


def test_05_bound_sweeps_and_tightness():
    sv = sweep_theorem("vertex_bound", 6, threads=1)
    se = sweep_theorem("edge_bound", 6, threads=1)
    f2 = construct_F(2).graph
    k = metric_dimension(f2).value
    disc = diameter(f2)
    tight = f2.n == k + disc**k
    ok = _corpus_ok(sv, (2, 3, 4, 5, 6)) and _corpus_ok(se, (2, 3, 4, 5, 6)) and tight
    _verdict(5, "vertex and edge count bounds, n <= 6", ok,
             f"{sv.graphs}+{se.graphs} checks, {sv.fails + se.fails} fails; "
             f"F_2 vertex bound tight: {f2.n} = {k} + {disc}^{k}")


@pytest.mark.extended
def test_05_bound_sweeps_extended_n7():
    t0 = time.perf_counter()
    sv = sweep_theorem("vertex_bound", 7, threads=2)
    dt_v = time.perf_counter() - t0
    t0 = time.perf_counter()
    se = sweep_theorem("edge_bound", 7, threads=2)
    dt_e = time.perf_counter() - t0
    ok = _corpus_ok(sv, (2, 3, 4, 5, 6, 7)) and _corpus_ok(se, (2, 3, 4, 5, 6, 7))
    ok = ok and dt_v < 1800.0 and dt_e < 1800.0
    _verdict(5, "bound sweeps at n = 7 (extended)", ok,
             f"vertex {sv.fails} fails in {dt_v:.0f}s, edge {se.fails} fails in {dt_e:.0f}s")


def test_06_join_sweep():
    t0 = time.perf_counter()
    s = sweep_theorem("join", 6, threads=1)
    dt = time.perf_counter() - t0
    ok = _corpus_ok(s, (2, 3, 4, 5, 6)) and dt < 600.0
    _verdict(6, "join with K_1 resolves edim to n or n-1, base n <= 6", ok,
             f"{s.graphs} graphs, {s.fails} fails in {dt:.1f}s")


def test_07_product_sweep():
    ok = True
    parts = []
    for m in (2, 3):
        s = sweep_theorem("product", 4, threads=1, m=m)
        ok = ok and _corpus_ok(s, (2, 3, 4))
        parts.append(f"m={m}: {s.graphs} graphs, {s.fails} fails")
    g = standard_family("cycle", [4])
    k, _ = min_joint_cover(g)
    w = product_upper_witness(g, 3)
    ok = ok and len(w) == k + 1
    ok = ok and is_edge_generator(cartesian_path(g, 3).graph, w)
    _verdict(7, "path products stay within one of the joint cover number", ok,
             f"{', '.join(parts)}; C_4 x P_3 witness size {len(w)} = {k}+1 generates")


def test_08_ratio_growth():
    ratios = []
    for k in (1, 2, 3):
        g = construct_F(k).graph
        ratios.append(Fraction(edge_metric_dimension(g).value, metric_dimension(g).value))
    ok = ratios == [Fraction(k + 2**k - 2, k) for k in (1, 2, 3)]
    ok = ok and ratios == [Fraction(1), Fraction(2), Fraction(3)]
    ok = ok and all(a < b for a, b in zip(ratios, ratios[1:]))
    _verdict(8, "edim/dim ratio climbs 1, 2, 3 on F_1..F_3", ok,
             "ratios " + ", ".join(str(r) for r in ratios))


def test_09_solver_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    for n in range(1, 7):
        mismatches.extend(equivalence_sweep(n))
    dt = time.perf_counter() - t0
    ok = not mismatches and dt < 600.0
    detail = (f"optimized == reference on value and witness, n <= 6, in {dt:.1f}s"
              if ok else f"{len(mismatches)} mismatches, first: {mismatches[:2]}")
    _verdict(9, "optimized solver agrees with the naive reference", ok, detail)


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "edimlab", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )
    assert proc.returncode == 0, (
        f"edimlab {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}"
    )
    return proc.stdout


def test_10_byte_determinism(tmp_path):
    verify_args = ["verify", "ncondition", "--sweep", "5"]
    v_runs = [
        _run_cli(["--threads", t, *verify_args], tmp_path) for t in ("1", "2", "1")
    ]
    csvs, manifests = [], []
    for name, t in (("a", "1"), ("b", "2"), ("c", "1")):
        sub = tmp_path / name
        sub.mkdir()
        _run_cli(["--threads", t, "survey", "5", "-o", str(sub / "survey.csv")], tmp_path)
        csvs.append((sub / "survey.csv").read_bytes())
        manifests.append((sub / "survey.csv.manifest.json").read_bytes())
    ok = v_runs[0] == v_runs[1] == v_runs[2]
    ok = ok and csvs[0] == csvs[1] == csvs[2]
    ok = ok and manifests[0] == manifests[1] == manifests[2]
    _verdict(10, "verify and survey are byte-identical across runs and thread counts",
             ok, "3 runs each (threads 1, 2, 1) compared")
