"""Record a before/after benchmark comparison as a committed JSON file.

    python3 bench/record.py --parent ../parent-checkout --out BENCH_7.json \
        census6=10 hard_gnp=10 product6=10

Runs perfbench/run.py of the parent checkout and of this checkout over
WORKLOAD=PAIRS pairs of runs.  Pair i of a workload uses seed SEED + i
on both sides, and the side that runs first alternates from pair to pair.
Each run lasts the benchmark's run_seconds (BENCHMARK.json), the same on
both sides.  The output holds, per workload and end-to-end metric,
each side's median and quartiles, the number of pairs (at least 2) and
how many the change won (ties count for neither side), with the median
host_scale of each side, the Python version and the core count; every run
is kept under "runs".  Exits 1 if a run fails its output checks, and 2
before any run if exactly one checkout holds compiled bytecode
(src/edimlab/__pycache__): with PYTHONDONTWRITEBYTECODE set, the other
would compile every module on every worker start and read a slower
setup_s.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOTE = re.compile(r"^# (\w+) = (.*)$")
SEED = 1000  # seed of pair 0


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its metrics and host_scale, or exit 1 if it failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"record: {workload} seed {seed} in {checkout.name} exited {proc.returncode}")
    doc = json.loads(lines[-1])
    notes = dict(m.groups() for m in map(NOTE.match, lines) if m)
    return {
        "metrics": {name: m["value"] for name, m in doc["metrics"].items()},
        "host_scale": float(notes["host_scale"]),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
    }


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("runs", nargs="+", metavar="WORKLOAD=PAIRS")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    compiled = {side: (path / "src" / "edimlab" / "__pycache__").is_dir() for side, path in sides.items()}
    if len(set(compiled.values())) > 1:
        side = min(compiled, key=compiled.get)
        sys.stderr.write(f"record: {sides[side]} has no src/edimlab/__pycache__ and the other checkout has; "
                         "compile both or neither\n")
        sys.exit(2)
    plan = []
    for item in args.runs:
        workload, _, pairs = item.partition("=")
        known = {w["name"] for w in spec["workloads"]}
        if workload not in known or not pairs.isdigit() or int(pairs) < 2:
            ap.error(f"want WORKLOAD=PAIRS with a known workload and PAIRS >= 2, got {item!r}")
        plan.append((workload, int(pairs)))
    runs, results = [], []
    for workload, pairs in plan:
        got = {"parent": [], "change": []}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(sides[side], workload, SEED + i, seconds)
                got[side].append(run)
                runs.append({"workload": workload, "pair": i, "seed": SEED + i, "side": side,
                             "first": side == order[0], **run})
                print(f"{workload} pair {i} {side}: {run['metrics']}", file=sys.stderr)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name] for r in got[side]] for side in got}
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            results.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "better": metric["better"], "pairs": pairs, "change_wins": wins,
                **{side: summary(values[side]) for side in values},
                "host_scale": {side: statistics.median(r["host_scale"] for r in got[side])
                               for side in got},
            })
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T",
        "seconds": seconds,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "results": results,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
