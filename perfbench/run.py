"""Benchmark entry point for edimlab.

    python3 perfbench/run.py --workload census6 --seed 0 --seconds 10 --trace 0

Runs from the root of a source checkout, from any working directory.  It
starts perfbench/worker.py in fresh interpreters: SETUP_RUNS times with
--setup-only to time set-up (interpreter start, import, input generation),
then once to measure.  It prints each metric with its unit, then one JSON
line with correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end_to_end list of BENCHMARK.json, with --trace 1 the
per_layer list.  End-to-end times are scaled to a nominal host speed, measured
with a reference kernel during the run (see worker.py); the unscaled values
are printed as notes.  Exit code 0 means every output check passed; 1 means a
check failed or the worker broke; 2 means the checkout is incomplete.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
DEADLINE_S = 170.0


def _fail(msg: str, code: int = 1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _spawn(argv: list[str], timeout: float) -> tuple[dict, float]:
    """Run the worker; returns its JSON document and the monotonic start time."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        _fail(f"worker did not finish within {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        _fail(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), started


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()

    if not (ROOT / "src" / "edimlab" / "__init__.py").is_file():
        _fail(f"no edimlab sources under {ROOT / 'src'}", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail(f"unknown workload {args.workload!r}", 2)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            doc, started = _spawn([*argv, "--setup-only"], DEADLINE_S - (time.monotonic() - t_start))
            setups.append(doc["ready"] - started)
    doc, started = _spawn(argv, DEADLINE_S - (time.monotonic() - t_start))
    metrics = dict(doc["metrics"])
    if not args.trace:
        setups.append(doc["ready"] - started)
        metrics["setup_s"] = statistics.median(setups) * doc["host_scale"]
        doc["notes"]["raw_setup_s"] = statistics.median(setups)

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        _fail(f"printed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]} {units[name]}")
    for name, value in doc["notes"].items():
        print(f"# {name} = {value}")
    correct = doc["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
