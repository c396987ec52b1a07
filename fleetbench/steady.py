#!/usr/bin/env python3
"""Steadiness mode for the fleet benchmark.

Runs the benchmark command from BENCHMARK.json in sets of runs (each run
with its own seed, the same seeds in every set), then prints, for every
metric x workload, each set's median and quartiles, the spread (distance
between the quartiles as a share of the median), and whether the sets agree
within the metric's bound: each spread within the bound (set-up time is
exempt) and no set's median worse than the first set's by more than the
bound.

    python3 fleetbench/steady.py --runs 10 --sets 2
    python3 fleetbench/steady.py --runs 5 --sets 1 --workloads fleet-traffic

Run it from the repository root. Exits 1 if any pair disagrees or any run
fails its output check, 2 if a run itself fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace, log_dir):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    if log_dir:
        Path(log_dir, f"{workload}-seed{seed}-trace{trace}.err").write_text(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"run failed ({proc.returncode}): {' '.join(args)}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--sets", type=int, default=2, help="sets of runs to compare")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first run in a set")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--log-dir", help="keep each run's stderr (its samples) here")
    opts = parser.parse_args()

    workloads = opts.workloads.split(",")
    spec = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    values = {}  # (set, workload, metric) -> [value]
    incorrect = 0
    for s in range(opts.sets):
        for i in range(opts.runs):
            seed = opts.seed0 + i
            for workload in workloads:
                result = run_once(bench["command"], workload, seed, opts.seconds, opts.trace,
                                  opts.log_dir)
                if not result["correct"]:
                    incorrect += 1
                shown = []
                for m in spec:
                    value = result["metrics"][m["name"]]["value"]
                    values.setdefault((s, workload, m["name"]), []).append(value)
                    shown.append(f"{m['name']}={value:.6g}")
                print(f"set {s} seed {seed} {workload}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(shown), file=sys.stderr, flush=True)

    disagree = 0
    print(f"{'workload':16} {'metric':14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for m in spec:
            bound = m.get("bound")
            first = None
            for s in range(opts.sets):
                q1, med, q3 = quartiles(values[(s, workload, m["name"])])
                spread = (q3 - q1) / abs(med) if med else float("inf")
                verdict = ""
                if bound is not None:
                    ok = spread <= bound or m["name"] == "setup_s"
                    if first is not None:
                        worse = (med - first) if m["better"] == "lower" else (first - med)
                        ok = ok and worse <= bound * abs(first)
                    else:
                        first = med
                    verdict = "agree" if ok else "DISAGREE"
                    if spread < bound / 3:
                        verdict += " (steady)"
                    disagree += 0 if ok else 1
                print(f"{workload:16} {m['name']:14} {s:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {bound if bound is not None else '-':>6}  {verdict}")
    print(f"{incorrect} run(s) failed their output check; {disagree} metric x workload x set "
          f"pair(s) outside their bound")
    sys.exit(1 if incorrect or disagree else 0)


if __name__ == "__main__":
    main()
