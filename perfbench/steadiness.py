#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each time with another seed, and prints for every metric the median, the
first and third quartiles (statistics.quantiles(n=4)) and the spread
(q3 - q1) / median. An end-to-end metric whose spread exceeds its bound is
marked "unresolved": a change smaller than that spread cannot be told from
noise on the machine it runs on. Also checks that each run prints exactly
the metric names and units BENCHMARK.json lists, and that every run passes
its checks.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--trace 0|1] [--seconds S] [--verbose]

Run from the repository root. Exits 1 if a run fails, a metric is missing
or unresolved.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    table = bench["per_layer"] if a.trace else bench["end_to_end"]
    names = {m["name"]: m for m in table}
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for w in workloads:
        values = {n: [] for n in names}
        walls = []
        for i in range(a.runs):
            seed = a.first_seed + i
            res, wall = run_once(bench["command"], w, seed, seconds, a.trace)
            walls.append(wall)
            got = res["metrics"]
            if set(got) != set(names) or res["failed"] or not res["correct"]:
                print(f"{w} seed {seed}: bad result {res}")
                bad = True
                continue
            for n, m in got.items():
                if m["unit"] != names[n]["unit"]:
                    print(f"{w} seed {seed}: {n} unit {m['unit']} != {names[n]['unit']}")
                    bad = True
                values[n].append(m["value"])
        print(f"\n== {w}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for n, vs in values.items():
            if len(vs) < 2:
                continue
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = names[n].get("bound")
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "UNRESOLVED"
                    bad = True
                elif spread > bound / 3:
                    flag = "wide"
            bs = f"{bound:.3f}" if bound is not None else "-"
            print(f"{n:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bs:>6} {flag}")
            if a.verbose:
                print("    runs: " + " ".join(f"{v:.4g}" for v in vs))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
