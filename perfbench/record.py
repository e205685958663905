#!/usr/bin/env python3
"""Record a benchmark result-history entry.

    python3 perfbench/record.py --label "..." [--dry-run]

Run from the repository root. For every workload, runs perfbench/run.py
untraced once per seed (seeds 1-10) and once traced (seed 1), each for
BENCHMARK.json's run_seconds.
Prints each end-to-end metric's median, quartiles (statistics.quantiles,
n=4) and spread (Q3 - Q1 over the median), and each traced run's per-layer
split, then appends the entry to perfbench/history.json (skipped with
--dry-run). Stops at the first failing run.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "history.json")
SEEDS = range(1, 11)
WORKLOADS = ("stream", "serve", "settle")


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"record: {workload} seed {seed} trace {trace} failed")
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    entry = {"label": args.label,
             "date": datetime.date.today().isoformat(),
             "nproc": os.cpu_count(),
             "seconds": seconds,
             "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
             "workloads": {}}
    for workload in WORKLOADS:
        values = {}
        for seed in SEEDS:
            for name, metric in run(workload, seed, seconds, 0).items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        stats = {name: summary(v) for name, v in sorted(values.items())}
        record = {"end_to_end": stats}
        for name, s in stats.items():
            print(f"{workload:7s} {name:16s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}")
        layers = run(workload, SEEDS[0], seconds, 1)
        record["per_layer"] = {name: m["value"] for name, m in sorted(layers.items())}
        wall = layers["trace.round_wall_s"]["value"]
        # Layer self times inside traced rounds (set-up layers excluded).
        split = {name: m["value"] / wall for name, m in layers.items()
                 if m["unit"] == "s" and name not in (
                     "trace.round_wall_s", "trace.generate_s", "cdn.menu_build_s")
                 and wall > 0 and m["value"] / wall >= 0.001}
        record["split"] = dict(sorted(split.items(), key=lambda kv: -kv[1]))
        print(f"{workload:7s} split " + ", ".join(
            f"{n} {s:.1%}" for n, s in record["split"].items()))
        entry["workloads"][workload] = record

    if args.dry_run:
        return
    history = []
    if os.path.isfile(HISTORY):
        with open(HISTORY) as f:
            history = json.load(f)
    history.append(entry)
    with open(HISTORY, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
