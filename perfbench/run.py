#!/usr/bin/env python3
"""VDX performance benchmark runner.

    python3 perfbench/run.py --workload stream|serve|settle --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which pulls in the
repository's libraries from src/) into .bench_build/perfbench, runs one
workload, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, whose
times this script computes from the span file the traced run writes.

Exits non-zero without a result when the build fails, the sources are
missing, or the benchmark's correctness gate fails.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "vdx_perfbench")
WORKLOADS = ("stream", "serve", "settle")

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "sessions_per_s": "1/s",
    "round_ms.p50": "ms",
    "round_ms.p95": "ms",
    "mean_score": "score",
    "mean_cost": "USD",
    "served_share": "ratio",
    "peak_rss_mb": "MiB",
}

# Span name -> per-layer metric its self time is charged to.
LAYER_OF_SPAN = {
    "round": "loop.other_s",
    "epoch": "loop.other_s",
    "serve.feed": "serve.feed_s",
    "sim.store.admit": "sim.store_s",
    "sim.store.drop": "sim.store_s",
    "sim.store.groups": "sim.store_s",
    "sim.background": "sim.background_s",
    "sim.design_round": "sim.design_round_s",
    "sim.assign": "sim.assign_s",
    "sim.report": "sim.report_s",
    "market.round": "market.report_s",
    "proto.round": "proto.wire_s",
    "broker.gather": "broker.gather_s",
    "broker.optimize": "broker.optimize_s",
    "cdn.share": "cdn.announce_s",
    "cdn.announce": "cdn.announce_s",
    "cdn.accept": "cdn.accept_s",
    "cdn.menu_build": "cdn.menu_build_s",
    "state.checkpoint": "state.encode_s",
    "state.write": "state.write_s",
    "state.fsync": "state.fsync_s",
    "state.rename": "state.rename_s",
    "state.fs": "state.fs_other_s",
}
SPAN_LAYERS = sorted(set(LAYER_OF_SPAN.values()))
# Largest share of traced round time allowed outside every timed call.
MAX_UNTIMED_SHARE = 0.05

# Per-layer metrics the binary counts itself (0 where a workload does not
# reach the layer).
COUNTED = {
    "trace.rounds": "count",
    "trace.generate_s": "s",
    "trace.sessions_per_s": "1/s",
    "sim.store_ops": "count",
    "sim.groups": "count",
    "cdn.bids": "count",
    "proto.bytes_on_wire": "B",
    "proto.accepts_delivered": "count",
    "proto.accept_useful_ratio": "ratio",
    "solver.invocations": "count",
    "broker.optimize.overflow_mbps": "Mbps",
    "broker.optimize.unbid_groups": "count",
    "state.bytes_written": "B",
    "state.checkpoints": "count",
    "serve.exchange_round_ms": "ms",
    "serve.loop_other_ms": "ms",
    "obs.trace_overhead": "ratio",
}
PER_LAYER = dict(COUNTED, **{name: "s" for name in SPAN_LAYERS},
                 **{"trace.round_wall_s": "s"})


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD, "--target", "vdx_perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def load_spans(path):
    spans = {}
    with open(path) as f:
        for line in f:
            name, sid, parent, rnd, start, end = line.rstrip("\n").split("\t")
            spans[int(sid)] = (name, int(parent), int(rnd), int(start), int(end))
    return spans


def layer_times(path):
    """Per-layer self times (seconds) from a span file, after checking that
    every child lies inside its parent and siblings do not overlap."""
    spans = load_spans(path)
    children = defaultdict(list)
    for sid, (_, parent, _, _, _) in spans.items():
        if parent:
            children[parent].append(sid)
    totals = defaultdict(int)
    round_wall = 0
    for sid, (name, parent, rnd, start, end) in spans.items():
        if name not in LAYER_OF_SPAN:
            fail(f"trace: unknown span name {name!r}")
        if end < start:
            fail(f"trace: span {sid} ({name}) ends before it starts")
        kids = sorted(children[sid], key=lambda k: spans[k][3])
        previous_end = start
        for kid in kids:
            kid_start, kid_end = spans[kid][3], spans[kid][4]
            if kid_start < previous_end or kid_end > end:
                fail(f"trace: span {kid} ({spans[kid][0]}) overlaps a sibling "
                     f"or leaves its parent {sid} ({name})")
            previous_end = kid_end
        totals[LAYER_OF_SPAN[name]] += (end - start) - sum(
            spans[k][4] - spans[k][3] for k in kids)
        if parent == 0 and rnd >= 0:
            round_wall += end - start
    out = {layer: totals[layer] / 1e9 for layer in SPAN_LAYERS}
    out["trace.round_wall_s"] = round_wall / 1e9
    # The round spans' own self time is the loop between timed calls. If it
    # grows past a small share, some call in the round is not timed and the
    # split no longer accounts for the round.
    if out["loop.other_s"] > MAX_UNTIMED_SHARE * out["trace.round_wall_s"]:
        fail(f"trace: {out['loop.other_s']:.3f} s of "
             f"{out['trace.round_wall_s']:.3f} s of round time lies outside "
             f"every timed call (limit {MAX_UNTIMED_SHARE:.0%})")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    span_file = os.path.join(WORK, f"spans-{args.workload}.tsv")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK]
    if args.trace:
        command += ["--trace-file", span_file]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        fail(f"{args.workload} failed (exit {run.returncode})")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark printed no result")
    result = json.loads(lines[-1])
    metrics = result["metrics"]

    expected = END_TO_END
    if args.trace:
        metrics.update({name: {"value": value, "unit": "s"}
                        for name, value in layer_times(span_file).items()})
        for name, unit in COUNTED.items():
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
        expected = PER_LAYER
        wall = metrics["trace.round_wall_s"]["value"]
        shares = sorted(((metrics[n]["value"] / wall if wall else 0.0, n)
                         for n in SPAN_LAYERS if n != "cdn.menu_build_s"),
                        reverse=True)
        print("per-layer share of traced round time: " + ", ".join(
            f"{n} {s:.1%}" for s, n in shares if s >= 0.001), file=sys.stderr)
    if set(metrics) != set(expected):
        fail(f"metric set mismatch: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail(f"{name}: unit {metrics[name]['unit']!r}, expected {unit!r}")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
