#!/usr/bin/env python3
"""Fig. 6 benchmark of the HyperX simulator, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
runner (perfbench/CMakeLists.txt) into .bench_build/perfbench. Every
operation is one fresh `hxbench` process running one workload point; a run
repeats operations until --seconds have passed and reports medians.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced operations and prints the per-layer metrics, writing the last traced
operation's span file and self-time table to .bench_build/traces/.

Every run checks its results: each operation must finish, all operations of
a run must agree exactly, traced must equal untraced, paper-ur-pj2 must equal
a serial paper-ur run of the same seed, and with the default seed the results
must equal the values pinned in perfbench/expected.json. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

BENCHMARK.json lists every workload here except paper-ur-pj2, which runs only
by hand until the sharded engine's packet-pool race is fixed.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "runs"
TRACES = ROOT / ".bench_build" / "traces"

DEFAULT_SEED = 1
MIN_OPS = 3  # untraced operations per run, even past --seconds
RUN_DEADLINE_S = 165  # start no operation that could end past this

WORKLOADS = ["paper-ur", "paper-ur-pj2", "small-saturated", "small-faulted-observed"]
# Simulated results every operation is compared on (exact equality).
CHECKED = [
    "sim_saturated", "sim_accepted", "sim_latency_p50", "sim_latency_p90", "sim_latency_p99",
    "sim_latency_p999", "sim_hops", "sim_deroutes", "sim_packets_dropped",
    "sim_delivered_share", "metrics.packets_measured", "sim.cycles", "net.flit_moves",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def catalog():
    """Units of every metric BENCHMARK.json declares, by name, per section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: simulator sources not found under src/")
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "hxbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))


def operation(workload, seed, mode, deadline):
    """One hxbench process. Returns its parsed JSON, status 'failed' on error."""
    out = RUNS / f"{workload}-{mode}"
    cmd = [str(BUILD / "hxbench"), f"--workload={workload}", f"--seed={seed}",
           f"--mode={mode}", f"--out={out}"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"status": "failed", "message": f"{workload} {mode}: timed out"}
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = p.stderr.strip().splitlines()[-3:]
        return {"status": "failed",
                "message": f"{workload} {mode}: exit {p.returncode}: {' | '.join(tail)}"}
    result["mode"] = mode
    return result


def mismatches(a, b, what):
    return [f"{what}: {k} {a.get(k)!r} != {b.get(k)!r}" for k in CHECKED if a.get(k) != b.get(k)]


def check(ops, workload, seed, expected):
    """Failed-operation count and the reasons. An operation fails when it
    raises or crashes, or when its simulated results differ from the run's
    reference: its first successful operation, or on paper-ur-pj2 the serial
    paper-ur operation of the same seed."""
    problems = []
    failed = 0
    ok = [op for op in ops if op["status"] == "ok"]
    for op in ops:
        if op["status"] != "ok":
            failed += 1
            problems.append(op.get("message", "failed"))
    if not ok:
        return failed, problems
    ref = next((op for op in ok if op["mode"] == "serial-reference"), ok[0])
    if seed == DEFAULT_SEED:
        pinned = expected["workloads"]["paper-ur" if workload == "paper-ur-pj2" else workload]
        bad = mismatches(ref["sim"], pinned, f"{ref['mode']} vs expected.json")
        if bad:
            problems += bad
            failed += 1
    for op in ok:
        if op is ref:
            continue
        bad = mismatches(op["sim"], ref["sim"], f"{op['mode']} vs {ref['mode']}")
        if bad:
            problems += bad
            failed += 1
    return failed, problems


def med(ops, key, section="host"):
    return statistics.median(op[section][key] for op in ops)


def end_to_end(ops):
    plain = [op for op in ops if op["status"] == "ok" and op["mode"] == "plain"]
    sim = plain[0]["sim"]
    return {
        "wall_s": med(plain, "wall_s"),
        "setup_s": med(plain, "setup_s"),
        "flit_moves_per_s": statistics.median(
            op["sim"]["net.flit_moves"] / op["host"]["wall_s"] for op in plain),
        "peak_rss_mib": med(plain, "peak_rss_mib"),
        "sim_accepted": sim["sim_accepted"],
        "sim_latency_p50": sim["sim_latency_p50"],
        "sim_latency_p99": sim["sim_latency_p99"],
        "sim_delivered_share": sim["sim_delivered_share"],
    }


def per_layer(ops):
    good = [op for op in ops if op["status"] == "ok"]
    plain = [op for op in good if op["mode"] == "plain"]
    traced = [op for op in good if op["mode"] == "traced"]
    noobs = [op for op in good if op["mode"] == "noobs"]
    layers = {k: med(traced, k, "layers") for k in traced[0]["layers"]}
    plain_wall = med(plain, "wall_s")
    layers["sim.ns_per_event"] = statistics.median(
        op["host"]["run_s"] / op["host"]["sim.events"] * 1e9 for op in plain)
    layers["trace.overhead"] = med(traced, "wall_s") / plain_wall
    layers["obs.overhead"] = plain_wall / med(noobs, "wall_s") if noobs else 0.0
    return layers


def measure(workload, seed, seconds, trace):
    """Runs operations until `seconds` have passed (at least MIN_OPS untraced
    ones, or one round of every mode when tracing). Returns every operation."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    ops = []
    if workload == "paper-ur-pj2":
        # Sharded results must equal the serial engine's for the same seed.
        ref = operation("paper-ur", seed, "plain", deadline)
        ref["mode"] = "serial-reference"
        ops.append(ref)
    modes = ["plain", "traced"] if trace else ["plain"]
    if trace and workload == "small-faulted-observed":
        modes.append("noobs")
    min_rounds = 1 if trace else MIN_OPS
    rounds = 0
    while True:
        t0 = time.monotonic()
        for mode in modes:
            ops.append(operation(workload, seed, mode, deadline))
        rounds += 1
        now = time.monotonic()
        if now - start + (now - t0) > RUN_DEADLINE_S:
            break  # another round could overrun the deadline
        if now - start >= seconds and rounds >= min_rounds:
            break
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        for name in ("spans.json", "layers.txt"):
            src = RUNS / f"{workload}-traced" / name
            if src.is_file():
                shutil.copyfile(src, TRACES / f"{workload}.{name}")
    return ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be an unsigned 64-bit integer")

    e2e_units, layer_units = catalog()
    expected = json.loads((BENCH / "expected.json").read_text())
    build()
    ops = measure(args.workload, args.seed, args.seconds, args.trace)
    failed, problems = check(ops, args.workload, args.seed, expected)
    for p in problems:
        log(f"perfbench: CHECK FAILED: {p}")

    units = layer_units if args.trace else e2e_units
    try:
        values = per_layer(ops) if args.trace else end_to_end(ops)
    except (IndexError, KeyError, statistics.StatisticsError, ZeroDivisionError):
        values = None  # no successful operation to measure
    if values is not None and set(values) != set(units):
        raise SystemExit("perfbench: metrics disagree with BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    correct = failed == 0 and values is not None

    measured = [op for op in ops if op["status"] == "ok" and op["mode"] == "plain"]
    log("perfbench: untraced wall_s per operation: " +
        " ".join(f"{op['host']['wall_s']:.4f}" for op in measured))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(ops)} ({failed} failed)")
    if measured:
        print(f"  sample count metrics.packets_measured = "
              f"{measured[0]['sim']['metrics.packets_measured']:.0f}")
    for name, value in sorted((values or {}).items()):
        print(f"  {name:<28} {value:>18.6g} {units[name]}")
    print(f"  correctness: {'PASS' if correct else 'FAIL'}")
    if args.trace and (TRACES / f"{args.workload}.layers.txt").is_file():
        log((TRACES / f"{args.workload}.layers.txt").read_text().rstrip())
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in (values or {}).items()}}
    print(json.dumps(result))
    return 0 if values is not None else 1


if __name__ == "__main__":
    sys.exit(main())
