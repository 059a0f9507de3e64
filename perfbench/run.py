#!/usr/bin/env python3
"""Host-cost benchmark for lssim: one workload, end to end or per layer.

    python3 perfbench/run.py --workload lu-paper --seed 1 --seconds 35 --trace 0

Builds the simulator library and the benchmark program from source (into
.bench_build/ at the repository root), runs the workload, checks every
simulation's simulated results and prints each metric by name with its
unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. perfbench/README.md defines every metric and workload.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("lu-paper", "protocol-matrix", "private-256")

# The (directory, interconnect) cells whose Baseline/LS pairs make up
# ls_exec_pct and ls_traffic_pct on each workload.
HEADLINE_CELLS = {
    "lu-paper": ("full-map", "network"),
    "protocol-matrix": ("full-map", "network"),
    "private-256": ("limited-ptr", "network"),
}

# Workloads whose programs draw no random numbers (LU, and the private
# read-modify-write micro), so their expected results hold for every seed.
SEED_INSENSITIVE = ("lu-paper", "private-256")

# Simulated RunResult fields stored per simulation in expected.json.
EXPECTED_FIELDS = (
    "exec_cycles",
    "traffic_total",
    "global_read_misses",
    "global_write_actions",
    "eliminated_acquisitions",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "host_ns_per_access": "ns",
    "host_ns_per_global_txn": "ns",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
    "ls_exec_pct": "%",
    "ls_traffic_pct": "%",
}

PER_LAYER_UNITS = {
    "machine.residual_ns_per_access": "ns",
    "machine.system_ctor_s": "s",
    "machine.busy_cycles": "cycles",
    "machine.read_stall_cycles": "cycles",
    "machine.write_stall_cycles": "cycles",
    "workloads.build_s": "s",
    "core.busy_s": "s",
    "core.ns_per_access": "ns",
    "core.l1_hit_ns.p50": "ns",
    "core.l1_hit_ns.p99": "ns",
    "core.l2_hit_ns.p50": "ns",
    "core.l2_hit_ns.p99": "ns",
    "core.global_ns.p50": "ns",
    "core.global_ns.p99": "ns",
    "core.accesses": "count",
    "core.global_read_misses": "count",
    "core.global_write_actions": "count",
    "core.ownership_acquisitions": "count",
    "core.eliminated_acquisitions": "count",
    "core.invalidations": "count",
    "core.ls_coverage": "ratio",
    "core.detag_ratio": "ratio",
    "cache.l1_hit_ratio": "ratio",
    "cache.l2_hit_ratio": "ratio",
    "cache.find_ns": "ns",
    "directory.entry_ns": "ns",
    "mem.home_of_ns": "ns",
    "net.messages_per_global_txn": "ratio",
    "net.queue_cycles": "cycles",
    "net.network_send_ns": "ns",
    "net.bus_send_ns": "ns",
    "exec.parallel_efficiency": "ratio",
    "sweep.generate_s": "s",
    "sweep.store_append_ns": "ns",
    "telemetry.on_overhead_frac": "ratio",
    "bench.tracing_overhead_frac": "ratio",
    "bench.replay_agrees": "bool",
    "bench.clock_read_ns": "ns",
}

# Metrics still reported when the replay disagrees with the timed run
# (the per-layer split is then invalid).
TRACE_VALIDITY_METRICS = ("bench.replay_agrees", "bench.clock_read_ns")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "lssim_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD_DIR, "lssim_perfbench")


def measure(binary, workload, seed, seconds, trace, tiny):
    """Runs the benchmark program and returns its raw measurement document."""
    os.makedirs(WORK_DIR, exist_ok=True)
    out = os.path.join(WORK_DIR, f"raw-{workload}-{seed}-{int(trace)}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out, "--work", WORK_DIR]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"benchmark program exited with {done.returncode}")
    with open(out) as f:
        return json.load(f)


def simulated_fields(result):
    return {
        "exec_cycles": result["exec_cycles"],
        "traffic_total": result["traffic"]["total"],
        "global_read_misses": result["global_read_misses"],
        "global_write_actions": result["global_write_actions"],
        "eliminated_acquisitions": result["eliminated_acquisitions"],
    }


def load_expected(path=EXPECTED_PATH):
    with open(path) as f:
        return json.load(f)


def expected_for(expected, workload, seed):
    """Expected simulated fields by cell label, or None for unknown seeds."""
    seeds = expected.get("workloads", {}).get(workload, {})
    if str(seed) in seeds:
        return seeds[str(seed)]
    if workload in SEED_INSENSITIVE and seeds:
        return next(iter(seeds.values()))
    return None


def check_cells(raw, expected_cells):
    """Returns (attempted, failures): one attempt per simulation run."""
    labels = raw["cells"]
    reference = {}
    attempted = 0
    failures = []
    for rep_index, rep in enumerate(raw["reps"]):
        for label, cell in zip(labels, rep["cells"]):
            attempted += 1
            where = f"rep {rep_index} {label}"
            if not cell["ok"]:
                failures.append(f"{where}: {cell['error']}")
                continue
            got = simulated_fields(cell["result"])
            if label not in reference:
                reference[label] = cell["result"]
            elif cell["result"] != reference[label]:
                failures.append(f"{where}: differs from an earlier repetition")
                continue
            if expected_cells is not None:
                want = expected_cells.get(label)
                if want is None:
                    failures.append(f"{where}: no expected result stored")
                elif want != got:
                    diff = {k: (want.get(k), got[k]) for k in got
                            if want.get(k) != got[k]}
                    failures.append(f"{where}: expected != measured {diff}")
    return attempted, failures


def ls_percentages(raw, workload):
    """LS exec cycles and messages as % of Baseline's, geometric mean over
    the headline cells' Baseline/LS pairs."""
    directory, interconnect = HEADLINE_CELLS[workload]
    pairs = {}
    for label, cell in zip(raw["cells"], raw["reps"][0]["cells"]):
        result = cell["result"]
        if (not cell["ok"] or result["directory"] != directory
                or result["interconnect"] != interconnect):
            continue
        group = label.split("/")[0]
        pairs.setdefault(group, {})[result["protocol"]] = result
    exec_logs = []
    traffic_logs = []
    for group in pairs.values():
        if "Baseline" in group and "LS" in group:
            base, ls = group["Baseline"], group["LS"]
            exec_logs.append(math.log(ls["exec_cycles"] / base["exec_cycles"]))
            traffic_logs.append(math.log(ls["traffic"]["total"] /
                                         base["traffic"]["total"]))
    if not exec_logs:
        return 0.0, 0.0
    return (100.0 * math.exp(statistics.fmean(exec_logs)),
            100.0 * math.exp(statistics.fmean(traffic_logs)))


def end_to_end(raw, workload, attempted, failed):
    walls, per_access, per_txn = [], [], []
    for rep in raw["reps"]:
        cells = rep["cells"]
        if not all(c["ok"] for c in cells):
            continue
        accesses = sum(c["result"]["accesses"] for c in cells)
        txns = sum(c["result"]["global_read_misses"] +
                   c["result"]["global_write_actions"] for c in cells)
        walls.append(rep["wall_s"])
        per_access.append(rep["wall_s"] * 1e9 / accesses)
        per_txn.append(rep["wall_s"] * 1e9 / txns)
    median = lambda values: statistics.median(values) if values else 0.0
    ls_exec, ls_traffic = ls_percentages(raw, workload)
    return {
        "wall_s": median(walls),
        "setup_s": median(raw["setup_samples"]),
        "host_ns_per_access": median(per_access),
        "host_ns_per_global_txn": median(per_txn),
        "peak_rss_mb": raw["peak_rss_mb"],
        "passed_frac": 1.0 - failed / attempted,
        "ls_exec_pct": ls_exec,
        "ls_traffic_pct": ls_traffic,
    }


def reduce(raw, workload, seed, trace, expected):
    """Checks and reduces one raw document. Returns the result object and
    the list of failure messages."""
    expected_cells = expected_for(expected, workload, seed)
    attempted, failures = check_cells(raw, expected_cells)
    failed = len(failures)
    if not trace:
        values = end_to_end(raw, workload, attempted, failed)
        units = END_TO_END_UNITS
    else:
        layers = raw.get("trace")
        if layers is None:
            failures.append("traced pass skipped: a timed run failed")
            values = {}
        else:
            values = layers["metrics"]
            if values["bench.replay_agrees"] != 1:
                failures.append("replay disagrees with the timed run; "
                                "per-layer split not reported")
                values = {k: values[k] for k in TRACE_VALIDITY_METRICS}
        units = PER_LAYER_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, failures


def record_expected(raw, workload, seed, path=EXPECTED_PATH):
    """Stores the run's simulated fields as the expected values for seed."""
    expected = load_expected(path) if os.path.isfile(path) else {}
    seeds = expected.setdefault("workloads", {}).setdefault(workload, {})
    seeds[str(seed)] = {
        label: simulated_fields(cell["result"])
        for label, cell in zip(raw["cells"], raw["reps"][0]["cells"])
    }
    with open(path, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small workload sizes, for the self-test")
    parser.add_argument("--record-expected", action="store_true",
                        help="store this run's simulated results in "
                             "expected.json before checking against it")
    args = parser.parse_args()

    binary = build()
    raw = measure(binary, args.workload, args.seed, args.seconds,
                  bool(args.trace), args.tiny)
    if args.record_expected:
        record_expected(raw, args.workload, args.seed)
    expected = {} if args.tiny else load_expected()
    result, failures = reduce(raw, args.workload, args.seed,
                              bool(args.trace), expected)

    for message in failures:
        print(f"FAILED {message}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(raw['reps'])} repetition(s) of {len(raw['cells'])} "
          f"simulation(s), {raw['workers']} worker(s)")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} ratio")
    if "trace" in raw and args.trace:
        samples = raw["trace"]["latency_samples"]
        print("sampled access latencies: " +
              ", ".join(f"{k} {v}" for k, v in samples.items()) +
              f"; replayed latencies differing from the run: "
              f"{raw['trace']['latency_mismatches']}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
