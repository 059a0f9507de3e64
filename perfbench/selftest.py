#!/usr/bin/env python3
"""Self-test of the benchmark at tiny workload sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that no simulation fails, that the replay agrees with the timed run, that
one deliberately wrong expected value is caught, and that the stored
expected results are consistent (LU matches the Figure 6 exec cycles
recorded in BENCH_results.json).
"""

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Figure 6 (LU 256x256, 4 nodes) exec cycles recorded in BENCH_results.json.
FIG6_EXEC_CYCLES = {"Baseline": 928350650, "AD": 900184928, "LS": 648870770}

problems = []


def check(condition, message):
    if not condition:
        problems.append(message)


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check(declared == run.END_TO_END_UNITS,
          f"end_to_end in BENCHMARK.json {declared} != run.py "
          f"{run.END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(declared == run.PER_LAYER_UNITS,
          "per_layer in BENCHMARK.json differs from run.py")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "workloads in BENCHMARK.json differ from run.py")


def check_stored_expected():
    expected = run.load_expected()
    for workload in run.WORKLOADS:
        seeds = expected["workloads"].get(workload, {})
        check({"1", "2"} <= set(seeds),
              f"{workload}: expected results for seeds 1 and 2 missing")
        if workload in run.SEED_INSENSITIVE and len(seeds) > 1:
            first = next(iter(seeds.values()))
            check(all(cells == first for cells in seeds.values()),
                  f"{workload}: seed-insensitive results differ by seed")
    for seed, cells in expected["workloads"]["lu-paper"].items():
        for label, fields in cells.items():
            protocol = label.split("/")[1]
            check(fields["exec_cycles"] == FIG6_EXEC_CYCLES[protocol],
                  f"lu-paper seed {seed} {protocol}: exec cycles "
                  f"{fields['exec_cycles']} != Figure 6's "
                  f"{FIG6_EXEC_CYCLES[protocol]}")


def check_workload(binary, workload):
    raw = run.measure(binary, workload, seed=1, seconds=0, trace=True,
                      tiny=True)
    path = os.path.join(run.WORK_DIR, "selftest-expected.json")
    if os.path.exists(path):
        os.remove(path)
    run.record_expected(raw, workload, 1, path=path)
    expected = run.load_expected(path)
    os.remove(path)

    result, failures = run.reduce(raw, workload, 1, False, expected)
    check(result["correct"] and result["failed"] == 0,
          f"{workload}: failures {failures}")
    for name, unit in run.END_TO_END_UNITS.items():
        metric = result["metrics"].get(name)
        check(metric is not None and metric["unit"] == unit,
              f"{workload}: end-to-end metric {name} missing or mis-unit")
        check(metric is not None and metric["value"] > 0,
              f"{workload}: end-to-end metric {name} is not positive")
    check(result["metrics"]["passed_frac"]["value"] == 1.0,
          f"{workload}: passed_frac != 1")

    layers, failures = run.reduce(raw, workload, 1, True, expected)
    check(layers["correct"], f"{workload}: traced failures {failures}")
    for name, unit in run.PER_LAYER_UNITS.items():
        metric = layers["metrics"].get(name)
        check(metric is not None and metric["unit"] == unit,
              f"{workload}: per-layer metric {name} missing or mis-unit")
    check(layers["metrics"]["bench.replay_agrees"]["value"] == 1,
          f"{workload}: replay disagrees with the timed run")

    # One wrong expected value must fail the run.
    wrong = copy.deepcopy(expected)
    cells = wrong["workloads"][workload]["1"]
    label = sorted(cells)[0]
    cells[label]["exec_cycles"] += 1
    result, failures = run.reduce(raw, workload, 1, False, wrong)
    check(not result["correct"] and result["failed"] > 0 and
          result["metrics"]["passed_frac"]["value"] < 1.0,
          f"{workload}: a wrong expected value went unnoticed")
    print(f"{workload}: {result['attempted']} simulations checked")


def main():
    check_benchmark_json()
    check_stored_expected()
    binary = run.build()
    for workload in run.WORKLOADS:
        check_workload(binary, workload)
    for message in problems:
        print(f"FAIL {message}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
