#!/usr/bin/env python3
"""Regression tests for tools/bench_compare.py.

Invokes the script as a subprocess, the way CI does. The key regression:
a baseline captured with a zero or missing total `serial_seconds` (an
interrupted run, or a synthetic capture) must not crash the comparison
with a ZeroDivisionError and must still print the total summary line.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.environ.get(
    "BENCH_COMPARE",
    os.path.join(os.path.dirname(__file__), "..", "..", "tools",
                 "bench_compare.py"),
)


def capture(figures, total, jobs=4, speedup=2.0, cores=None):
    doc = {"figures": figures, "jobs": jobs, "speedup": speedup}
    if total is not None:
        doc["serial_seconds"] = total
    if cores is not None:
        doc["host_hardware_concurrency"] = cores
    return doc


def fig(name, seconds):
    f = {"name": name}
    if seconds is not None:
        f["serial_seconds"] = seconds
    return f


def run_compare(old_doc, new_doc, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        old_path = os.path.join(tmp, "old.json")
        new_path = os.path.join(tmp, "new.json")
        with open(old_path, "w") as f:
            json.dump(old_doc, f)
        with open(new_path, "w") as f:
            json.dump(new_doc, f)
        return subprocess.run(
            [sys.executable, SCRIPT, old_path, new_path, *extra],
            capture_output=True,
            text=True,
        )


class BenchCompareTest(unittest.TestCase):
    def test_zero_old_total_prints_summary_without_crashing(self):
        old = capture([fig("fig4", 1.0)], total=0.0)
        new = capture([fig("fig4", 1.0)], total=3.5)
        proc = run_compare(old, new)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("total serial: 0.00s -> 3.50s (+0.0%)", proc.stdout)

    def test_missing_old_total_prints_summary_without_crashing(self):
        old = capture([fig("fig4", 1.0)], total=None)
        new = capture([fig("fig4", 1.0)], total=3.5)
        proc = run_compare(old, new)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("total serial", proc.stdout)

    def test_zero_per_figure_serial_does_not_divide(self):
        old = capture([fig("fig4", 0.0)], total=0.0)
        new = capture([fig("fig4", 2.0)], total=2.0)
        proc = run_compare(old, new)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_missing_fields_everywhere_still_compares(self):
        old = capture([fig("fig4", None), fig("gone", None)], total=None)
        new = capture([fig("fig4", None), fig("fresh", None)], total=None,
                      speedup=None)
        proc = run_compare(old, new)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)
        self.assertIn("new figure", proc.stdout)
        self.assertIn("removed", proc.stdout)

    def test_regression_still_fails(self):
        old = capture([fig("fig4", 1.0)], total=1.0)
        new = capture([fig("fig4", 2.0)], total=2.0)
        proc = run_compare(old, new)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("REGRESSION", proc.stdout)
        self.assertIn("FAIL", proc.stderr)

    def test_different_core_counts_warn_but_pass(self):
        old = capture([fig("fig4", 1.0)], total=1.0, cores=8)
        new = capture([fig("fig4", 1.0)], total=1.0, cores=32)
        proc = run_compare(old, new)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("host core counts differ", proc.stderr)
        self.assertIn("old: 8", proc.stderr)
        self.assertIn("new: 32", proc.stderr)

    def test_different_jobs_warn_but_pass(self):
        old = capture([fig("fig4", 1.0)], total=1.0, jobs=4, cores=8)
        new = capture([fig("fig4", 1.0)], total=1.0, jobs=16, cores=8)
        proc = run_compare(old, new)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("different --jobs", proc.stderr)
        self.assertNotIn("host core counts differ", proc.stderr)

    def test_matching_provenance_does_not_warn(self):
        old = capture([fig("fig4", 1.0)], total=1.0, cores=8)
        new = capture([fig("fig4", 1.0)], total=1.0, cores=8)
        proc = run_compare(old, new)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("differ", proc.stderr)

    def test_within_threshold_passes(self):
        old = capture([fig("fig4", 1.0)], total=1.0)
        new = capture([fig("fig4", 1.05)], total=1.05)
        proc = run_compare(old, new)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("total serial: 1.00s -> 1.05s (+5.0%)", proc.stdout)

    def test_null_doc_speedup_prints_na_and_warns(self):
        # bench/perf_baseline writes speedup: null when the capture had
        # no real concurrency (1-core host or --jobs 1); the comparison
        # must skip it with a warning instead of crashing or gating.
        old = capture([fig("fig4", 1.0)], total=1.0)
        new = capture([fig("fig4", 1.0)], total=1.0, speedup=None)
        proc = run_compare(old, new)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)
        self.assertIn("n/a", proc.stdout)
        self.assertIn("null speedup", proc.stderr)


def store_header(hash_version=1, cores=8):
    return {"kind": "header", "schema_version": 1,
            "hash_version": hash_version, "generator": "lssim_sweep",
            "host_hardware_concurrency": cores, "jobs": 2}


def store_record(hash_hex, wall, cycles, label=None):
    return {"kind": "result", "hash": hash_hex,
            "label": label or f"cfg-{hash_hex}", "workload": "pingpong",
            "seed": 1, "nodes": 2, "wall_seconds": wall,
            "result": {"exec_cycles": cycles}}


def write_store(path, header, records, partial_tail=None):
    with open(path, "w") as f:
        for doc in [header, *records]:
            f.write(json.dumps(doc) + "\n")
        if partial_tail is not None:
            f.write(partial_tail)  # No newline: an interrupted append.


class StoreCompareTest(unittest.TestCase):
    def run_script(self, *argv):
        return subprocess.run(
            [sys.executable, SCRIPT, *argv],
            capture_output=True,
            text=True,
        )

    def make_stores(self, tmp, old_records, new_records):
        old_path = os.path.join(tmp, "old.jsonl")
        new_path = os.path.join(tmp, "new.jsonl")
        write_store(old_path, store_header(), old_records)
        write_store(new_path, store_header(), new_records)
        return old_path, new_path

    def test_wall_clock_regression_fails_per_config(self):
        with tempfile.TemporaryDirectory() as tmp:
            old, new = self.make_stores(
                tmp,
                [store_record("0x1", 1.0, 100), store_record("0x2", 1.0, 50)],
                [store_record("0x1", 2.0, 100), store_record("0x2", 1.0, 50)],
            )
            proc = self.run_script("--store", old, new)
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertIn("REGRESSION", proc.stdout)
            self.assertIn("cfg-0x1", proc.stderr)

    def test_within_threshold_passes_and_reports_membership(self):
        with tempfile.TemporaryDirectory() as tmp:
            old, new = self.make_stores(
                tmp,
                [store_record("0x1", 1.0, 100), store_record("0x3", 1.0, 9)],
                [store_record("0x1", 1.05, 100), store_record("0x2", 1.0, 5)],
            )
            proc = self.run_script("--store", old, new)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertIn("new config", proc.stdout)
            self.assertIn("removed", proc.stdout)

    def test_untimed_stores_skip_wall_gate_but_report_stat_changes(self):
        with tempfile.TemporaryDirectory() as tmp:
            old, new = self.make_stores(
                tmp,
                [store_record("0x1", 0.0, 100)],
                [store_record("0x1", 0.0, 999)],
            )
            proc = self.run_script("--store", old, new)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertIn("stats changed", proc.stdout)
            self.assertIn("no timing", proc.stdout)

    def test_partial_trailing_line_is_skipped(self):
        with tempfile.TemporaryDirectory() as tmp:
            old_path = os.path.join(tmp, "old.jsonl")
            new_path = os.path.join(tmp, "new.jsonl")
            write_store(old_path, store_header(),
                        [store_record("0x1", 1.0, 100)])
            write_store(new_path, store_header(),
                        [store_record("0x1", 1.0, 100)],
                        partial_tail='{"kind":"result","hash":"0x2')
            proc = self.run_script("--store", old_path, new_path)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertNotIn("Traceback", proc.stderr)

    def test_headerless_file_is_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "bad.jsonl")
            with open(bad, "w") as f:
                f.write(json.dumps(store_record("0x1", 1.0, 1)) + "\n")
            good = os.path.join(tmp, "good.jsonl")
            write_store(good, store_header(), [])
            proc = self.run_script("--store", bad, good)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIn("no header", proc.stderr + proc.stdout)

    def test_hash_version_mismatch_warns(self):
        with tempfile.TemporaryDirectory() as tmp:
            old_path = os.path.join(tmp, "old.jsonl")
            new_path = os.path.join(tmp, "new.jsonl")
            write_store(old_path, store_header(hash_version=1),
                        [store_record("0x1", 1.0, 100)])
            write_store(new_path, store_header(hash_version=2),
                        [store_record("0x1", 1.0, 100)])
            proc = self.run_script("--store", old_path, new_path)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertIn("hash versions", proc.stderr.replace("-", " "))

    def test_trend_summarises_stores_and_never_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, wall in enumerate([1.0, 2.0, 10.0]):
                path = os.path.join(tmp, f"s{i}.jsonl")
                write_store(path, store_header(),
                            [store_record("0x1", wall, 100)])
                paths.append(path)
            proc = self.run_script("--store", "--trend", *paths)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            # A 5x wall-clock blowup is reported, not gated.
            self.assertIn("+400.0%", proc.stdout)

    def test_trend_requires_store(self):
        proc = self.run_script("--trend", "a", "b")
        self.assertNotEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
