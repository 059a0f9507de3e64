#!/usr/bin/env python3
"""Schema validator for lssim's observability artifacts.

Validates the transaction-level observability outputs
(docs/OBSERVABILITY.md):

  * --latency-out   ownership-latency report (JSON)
  * --audit-out     tag-decision audit trail (JSONL)
  * --heartbeat-out progress heartbeats (JSONL)
  * --manifest-out  run manifest (JSON): each run's published metrics
                    must agree with its result through the identities
                    listed under "Metrics registry"

Used by the CI observability smoke step and the ctest wrapper
(tests/tools/observability_smoke_test.py); exits non-zero with a
description on the first violation, so a schema drift fails the build
instead of silently breaking downstream consumers.

Usage:
  check_observability.py --latency FILE [--protocols A,B,...]
  check_observability.py --audit FILE [--protocols A,B,...]
  check_observability.py --heartbeat FILE
  check_observability.py --manifest FILE
(any combination may be given in one invocation)
"""

import argparse
import json
import sys

LATENCY_OPS = ("read-miss", "write-miss", "upgrade")

AUDIT_EVENTS = {"tag", "detag", "tag-progress", "detag-progress"}
AUDIT_REASONS = {
    "ls-sequence",
    "migratory-detect",
    "migratory-fallback",
    "lone-write",
    "foreign-access",
    "replacement",
    "upgrade-invalidations",
}


class SchemaError(Exception):
    pass


def fail(message):
    raise SchemaError(message)


def check_latency(path, protocols):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail("latency report: top level must be an object")
    if doc.get("schema_version") != 1:
        fail("latency report: schema_version must be 1, got %r"
             % doc.get("schema_version"))
    if doc.get("generator") != "lssim":
        fail("latency report: generator must be 'lssim'")
    for key in ("workload", "seed", "runs"):
        if key not in doc:
            fail("latency report: missing %r" % key)
    runs = doc["runs"]
    if not isinstance(runs, list) or not runs:
        fail("latency report: 'runs' must be a non-empty array")
    seen = []
    for run in runs:
        if not isinstance(run, dict) or "protocol" not in run:
            fail("latency report: each run needs a 'protocol'")
        seen.append(run["protocol"])
        latency = run.get("ownership_latency")
        if latency is None:
            fail("latency report: run %r has no ownership_latency "
                 "(metrics were off?)" % run["protocol"])
        if not isinstance(latency, dict):
            fail("latency report: ownership_latency must be an object")
        for op, digest in latency.items():
            if op not in LATENCY_OPS:
                fail("latency report: unknown op %r" % op)
            for key in ("samples", "sum", "mean", "p50", "p95", "p99",
                        "buckets"):
                if key not in digest:
                    fail("latency report: %s/%s missing %r"
                         % (run["protocol"], op, key))
            if digest["samples"] > 0:
                if not (digest["p50"] <= digest["p95"] <= digest["p99"]):
                    fail("latency report: %s/%s percentiles not "
                         "monotonic: p50=%r p95=%r p99=%r"
                         % (run["protocol"], op, digest["p50"],
                            digest["p95"], digest["p99"]))
                if sum(digest["buckets"]) != digest["samples"]:
                    fail("latency report: %s/%s bucket counts do not sum "
                         "to samples" % (run["protocol"], op))
    for wanted in protocols:
        if wanted not in seen:
            fail("latency report: protocol %r missing (have: %s)"
                 % (wanted, ", ".join(seen)))
    return len(runs)


def check_audit(path, protocols):
    records = 0
    summaries = {}
    per_protocol_records = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as ex:
                fail("audit line %d: not JSON (%s)" % (lineno, ex))
            if not isinstance(rec, dict):
                fail("audit line %d: must be an object" % lineno)
            proto = rec.get("protocol")
            if not isinstance(proto, str):
                fail("audit line %d: missing 'protocol'" % lineno)
            if rec.get("event") == "summary":
                if proto in summaries:
                    fail("audit line %d: duplicate summary for %r"
                         % (lineno, proto))
                for key in ("recorded", "retained"):
                    if not isinstance(rec.get(key), int):
                        fail("audit line %d: summary needs integer %r"
                             % (lineno, key))
                if rec["retained"] > rec["recorded"]:
                    fail("audit line %d: retained > recorded" % lineno)
                summaries[proto] = rec
                continue
            records += 1
            per_protocol_records[proto] = \
                per_protocol_records.get(proto, 0) + 1
            if rec.get("event") not in AUDIT_EVENTS:
                fail("audit line %d: unknown event %r"
                     % (lineno, rec.get("event")))
            if rec.get("reason") not in AUDIT_REASONS:
                fail("audit line %d: unknown reason %r"
                     % (lineno, rec.get("reason")))
            for key in ("time", "block", "node", "tag_progress",
                        "detag_progress"):
                if not isinstance(rec.get(key), int):
                    fail("audit line %d: missing integer %r" % (lineno, key))
            if not isinstance(rec.get("tagged"), bool):
                fail("audit line %d: missing boolean 'tagged'" % lineno)
            if proto in summaries:
                fail("audit line %d: record after summary for %r"
                     % (lineno, proto))
    if not summaries:
        fail("audit trail: no summary lines")
    for proto, summary in summaries.items():
        have = per_protocol_records.get(proto, 0)
        if have != summary["retained"]:
            fail("audit trail: %r has %d records but summary says "
                 "retained=%d" % (proto, have, summary["retained"]))
    for wanted in protocols:
        if wanted not in summaries:
            fail("audit trail: protocol %r missing (have: %s)"
                 % (wanted, ", ".join(sorted(summaries))))
    return records


def check_heartbeat(path):
    lines = 0
    finals = 0
    last_type = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as ex:
                fail("heartbeat line %d: not JSON (%s)" % (lineno, ex))
            if rec.get("type") not in ("heartbeat", "final"):
                fail("heartbeat line %d: unknown type %r"
                     % (lineno, rec.get("type")))
            for key in ("unit", "done", "accesses", "elapsed_seconds",
                        "accesses_per_sec"):
                if key not in rec:
                    fail("heartbeat line %d: missing %r" % (lineno, key))
            if rec["elapsed_seconds"] < 0:
                fail("heartbeat line %d: negative elapsed_seconds" % lineno)
            lines += 1
            last_type = rec["type"]
            if rec["type"] == "final":
                finals += 1
    if lines == 0:
        fail("heartbeat: no lines")
    if finals != 1:
        fail("heartbeat: expected exactly one final line, got %d" % finals)
    if last_type != "final":
        fail("heartbeat: final line must be last")
    return lines


def check_manifest(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    runs = doc.get("runs") if isinstance(doc, dict) else None
    if not isinstance(runs, list) or not runs:
        fail("manifest: 'runs' must be a non-empty array")
    for index, run in enumerate(runs):
        result = run.get("result")
        metrics = run.get("metrics")
        if not isinstance(result, dict) or not isinstance(metrics, list):
            fail("manifest run %d: needs 'result' and 'metrics' (metrics "
                 "were off?)" % index)
        label = "manifest run %d (%s@%s@%s)" % (
            index, result.get("protocol"), result.get("directory"),
            result.get("interconnect"))
        counters = {}   # name -> {node label (or None): value}
        histograms = {}  # name{op} -> samples
        gauges = {}
        for m in metrics:
            name = m.get("name")
            labels = m.get("labels", {})
            if m.get("kind") == "counter":
                counters.setdefault(name, {})[labels.get("node")] = m["value"]
            elif m.get("kind") == "histogram":
                key = name + ("{%s}" % labels["op"] if "op" in labels else "")
                histograms[key] = m["samples"]
            else:
                gauges[name] = m["value"]

        def total(name):
            return sum(counters.get(name, {}).values())

        def node(name, n):
            return counters.get(name, {}).get(n, 0)

        def expect(what, have, want):
            if have != want:
                fail("%s: %s is %r, expected %r" % (label, what, have, want))

        ev = lambda kind: total("coherence." + kind)
        expect("sum coherence.read-miss", ev("read-miss"),
               result["global_read_misses"])
        expect("sum coherence.upgrade", ev("upgrade"),
               result["ownership_acquisitions"])
        expect("sum coherence.write-miss + upgrade",
               ev("write-miss") + ev("upgrade"),
               result["global_write_actions"])
        expect("sum coherence.local-write", ev("local-write"),
               result["eliminated_acquisitions"])
        expect("sum coherence.tag", ev("tag"), result["blocks_tagged"])
        expect("sum coherence.detag", ev("detag"), result["blocks_detagged"])
        expect("net.messages", total("net.messages"),
               result["traffic"]["total"])
        expect("net.queue_delay samples", histograms.get("net.queue_delay"),
               result["traffic"]["total"])
        expect("sum cache.l1_refills", total("cache.l1_refills"),
               result["l2_hits"])
        expect("sum sys.accesses", total("sys.accesses"), result["accesses"])
        expect("accesses", result["accesses"],
               result["l1_hits"] + result["l2_hits"] + ev("read-miss") +
               ev("write-miss") + ev("upgrade"))
        expect("sys.read_latency + sys.write_latency samples",
               histograms.get("sys.read_latency", 0) +
               histograms.get("sys.write_latency", 0), result["accesses"])
        expect("sys.exec_cycles", gauges.get("sys.exec_cycles"),
               result["exec_cycles"])
        for op in LATENCY_OPS:
            expect("ownership.latency{%s} samples" % op,
                   histograms.get("ownership.latency{%s}" % op), ev(op))
        for n in counters.get("coherence.read-miss", {}):
            c = lambda kind: node("coherence." + kind, n)
            expect("cache.l2_fills{node=%s}" % n, node("cache.l2_fills", n),
                   c("read-miss") + c("write-miss"))
            expect("cache.l2_evictions{node=%s}" % n,
                   node("cache.l2_evictions", n),
                   c("writeback") + c("repl-hint"))
    return len(runs)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--latency", help="ownership-latency report (JSON)")
    parser.add_argument("--audit", help="tag-decision audit trail (JSONL)")
    parser.add_argument("--heartbeat", help="heartbeat stream (JSONL)")
    parser.add_argument("--manifest", help="run manifest (JSON)")
    parser.add_argument("--protocols", default="",
                        help="comma-separated protocol names that must "
                             "appear in --latency/--audit")
    args = parser.parse_args()
    if not (args.latency or args.audit or args.heartbeat or args.manifest):
        parser.error("give at least one of "
                     "--latency/--audit/--heartbeat/--manifest")
    protocols = [p for p in args.protocols.split(",") if p]

    try:
        if args.latency:
            n = check_latency(args.latency, protocols)
            print("latency report OK: %d run(s)" % n)
        if args.audit:
            n = check_audit(args.audit, protocols)
            print("audit trail OK: %d record(s)" % n)
        if args.heartbeat:
            n = check_heartbeat(args.heartbeat)
            print("heartbeat OK: %d line(s)" % n)
        if args.manifest:
            n = check_manifest(args.manifest)
            print("manifest OK: %d run(s)" % n)
    except SchemaError as ex:
        print("check_observability: %s" % ex, file=sys.stderr)
        return 1
    except (KeyError, TypeError, AttributeError) as ex:
        print("check_observability: malformed artifact (%s: %s)"
              % (type(ex).__name__, ex), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
