#!/usr/bin/env python3
"""Compare perf-baseline files or sweep results stores.

Baseline mode (bench/perf_baseline output):

    tools/bench_compare.py OLD.json NEW.json [--threshold 0.10]

Prints a per-figure table of serial wall clock and throughput, and exits
non-zero if any figure's serial time regressed by more than the
threshold (default 10%). Figures present in only one file are
reported but never fail the comparison (the suite grows over time).
Only wall-clock/throughput fields are compared — cycle counts are
covered by the simulator's own determinism checks. A null `speedup`
(capture taken without real concurrency: 1-core host or --jobs 1) is
skipped with a warning, never compared.

Store mode (tools/lssim_sweep JSONL results stores):

    tools/bench_compare.py --store OLD.jsonl NEW.jsonl [--threshold 0.10]
    tools/bench_compare.py --store --trend S1.jsonl S2.jsonl [S3.jsonl...]

Two stores: per-config regression gates, keyed by sweep config hash —
wall-clock regressions beyond the threshold fail (skipped when either
side recorded no timing), and simulated-stat changes (exec cycles,
traffic) are reported; sim stats are deterministic, so a change means
the simulator changed, which is exactly what the report surfaces after
an intentional change. With --trend, any number of stores are
summarised oldest-to-newest and nothing ever fails — the CI-friendly
informational invocation.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "figures" not in doc:
        sys.exit(f"{path}: not a perf_baseline document (no 'figures')")
    return doc


def by_name(doc):
    return {fig["name"]: fig for fig in doc["figures"]}


def fmt_speedup(value):
    """'2.50x' for a positive number, '-' for null/absent/zero."""
    return f"{value:.2f}x" if isinstance(value, (int, float)) and value > 0 \
        else "-"


def load_store(path):
    """Loads a lssim_sweep JSONL store: (header, {hash: record}).

    Mirrors the C++ reader's read-only semantics: a partial trailing
    line (interrupted append) is skipped; unknown record kinds are
    skipped; a malformed complete line or a missing header is fatal.
    """
    header = None
    records = {}
    with open(path, "rb") as f:
        data = f.read()
    body, _, tail = data.rpartition(b"\n")
    lines = body.split(b"\n") if body else []
    # `tail` (text after the final newline) is a partial append: ignored.
    for i, raw in enumerate(lines):
        if not raw.strip():
            continue
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as e:
            sys.exit(f"{path}:{i + 1}: malformed store line: {e}")
        kind = doc.get("kind")
        if kind == "header":
            header = doc
        elif kind == "result":
            try:
                key = int(doc["hash"], 16)
            except (KeyError, TypeError, ValueError):
                sys.exit(f"{path}:{i + 1}: result line without a hex hash")
            records[key] = doc
        # Unknown kinds: forward compatibility, skip.
    if header is None:
        sys.exit(f"{path}: not a sweep results store (no header line)")
    return header, records


def store_stat(record, key):
    return (record.get("result") or {}).get(key)


def compare_stores(old_path, new_path, threshold):
    old_header, old_records = load_store(old_path)
    new_header, new_records = load_store(new_path)
    for side, header in (("old", old_header), ("new", new_header)):
        if header.get("schema_version") != 1:
            print(f"warning: {side} store has schema_version "
                  f"{header.get('schema_version')}; this script knows 1",
                  file=sys.stderr)
    if old_header.get("hash_version") != new_header.get("hash_version"):
        print("warning: stores use different config-hash versions "
              f"(old: {old_header.get('hash_version')}, "
              f"new: {new_header.get('hash_version')}); hashes do not "
              "correspond and most configs will pair as added/removed",
              file=sys.stderr)
    if old_header.get("host_hardware_concurrency") != \
            new_header.get("host_hardware_concurrency"):
        print("warning: stores come from hosts with different core counts; "
              "wall-clock deltas are not comparable", file=sys.stderr)

    shared = [h for h in new_records if h in old_records]
    added = [h for h in new_records if h not in old_records]
    removed = [h for h in old_records if h not in new_records]

    regressions = []
    stat_changes = 0
    untimed = 0
    print(f"{len(old_records)} old / {len(new_records)} new configs: "
          f"{len(shared)} shared, {len(added)} added, {len(removed)} removed")
    print(f"{'config':<52} {'old s':>8} {'new s':>8} {'delta':>8}  verdict")
    for h in shared:
        old_rec, new_rec = old_records[h], new_records[h]
        label = new_rec.get("label") or f"0x{h:016x}"
        old_s = old_rec.get("wall_seconds") or 0.0
        new_s = new_rec.get("wall_seconds") or 0.0
        cycles_changed = any(
            store_stat(old_rec, k) != store_stat(new_rec, k)
            for k in ("exec_cycles", "traffic"))
        if cycles_changed:
            stat_changes += 1
        if old_s > 0 and new_s > 0:
            delta = (new_s - old_s) / old_s
            verdict = "ok"
            if delta > threshold:
                verdict = "REGRESSION"
                regressions.append((label, delta))
            elif delta < -threshold:
                verdict = "improved"
            if cycles_changed:
                verdict += " (stats changed)"
            print(f"{label:<52} {old_s:>8.3f} {new_s:>8.3f} {delta:>+7.1%}  "
                  f"{verdict}")
        else:
            # Timing capture was off (reproducible-store mode) on at
            # least one side: nothing to gate on wall clock.
            untimed += 1
            if cycles_changed:
                print(f"{label:<52} {'-':>8} {'-':>8} {'-':>8}  "
                      f"stats changed")
    for h in added:
        label = new_records[h].get("label") or f"0x{h:016x}"
        print(f"{label:<52} {'-':>8} "
              f"{new_records[h].get('wall_seconds') or 0.0:>8.3f} "
              f"{'-':>8}  new config")
    for h in removed:
        label = old_records[h].get("label") or f"0x{h:016x}"
        print(f"{label:<52} "
              f"{old_records[h].get('wall_seconds') or 0.0:>8.3f} "
              f"{'-':>8} {'-':>8}  removed")

    if untimed:
        print(f"\n{untimed} shared config(s) had no timing on one side "
              "(reproducible-store mode); wall clock not gated for them")
    if stat_changes:
        print(f"{stat_changes} shared config(s) changed simulated stats — "
              "deterministic fields, so the simulator changed")
    if regressions:
        worst = max(regressions, key=lambda r: r[1])
        print(f"\nFAIL: {len(regressions)} config(s) regressed wall clock "
              f"more than {threshold:.0%} "
              f"(worst: {worst[0]} {worst[1]:+.1%})", file=sys.stderr)
        return 1
    print(f"\nno per-config wall-clock regressions above {threshold:.0%}")
    return 0


def trend_stores(paths):
    """Oldest-to-newest summary across any number of stores; never fails."""
    print(f"{'store':<40} {'configs':>8} {'wall s':>10} {'Gcycles':>10} "
          f"{'vs prev':>8}")
    prev = None
    for path in paths:
        _, records = load_store(path)
        total_wall = sum(r.get("wall_seconds") or 0.0
                         for r in records.values())
        total_cycles = sum(store_stat(r, "exec_cycles") or 0
                           for r in records.values())
        vs_prev = "-"
        if prev is not None:
            shared = [h for h in records if h in prev]
            old_wall = sum(prev[h].get("wall_seconds") or 0.0
                           for h in shared)
            new_wall = sum(records[h].get("wall_seconds") or 0.0
                           for h in shared)
            if old_wall > 0 and new_wall > 0:
                vs_prev = f"{(new_wall - old_wall) / old_wall:+.1%}"
            elif shared:
                vs_prev = "untimed"
            else:
                vs_prev = "disjoint"
        name = path if len(path) <= 40 else "..." + path[-37:]
        print(f"{name:<40} {len(records):>8} {total_wall:>10.3f} "
              f"{total_cycles / 1e9:>10.3f} {vs_prev:>8}")
        prev = records
    return 0


def compare_baselines(old_path, new_path, threshold):
    old_doc, new_doc = load(old_path), load(new_path)
    if old_doc.get("quick") != new_doc.get("quick"):
        print(
            "warning: comparing a --quick baseline against a full one; "
            "wall-clock deltas are not meaningful",
            file=sys.stderr,
        )
    # Host provenance: comparing captures from machines with different
    # core counts (or different --jobs) makes the speedup numbers — and,
    # across CPU generations, often the serial times too — incomparable.
    # Warn loudly rather than fail: the serial-time regression gate below
    # is still the contract.
    old_cores = old_doc.get("host_hardware_concurrency")
    new_cores = new_doc.get("host_hardware_concurrency")
    if old_cores != new_cores:
        print(
            f"warning: host core counts differ "
            f"(old: {old_cores}, new: {new_cores}); speedup and "
            f"wall-clock deltas are not comparable across hosts",
            file=sys.stderr,
        )
    # Build provenance: wall-clock deltas across different commits fold
    # code changes into the comparison. That is often exactly what the
    # user wants (did my change regress perf?), so warn — never fail —
    # and let the serial-time gate below judge the numbers.
    old_commit = old_doc.get("git_commit")
    new_commit = new_doc.get("git_commit")
    if old_commit and new_commit and old_commit != new_commit:
        print(
            f"warning: baselines come from different commits "
            f"(old: {old_commit[:12]}, new: {new_commit[:12]}); "
            f"wall-clock deltas include code changes, not just host noise",
            file=sys.stderr,
        )
    for key in ("directory", "interconnect"):
        if (old_doc.get(key) or new_doc.get(key)) and \
                old_doc.get(key) != new_doc.get(key):
            print(
                f"warning: suite {key} differs "
                f"(old: {old_doc.get(key)}, new: {new_doc.get(key)}); "
                f"the baselines measured different machines",
                file=sys.stderr,
            )
    if old_doc.get("jobs") != new_doc.get("jobs"):
        print(
            f"warning: parallel passes used different --jobs "
            f"(old: {old_doc.get('jobs')}, new: {new_doc.get('jobs')}); "
            f"speedup numbers are not comparable",
            file=sys.stderr,
        )
    old_figs, new_figs = by_name(old_doc), by_name(new_doc)

    regressions = []
    print(f"{'figure':<24} {'old s':>9} {'new s':>9} {'delta':>8}  verdict")
    for name, new_fig in new_figs.items():
        old_fig = old_figs.get(name)
        if old_fig is None:
            print(f"{name:<24} {'-':>9} "
                  f"{new_fig.get('serial_seconds') or 0.0:>9.3f} "
                  f"{'-':>8}  new figure")
            continue
        old_s = old_fig.get("serial_seconds") or 0.0
        new_s = new_fig.get("serial_seconds") or 0.0
        delta = (new_s - old_s) / old_s if old_s > 0 else 0.0
        verdict = "ok"
        if delta > threshold:
            verdict = "REGRESSION"
            regressions.append((f"figure {name}", delta))
        elif delta < -threshold:
            verdict = "improved"
        print(f"{name:<24} {old_s:>9.3f} {new_s:>9.3f} {delta:>+7.1%}  "
              f"{verdict}")
    for name in old_figs:
        if name not in new_figs:
            print(f"{name:<24} "
                  f"{old_figs[name].get('serial_seconds') or 0.0:>9.3f} "
                  f"{'-':>9} {'-':>8}  removed")

    # Always print the total summary; an old total of zero (interrupted
    # or synthetic capture) just reports no delta instead of dividing.
    # A null doc-level speedup (capture without real concurrency; see
    # bench/perf_baseline) prints as n/a and is skipped with a warning.
    old_total = old_doc.get("serial_seconds") or 0.0
    new_total = new_doc.get("serial_seconds") or 0.0
    total_delta = ((new_total - old_total) / old_total if old_total > 0
                   else 0.0)
    new_speedup = new_doc.get("speedup")
    if new_speedup is None and "speedup" in new_doc:
        print("warning: new baseline has a null speedup (captured without "
              "real concurrency); skipping speedup comparison",
              file=sys.stderr)
    print(f"\ntotal serial: {old_total:.2f}s -> {new_total:.2f}s "
          f"({total_delta:+.1%}); "
          f"speedup at --jobs {new_doc.get('jobs')}: "
          f"{fmt_speedup(new_speedup) if new_speedup is not None else 'n/a'}")

    if regressions:
        worst = max(regressions, key=lambda r: r[1])
        print(
            f"\nFAIL: {len(regressions)} comparison(s) regressed more than "
            f"{threshold:.0%} (worst: {worst[0]} {worst[1]:+.1%})",
            file=sys.stderr,
        )
        return 1
    print("\nno regressions above "
          f"{threshold:.0%}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+",
                        help="two perf_baseline JSON files, or (with "
                             "--store) two stores / N stores with --trend")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="fractional wall-clock regression that fails (default 0.10)",
    )
    parser.add_argument("--store", action="store_true",
                        help="compare lssim_sweep JSONL results stores")
    parser.add_argument("--trend", action="store_true",
                        help="with --store: summarise N stores "
                             "oldest-to-newest; informational, never fails")
    args = parser.parse_args()

    if args.trend and not args.store:
        parser.error("--trend requires --store")
    if args.store:
        if args.trend:
            return trend_stores(args.files)
        if len(args.files) != 2:
            parser.error("--store compares exactly two stores "
                         "(use --trend for more)")
        return compare_stores(args.files[0], args.files[1], args.threshold)
    if len(args.files) != 2:
        parser.error("baseline mode compares exactly two files")
    return compare_baselines(args.files[0], args.files[1], args.threshold)


if __name__ == "__main__":
    sys.exit(main())
