// Ownership-latency profiling: the engine records per-access-type
// histograms in Stats, publish_metrics exports them, the latency report
// carries p50/p95/p99 for every protocol, and — the paper's headline
// effect — LS's write-miss+upgrade latency distribution dominates
// Baseline's on the pingpong workload, because load-store sequences turn
// most ownership transactions into local writes.
#include "telemetry/latency_report.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../core/protocol_test_util.hpp"
#include "driver/runner.hpp"
#include "machine/system.hpp"
#include "telemetry/json.hpp"
#include "telemetry/registry.hpp"
#include "workloads/micro.hpp"

namespace lssim {
namespace {

TEST(LatencyProfile, EngineObservesEachAccessTypeSeparately) {
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kBaseline));
  const Addr a = f.on_home(0);
  const Addr b = f.on_home(1);
  (void)f.read(1, a);   // Read miss.
  (void)f.write(1, a);  // Upgrade (Shared copy in node 1's cache).
  (void)f.write(2, b);  // Write miss (no preceding read).

  MetricsRegistry registry;
  publish_metrics(f.stats(), f.ms(), 0, registry);
  const MetricsSnapshot snap = registry.snapshot();
  const HistogramData* read_miss =
      snap.histogram("ownership.latency{op=read-miss}");
  const HistogramData* write_miss =
      snap.histogram("ownership.latency{op=write-miss}");
  const HistogramData* upgrade =
      snap.histogram("ownership.latency{op=upgrade}");
  ASSERT_NE(read_miss, nullptr);
  ASSERT_NE(write_miss, nullptr);
  ASSERT_NE(upgrade, nullptr);
  EXPECT_EQ(read_miss->samples, 1u);
  EXPECT_EQ(write_miss->samples, 1u);
  EXPECT_EQ(upgrade->samples, 1u);
  // Every coherence transaction takes nonzero time.
  EXPECT_GT(read_miss->sum, 0u);
  EXPECT_GT(write_miss->sum, 0u);
  EXPECT_GT(upgrade->sum, 0u);
}

TEST(LatencyProfile, MetricsOffRegistersNoHistograms) {
  System sys(ProtocolFixture::tiny(ProtocolKind::kLs));
  build_pingpong(sys, PingPongParams{.rounds = 10});
  sys.run();
  EXPECT_GT(sys.stats().ownership_latency[0].samples, 0u);
  EXPECT_EQ(sys.telemetry().registry().num_metrics(), 0u);
}

// Acceptance: the --latency-out report carries per-protocol p50/p95/p99
// for all five protocols.
TEST(LatencyProfile, ReportCarriesPercentilesForAllFiveProtocols) {
  DriverOptions options;
  options.workload = "pingpong";
  options.protocols = {ProtocolKind::kBaseline, ProtocolKind::kAd,
                       ProtocolKind::kLs, ProtocolKind::kIls,
                       ProtocolKind::kLsAd};
  options.latency_out = "unused.json";  // Enables metrics capture.

  const std::vector<DriverRun> runs =
      run_driver_workloads_captured(options);
  ASSERT_EQ(runs.size(), 5u);

  std::vector<LatencyReportRun> report_runs;
  for (const DriverRun& run : runs) {
    report_runs.push_back(
        LatencyReportRun{to_string(run.result.protocol), &run.metrics});
  }
  const Json doc =
      latency_report_to_json(options.workload, options.seed, report_runs);

  EXPECT_EQ(doc.find("schema_version")->as_uint(), 1u);
  EXPECT_EQ(doc.find("generator")->as_string(), "lssim");
  const Json* json_runs = doc.find("runs");
  ASSERT_NE(json_runs, nullptr);
  ASSERT_EQ(json_runs->as_array().size(), 5u);
  for (const Json& run : json_runs->as_array()) {
    const std::string protocol = run.find("protocol")->as_string();
    const Json* latency = run.find("ownership_latency");
    ASSERT_NE(latency, nullptr) << protocol;
    ASSERT_TRUE(latency->is_object()) << protocol;
    for (const char* op : kOwnershipLatencyOps) {
      const Json* digest = latency->find(op);
      ASSERT_NE(digest, nullptr) << protocol << "/" << op;
      for (const char* key : {"samples", "sum", "mean", "p50", "p95",
                              "p99", "buckets"}) {
        EXPECT_NE(digest->find(key), nullptr)
            << protocol << "/" << op << " missing " << key;
      }
      EXPECT_LE(digest->find("p50")->as_uint(),
                digest->find("p95")->as_uint())
          << protocol << "/" << op;
      EXPECT_LE(digest->find("p95")->as_uint(),
                digest->find("p99")->as_uint())
          << protocol << "/" << op;
    }
    // Pingpong misses in every protocol: the read-miss digest is never
    // empty, so the percentiles above are meaningful numbers.
    EXPECT_GT(latency->find("read-miss")->find("samples")->as_uint(), 0u)
        << protocol;
  }
}

// Sums the write-miss and upgrade histograms: the paper's ownership
// overhead is the union of both (a write miss acquires ownership too).
HistogramData ownership_write_path(const MetricsSnapshot& snap) {
  HistogramData combined;
  for (const char* op : {"write-miss", "upgrade"}) {
    const HistogramData* h = snap.histogram(
        std::string("ownership.latency{op=") + op + "}");
    if (h == nullptr) continue;
    combined.samples += h->samples;
    combined.sum += h->sum;
    for (int b = 0; b < HistogramData::kBuckets; ++b) {
      combined.counts[b] += h->counts[b];
    }
  }
  return combined;
}

// Acceptance: LS's write-miss+upgrade latency distribution dominates
// Baseline's on pingpong — at every latency threshold, LS has no more
// slow ownership transactions than Baseline (first-order stochastic
// dominance on the complementary CDF), and strictly fewer overall.
TEST(LatencyProfile, LsWritePathDominatesBaselineOnPingpong) {
  DriverOptions options;
  options.workload = "pingpong";
  options.protocols = {ProtocolKind::kBaseline, ProtocolKind::kLs};
  options.latency_out = "unused.json";

  const std::vector<DriverRun> runs =
      run_driver_workloads_captured(options);
  ASSERT_EQ(runs.size(), 2u);
  const HistogramData base = ownership_write_path(runs[0].metrics);
  const HistogramData ls = ownership_write_path(runs[1].metrics);

  ASSERT_GT(base.samples, 0u);
  // LS eliminates most ownership acquisitions outright.
  EXPECT_LT(ls.samples, base.samples);
  EXPECT_LT(ls.sum, base.sum);

  // Tail dominance: for every bucket boundary, the count of ownership
  // transactions slower than that boundary under LS is <= Baseline's.
  std::uint64_t tail_base = 0;
  std::uint64_t tail_ls = 0;
  for (int b = HistogramData::kBuckets - 1; b >= 0; --b) {
    tail_base += base.counts[b];
    tail_ls += ls.counts[b];
    EXPECT_LE(tail_ls, tail_base) << "tail above bucket " << b;
  }
}

}  // namespace
}  // namespace lssim
