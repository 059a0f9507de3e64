// Latency histograms, traffic matrix and the epoch timeline.
#include "stats/timeline.hpp"

#include <gtest/gtest.h>

#include "workloads/harness.hpp"
#include "workloads/micro.hpp"

namespace lssim {
namespace {

// Bucketing, mean and the p50 of a populated histogram are covered in
// tests/telemetry/registry_test.cpp; these are the latency-report cases.
TEST(HistogramTest, PercentileIsBucketUpperEdge) {
  HistogramData hist;
  for (int i = 0; i < 90; ++i) hist.observe(1);
  for (int i = 0; i < 10; ++i) hist.observe(400);  // Bucket 8: [256, 512).
  EXPECT_EQ(hist.percentile(0.5), 1u);
  EXPECT_EQ(hist.percentile(0.99), 511u);
  // Below one sample's worth of q the answer is the first non-empty
  // bucket, never an empty bucket's edge.
  HistogramData slow;
  slow.observe(400);
  EXPECT_EQ(slow.percentile(0.5), 511u);
}

TEST(HistogramTest, EmptyIsSafe) {
  const HistogramData hist;
  EXPECT_EQ(hist.samples, 0u);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
  EXPECT_EQ(hist.percentile(0.9), 0u);
}

TEST(TrafficMatrix, CountsPerPair) {
  TrafficMatrix matrix(4);
  matrix.record(0, 1);
  matrix.record(0, 1);
  matrix.record(2, 3);
  EXPECT_EQ(matrix.count(0, 1), 2u);
  EXPECT_EQ(matrix.count(1, 0), 0u);
  EXPECT_EQ(matrix.count(2, 3), 1u);
  EXPECT_EQ(matrix.row_total(0), 2u);
}

TEST(EpochTimeline, DisabledByDefault) {
  EpochTimeline timeline;
  EXPECT_FALSE(timeline.enabled());
  timeline.observe(1000, 1, 1, 1, 1, 1);
  EXPECT_TRUE(timeline.samples().empty());
}

TEST(EpochTimeline, EmitsDeltasPerEpoch) {
  EpochTimeline timeline(100);
  timeline.observe(50, 10, 5, 1, 1, 0);    // Within epoch 0.
  timeline.observe(120, 30, 12, 3, 2, 1);  // Crosses the 100 boundary.
  ASSERT_EQ(timeline.samples().size(), 1u);
  // The boundary sample carries the deltas as of the crossing
  // observation (bucketed reporting, not interpolation).
  const EpochSample& s = timeline.samples().front();
  EXPECT_EQ(s.end_time, 100u);
  EXPECT_EQ(s.accesses, 30u);
  EXPECT_EQ(s.messages, 12u);
}

TEST(EpochTimeline, MultipleBoundariesInOneStep) {
  EpochTimeline timeline(10);
  timeline.observe(35, 7, 7, 7, 7, 7);
  // Boundaries 10, 20 and 30 crossed.
  EXPECT_EQ(timeline.samples().size(), 3u);
  EXPECT_EQ(timeline.samples().back().end_time, 30u);
}

TEST(SystemIntegration, HistogramsAndMatrixPopulated) {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  cfg.l1 = CacheConfig{1024, 1, 16};
  cfg.l2 = CacheConfig{8192, 1, 16};
  cfg.protocol.kind = ProtocolKind::kBaseline;
  cfg.stats_epoch = 10000;
  System sys(cfg);
  build_pingpong(sys, PingPongParams{.rounds = 100, .counters = 2});
  sys.run();
  const Stats& stats = sys.stats();
  EXPECT_GT(stats.read_latency.samples, 100u);
  EXPECT_GT(stats.write_latency.samples, 100u);
  // Hits land in bucket 0; misses around 100-500 cycles in buckets 6-9.
  EXPECT_GT(stats.read_latency.percentile(0.99), 60u);
  std::uint64_t cross_traffic = 0;
  for (NodeId s = 0; s < 4; ++s) {
    cross_traffic += stats.traffic_matrix.row_total(s);
  }
  EXPECT_EQ(cross_traffic, stats.messages_total());
  EXPECT_GT(sys.timeline().samples().size(), 2u);
  // Epoch deltas sum to (at most) the totals.
  std::uint64_t accesses = 0;
  for (const EpochSample& s : sys.timeline().samples()) {
    accesses += s.accesses;
  }
  EXPECT_LE(accesses, stats.accesses);
}

}  // namespace
}  // namespace lssim
