// Tests for the metrics registry: handle stability, snapshot semantics,
// log-scale histogram bucketing, and JSON round-trips.
#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

namespace lssim {
namespace {

TEST(RegistryTest, CounterAddAndValue) {
  MetricsRegistry reg;
  const CounterHandle c = reg.counter("requests");
  reg.add(c);
  reg.add(c, 41);
  EXPECT_EQ(reg.value(c), 42u);
}

TEST(RegistryTest, RegistrationIsIdempotentPerNameAndLabels) {
  MetricsRegistry reg;
  const CounterHandle a = reg.counter("hits", {{"node", "0"}});
  const CounterHandle b = reg.counter("hits", {{"node", "0"}});
  const CounterHandle other = reg.counter("hits", {{"node", "1"}});
  EXPECT_EQ(a.index, b.index);
  EXPECT_NE(a.index, other.index);
  reg.add(a, 3);
  reg.add(b, 4);
  EXPECT_EQ(reg.value(a), 7u);
  EXPECT_EQ(reg.value(other), 0u);
  EXPECT_EQ(reg.num_metrics(), 2u);
}

TEST(RegistryTest, FullNameIncludesLabels) {
  MetricDesc desc{"cache.l2_fills", MetricKind::kCounter,
                  {{"node", "3"}, {"level", "2"}}, 0};
  EXPECT_EQ(desc.full_name(), "cache.l2_fills{node=3,level=2}");
  MetricDesc bare{"net.messages", MetricKind::kCounter, {}, 0};
  EXPECT_EQ(bare.full_name(), "net.messages");
}

TEST(RegistryTest, GaugeKeepsLatestValue) {
  MetricsRegistry reg;
  const GaugeHandle g = reg.gauge("exec_cycles");
  reg.set(g, 100);
  reg.set(g, -5);
  EXPECT_EQ(reg.value(g), -5);
}

TEST(HistogramTest, BucketOfIsLogScale) {
  EXPECT_EQ(HistogramData::bucket_of(0), 0);
  EXPECT_EQ(HistogramData::bucket_of(1), 0);
  EXPECT_EQ(HistogramData::bucket_of(2), 1);
  EXPECT_EQ(HistogramData::bucket_of(3), 1);
  EXPECT_EQ(HistogramData::bucket_of(4), 2);
  EXPECT_EQ(HistogramData::bucket_of(7), 2);
  EXPECT_EQ(HistogramData::bucket_of(8), 3);
  EXPECT_EQ(HistogramData::bucket_of(1024), 10);
  // Values beyond 2^31 saturate into the last bucket.
  EXPECT_EQ(HistogramData::bucket_of(std::uint64_t{1} << 40),
            HistogramData::kBuckets - 1);
  EXPECT_EQ(HistogramData::bucket_of(~std::uint64_t{0}),
            HistogramData::kBuckets - 1);
}

TEST(HistogramTest, ObserveTracksMeanAndPercentile) {
  HistogramData h;
  for (int i = 0; i < 99; ++i) h.observe(100);   // bucket 6
  h.observe(100000);                             // bucket 16
  EXPECT_EQ(h.samples, 100u);
  EXPECT_DOUBLE_EQ(h.mean(), (99.0 * 100 + 100000) / 100.0);
  // The p50 sample sits in the [64,128) bucket; its upper edge is 127.
  EXPECT_EQ(h.percentile(0.5), 127u);
  // The outlier dominates the tail.
  EXPECT_GE(h.percentile(1.0), 100000u);
}

TEST(RegistryTest, SnapshotIsSelfContained) {
  MetricsRegistry reg;
  const CounterHandle c = reg.counter("events");
  reg.add(c, 7);
  const MetricsSnapshot snap = reg.snapshot();
  reg.add(c, 100);  // Does not retroactively change the snapshot.
  EXPECT_EQ(snap.counter_value("events"), 7u);
  EXPECT_EQ(reg.value(c), 107u);
}

TEST(RegistryTest, CounterTotalSumsAcrossLabelSets) {
  MetricsRegistry reg;
  reg.add(reg.counter("hits", {{"node", "0"}}), 3);
  reg.add(reg.counter("hits", {{"node", "1"}}), 4);
  reg.add(reg.counter("other"), 100);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_total("hits"), 7u);
  EXPECT_EQ(snap.counter_value("hits{node=1}"), 4u);
}

TEST(RegistryTest, SnapshotJsonRoundTrip) {
  MetricsRegistry reg;
  reg.add(reg.counter("c", {{"node", "2"}}), 123456789012345ull);
  reg.set(reg.gauge("g"), -17);
  HistogramData data;
  data.observe(0);
  data.observe(300);
  reg.set(reg.histogram("h"), data);
  const MetricsSnapshot snap = reg.snapshot();

  const Json doc = snapshot_to_json(snap);
  std::string error;
  const Json parsed = Json::parse(doc.dump(2), &error);
  ASSERT_TRUE(error.empty()) << error;
  MetricsSnapshot back;
  ASSERT_TRUE(snapshot_from_json(parsed, &back, &error)) << error;

  EXPECT_EQ(back.counter_value("c{node=2}"), 123456789012345ull);
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_EQ(back.gauges[0], -17);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].samples, 2u);
  EXPECT_EQ(back.histograms[0].sum, 300u);
  EXPECT_EQ(back.histograms[0].counts[HistogramData::bucket_of(300)], 1u);
}

TEST(RegistryTest, SnapshotFromJsonRejectsMalformedInput) {
  std::string error;
  MetricsSnapshot out;
  EXPECT_FALSE(snapshot_from_json(Json(5), &out, &error));
  EXPECT_FALSE(error.empty());

  const Json bad = Json::parse(R"([{"name":"x","kind":"mystery"}])", &error);
  error.clear();
  EXPECT_FALSE(snapshot_from_json(bad, &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(RegistryTest, PrintMetricsListsEveryMetric) {
  MetricsRegistry reg;
  reg.add(reg.counter("alpha"), 1);
  HistogramData beta;
  beta.observe(64);
  reg.set(reg.histogram("beta"), beta);
  std::ostringstream os;
  print_metrics(os, reg.snapshot());
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha 1"), std::string::npos);
  EXPECT_NE(text.find("beta samples=1"), std::string::npos);
}

}  // namespace
}  // namespace lssim
