// Metrics registry: named counters, gauges and log-scale histograms, the
// export form of a finished run's statistics.
//
// The simulator counts everything in Stats (stats/stats.hpp). No
// component registers or updates a metric while the run executes:
// publish_metrics (machine/system.hpp) registers each metric once, after
// the run, and sets it from Stats. Registration order is the order of
// snapshots and of every JSON document built from them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats/timeline.hpp"
#include "telemetry/json.hpp"

namespace lssim {

/// Metric label set: ordered key/value pairs ({"node","3"}, ...). Small
/// and only touched at registration/snapshot time.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

struct CounterHandle {
  std::uint32_t index = UINT32_MAX;
  [[nodiscard]] bool valid() const noexcept { return index != UINT32_MAX; }
};
struct GaugeHandle {
  std::uint32_t index = UINT32_MAX;
  [[nodiscard]] bool valid() const noexcept { return index != UINT32_MAX; }
};
struct HistogramHandle {
  std::uint32_t index = UINT32_MAX;
  [[nodiscard]] bool valid() const noexcept { return index != UINT32_MAX; }
};

/// Registration-time description of one metric.
struct MetricDesc {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  MetricLabels labels;
  /// Index into the value array of the metric's kind.
  std::uint32_t slot = 0;

  /// "name{k=v,k2=v2}" — the registry's uniqueness key and the display
  /// form used by text dumps.
  [[nodiscard]] std::string full_name() const;
};

/// A point-in-time copy of every metric value, self-contained (owns the
/// descriptors) so it outlives the registry that produced it.
struct MetricsSnapshot {
  std::vector<MetricDesc> descs;
  std::vector<std::uint64_t> counters;
  std::vector<std::int64_t> gauges;
  std::vector<HistogramData> histograms;

  [[nodiscard]] bool empty() const noexcept { return descs.empty(); }

  /// Counter value by full name ("name{k=v}"); 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(const std::string& full) const;

  /// Sum of all counters sharing `name` across label sets.
  [[nodiscard]] std::uint64_t counter_total(const std::string& name) const;

  /// Histogram data by full name ("name{k=v}"); nullptr when absent.
  [[nodiscard]] const HistogramData* histogram(const std::string& full) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (slow path; idempotent per name+labels) ------------
  CounterHandle counter(std::string name, MetricLabels labels = {});
  GaugeHandle gauge(std::string name, MetricLabels labels = {});
  HistogramHandle histogram(std::string name, MetricLabels labels = {});

  // --- updates ---------------------------------------------------------
  void add(CounterHandle h, std::uint64_t delta = 1) noexcept {
    counters_[h.index] += delta;
  }
  void set(GaugeHandle h, std::int64_t value) noexcept {
    gauges_[h.index] = value;
  }
  /// Replaces a histogram's contents with one recorded in Stats.
  void set(HistogramHandle h, const HistogramData& data) noexcept {
    histograms_[h.index] = data;
  }

  // --- inspection ------------------------------------------------------
  [[nodiscard]] std::uint64_t value(CounterHandle h) const noexcept {
    return counters_[h.index];
  }
  [[nodiscard]] std::int64_t value(GaugeHandle h) const noexcept {
    return gauges_[h.index];
  }
  [[nodiscard]] const HistogramData& data(HistogramHandle h) const noexcept {
    return histograms_[h.index];
  }
  [[nodiscard]] std::size_t num_metrics() const noexcept {
    return descs_.size();
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::uint32_t register_metric(std::string name, MetricLabels labels,
                                MetricKind kind);

  std::vector<MetricDesc> descs_;
  std::map<std::string, std::uint32_t> by_name_;  ///< full_name -> desc idx.
  std::vector<std::uint64_t> counters_;
  std::vector<std::int64_t> gauges_;
  std::vector<HistogramData> histograms_;
};

/// JSON document for a snapshot: an array of {name, kind, labels, value}
/// (histograms carry buckets/samples/sum). Stable ordering.
[[nodiscard]] Json snapshot_to_json(const MetricsSnapshot& snapshot);

/// Inverse of snapshot_to_json (tests, manifest round-trips). Returns
/// false and sets `*error` on malformed input.
bool snapshot_from_json(const Json& json, MetricsSnapshot* out,
                        std::string* error);

/// One "name{labels} value" line per metric (histograms print mean/p99).
void print_metrics(std::ostream& os, const MetricsSnapshot& snapshot);

}  // namespace lssim
