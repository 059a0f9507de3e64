// Time-resolved statistics: latency histograms and an epoch timeline.
//
// The paper reports end-of-run aggregates; a production simulator also
// needs distributions (was the win in the tail or the median?) and
// time series (did behaviour change between program phases?). Both are
// cheap: histograms use power-of-two buckets, the timeline snapshots
// counters at fixed simulated-time epochs.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace lssim {

/// Log-scale (power-of-two bucket) histogram data: bucket i counts values
/// in [2^i, 2^(i+1)); bucket 0 also holds zeros. The one histogram type:
/// Stats' access latencies and every registry histogram use it.
struct HistogramData {
  static constexpr int kBuckets = 32;

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t samples = 0;
  std::uint64_t sum = 0;

  static constexpr int bucket_of(std::uint64_t value) noexcept {
    return value == 0
               ? 0
               : std::min(kBuckets - 1, 63 - std::countl_zero(value));
  }

  void observe(std::uint64_t value) noexcept {
    counts[static_cast<std::size_t>(bucket_of(value))] += 1;
    samples += 1;
    sum += value;
  }

  [[nodiscard]] double mean() const noexcept {
    return samples == 0
               ? 0.0
               : static_cast<double>(sum) / static_cast<double>(samples);
  }

  /// Upper edge of the bucket holding the q'th (0..1) sample: 0 when
  /// empty, and the first non-empty bucket when q * samples < 1.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept {
    if (samples == 0) return 0;
    const auto want =
        static_cast<std::uint64_t>(q * static_cast<double>(samples));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts[static_cast<std::size_t>(b)];
      if (seen >= want && seen > 0) {
        return (std::uint64_t{1} << (b + 1)) - 1;
      }
    }
    return ~std::uint64_t{0};
  }
};

/// One sampled epoch of machine activity.
struct EpochSample {
  Cycles end_time = 0;       ///< Simulated time at the epoch boundary.
  std::uint64_t accesses = 0;
  std::uint64_t messages = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_actions = 0;
  std::uint64_t eliminated = 0;
};

/// Accumulates per-epoch deltas of a few headline counters. The System
/// scheduler feeds it the current totals; the recorder differentiates.
class EpochTimeline {
 public:
  explicit EpochTimeline(Cycles epoch_length = 0)
      : epoch_length_(epoch_length), next_boundary_(epoch_length) {}

  [[nodiscard]] bool enabled() const noexcept { return epoch_length_ > 0; }
  /// True when observe(now, ...) would emit a sample: callers can skip
  /// computing the running totals otherwise.
  [[nodiscard]] bool due(Cycles now) const noexcept {
    return enabled() && now >= next_boundary_;
  }
  [[nodiscard]] Cycles epoch_length() const noexcept {
    return epoch_length_;
  }

  /// Called with monotonically increasing simulated time and the running
  /// totals; emits one sample per crossed epoch boundary.
  void observe(Cycles now, std::uint64_t accesses, std::uint64_t messages,
               std::uint64_t read_misses, std::uint64_t write_actions,
               std::uint64_t eliminated) {
    if (!enabled()) return;
    while (now >= next_boundary_) {
      samples_.push_back(EpochSample{
          next_boundary_, accesses - last_.accesses,
          messages - last_.messages, read_misses - last_.read_misses,
          write_actions - last_.write_actions,
          eliminated - last_.eliminated});
      last_ = EpochSample{next_boundary_, accesses, messages, read_misses,
                          write_actions, eliminated};
      next_boundary_ += epoch_length_;
    }
  }

  [[nodiscard]] const std::vector<EpochSample>& samples() const noexcept {
    return samples_;
  }

 private:
  Cycles epoch_length_;
  Cycles next_boundary_;
  EpochSample last_{};
  std::vector<EpochSample> samples_;
};

/// Node-to-node message counts (who talks to whom).
class TrafficMatrix {
 public:
  explicit TrafficMatrix(int num_nodes)
      : num_nodes_(num_nodes),
        counts_(static_cast<std::size_t>(num_nodes) *
                    static_cast<std::size_t>(num_nodes),
                0) {}

  void record(NodeId src, NodeId dst) noexcept {
    counts_[static_cast<std::size_t>(src) *
                static_cast<std::size_t>(num_nodes_) +
            dst] += 1;
  }
  [[nodiscard]] std::uint64_t count(NodeId src, NodeId dst) const noexcept {
    return counts_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(num_nodes_) +
                   dst];
  }
  [[nodiscard]] std::uint64_t row_total(NodeId src) const noexcept {
    std::uint64_t sum = 0;
    for (int d = 0; d < num_nodes_; ++d) {
      sum += count(src, static_cast<NodeId>(d));
    }
    return sum;
  }
  [[nodiscard]] int num_nodes() const noexcept { return num_nodes_; }

 private:
  int num_nodes_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace lssim
