// Whole-machine assembly and the min-time scheduler.
//
// A System owns the simulated address space, the shared heap, the memory
// system (caches + directory + network) and one Processor per node.
// Workload programs are SimTask<void> coroutines spawned onto processors;
// run() interleaves them in global time order: it always executes the
// pending access of the processor whose local clock is earliest (ties to
// the lowest node id), which realises a sequentially consistent execution
// with stall-on-L2-miss (paper §4.2). Processors with a pending access
// wait in a ReadyQueue (machine/ready_queue.hpp), a min-heap keyed on
// (time, node id), so picking the next access costs O(log n) in the node
// count rather than a scan over every processor.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/protocol.hpp"
#include "machine/processor.hpp"
#include "mem/address_space.hpp"
#include "mem/shared_heap.hpp"
#include "sim/config.hpp"
#include "sim/task.hpp"
#include "stats/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace lssim {

class System {
 public:
  explicit System(const MachineConfig& config, std::uint64_t seed = 1);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Assigns `program` to processor `node`. At most one program per
  /// processor may be active; spawn all programs before run().
  /// Throws std::out_of_range when `node` is not a processor of this
  /// machine.
  void spawn(NodeId node, SimTask<void> program);

  /// Runs all spawned programs to completion and finalizes statistics;
  /// with telemetry.metrics on, then publishes them (publish_metrics).
  void run();

  [[nodiscard]] Processor& proc(NodeId node) noexcept {
    return *procs_[node];
  }
  [[nodiscard]] int num_procs() const noexcept {
    return static_cast<int>(procs_.size());
  }

  [[nodiscard]] AddressSpace& space() noexcept { return space_; }
  [[nodiscard]] SharedHeap& heap() noexcept { return heap_; }
  [[nodiscard]] Stats& stats() noexcept { return stats_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] MemorySystem& memory() noexcept { return memory_; }
  [[nodiscard]] Telemetry& telemetry() noexcept { return telemetry_; }
  [[nodiscard]] const Telemetry& telemetry() const noexcept {
    return telemetry_;
  }
  [[nodiscard]] const MachineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const EpochTimeline& timeline() const noexcept {
    return timeline_;
  }

  /// Wall-clock execution time: the latest processor local time.
  [[nodiscard]] Cycles exec_time() const noexcept;

  /// True when run() stopped on the max_cycles watchdog rather than on
  /// program completion.
  [[nodiscard]] bool timed_out() const noexcept { return timed_out_; }

  /// The attached invariant checker when config.check_invariants is on,
  /// else null. Violations accumulate there across the whole run.
  [[nodiscard]] const check::InvariantChecker* invariant_checker()
      const noexcept {
    return checker_.get();
  }

  /// Keeps a workload context alive for the duration of the simulation
  /// (programs capture references into it).
  void retain(std::shared_ptr<void> context) {
    retained_.push_back(std::move(context));
  }

  /// Observer invoked for every executed access (node, request, issue
  /// time, latency), for tools and tests that watch the access stream;
  /// attach before run(). Observers COMPOSE: each added observer is
  /// invoked in registration order, so two probes can watch the same run
  /// without silently dropping each other.
  using AccessObserver =
      std::function<void(NodeId, const AccessRequest&, Cycles, Cycles)>;
  void add_access_observer(AccessObserver observer) {
    observers_.push_back(std::move(observer));
  }

 private:
  MachineConfig cfg_;  ///< First member: validated before the rest.
  Stats stats_;
  AddressSpace space_;
  SharedHeap heap_;
  Telemetry telemetry_;  ///< Must outlive memory_ (handles point into it).
  MemorySystem memory_;
  /// Owned invariant checker (config.check_invariants); attached to
  /// memory_ right after construction, detached never — memory_ makes no
  /// hook calls during destruction.
  std::unique_ptr<check::InvariantChecker> checker_;
  std::vector<std::unique_ptr<Processor>> procs_;
  std::vector<SimTask<void>> programs_;  // Index-aligned with procs_.
  std::vector<std::shared_ptr<void>> retained_;
  EpochTimeline timeline_;
  std::vector<AccessObserver> observers_;
  bool ran_ = false;
  bool timed_out_ = false;
};

/// Registers every metric in `registry` and sets it from a finished run's
/// counts: `net.*`, per-node `cache.*`, `directory.entries_created`,
/// per-node `coherence.<kind>`, `ownership.latency{op}` and `sys.*`, in
/// that order. Each value is a Stats count or a sum of event counts
/// (docs/OBSERVABILITY.md lists the identities).
void publish_metrics(const Stats& stats, const MemorySystem& memory,
                     Cycles exec_time, MetricsRegistry& registry);

}  // namespace lssim
