#include "machine/system.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/invariants.hpp"
#include "machine/ready_queue.hpp"

namespace lssim {
namespace {

/// `config`, or std::invalid_argument when it describes an impossible
/// machine. cfg_ is the first member, so this runs before any member is
/// built from the config.
const MachineConfig& validated(const MachineConfig& config) {
  const std::string problem = config.validate();
  if (!problem.empty()) {
    throw std::invalid_argument("invalid MachineConfig: " + problem);
  }
  return config;
}

}  // namespace

System::System(const MachineConfig& config, std::uint64_t seed)
    : cfg_(validated(config)),
      stats_(config.num_nodes),
      space_(config.num_nodes, config.page_bytes),
      heap_(space_),
      telemetry_(config.telemetry),
      memory_(config, space_, stats_, &telemetry_),
      timeline_(config.stats_epoch) {
  if (config.check_invariants) {
    checker_ = std::make_unique<check::InvariantChecker>();
    memory_.attach_checker(checker_.get());
  }
  procs_.reserve(static_cast<std::size_t>(config.num_nodes));
  programs_.resize(static_cast<std::size_t>(config.num_nodes));
  for (int n = 0; n < config.num_nodes; ++n) {
    procs_.push_back(
        std::make_unique<Processor>(static_cast<NodeId>(n), seed));
  }
}

// Out of line: ~unique_ptr<InvariantChecker> needs the complete type.
System::~System() = default;

void System::spawn(NodeId node, SimTask<void> program) {
  if (node >= procs_.size()) {
    throw std::out_of_range("System::spawn: node " + std::to_string(node) +
                            " out of range for a " +
                            std::to_string(procs_.size()) + "-node machine");
  }
  assert(!programs_[node].valid() && "processor already has a program");
  programs_[node] = std::move(program);
}

void System::run() {
  assert(!ran_ && "System::run may only be called once");
  ran_ = true;

  // Start every program; each runs until its first memory access (or to
  // completion, for programs that never touch simulated memory). Every
  // processor left with a pending access enters the ready queue.
  ReadyQueue ready;
  ready.reserve(procs_.size());
  for (std::size_t n = 0; n < programs_.size(); ++n) {
    if (!programs_[n].valid()) continue;
    programs_[n].resume();
    const Processor& proc = *procs_[n];
    if (proc.has_pending_) ready.push({proc.time_, proc.id_});
  }

  // The root is the runnable processor with the earliest local time (ties
  // to the lowest node id). It stays at the root while its access
  // executes; its clock only grows, so once its program issues again one
  // sift-down of the new key restores heap order.
  while (!ready.empty()) {
    Processor* next = procs_[ready.top().second].get();
    if (cfg_.max_cycles != 0 && ready.top().first > cfg_.max_cycles) {
      timed_out_ = true;  // Watchdog: leave remaining programs suspended.
      break;
    }

    next->has_pending_ = false;
    const AccessRequest req = next->pending_;
    const AccessResult res = memory_.access(next->id_, req, next->time_);
    for (const AccessObserver& observer : observers_) {
      observer(next->id_, req, next->time_, res.latency);
    }
    (req.is_write() ? stats_.write_latency : stats_.read_latency)
        .observe(res.latency);
    if (timeline_.due(next->time_)) {
      timeline_.observe(
          next->time_, stats_.accesses, stats_.messages_total(),
          stats_.events(ProtoEventKind::kReadMiss),
          stats_.events(ProtoEventKind::kWriteMiss) +
              stats_.events(ProtoEventKind::kUpgrade),
          stats_.events(ProtoEventKind::kLocalWrite));
    }

    // Time accounting. Under sequential consistency (paper default) one
    // issue cycle is busy and the rest of the access latency is read or
    // write stall (paper: stall on every L2 miss). Under processor
    // consistency, plain stores retire into a finite write buffer: the
    // processor only stalls when the buffer is full; reads and atomic
    // RMWs remain blocking (paper §6 discussion).
    TimeBreakdown& tb = stats_.per_proc[next->id_];
    const Cycles issue = std::min<Cycles>(res.latency, cfg_.latency.l1_access);
    const bool buffered = cfg_.consistency == ConsistencyModel::kPc &&
                          req.op == MemOpKind::kWrite;
    if (buffered) {
      auto& wb = next->write_buffer_;
      while (!wb.empty() && wb.front() <= next->time_) {
        wb.pop_front();  // Drain completed stores.
      }
      Cycles stall = 0;
      if (wb.size() >= cfg_.write_buffer_depth) {
        stall = wb.front() - next->time_;
        wb.pop_front();
      }
      wb.push_back(next->time_ + stall + res.latency);
      tb.busy += issue;
      tb.write_stall += stall;
      next->time_ += stall + issue;
    } else {
      tb.busy += issue;
      const Cycles stall = res.latency - issue;
      if (req.is_write()) {
        tb.write_stall += stall;
      } else {
        tb.read_stall += stall;
      }
      next->time_ += res.latency;
    }
    next->result_ = res.value;
    next->resume_point_.resume();
    if (next->has_pending_) {
      ready.replace_top({next->time_, next->id_});
    } else {
      ready.pop();  // Its program finished.
    }
  }

  // Fold compute-cycle busy time into the stats and flush classifiers.
  for (auto& proc : procs_) {
    stats_.per_proc[proc->id_].busy += proc->busy_;
    proc->busy_ = 0;
  }
  memory_.finalize();
  if (checker_) {
    checker_->final_check(memory_);
  }
  if (telemetry_.metrics_enabled()) {
    publish_metrics(stats_, memory_, exec_time(), telemetry_.registry());
  }
}

Cycles System::exec_time() const noexcept {
  Cycles latest = 0;
  for (const auto& proc : procs_) {
    latest = std::max(latest, proc->time_);
  }
  return latest;
}

void publish_metrics(const Stats& stats, const MemorySystem& memory,
                     Cycles exec_time, MetricsRegistry& registry) {
  const auto count = [&registry](std::string name, MetricLabels labels,
                                 std::uint64_t value) {
    registry.add(registry.counter(std::move(name), std::move(labels)),
                 value);
  };
  const auto node = [](std::size_t n) {
    return MetricLabels{{"node", std::to_string(n)}};
  };
  const auto ev = [](const NodeCounts& c, ProtoEventKind kind) {
    return c.events[static_cast<std::size_t>(kind)];
  };
  using K = ProtoEventKind;

  count("net.messages", {}, stats.messages_total());
  count("net.hops", {}, stats.network_hops);
  registry.set(registry.histogram("net.queue_delay"), stats.queue_delay);
  for (std::size_t n = 0; n < stats.per_node.size(); ++n) {
    const NodeCounts& c = stats.per_node[n];
    // Every read or write miss fills L2; every L2 victim is written back
    // or hinted; every L2 hit refills L1.
    count("cache.l2_fills", node(n),
          ev(c, K::kReadMiss) + ev(c, K::kWriteMiss));
    count("cache.l2_evictions", node(n),
          ev(c, K::kWriteback) + ev(c, K::kReplHint));
    count("cache.l1_refills", node(n), c.l2_hits);
  }
  // Sparse-directory evictions are the only entry removals.
  count("directory.entries_created", {},
        memory.directory().size() + stats.dir_entry_evictions);
  for (std::size_t n = 0; n < stats.per_node.size(); ++n) {
    for (int k = 0; k < kNumProtoEventKinds; ++k) {
      const auto kind = static_cast<ProtoEventKind>(k);
      count(std::string("coherence.") + to_string(kind), node(n),
            ev(stats.per_node[n], kind));
    }
  }
  for (std::size_t k = 0; k < kNumTxnKinds; ++k) {
    const char* op = to_string(static_cast<ProtoEventKind>(k));
    registry.set(registry.histogram("ownership.latency", {{"op", op}}),
                 stats.ownership_latency[k]);
  }
  registry.set(registry.histogram("sys.read_latency"), stats.read_latency);
  registry.set(registry.histogram("sys.write_latency"), stats.write_latency);
  registry.set(registry.gauge("sys.exec_cycles"),
               static_cast<std::int64_t>(exec_time));
  for (std::size_t n = 0; n < stats.per_node.size(); ++n) {
    const NodeCounts& c = stats.per_node[n];
    count("sys.accesses", node(n),
          c.l1_hits + c.l2_hits + ev(c, K::kReadMiss) +
              ev(c, K::kWriteMiss) + ev(c, K::kUpgrade));
  }
}

}  // namespace lssim
