#include "workloads/harness.hpp"

#include "exec/parallel_executor.hpp"

namespace lssim {

RunResult collect(System& sys) {
  return collect(sys.config(), sys.stats(), sys.memory(), sys.exec_time());
}

RunResult collect(const MachineConfig& config, const Stats& stats,
                  MemorySystem& memory, Cycles exec_time) {
  RunResult result;
  result.protocol = config.protocol.kind;
  result.directory = config.directory_scheme;
  result.interconnect = config.interconnect;
  result.exec_time = exec_time;
  result.time = stats.time_total();
  for (int c = 0; c < kNumMsgClasses; ++c) {
    result.traffic[static_cast<std::size_t>(c)] =
        stats.messages_of_class(static_cast<MsgClass>(c));
  }
  result.traffic_total = stats.messages_total();
  result.read_miss_home = stats.read_miss_home_state;
  using K = ProtoEventKind;
  result.global_read_misses = stats.events(K::kReadMiss);
  result.global_write_actions =
      stats.events(K::kWriteMiss) + stats.events(K::kUpgrade);
  result.ownership_acquisitions = stats.events(K::kUpgrade);
  result.invalidations = stats.invalidations_sent;
  result.single_invalidations = stats.single_invalidations;
  result.eliminated_acquisitions = stats.events(K::kLocalWrite);
  result.update_transactions = stats.update_transactions;
  result.updates_sent = stats.updates_sent;
  result.data_misses = stats.data_misses;
  result.coherence_misses = stats.coherence_misses;
  result.false_sharing_misses = stats.false_sharing_misses;
  result.accesses = stats.accesses;
  for (const NodeCounts& n : stats.per_node) {
    result.l1_hits += n.l1_hits;
    result.l2_hits += n.l2_hits;
  }
  result.blocks_tagged = stats.events(K::kTag);
  result.blocks_detagged = stats.events(K::kDetag);
  result.dir_entry_evictions = stats.dir_entry_evictions;
  LoadStoreOracle& oracle = memory.oracle();
  result.oracle_total = oracle.total();
  for (int t = 0; t < kNumStreamTags; ++t) {
    result.oracle_by_tag[static_cast<std::size_t>(t)] =
        oracle.counters(static_cast<StreamTag>(t));
  }
  return result;
}

RunResult run_experiment(const MachineConfig& config,
                         const WorkloadBuilder& build, std::uint64_t seed) {
  return run_experiment(config, build, seed, nullptr);
}

RunResult run_experiment(const MachineConfig& config,
                         const WorkloadBuilder& build, std::uint64_t seed,
                         const RunInspector& inspect) {
  System sys(config, seed);
  build(sys);
  sys.run();
  RunResult result = collect(sys);
  if (inspect) {
    inspect(sys);
  }
  return result;
}

std::vector<RunResult> run_experiments(const MachineConfig& config,
                                       const WorkloadBuilder& build,
                                       std::span<const ProtocolKind> kinds,
                                       std::uint64_t seed, int jobs) {
  return parallel_map<RunResult>(kinds.size(), jobs, [&](std::size_t i) {
    MachineConfig cfg = config;
    cfg.protocol.kind = kinds[i];
    return run_experiment(cfg, build, seed);
  });
}

}  // namespace lssim
