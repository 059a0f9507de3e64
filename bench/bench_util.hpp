// Shared helpers for the figure/table reproduction binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec/parallel_executor.hpp"
#include "lssim.hpp"

namespace lssim::bench {

inline constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kBaseline, ProtocolKind::kAd, ProtocolKind::kLs};

/// Every figure binary accepts `--jobs N` (0 = all cores): the per-
/// protocol runs are independent, deterministic simulations, so fanning
/// them out changes wall clock only, never a reported number. Default is
/// serial to keep single-figure timings comparable across machines.
inline int parse_jobs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      return std::atoi(argv[i + 1]);
    }
  }
  return 1;
}

/// OLTP bench configuration: the paper's cache organization (2-way L1,
/// DM L2, 32-byte blocks) with capacities scaled down 8x alongside the
/// ~100x-miniaturized workload, preserving the paper's miss regime (many
/// capacity/conflict misses to shared data; hand-offs whose previous
/// copy is evicted). See DESIGN.md "Substitutions" and EXPERIMENTS.md.
inline MachineConfig oltp_bench_config(
    ProtocolKind kind = ProtocolKind::kBaseline) {
  MachineConfig cfg = MachineConfig::oltp_default(kind);
  cfg.l1 = CacheConfig{8 * 1024, 2, 32};
  cfg.l2 = CacheConfig{32 * 1024, 1, 32};
  return cfg;
}

/// Runs `build` under Baseline, AD and LS with the given base config,
/// across up to `jobs` host threads (results always in protocol order).
inline std::vector<RunResult> run_three(MachineConfig cfg,
                                        const WorkloadBuilder& build,
                                        int jobs = 1) {
  return run_experiments(cfg, build, kAllProtocols, /*seed=*/1, jobs);
}

inline void print_summary_line(const RunResult& base, const RunResult& r) {
  std::printf(
      "  %-8s exec %6.1f  traffic %6.1f  write-stall %6.1f  "
      "read-misses %6.1f\n",
      to_string(r.protocol),
      normalized(r.exec_time, base.exec_time),
      normalized(r.traffic_total, base.traffic_total),
      normalized(r.time.write_stall, base.time.write_stall),
      normalized(r.global_read_misses, base.global_read_misses));
}

inline void print_summary(const std::vector<RunResult>& results) {
  std::printf("-- Summary (Baseline = 100) --\n");
  for (const auto& r : results) {
    print_summary_line(results.front(), r);
  }
  std::printf("\n");
}

}  // namespace lssim::bench
