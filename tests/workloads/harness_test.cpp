// Harness: collect() must be a faithful snapshot of the System's stats.
#include "workloads/harness.hpp"

#include <gtest/gtest.h>

#include "workloads/micro.hpp"

namespace lssim {
namespace {

MachineConfig tiny_cfg(ProtocolKind kind = ProtocolKind::kLs) {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  cfg.l1 = CacheConfig{1024, 1, 16};
  cfg.l2 = CacheConfig{4096, 1, 16};
  cfg.protocol.kind = kind;
  return cfg;
}

TEST(Harness, CollectMatchesStats) {
  System sys(tiny_cfg());
  build_pingpong(sys, PingPongParams{.rounds = 80, .counters = 2});
  sys.run();
  const RunResult r = collect(sys);
  const Stats& stats = sys.stats();
  EXPECT_EQ(r.protocol, ProtocolKind::kLs);
  EXPECT_EQ(r.exec_time, sys.exec_time());
  EXPECT_EQ(r.accesses, stats.accesses);
  EXPECT_EQ(r.traffic_total, stats.messages_total());
  EXPECT_EQ(r.traffic[0], stats.messages_of_class(MsgClass::kRead));
  EXPECT_EQ(r.traffic[1], stats.messages_of_class(MsgClass::kWrite));
  EXPECT_EQ(r.traffic[2], stats.messages_of_class(MsgClass::kOther));
  EXPECT_EQ(r.global_read_misses, stats.events(ProtoEventKind::kReadMiss));
  EXPECT_EQ(r.eliminated_acquisitions,
            stats.events(ProtoEventKind::kLocalWrite));
  EXPECT_EQ(r.time.busy, stats.time_total().busy);
  EXPECT_EQ(r.oracle_total.global_writes,
            sys.memory().oracle().total().global_writes);
}

TEST(Harness, TimeBreakdownSumsToProcessorClocks) {
  System sys(tiny_cfg());
  build_pingpong(sys, PingPongParams{.rounds = 60, .counters = 1});
  sys.run();
  Cycles clocks = 0;
  for (int n = 0; n < sys.num_procs(); ++n) {
    clocks += sys.proc(static_cast<NodeId>(n)).time();
  }
  EXPECT_EQ(sys.stats().time_total().total(), clocks);
}

TEST(Harness, ReadMissHomeStatesSumToReadMisses) {
  const RunResult r = run_experiment(tiny_cfg(), [](System& sys) {
    build_read_mostly(sys, ReadMostlyParams{.words = 256, .rounds = 40});
  });
  std::uint64_t by_state = 0;
  for (auto c : r.read_miss_home) by_state += c;
  EXPECT_EQ(by_state, r.global_read_misses);
}

TEST(Harness, InvalidationsPerWriteMath) {
  RunResult r;
  EXPECT_DOUBLE_EQ(r.invalidations_per_write(), 0.0);
  r.global_write_actions = 10;
  r.invalidations = 14;
  EXPECT_DOUBLE_EQ(r.invalidations_per_write(), 1.4);
}

TEST(Harness, RunExperimentHonorsSeed) {
  auto run = [](std::uint64_t seed) {
    return run_experiment(
        tiny_cfg(),
        [](System& sys) {
          build_pingpong(sys, PingPongParams{.rounds = 40, .counters = 1});
        },
        seed);
  };
  EXPECT_EQ(run(3).exec_time, run(3).exec_time);
  // Different seeds change per-processor RNG (backoffs) and thus timing.
  EXPECT_NE(run(3).exec_time, run(4).exec_time);
}

TEST(Harness, OracleByTagSumsToTotal) {
  const RunResult r = run_experiment(tiny_cfg(), [](System& sys) {
    build_pingpong(sys, PingPongParams{.rounds = 50, .counters = 1});
  });
  std::uint64_t writes = 0;
  for (const auto& c : r.oracle_by_tag) writes += c.global_writes;
  EXPECT_EQ(writes, r.oracle_total.global_writes);
}

}  // namespace
}  // namespace lssim
