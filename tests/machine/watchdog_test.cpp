// The max_cycles watchdog: livelocked programs become diagnosable.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "machine/system.hpp"
#include "mem/shared_heap.hpp"

namespace lssim {
namespace {

MachineConfig tiny_cfg() {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  cfg.l1 = CacheConfig{256, 1, 16};
  cfg.l2 = CacheConfig{1024, 1, 16};
  return cfg;
}

SimTask<void> spin_forever(System& sys, NodeId id, Addr flag) {
  Processor& proc = sys.proc(id);
  for (;;) {
    const std::uint64_t v = co_await proc.read(flag, 8);
    if (v != 0) break;  // Never: nobody writes the flag.
    proc.compute(10);
  }
}

TEST(Watchdog, StopsLivelockedRun) {
  MachineConfig cfg = tiny_cfg();
  cfg.max_cycles = 100000;
  System sys(cfg);
  const Addr flag = sys.heap().alloc(8, 8);
  sys.spawn(0, spin_forever(sys, 0, flag));
  sys.run();  // Must return despite the infinite spin.
  EXPECT_TRUE(sys.timed_out());
  EXPECT_GT(sys.exec_time(), 100000u);
  EXPECT_LT(sys.exec_time(), 200000u);  // Stopped promptly.
}

TEST(Watchdog, CompletedRunIsNotTimedOut) {
  MachineConfig cfg = tiny_cfg();
  cfg.max_cycles = 1000000;
  System sys(cfg);
  const Addr a = sys.heap().alloc(8, 8);
  sys.spawn(0, [](System& s, Addr addr) -> SimTask<void> {
    co_await s.proc(0).write(addr, 1, 8);
  }(sys, a));
  sys.run();
  EXPECT_FALSE(sys.timed_out());
}

TEST(Watchdog, DisabledByDefault) {
  MachineConfig cfg = tiny_cfg();
  EXPECT_EQ(cfg.max_cycles, 0u);
}

TEST(Watchdog, OtherProgramsKeepStateAtStop) {
  // Two spinners: the watchdog stops the run; statistics remain readable
  // and consistent.
  MachineConfig cfg = tiny_cfg();
  cfg.max_cycles = 50000;
  System sys(cfg);
  const Addr flag = sys.heap().alloc(8, 8);
  sys.spawn(0, spin_forever(sys, 0, flag));
  sys.spawn(1, spin_forever(sys, 1, flag));
  sys.run();
  EXPECT_TRUE(sys.timed_out());
  EXPECT_GT(sys.stats().accesses, 100u);
  EXPECT_TRUE(sys.memory().check_coherence_invariants());
}

TEST(Watchdog, Stops256NodesWithEveryProgramStillPending) {
  // The watchdog reads the earliest pending processor's clock. When it
  // fires, every spinner is still suspended on an access it has not
  // executed, and every one of them is past the budget.
  MachineConfig cfg = tiny_cfg();
  cfg.num_nodes = 256;
  cfg.directory_scheme = DirectoryKind::kLimitedPtr;
  cfg.max_cycles = 20000;
  System sys(cfg);
  const Addr flag = sys.heap().alloc(8, 8);
  std::vector<std::uint64_t> issued(256, 0);
  Cycles last_issue = 0;
  sys.add_access_observer([&](NodeId node, const AccessRequest&,
                              Cycles issue, Cycles) {
    ++issued[node];
    last_issue = issue;
  });
  for (int n = 0; n < 256; ++n) {
    sys.spawn(static_cast<NodeId>(n),
              spin_forever(sys, static_cast<NodeId>(n), flag));
  }
  sys.run();
  EXPECT_TRUE(sys.timed_out());
  EXPECT_LE(last_issue, cfg.max_cycles);
  for (int n = 0; n < 256; ++n) {
    SCOPED_TRACE(n);
    EXPECT_GT(issued[static_cast<std::size_t>(n)], 0u);
    EXPECT_GT(sys.proc(static_cast<NodeId>(n)).time(), cfg.max_cycles);
  }
}

}  // namespace
}  // namespace lssim
