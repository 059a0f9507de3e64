// Regression pin for snooping-bus queueing accounting.
//
// The bus DOES model queueing delay — it is not "always zero". Every
// send pays max(now, bus_free) under FCFS, plus the rotation walk under
// round-robin when contended, and both total_queueing() and the
// net.queue_delay histogram record the wait. These tests pin that
// modelled behavior (docs/PROTOCOL.md "Bus queueing is modelled"): a
// change that silently zeroes the accounting — or decouples the
// histogram from total_queueing() — fails here, not in a downstream
// manifest diff.
#include "net/snoop_bus.hpp"

#include <gtest/gtest.h>

#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "stats/stats.hpp"
#include "telemetry/registry.hpp"

namespace lssim {
namespace {

LatencyConfig test_lat() {
  LatencyConfig lat;
  lat.hop = 40;
  lat.link_occupancy = 8;
  return lat;
}

TEST(BusQueueing, IdleBusDoesNotQueue) {
  for (const BusArbitration arb :
       {BusArbitration::kFcfs, BusArbitration::kRoundRobin}) {
    Stats stats(4);
    SnoopBus bus(4, test_lat(), stats, arb);
    EXPECT_EQ(bus.send(0, 1, MsgType::kReadReq, 100), 140u);
    EXPECT_EQ(bus.total_queueing(), 0u);
  }
}

TEST(BusQueueing, FcfsContentionSerialises) {
  Stats stats(4);
  SnoopBus bus(4, test_lat(), stats, BusArbitration::kFcfs);
  EXPECT_EQ(bus.send(0, 1, MsgType::kReadReq, 0), 40u);
  // Second transaction at the same instant waits out the first one's
  // bus occupancy: departs at 8, completes a hop later.
  EXPECT_EQ(bus.send(2, 3, MsgType::kReadReq, 0), 48u);
  EXPECT_EQ(bus.total_queueing(), 8u);
}

TEST(BusQueueing, RoundRobinAddsRotationWalk) {
  Stats stats(4);
  SnoopBus bus(4, test_lat(), stats, BusArbitration::kRoundRobin);
  EXPECT_EQ(bus.send(0, 1, MsgType::kReadReq, 0), 40u);
  // Contended grant: occupancy wait (8) plus the rotation walking from
  // the node after the last grantee (0) around to the requester (3).
  EXPECT_EQ(bus.send(3, 1, MsgType::kReadReq, 0), 40u + 8u + 3u);
  EXPECT_EQ(bus.total_queueing(), 11u);
}

TEST(BusQueueing, RoundRobinIdleMatchesFcfs) {
  Stats stats(4);
  SnoopBus fcfs(4, test_lat(), stats, BusArbitration::kFcfs);
  SnoopBus rr(4, test_lat(), stats, BusArbitration::kRoundRobin);
  (void)fcfs.send(0, 1, MsgType::kReadReq, 0);
  (void)rr.send(0, 1, MsgType::kReadReq, 0);
  // Both buses free at 8; an arrival after that queues nowhere under
  // either discipline.
  EXPECT_EQ(fcfs.send(3, 1, MsgType::kReadReq, 20),
            rr.send(3, 1, MsgType::kReadReq, 20));
  EXPECT_EQ(fcfs.total_queueing(), 0u);
  EXPECT_EQ(rr.total_queueing(), 0u);
}

TEST(BusQueueing, QueueDelayHistogramMatchesTotalQueueing) {
  Stats stats(4);
  SnoopBus bus(4, test_lat(), stats, BusArbitration::kFcfs);
  (void)bus.send(0, 1, MsgType::kReadReq, 0);
  (void)bus.send(1, 0, MsgType::kDataShared, 0);
  (void)bus.send(2, 3, MsgType::kInval, 4);
  ASSERT_GT(bus.total_queueing(), 0u);
  EXPECT_EQ(stats.queue_delay.samples, 3u);
  EXPECT_EQ(stats.queue_delay.sum, bus.total_queueing());
}

// End-to-end pin: a real contended workload on the bus exports nonzero
// queueing through the metrics registry — the export surface manifests
// carry. Guards against a future transport change quietly regressing
// the bus back to unmodelled (always-zero) queueing.
TEST(BusQueueing, ContendedWorkloadExportsNonzeroQueueDelay) {
  DriverOptions options;
  options.workload = "pingpong";
  options.params["rounds"] = "50";
  options.machine.num_nodes = 4;
  options.machine.interconnect = InterconnectKind::kBus;
  options.metrics_out = "unused.json";  // Enables capture; never written.
  const DriverRun run =
      run_driver_workload_captured(options, ProtocolKind::kBaseline);
  const HistogramData* queue = run.metrics.histogram("net.queue_delay");
  ASSERT_NE(queue, nullptr);
  EXPECT_GT(queue->sum, 0u) << "bus queueing regressed to always-zero";
  EXPECT_EQ(queue->samples, run.metrics.counter_value("net.messages"));
}

}  // namespace
}  // namespace lssim
