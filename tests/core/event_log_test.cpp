// Protocol event log: ring semantics and hook coverage.
#include "core/event_log.hpp"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "machine/system.hpp"
#include "protocol_test_util.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/mp3d.hpp"

namespace lssim {
namespace {

TEST(EventLog, DisabledByDefault) {
  EventLog log;
  EXPECT_FALSE(log.enabled());
  log.record({1, 0, ProtoEventKind::kTag, 0, DirState::kShared, true});
  EXPECT_EQ(log.total(), 0u);
  EXPECT_EQ(log.size(), 0u);
}

TEST(EventLog, RetainsInOrder) {
  EventLog log(8);
  for (int i = 0; i < 5; ++i) {
    log.record({static_cast<Cycles>(i), static_cast<Addr>(i * 16),
                ProtoEventKind::kReadMiss, 0, DirState::kShared, false});
  }
  std::vector<Cycles> times;
  log.for_each([&](const ProtocolEvent& e) { times.push_back(e.time); });
  EXPECT_EQ(times, (std::vector<Cycles>{0, 1, 2, 3, 4}));
}

TEST(EventLog, ExplicitCapacityZeroStaysDisabled) {
  EventLog log(0);
  EXPECT_FALSE(log.enabled());
  for (int i = 0; i < 3; ++i) {
    log.record({static_cast<Cycles>(i), 0, ProtoEventKind::kTag, 0,
                DirState::kShared, true});
  }
  EXPECT_EQ(log.total(), 0u);
  EXPECT_EQ(log.size(), 0u);
  bool called = false;
  log.for_each([&](const ProtocolEvent&) { called = true; });
  EXPECT_FALSE(called);
}

TEST(EventLog, ExactCapacityRetainsAllThenWrapsByOne) {
  EventLog log(4);
  for (int i = 0; i < 4; ++i) {
    log.record({static_cast<Cycles>(i), 0, ProtoEventKind::kReadMiss, 0,
                DirState::kShared, false});
  }
  // Filling to exactly capacity must not wrap: all records retained.
  EXPECT_EQ(log.total(), 4u);
  EXPECT_EQ(log.size(), 4u);
  std::vector<Cycles> times;
  log.for_each([&](const ProtocolEvent& e) { times.push_back(e.time); });
  EXPECT_EQ(times, (std::vector<Cycles>{0, 1, 2, 3}));
  // One more record replaces exactly the oldest entry.
  log.record({4, 0, ProtoEventKind::kReadMiss, 0, DirState::kShared, false});
  times.clear();
  log.for_each([&](const ProtocolEvent& e) { times.push_back(e.time); });
  EXPECT_EQ(times, (std::vector<Cycles>{1, 2, 3, 4}));
}

TEST(EventLog, RingDropsOldest) {
  EventLog log(3);
  for (int i = 0; i < 7; ++i) {
    log.record({static_cast<Cycles>(i), 0, ProtoEventKind::kUpgrade, 0,
                DirState::kDirty, false});
  }
  EXPECT_EQ(log.total(), 7u);
  EXPECT_EQ(log.size(), 3u);
  std::vector<Cycles> times;
  log.for_each([&](const ProtocolEvent& e) { times.push_back(e.time); });
  EXPECT_EQ(times, (std::vector<Cycles>{4, 5, 6}));
}

TEST(EventLog, DumpFormatsLines) {
  EventLog log(4);
  log.record({12340, 0x40, ProtoEventKind::kUpgrade, 1, DirState::kDirty,
              true});
  std::ostringstream os;
  log.dump(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("@12340"), std::string::npos);
  EXPECT_NE(out.find("P1"), std::string::npos);
  EXPECT_NE(out.find("upgrade"), std::string::npos);
  EXPECT_NE(out.find("[tagged]"), std::string::npos);
}

TEST(EventLogIntegration, LsLifecycleEventsAppear) {
  MachineConfig cfg = ProtocolFixture::tiny(ProtocolKind::kLs);
  cfg.event_log_capacity = 256;
  ProtocolFixture f(cfg);
  const Addr a = f.on_home(0);
  (void)f.read(1, a);    // read-miss
  (void)f.write(1, a);   // upgrade + tag
  (void)f.read(2, a);    // read-miss + migrate
  (void)f.write(2, a);   // local-write
  (void)f.read(3, a);    // read-miss + migrate
  (void)f.read(0, a);    // read-miss + notls + detag

  std::vector<ProtoEventKind> kinds;
  f.ms().event_log().for_each(
      [&](const ProtocolEvent& e) { kinds.push_back(e.kind); });

  auto count = [&](ProtoEventKind kind) {
    std::size_t n = 0;
    for (auto k : kinds) {
      if (k == kind) ++n;
    }
    return n;
  };
  EXPECT_EQ(count(ProtoEventKind::kReadMiss), 4u);
  EXPECT_EQ(count(ProtoEventKind::kUpgrade), 1u);
  EXPECT_EQ(count(ProtoEventKind::kTag), 1u);
  EXPECT_EQ(count(ProtoEventKind::kMigrate), 2u);
  EXPECT_EQ(count(ProtoEventKind::kLocalWrite), 1u);
  EXPECT_EQ(count(ProtoEventKind::kNotLs), 1u);
  EXPECT_EQ(count(ProtoEventKind::kDetag), 1u);
}

TEST(EventLogIntegration, WritebackRecordedOnDirtyEviction) {
  MachineConfig cfg = ProtocolFixture::tiny(ProtocolKind::kBaseline);
  cfg.event_log_capacity = 64;
  ProtocolFixture f(cfg);
  const Addr a = f.on_home(0);
  (void)f.write(1, a, 5);
  f.force_eviction(1, a);
  bool saw_writeback = false;
  f.ms().event_log().for_each([&](const ProtocolEvent& e) {
    if (e.kind == ProtoEventKind::kWriteback && e.block == f.block_of(a)) {
      saw_writeback = true;
    }
  });
  EXPECT_TRUE(saw_writeback);
}

TEST(EventLogIntegration, ReplacementDetagNamesTheVictimBlock) {
  // AD drops a migratory block's tag when the owning copy is replaced.
  // The de-tag belongs to the replaced block, not to the block whose fill
  // forced the replacement: every sink must name the victim.
  MachineConfig cfg = ProtocolFixture::tiny(ProtocolKind::kAd);
  cfg.event_log_capacity = 256;
  cfg.telemetry.trace_capacity = 256;
  cfg.telemetry.audit_capacity = 256;
  Telemetry telemetry(cfg.telemetry);
  ProtocolFixture f(cfg, &telemetry);
  const Addr a = f.on_home(0);
  for (NodeId n = 1; n <= 3; ++n) {
    (void)f.read(n, a);
    (void)f.write(n, a);
  }
  ASSERT_TRUE(f.dir(a).tagged);
  f.force_eviction(3, a);  // A conflicting read at P3 evicts A.
  ASSERT_FALSE(f.dir(a).tagged);

  std::vector<Addr> logged;
  f.ms().event_log().for_each([&](const ProtocolEvent& e) {
    if (e.kind == ProtoEventKind::kDetag) logged.push_back(e.block);
  });
  std::vector<Addr> traced;
  for (const TraceInstant& i : telemetry.coherence_trace().instants()) {
    if (i.kind == ProtoEventKind::kDetag) traced.push_back(i.block);
  }
  std::vector<Addr> audited;
  telemetry.audit_log().for_each([&](const TagAuditRecord& r) {
    if (r.event == TagAuditEvent::kDetag) audited.push_back(r.block);
  });
  const std::vector<Addr> victim{f.block_of(a)};
  EXPECT_EQ(logged, victim);
  EXPECT_EQ(traced, victim);
  EXPECT_EQ(audited, victim);
}

// Every event reaches every sink it is routed to exactly once: per kind,
// the event log, the coherence.<kind> counters and (for kinds with a
// trace form) the spans or instants agree.
TEST(EventLogIntegration, EverySinkSeesEveryEventOnce) {
  std::array<std::uint64_t, kNumProtoEventKinds> seen{};
  for (const ProtocolKind kind :
       {ProtocolKind::kBaseline, ProtocolKind::kAd, ProtocolKind::kLs,
        ProtocolKind::kMoesi, ProtocolKind::kDragon}) {
    SCOPED_TRACE(to_string(kind));
    MachineConfig cfg;
    cfg.num_nodes = 4;
    cfg.l1 = CacheConfig{1024, 1, 16};
    cfg.l2 = CacheConfig{4096, 1, 16};  // Small: forces replacements.
    cfg.protocol.kind = kind;
    cfg.event_log_capacity = std::size_t{1} << 20;
    cfg.telemetry.metrics = true;
    cfg.telemetry.trace_capacity = std::size_t{1} << 20;
    System sys(cfg);
    build_mp3d(sys, Mp3dParams{.particles = 2000, .steps = 3});
    sys.run();

    std::array<std::uint64_t, kNumProtoEventKinds> logged{};
    sys.memory().event_log().for_each([&](const ProtocolEvent& e) {
      logged[static_cast<std::size_t>(e.kind)] += 1;
    });
    ASSERT_EQ(sys.memory().event_log().size(),
              sys.memory().event_log().total());
    std::array<std::uint64_t, kNumProtoEventKinds> traced{};
    const CoherenceTrace& trace = sys.telemetry().coherence_trace();
    ASSERT_EQ(trace.dropped(), 0u);
    for (const TraceSpan& s : trace.spans()) {
      traced[static_cast<std::size_t>(s.kind)] += 1;
    }
    for (const TraceInstant& i : trace.instants()) {
      traced[static_cast<std::size_t>(i.kind)] += 1;
    }
    const MetricsSnapshot snap = sys.telemetry().registry().snapshot();
    for (int k = 0; k < kNumProtoEventKinds; ++k) {
      const auto ev = static_cast<ProtoEventKind>(k);
      const auto i = static_cast<std::size_t>(k);
      SCOPED_TRACE(to_string(ev));
      EXPECT_EQ(logged[i],
                snap.counter_total(std::string("coherence.") + to_string(ev)));
      const bool replacement = ev == ProtoEventKind::kWriteback ||
                               ev == ProtoEventKind::kReplHint;
      EXPECT_EQ(traced[i], replacement ? 0u : logged[i]);
      seen[i] += logged[i];
    }
  }
  // The runs above exercise every kind, so no sink's coverage of a kind
  // goes untested.
  for (int k = 0; k < kNumProtoEventKinds; ++k) {
    EXPECT_GT(seen[static_cast<std::size_t>(k)], 0u)
        << to_string(static_cast<ProtoEventKind>(k));
  }
}

}  // namespace
}  // namespace lssim
