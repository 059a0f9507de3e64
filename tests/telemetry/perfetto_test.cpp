// Tests for the Chrome trace-event exporter: golden serialization of a
// hand-built trace, parse-back fidelity, and an end-to-end driver run
// asserting duration events for every exercised protocol event kind.
#include "telemetry/perfetto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "driver/runner.hpp"
#include "telemetry/coherence_trace.hpp"

namespace lssim {
namespace {

CoherenceTrace make_small_trace() {
  CoherenceTrace trace(16);
  trace.span(/*node=*/1, ProtoEventKind::kReadMiss, /*block=*/0x40,
             /*begin=*/100, /*end=*/320);
  trace.span(/*node=*/0, ProtoEventKind::kUpgrade, 0x40, 400, 650);
  trace.instant(/*node=*/1, ProtoEventKind::kTag, 0x40, /*time=*/650);
  return trace;
}

TEST(PerfettoTest, GoldenSmallTrace) {
  std::ostringstream os;
  write_chrome_trace(os, "LS", make_small_trace());
  const std::string text = os.str();

  // Structural golden checks on the serialized document. Field order is
  // stable (insertion-ordered objects), so substrings are deterministic.
  EXPECT_NE(text.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"generator\": \"lssim\""), std::string::npos);
  EXPECT_NE(text.find("\"dropped_events\": 0"), std::string::npos);
  EXPECT_NE(text.find(R"("name": "read-miss")"), std::string::npos);
  EXPECT_NE(text.find(R"("cat": "coherence")"), std::string::npos);
  EXPECT_NE(text.find(R"("ph": "X")"), std::string::npos);
  EXPECT_NE(text.find(R"("ts": 100)"), std::string::npos);
  EXPECT_NE(text.find(R"("dur": 220)"), std::string::npos);
  EXPECT_NE(text.find(R"("block": "0x000040")"), std::string::npos);
  EXPECT_NE(text.find(R"("name": "tag")"), std::string::npos);
  EXPECT_NE(text.find(R"("ph": "i")"), std::string::npos);
  EXPECT_NE(text.find(R"("s": "t")"), std::string::npos);
  // Metadata names the process after the protocol and the threads after
  // the nodes.
  EXPECT_NE(text.find(R"("name": "LS")"), std::string::npos);
  EXPECT_NE(text.find(R"("name": "node 0")"), std::string::npos);
  EXPECT_NE(text.find(R"("name": "node 1")"), std::string::npos);
}

TEST(PerfettoTest, ParseBackRecoversEveryField) {
  std::ostringstream os;
  write_chrome_trace(os, "Baseline", make_small_trace());

  std::vector<ChromeTraceEvent> events;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(os.str(), &events, &error)) << error;

  // 1 process_name + 2 spans + 1 instant + 2 thread_name.
  ASSERT_EQ(events.size(), 6u);
  const auto is_span = [](const ChromeTraceEvent& e) { return e.ph == "X"; };
  ASSERT_EQ(std::count_if(events.begin(), events.end(), is_span), 2);
  const auto read_miss =
      std::find_if(events.begin(), events.end(), [](const ChromeTraceEvent& e) {
        return e.ph == "X" && e.name == "read-miss";
      });
  ASSERT_NE(read_miss, events.end());
  EXPECT_EQ(read_miss->ts, 100u);
  EXPECT_EQ(read_miss->dur, 220u);
  EXPECT_EQ(read_miss->pid, 0);
  EXPECT_EQ(read_miss->tid, 1);
  EXPECT_EQ(read_miss->cat, "coherence");
  EXPECT_EQ(read_miss->arg_block, "0x000040");

  const auto instant =
      std::find_if(events.begin(), events.end(), [](const ChromeTraceEvent& e) {
        return e.ph == "i";
      });
  ASSERT_NE(instant, events.end());
  EXPECT_EQ(instant->name, "tag");
  EXPECT_EQ(instant->ts, 650u);
}

TEST(PerfettoTest, CapacityDropsAreCountedNotSilent) {
  CoherenceTrace trace(2);
  trace.span(0, ProtoEventKind::kReadMiss, 0x0, 0, 10);
  trace.span(0, ProtoEventKind::kReadMiss, 0x40, 10, 20);
  trace.span(0, ProtoEventKind::kReadMiss, 0x80, 20, 30);  // Dropped.
  trace.instant(0, ProtoEventKind::kTag, 0x80, 30);        // Dropped.
  EXPECT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.dropped(), 2u);

  std::ostringstream os;
  write_chrome_trace(os, "X", trace);
  EXPECT_NE(os.str().find("\"dropped_events\": 2"), std::string::npos);
}

TEST(PerfettoTest, CapacityLimitedExportKeepsRetainedEventsInOrder) {
  // A capacity-limited trace exports exactly its retained events (the
  // first N; overflow is counted, not exported) in timestamp order.
  CoherenceTrace trace(3);
  trace.span(0, ProtoEventKind::kReadMiss, 0x00, 5, 15);
  trace.span(1, ProtoEventKind::kWriteMiss, 0x40, 20, 35);
  trace.span(0, ProtoEventKind::kUpgrade, 0x80, 40, 55);
  trace.span(1, ProtoEventKind::kReadMiss, 0xc0, 60, 70);  // Dropped.
  trace.instant(0, ProtoEventKind::kTag, 0xc0, 70);        // Dropped.

  std::ostringstream os;
  write_chrome_trace(os, "LS", trace);
  std::vector<ChromeTraceEvent> events;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(os.str(), &events, &error)) << error;

  std::vector<const ChromeTraceEvent*> coherence;
  for (const ChromeTraceEvent& e : events) {
    if (e.cat == "coherence") coherence.push_back(&e);
  }
  // Only the retained events appear: nothing from the dropped tail.
  ASSERT_EQ(coherence.size(), 3u);
  for (const ChromeTraceEvent* e : coherence) {
    EXPECT_NE(e->arg_block, "0x0000c0");
  }
  // ...and in timestamp order.
  for (std::size_t i = 1; i < coherence.size(); ++i) {
    EXPECT_LE(coherence[i - 1]->ts, coherence[i]->ts);
  }
  EXPECT_NE(os.str().find("\"dropped_events\": 2"), std::string::npos);
}

TEST(PerfettoTest, MultiProcessExportAssignsDistinctPids) {
  const CoherenceTrace a = make_small_trace();
  const CoherenceTrace b = make_small_trace();
  std::ostringstream os;
  write_chrome_trace(os, {TraceProcess{"Baseline", &a},
                          TraceProcess{"LS", &b}});
  std::vector<ChromeTraceEvent> events;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(os.str(), &events, &error)) << error;
  std::set<int> pids;
  for (const ChromeTraceEvent& e : events) pids.insert(e.pid);
  EXPECT_EQ(pids, (std::set<int>{0, 1}));
}

TEST(PerfettoTest, ParseRejectsMalformedDocuments) {
  std::vector<ChromeTraceEvent> events;
  std::string error;
  EXPECT_FALSE(parse_chrome_trace("[1,2]", &events, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_chrome_trace("{\"traceEvents\": 5}", &events, &error));
  EXPECT_FALSE(error.empty());
}

// End-to-end acceptance: run two protocols through the driver with
// tracing on and verify the exported document contains at least one
// duration event for every protocol event kind the run exercised.
TEST(PerfettoTest, EndToEndRunProducesDurationEventsPerExercisedKind) {
  DriverOptions options;
  options.workload = "pingpong";
  options.protocols = {ProtocolKind::kBaseline, ProtocolKind::kLs};
  options.trace_capacity = 1 << 16;

  std::vector<DriverRun> runs;
  for (ProtocolKind kind : options.protocols) {
    runs.push_back(run_driver_workload_captured(options, kind));
  }

  std::vector<TraceProcess> processes;
  for (const DriverRun& run : runs) {
    processes.push_back(
        TraceProcess{to_string(run.result.protocol), &run.trace});
  }
  std::ostringstream os;
  write_chrome_trace(os, processes);

  std::vector<ChromeTraceEvent> events;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(os.str(), &events, &error)) << error;

  for (std::size_t p = 0; p < runs.size(); ++p) {
    // Every span kind the run recorded must appear as an "X" event of
    // this pid in the export.
    std::set<std::string> exercised;
    for (const TraceSpan& s : runs[p].trace.spans()) {
      exercised.insert(to_string(s.kind));
    }
    EXPECT_FALSE(exercised.empty());
    for (const std::string& kind : exercised) {
      const bool found = std::any_of(
          events.begin(), events.end(), [&](const ChromeTraceEvent& e) {
            return e.ph == "X" && e.pid == static_cast<int>(p) &&
                   e.name == kind && e.dur > 0;
          });
      EXPECT_TRUE(found) << "missing duration event for " << kind
                         << " in pid " << p;
    }
  }

  // The pingpong workload bounces ownership: Baseline must show
  // upgrades; LS must show the eliminated-acquisition instants.
  const bool baseline_upgrades =
      std::any_of(events.begin(), events.end(), [](const ChromeTraceEvent& e) {
        return e.pid == 0 && e.ph == "X" && e.name == "upgrade";
      });
  EXPECT_TRUE(baseline_upgrades);
  const bool ls_local_writes =
      std::any_of(events.begin(), events.end(), [](const ChromeTraceEvent& e) {
        return e.pid == 1 && e.ph == "i" && e.name == "local-write";
      });
  EXPECT_TRUE(ls_local_writes);
}

}  // namespace
}  // namespace lssim
