// Seeded trace fuzzer with a delta-debugging shrinker.
//
// The explorer's exhaustive bound stops at a handful of accesses; the
// fuzzer covers the territory beyond it: longer traces, atomic RMWs,
// sub-block offsets, randomized protocol knobs (hysteresis depths,
// default-tagged, lone-write heuristic, limited-pointer directories) and
// randomized machine shapes. Everything derives from one seed — a
// failure reported for (seed, iteration) replays exactly — and a failing
// trace is ddmin-shrunk to a 1-minimal repro before it is reported,
// because a 4-access repro is a bug report and a 200-access trace is
// homework. tools/lssim_fuzz is the CLI; tests/check/ pins fixed seeds.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/trace_runner.hpp"

namespace lssim {
class HeartbeatEmitter;  // exec/heartbeat.hpp
}

namespace lssim::check {

struct FuzzOptions {
  std::uint64_t seed = 1;
  /// Random traces to generate and check.
  int iterations = 100;
  /// Accesses per trace.
  int trace_length = 48;
  /// Protocol kinds to draw from. Empty = all registered.
  std::vector<ProtocolKind> protocols;
  /// Replay every generated trace under EVERY protocol kind instead of
  /// sampling one per iteration (the generated access stream is fixed,
  /// so one generation feeds the whole protocol sweep and divergent
  /// protocol bugs surface on the same stimulus). Off by default —
  /// sampling covers more streams per CPU-second.
  bool compare_protocols = false;
  /// Also randomize §5.5 knobs and the directory scheme (on by default;
  /// off pins the paper-default knobs, which the LS tag model verifies
  /// most strictly).
  bool randomize_knobs = true;
  /// ddmin-shrink failing traces before reporting them.
  bool shrink = true;
  /// Failing traces kept as repros (counting continues past the cap).
  std::size_t max_failures = 4;
  /// Tiny configs afford the strictest mode: full sweep every access.
  CheckerOptions checker{.full_scan_interval = 1};
  /// Progress reporting for long campaigns (exec/heartbeat.hpp): one
  /// unit_done per checked trace, phases "generate"/"check"/"shrink".
  /// Null (default) = off.
  HeartbeatEmitter* heartbeat = nullptr;
};

struct FuzzResult {
  std::uint64_t traces = 0;
  std::uint64_t accesses = 0;
  /// Protocol replays performed (== traces unless compare_protocols).
  std::uint64_t replays = 0;
  /// Generated traces that failed under at least one protocol.
  std::uint64_t failing_traces = 0;
  /// Shrunk (when enabled) repro per failing trace, capped.
  std::vector<ReproTrace> failures;
  /// First violation message per retained failure (parallel array).
  std::vector<std::string> messages;

  [[nodiscard]] bool ok() const noexcept { return failing_traces == 0; }
};

/// Generates, checks and (on failure) shrinks random traces. `policy`
/// (optional) injects a policy override — the fault-injection seam the
/// selftest uses.
[[nodiscard]] FuzzResult run_fuzzer(const FuzzOptions& options,
                                    const PolicyFactory& policy = {});

/// Delta-debugging (ddmin) shrink: removes chunks of accesses while the
/// trace still fails under the same policy/options, down to 1-minimal
/// (no single access can be removed). Returns `trace` unchanged if it
/// does not fail in the first place.
[[nodiscard]] ReproTrace shrink_repro(const ReproTrace& trace,
                                      const PolicyFactory& policy = {},
                                      const CheckerOptions& options = {});

/// Factory for a deliberately broken LS policy: identical tag rules,
/// but it skips the §3.1 de-tag on a foreign access to an LStemp-held
/// block. The standing fault-injection target (`lssim_fuzz selftest`,
/// tests/check/) proving the checker catches a forgotten de-tag rule
/// with a shrunk repro.
[[nodiscard]] PolicyFactory skip_detag_policy_factory();

}  // namespace lssim::check
