// Protocol event log: a bounded ring of coherence events for debugging
// and for walkthrough tooling. The transaction engine reports every event
// of every kind here once (MemorySystem::emit), so the log is the
// complete event stream.
//
// Disabled (capacity 0) it costs one branch per event. Enabled, it keeps
// the last N events; dump() renders them like:
//   @12340      P1  upgrade     blk 0x000040  dir Shared      [tagged]
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/directory.hpp"
#include "sim/types.hpp"

namespace lssim {

enum class ProtoEventKind : std::uint8_t {
  kReadMiss,    ///< Global read transaction.
  kWriteMiss,   ///< Global write-miss transaction.
  kUpgrade,     ///< Ownership acquisition on a Shared copy.
  kLocalWrite,  ///< Store satisfied in LStemp: eliminated acquisition.
  kTag,         ///< Block tagged (LS bit / migratory).
  kDetag,       ///< Block de-tagged.
  kMigrate,     ///< Exclusive read reply (data migrates).
  kNotLs,       ///< Foreign access broke an LStemp copy.
  kWriteback,   ///< Dirty replacement.
  kReplHint,    ///< Clean/LStemp replacement.
};
inline constexpr int kNumProtoEventKinds = 10;
/// The transactions (read miss, write miss, upgrade) are the first kinds.
inline constexpr std::size_t kNumTxnKinds = 3;

/// Point events (tag, detag, migrate, NotLS, local write) also become
/// trace instants; transactions (read miss, write miss, upgrade) become
/// trace spans when they complete; replacements (writeback, repl-hint)
/// have no trace form.
[[nodiscard]] constexpr bool is_point_event(ProtoEventKind k) noexcept {
  return k >= ProtoEventKind::kLocalWrite && k <= ProtoEventKind::kNotLs;
}

[[nodiscard]] constexpr const char* to_string(ProtoEventKind k) noexcept {
  switch (k) {
    case ProtoEventKind::kReadMiss: return "read-miss";
    case ProtoEventKind::kWriteMiss: return "write-miss";
    case ProtoEventKind::kUpgrade: return "upgrade";
    case ProtoEventKind::kLocalWrite: return "local-write";
    case ProtoEventKind::kTag: return "tag";
    case ProtoEventKind::kDetag: return "detag";
    case ProtoEventKind::kMigrate: return "migrate";
    case ProtoEventKind::kNotLs: return "notls";
    case ProtoEventKind::kWriteback: return "writeback";
    case ProtoEventKind::kReplHint: return "repl-hint";
  }
  return "?";
}

struct ProtocolEvent {
  Cycles time = 0;
  Addr block = 0;
  ProtoEventKind kind = ProtoEventKind::kReadMiss;
  NodeId actor = kInvalidNode;
  /// Directory state when the event is reported (for a transaction or a
  /// replacement: before the transition it causes).
  DirState dir_state = DirState::kUncached;
  bool tagged = false;
};

class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 0) : capacity_(capacity) {
    if (capacity_ > 0) ring_.reserve(capacity_);
  }

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  void record(const ProtocolEvent& event) {
    if (!enabled()) return;
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[next_] = event;
      wrapped_ = true;
    }
    next_ = (next_ + 1) % capacity_;
    total_ += 1;
  }

  /// Number of events ever recorded (may exceed capacity).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }

  /// Applies `fn` to the retained events, oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (ring_.empty()) return;
    const std::size_t start = wrapped_ ? next_ : 0;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      fn(ring_[(start + i) % ring_.size()]);
    }
  }

  /// Renders the retained events, one per line.
  void dump(std::ostream& os) const {
    for_each([&os](const ProtocolEvent& e) {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "@%-10llu P%-2d %-11s blk 0x%06llx  dir %-10s%s",
                    static_cast<unsigned long long>(e.time),
                    static_cast<int>(e.actor), to_string(e.kind),
                    static_cast<unsigned long long>(e.block),
                    to_string(e.dir_state), e.tagged ? "  [tagged]" : "");
      os << line << "\n";
    });
  }

 private:
  std::size_t capacity_;
  std::vector<ProtocolEvent> ring_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
  std::uint64_t total_ = 0;
};

}  // namespace lssim
