// Directory-organisation seam: who the home believes holds a block.
//
// The transaction engine (core/protocol.cpp) never interprets the
// 64-bit sharer word in a DirEntry itself; it routes every sharer
// mutation and every sharer question through the machine's single
// DirectoryPolicy. Each organisation owns its encoding of that word:
//
//   full-map      presence bitmap, bit n = node n (<= 64 nodes, exact)
//   limited-ptr   Dir_iB: up to 7 packed 8-bit node pointers plus a
//                 control byte; broadcast once the pointers overflow
//   coarse        coarse bit-vector: bit r = a region of `region`
//                 consecutive nodes; imprecise whenever region > 1
//   sparse        coarse encoding with auto-sized regions *and* a
//                 bounded entry population — the engine evicts victim
//                 entries (forcing invalidations) to stay under it
//
// The contract that keeps verification meaningful under imprecision:
// believed_sharers() must always be a *superset* of the caches that
// actually hold the block, and must equal it exactly whenever the
// entry's `imprecise` bit is clear. Organisations set/clear that bit
// themselves; the engine and the invariant checker only read it.
#pragma once

#include <cstdint>

#include "core/directory.hpp"
#include "core/sharer_set.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace lssim {

class DirectoryPolicy {
 public:
  virtual ~DirectoryPolicy() = default;

  [[nodiscard]] virtual DirectoryKind kind() const noexcept = 0;

  /// Forgets every sharer (transition to kUncached/kDirty/kExcl) and
  /// clears `imprecise` — the organisation is exact about an empty set.
  virtual void clear_sharers(DirEntry& entry) const noexcept = 0;

  /// Records that `node` received a shared copy.
  virtual void add_sharer(DirEntry& entry, NodeId node) const noexcept = 0;

  /// Processes a replacement hint from `node`. Imprecise encodings may
  /// be unable to act on it (a coarse region bit covers other nodes);
  /// the believed set stays a superset either way.
  virtual void remove_sharer(DirEntry& entry, NodeId node) const noexcept = 0;

  /// True when the organisation cannot rule out that `node` holds a
  /// shared copy. Exact membership under precise encodings.
  [[nodiscard]] virtual bool may_be_sharer(const DirEntry& entry,
                                           NodeId node) const noexcept = 0;

  /// True when the believed sharer set is empty (the entry can drop to
  /// kUncached after a replacement hint).
  [[nodiscard]] virtual bool believed_empty(
      const DirEntry& entry) const noexcept = 0;

  /// The decoded believed sharer set: always a superset of the actual
  /// holders, exact when `entry.imprecise` is clear.
  [[nodiscard]] virtual SharerSet believed_sharers(
      const DirEntry& entry) const noexcept = 0;

  /// Caches that must receive an invalidation when `requester` acquires
  /// ownership: the believed sharers minus the requester itself and
  /// minus an Owned entry's owner. The engine always handles the owner
  /// on its own leg; an imprecise believed set can cover it.
  [[nodiscard]] SharerSet invalidation_targets(const DirEntry& entry,
                                               NodeId requester) const {
    SharerSet targets = believed_sharers(entry);
    targets.reset(requester);
    if (entry.state == DirState::kOwned && entry.owner != kInvalidNode) {
      targets.reset(entry.owner);
    }
    return targets;
  }

  /// Entry-population bound of the sparse organisation; 0 = unbounded.
  [[nodiscard]] virtual std::uint32_t max_entries() const noexcept {
    return 0;
  }
};

}  // namespace lssim
