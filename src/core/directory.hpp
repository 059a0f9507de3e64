// Directory state (paper §2, §3.1 and Figure 1).
//
// One DirEntry exists per memory block ever accessed globally. The entry
// combines the DASH-style state with the paper's LS extension fields:
// the last-reader (LR) bit-field and the LS bit ("tagged" here, since
// the AD technique reuses the same storage for its migratory bit). The
// 64-bit `sharers` word is an *encoding* owned by the active directory
// organisation (core/directory_policy.hpp): a presence bitmap under
// full-map, packed node pointers under limited-pointer, region bits
// under coarse-vector/sparse. The bitmap helpers below are the full-map
// encoding's accessors, used by the full-map policy and by tests.
//
// Storage is an open-addressing flat hash table (power-of-two capacity,
// linear probing, no tombstones — backward-shift deletion keeps probe
// chains intact for the sparse organisation's evictions) rather than
// std::unordered_map: the directory is consulted on every global access,
// so the hot path is one multiply-shift hash plus a short probe over a
// contiguous 24-byte-slot array instead of a bucket pointer chase. A
// one-entry MRU cache short-circuits the common same-block re-access
// (spin-lock hand-offs, load-store sequences). See docs/PERFORMANCE.md.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace lssim {

/// Memory-side (home) state of a block, Figure 1 of the paper.
/// kExcl is the figure's "Load-Store" state: exactly one cache holds the
/// block exclusively after an exclusive read reply; the home learns about
/// the owning write lazily (the whole point is that the write sends no
/// message), so kExcl covers both the written and not-yet-written owner.
/// kOwned (MOESI / Dragon only): `owner` holds a modified copy AND other
/// caches may hold shared copies — the `sharers` word encodes the
/// NON-owner sharers. Home memory is stale; the owner services reads and
/// owes the eventual writeback.
enum class DirState : std::uint8_t {
  kUncached = 0,
  kShared,
  kDirty,
  kExcl,
  kOwned,
};

[[nodiscard]] constexpr const char* to_string(DirState s) noexcept {
  switch (s) {
    case DirState::kUncached: return "Uncached";
    case DirState::kShared: return "Shared";
    case DirState::kDirty: return "Dirty";
    case DirState::kExcl: return "Load-Store";
    case DirState::kOwned: return "Owned";
  }
  return "?";
}

struct DirEntry {
  /// Organisation-encoded sharer word (kShared): a presence bitmap under
  /// full-map, packed node pointers under limited-pointer, region bits
  /// under coarse-vector/sparse. Only the active DirectoryPolicy and the
  /// bitmap helpers below interpret it.
  std::uint64_t sharers = 0;
  NodeId owner = kInvalidNode;        ///< Valid in kDirty / kExcl.
  NodeId last_reader = kInvalidNode;  ///< Paper's LR field.
  NodeId last_writer = kInvalidNode;  ///< Used by AD's migratory detection.
  DirState state = DirState::kUncached;
  bool tagged : 1 = false;            ///< LS bit / migratory bit.
  /// The organisation no longer knows the precise sharer set (Dir_iB
  /// pointer overflow, coarse regions wider than one node): invalidations
  /// must cover a superset and AD's migratory detector is blind.
  bool imprecise : 1 = false;
  std::uint8_t tag_progress : 3 = 0;  ///< Hysteresis counters (§5.5),
  std::uint8_t detag_progress : 3 = 0;  ///< depth <= 7 (bit-field width).

  /// Full-map-encoding accessors: bit n of `sharers` = node n (<= 64
  /// nodes). Organisations with other encodings go through their
  /// DirectoryPolicy instead.
  [[nodiscard]] int sharer_count() const noexcept {
    return std::popcount(sharers);
  }
  [[nodiscard]] bool is_sharer(NodeId node) const noexcept {
    return (sharers >> node) & 1u;
  }
  void add_sharer(NodeId node) noexcept { sharers |= std::uint64_t{1} << node; }
  void remove_sharer(NodeId node) noexcept {
    sharers &= ~(std::uint64_t{1} << node);
  }
};

// The sharer word, three 16-bit node ids, the state byte and the packed
// flag/hysteresis byte fit in exactly two words; a table slot (key +
// entry) is then 24 bytes, three per cache line. Widening DirEntry is a
// hot-path regression — think twice.
static_assert(sizeof(DirEntry) == 16, "DirEntry must stay two words");

class Directory {
 public:
  /// `default_tagged` implements the §5.5 variation where every block
  /// starts out tagged (first cold read returns an exclusive copy).
  explicit Directory(bool default_tagged = false)
      : default_tagged_(default_tagged) {}

  /// Entry for `block` (block-aligned address), created on first use.
  ///
  /// The reference is invalidated by a *later* entry() call that inserts
  /// (the table may grow), exactly like iterator invalidation on a
  /// rehashing map. The transaction engine acquires at most one new
  /// entry per coherence transaction (victim blocks were cached, so
  /// their entries already exist), which keeps every held reference
  /// valid for the duration of a transaction.
  [[nodiscard]] DirEntry& entry(Addr block) {
    assert(block != kEmptyKey && "block address collides with sentinel");
    if (mru_key_ == block) {
      return slots_[mru_index_].entry;
    }
    if (slots_.empty()) {
      grow(kInitialCapacity);
    }
    std::size_t i = probe_start(block);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.key == block) {
        remember(block, i);
        return slot.entry;
      }
      if (slot.key == kEmptyKey) {
        if (size_ + 1 > capacity_limit()) {
          grow(slots_.size() * 2);
          return insert_new(block);  // Re-probe in the grown table.
        }
        return fill_slot(i, block);
      }
      i = (i + 1) & mask_;
    }
  }

  /// Read-only lookup that does not create an entry.
  [[nodiscard]] const DirEntry* find(Addr block) const noexcept {
    // The sentinel would false-hit the MRU check of a never-grown table
    // (mru_key_ starts as kEmptyKey) and index an empty slot vector.
    assert(block != kEmptyKey && "block address collides with sentinel");
    if (mru_key_ == block) {
      return &slots_[mru_index_].entry;
    }
    if (slots_.empty()) {
      return nullptr;
    }
    std::size_t i = probe_start(block);
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.key == block) {
        return &slot.entry;
      }
      if (slot.key == kEmptyKey) {
        return nullptr;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Removes `block`'s entry (sparse-organisation eviction). Uses
  /// backward-shift deletion so probe chains need no tombstones; any
  /// held entry reference and the MRU cache are invalidated. Returns
  /// false when no entry exists.
  bool erase(Addr block) noexcept {
    assert(block != kEmptyKey && "block address collides with sentinel");
    if (slots_.empty()) {
      return false;
    }
    std::size_t i = probe_start(block);
    while (slots_[i].key != block) {
      if (slots_[i].key == kEmptyKey) {
        return false;
      }
      i = (i + 1) & mask_;
    }
    std::size_t hole = i;
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (slots_[j].key == kEmptyKey) {
        break;
      }
      // Slot j's element may shift up only if its preferred position
      // lies at or before the hole (cyclic probe distance).
      const std::size_t preferred = probe_start(slots_[j].key);
      if (((j - preferred) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    size_ -= 1;
    mru_key_ = kEmptyKey;  // Slots may have shifted.
    return true;
  }

  /// Pre-sizes the table so `entries` entries fit without growing —
  /// entry() then never invalidates references by rehashing (the sparse
  /// organisation relies on this: its population is bounded up front).
  void reserve(std::size_t entries) {
    std::size_t capacity = std::max(slots_.size(), kInitialCapacity);
    while (capacity - capacity / 4 < entries) {
      capacity *= 2;
    }
    if (capacity > slots_.size()) {
      grow(capacity);
    }
  }

  /// Deterministic eviction victim for inserting `block` into a full
  /// sparse directory: the first occupied slot at or after `block`'s
  /// preferred position — the entry a real set-limited directory cache
  /// would displace. The table must be non-empty.
  [[nodiscard]] Addr victim_for(Addr block) const noexcept {
    assert(size_ > 0);
    std::size_t i = probe_start(block);
    while (slots_[i].key == kEmptyKey) {
      i = (i + 1) & mask_;
    }
    return slots_[i].key;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Allocated slots (tests; always a power of two once non-empty).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

  /// Visits every entry in slot order (unspecified, like the map it
  /// replaced — callers must not depend on it).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.entry);
    }
  }

 private:
  struct Slot {
    Addr key = kEmptyKey;
    DirEntry entry;
  };

  /// Block addresses are block-aligned (blocks are >= 8 bytes), so the
  /// all-ones address can never name a real block.
  static constexpr Addr kEmptyKey = ~Addr{0};
  static constexpr std::size_t kInitialCapacity = 256;

  [[nodiscard]] std::size_t probe_start(Addr block) const noexcept {
    // Fibonacci multiply-shift: block addresses share low zero bits
    // (block alignment) and arithmetic strides; the multiply diffuses
    // both into the top bits we keep.
    return static_cast<std::size_t>(
               (block * 0x9E3779B97F4A7C15ull) >> shift_) &
           mask_;
  }

  /// Grow threshold: 3/4 load factor keeps linear probe chains short.
  [[nodiscard]] std::size_t capacity_limit() const noexcept {
    return slots_.size() - slots_.size() / 4;
  }

  DirEntry& fill_slot(std::size_t i, Addr block) {
    Slot& slot = slots_[i];
    slot.key = block;
    slot.entry = DirEntry{};
    if (default_tagged_) {
      slot.entry.tagged = true;
    }
    size_ += 1;
    remember(block, i);
    return slot.entry;
  }

  /// Slow path after a grow: probe again (slots moved) and fill.
  DirEntry& insert_new(Addr block) {
    std::size_t i = probe_start(block);
    while (slots_[i].key != kEmptyKey) {
      assert(slots_[i].key != block);
      i = (i + 1) & mask_;
    }
    return fill_slot(i, block);
  }

  void grow(std::size_t new_capacity) {
    assert((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    mask_ = new_capacity - 1;
    shift_ = 64 - std::countr_zero(new_capacity);
    mru_key_ = kEmptyKey;  // Slot indices moved.
    for (const Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      std::size_t i = probe_start(slot.key);
      while (slots_[i].key != kEmptyKey) {
        i = (i + 1) & mask_;
      }
      slots_[i] = slot;
    }
  }

  void remember(Addr block, std::size_t index) noexcept {
    mru_key_ = block;
    mru_index_ = index;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  Addr mru_key_ = kEmptyKey;
  std::size_t mru_index_ = 0;
  bool default_tagged_;
};

}  // namespace lssim
