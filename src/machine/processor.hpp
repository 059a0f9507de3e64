// Simulated processor: the workload-facing handle for issuing memory
// accesses from coroutine programs.
//
// Usage inside a SimTask<void> coroutine:
//   const std::uint64_t v = co_await proc.read(addr);
//   co_await proc.write(addr, v + 1);
//   proc.compute(20);   // 20 cycles of busy work, no suspension
//
// Every co_await suspends the program; the System scheduler executes the
// access atomically at this processor's current time and resumes the
// program with the result. Atomic RMWs (swap / fetch_add / cas) are single
// coherence transactions, like SPARC ldstub/swap.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <source_location>

#include "core/protocol.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace lssim {

class Processor;

/// Awaitable produced by Processor::read/write/swap/fetch_add/cas.
struct MemAwait {
  Processor& proc;
  AccessRequest req;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) noexcept;
  [[nodiscard]] std::uint64_t await_resume() const noexcept;
};

class Processor {
 public:
  Processor(NodeId id, std::uint64_t rng_seed)
      : id_(id), rng_(rng_seed ^ (0x9e3779b97f4a7c15ULL * (id + 1))) {}

  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  // ---- workload-facing operations ------------------------------------
  // Every operation captures its *call site* (std::source_location): the
  // simulator's stand-in for the program counter of the load/store
  // instruction, consumed by the instruction-centric kIls technique.
  [[nodiscard]] MemAwait read(
      Addr addr, unsigned size = 4,
      std::source_location loc = std::source_location::current()) noexcept {
    return MemAwait{
        *this, {MemOpKind::kRead, addr, size, 0, 0, stream_, site_of(loc)}};
  }
  [[nodiscard]] MemAwait write(
      Addr addr, std::uint64_t value, unsigned size = 4,
      std::source_location loc = std::source_location::current()) noexcept {
    return MemAwait{*this,
                    {MemOpKind::kWrite, addr, size, value, 0, stream_,
                     site_of(loc)}};
  }
  /// Atomically stores `value`; resumes with the old value.
  [[nodiscard]] MemAwait swap(
      Addr addr, std::uint64_t value, unsigned size = 4,
      std::source_location loc = std::source_location::current()) noexcept {
    return MemAwait{*this,
                    {MemOpKind::kSwap, addr, size, value, 0, stream_,
                     site_of(loc)}};
  }
  /// Atomically adds `delta`; resumes with the old value.
  [[nodiscard]] MemAwait fetch_add(
      Addr addr, std::uint64_t delta, unsigned size = 4,
      std::source_location loc = std::source_location::current()) noexcept {
    return MemAwait{*this,
                    {MemOpKind::kFetchAdd, addr, size, delta, 0, stream_,
                     site_of(loc)}};
  }
  /// Atomically stores `desired` if the value equals `expected`; resumes
  /// with the old value (success iff old == expected).
  [[nodiscard]] MemAwait cas(
      Addr addr, std::uint64_t expected, std::uint64_t desired,
      unsigned size = 4,
      std::source_location loc = std::source_location::current()) noexcept {
    return MemAwait{*this,
                    {MemOpKind::kCas, addr, size, desired, expected, stream_,
                     site_of(loc)}};
  }

  /// Compact hash of a source location (constant-time: the file-name
  /// pointer is stable per translation unit).
  [[nodiscard]] static std::uint32_t site_of(
      const std::source_location& loc) noexcept {
    const auto file = reinterpret_cast<std::uintptr_t>(loc.file_name());
    std::uint64_t h = static_cast<std::uint64_t>(file) * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<std::uint64_t>(loc.line()) << 20) ^ loc.column();
    h *= 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::uint32_t>(h >> 32);
  }

  /// Advances local time by `cycles` of busy (compute) work. Does not
  /// suspend: ordering is re-established at the next memory access.
  void compute(Cycles cycles) noexcept {
    time_ += cycles;
    busy_ += cycles;
  }

  /// Tags subsequent accesses as app / library / OS work (paper Table 2).
  void set_stream(StreamTag tag) noexcept { stream_ = tag; }
  [[nodiscard]] StreamTag stream() const noexcept { return stream_; }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] Cycles time() const noexcept { return time_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  friend class System;
  friend struct MemAwait;

  NodeId id_;
  Rng rng_;
  StreamTag stream_ = StreamTag::kApp;

  Cycles time_ = 0;
  Cycles busy_ = 0;  // Accumulated compute cycles (moved to Stats at end).

  // Scheduler rendezvous state.
  bool has_pending_ = false;
  AccessRequest pending_{};
  std::coroutine_handle<> resume_point_;
  std::uint64_t result_ = 0;

  // Outstanding buffered-store completion times (processor consistency;
  // empty under sequential consistency).
  std::deque<Cycles> write_buffer_;
};

inline void MemAwait::await_suspend(std::coroutine_handle<> handle) noexcept {
  // A processor has at most one access in flight. A program awaiting on
  // another program's processor would break this and, with it, the
  // scheduler's heap order.
  assert(!proc.has_pending_ && "processor already has a pending access");
  proc.pending_ = req;
  proc.has_pending_ = true;
  proc.resume_point_ = handle;
}

inline std::uint64_t MemAwait::await_resume() const noexcept {
  return proc.result_;
}

}  // namespace lssim
