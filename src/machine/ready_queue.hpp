// The scheduler's one definition of "the earliest pending access".
//
// A binary min-heap of (time, node) keys. Keys compare lexicographically,
// so equal times resolve to the lowest node id, which keeps every run
// deterministic. The scheduler (System::run) orders every access
// through this type.
//
// The scheduler keeps the running node at the root while its access
// executes, then either replaces the root's key with the node's next
// issue time (replace_top) or removes it when the node has no further
// access (pop). Either is one sift-down: O(log n) per access instead of
// a scan over every node.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace lssim {

class ReadyQueue {
 public:
  /// (issue time, node id); std::pair's ordering is the tie rule.
  using Key = std::pair<Cycles, NodeId>;

  void reserve(std::size_t n) { heap_.reserve(n); }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// The earliest (time, node). Requires !empty().
  [[nodiscard]] const Key& top() const noexcept {
    assert(!heap_.empty());
    return heap_.front();
  }

  void push(Key key) {
    std::size_t hole = heap_.size();
    heap_.push_back(key);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!(key < heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = key;
  }

  /// Replaces the root with `key` and restores heap order.
  /// Requires !empty().
  void replace_top(Key key) noexcept {
    assert(!heap_.empty());
    sift_down_from_root(key);
  }

  /// Removes the root. Requires !empty().
  void pop() noexcept {
    assert(!heap_.empty());
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down_from_root(last);
  }

 private:
  // Moves the hole at the root down past every smaller child, then drops
  // `key` into it.
  void sift_down_from_root(Key key) noexcept {
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (;;) {
      std::size_t child = 2 * hole + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
      if (!(heap_[child] < key)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = key;
  }

  std::vector<Key> heap_;
};

}  // namespace lssim
