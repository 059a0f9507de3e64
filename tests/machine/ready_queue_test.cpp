// ReadyQueue: the scheduler's (time, node) min-heap, checked against the
// linear earliest-processor scan it replaced.
#include "machine/ready_queue.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "sim/rng.hpp"

namespace lssim {
namespace {

TEST(ReadyQueue, EqualTimesComeOutInAscendingNodeOrder) {
  ReadyQueue q;
  for (const NodeId n : {NodeId{5}, NodeId{2}, NodeId{7}, NodeId{0}}) {
    q.push({100, n});
  }
  q.push({99, 9});
  std::vector<ReadyQueue::Key> order;
  while (!q.empty()) {
    order.push_back(q.top());
    q.pop();
  }
  const std::vector<ReadyQueue::Key> expected = {
      {99, 9}, {100, 0}, {100, 2}, {100, 5}, {100, 7}};
  EXPECT_EQ(order, expected);
}

TEST(ReadyQueue, ReplaceTopReordersAfterTheKeyGrows) {
  ReadyQueue q;
  q.push({10, 0});
  q.push({20, 1});
  q.push({30, 2});
  q.replace_top({25, 0});
  EXPECT_EQ(q.top(), (ReadyQueue::Key{20, 1}));
  q.replace_top({25, 1});
  // Same time as node 0: the lower id goes first.
  EXPECT_EQ(q.top(), (ReadyQueue::Key{25, 0}));
  q.replace_top({40, 0});
  EXPECT_EQ(q.top(), (ReadyQueue::Key{25, 1}));
  EXPECT_EQ(q.size(), 3u);
}

TEST(ReadyQueue, PopRemovesAFinishedNode) {
  ReadyQueue q;
  q.push({5, 3});
  q.push({7, 1});
  q.push({6, 2});
  q.pop();  // Node 3 finished.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.top(), (ReadyQueue::Key{6, 2}));
  q.pop();
  EXPECT_EQ(q.top(), (ReadyQueue::Key{7, 1}));
  q.pop();
  EXPECT_TRUE(q.empty());
}

// Drives the queue exactly as the scheduler does (run the root, then grow
// its key or remove it) and compares every choice with a strict-< scan in
// ascending node order. Small time steps make ties frequent.
void check_against_linear_scan(std::size_t nodes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::optional<Cycles>> pending(nodes);
  ReadyQueue q;
  for (std::size_t n = 0; n < nodes; ++n) {
    pending[n] = rng.next_below(4);
    q.push({*pending[n], static_cast<NodeId>(n)});
  }
  std::size_t steps = 0;
  for (;;) {
    std::optional<std::size_t> ref;
    for (std::size_t n = 0; n < nodes; ++n) {
      if (pending[n] && (!ref || *pending[n] < *pending[*ref])) ref = n;
    }
    if (!ref) break;
    ASSERT_FALSE(q.empty()) << "step " << steps;
    ASSERT_EQ(q.top().first, *pending[*ref]) << "step " << steps;
    ASSERT_EQ(q.top().second, *ref) << "step " << steps;
    if (rng.next_below(64) == 0) {
      pending[*ref].reset();
      q.pop();
    } else {
      *pending[*ref] += rng.next_below(3);
      q.replace_top({*pending[*ref], static_cast<NodeId>(*ref)});
    }
    ++steps;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(steps, nodes);
}

TEST(ReadyQueue, MatchesLinearScanAtOneFourAnd256Nodes) {
  for (const std::size_t nodes : {1u, 4u, 256u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << nodes << " nodes, seed " << seed);
      check_against_linear_scan(nodes, seed);
    }
  }
}

}  // namespace
}  // namespace lssim
