// Dir_iB limited-pointer directory (extension): real pointer storage in
// the sharer word, broadcast once the pointer budget overflows.
#include <gtest/gtest.h>

#include "core/directory_policy.hpp"
#include "protocol_test_util.hpp"

namespace lssim {
namespace {

MachineConfig limited_cfg(ProtocolKind kind, int pointers) {
  MachineConfig cfg = ProtocolFixture::tiny(kind);
  cfg.directory_scheme = DirectoryKind::kLimitedPtr;
  cfg.directory_pointers = static_cast<std::uint8_t>(pointers);
  return cfg;
}

std::uint64_t msgs(ProtocolFixture& f, MsgType type) {
  return f.stats().messages_by_type[static_cast<int>(type)];
}

/// Owner 1 holds `a` Owned; sharers {2, 3} overflow a single pointer, so
/// the believed set is a broadcast that covers the owner too.
Addr owned_with_overflowed_sharers(ProtocolFixture& f) {
  const Addr a = f.on_home(0);
  (void)f.write(1, a);
  (void)f.read(2, a);  // Read-on-dirty: owner 1 keeps the block Owned.
  (void)f.read(3, a);  // Second sharer overflows the one pointer.
  EXPECT_EQ(f.dir(a).state, DirState::kOwned);
  EXPECT_EQ(f.dir(a).owner, 1);
  EXPECT_TRUE(f.dir(a).imprecise);
  return a;
}

TEST(LimitedDir, WriteToOverflowedOwnedBlockInvalidatesOwnerOnce) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kMoesi, 1));
  const Addr a = owned_with_overflowed_sharers(f);
  const std::uint64_t invals = f.stats().invalidations_sent;
  const std::uint64_t inval_msgs = msgs(f, MsgType::kInval);
  const std::uint64_t ack_msgs = msgs(f, MsgType::kInvalAck);
  const std::uint64_t fwd_msgs = msgs(f, MsgType::kWriteFwd);
  (void)f.write(0, a);
  // The sharers {2, 3} are invalidated; the owner is reached only by the
  // forwarded write, which also removes its copy.
  EXPECT_EQ(f.stats().invalidations_sent - invals, 2u);
  EXPECT_EQ(msgs(f, MsgType::kInval) - inval_msgs, 2u);
  EXPECT_EQ(msgs(f, MsgType::kInvalAck) - ack_msgs, 2u);
  EXPECT_EQ(msgs(f, MsgType::kWriteFwd) - fwd_msgs, 1u);
  for (NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(f.state_of(n, a), CacheState::kInvalid) << "node " << n;
  }
  EXPECT_EQ(f.state_of(0, a), CacheState::kModified);
  EXPECT_TRUE(f.ms().check_coherence_invariants());
}

TEST(LimitedDir, UpdateToOverflowedOwnedBlockCountsOwnerOnce) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kDragon, 1));
  const Addr a = owned_with_overflowed_sharers(f);
  const std::uint64_t updates = f.stats().updates_sent;
  const std::uint64_t update_msgs = msgs(f, MsgType::kUpdate);
  (void)f.write(0, a);
  // Sharers {2, 3} get an update message each; the owner's update rides
  // on the forwarded write.
  EXPECT_EQ(f.stats().updates_sent - updates, 3u);
  EXPECT_EQ(msgs(f, MsgType::kUpdate) - update_msgs, 2u);
  EXPECT_EQ(f.state_of(1, a), CacheState::kShared);
  EXPECT_EQ(f.state_of(0, a), CacheState::kOwned);
  EXPECT_TRUE(f.ms().check_coherence_invariants());
}

TEST(LimitedDir, ExclusiveReadOfOverflowedOwnedBlockInvalidatesOwnerOnce) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kLsDragon, 1));
  const Addr a = owned_with_overflowed_sharers(f);
  (void)f.write(3, a);  // Last reader writes: tags; node 3 becomes owner.
  ASSERT_EQ(f.dir(a).state, DirState::kOwned);
  ASSERT_EQ(f.dir(a).owner, 3);
  ASSERT_TRUE(f.dir(a).tagged);
  ASSERT_TRUE(f.dir(a).imprecise);
  const std::uint64_t invals = f.stats().invalidations_sent;
  const std::uint64_t inval_msgs = msgs(f, MsgType::kInval);
  (void)f.read(0, a);  // Tagged: the block migrates exclusively.
  // Sharers {1, 2} are invalidated; the owner's copy goes with its
  // writeback.
  EXPECT_EQ(f.stats().invalidations_sent - invals, 2u);
  EXPECT_EQ(msgs(f, MsgType::kInval) - inval_msgs, 2u);
  for (NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(f.state_of(n, a), CacheState::kInvalid) << "node " << n;
  }
  EXPECT_EQ(f.state_of(0, a), CacheState::kLStemp);
  EXPECT_TRUE(f.ms().check_coherence_invariants());
}

TEST(LimitedDir, NoOverflowWithinPointerBudget) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 2));
  const Addr a = f.on_home(0);
  (void)f.read(0, a);
  (void)f.read(1, a);
  EXPECT_FALSE(f.dir(a).imprecise);
  (void)f.write(0, a);
  EXPECT_EQ(f.stats().messages_by_type[static_cast<int>(MsgType::kInval)],
            1u);  // Precise: only node 1 invalidated.
}

TEST(LimitedDir, OverflowTriggersBroadcastInvalidation) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 2));
  const Addr a = f.on_home(0);
  (void)f.read(0, a);
  (void)f.read(1, a);
  (void)f.read(2, a);  // Third sharer: pointers overflow.
  EXPECT_TRUE(f.dir(a).imprecise);
  (void)f.write(0, a);
  // Broadcast: invalidations to ALL other nodes (3 on a 4-node machine),
  // even node 3 which holds no copy.
  EXPECT_EQ(f.stats().messages_by_type[static_cast<int>(MsgType::kInval)],
            3u);
  EXPECT_EQ(f.state_of(1, a), CacheState::kInvalid);
  EXPECT_EQ(f.state_of(2, a), CacheState::kInvalid);
  EXPECT_EQ(f.state_of(0, a), CacheState::kModified);
  EXPECT_TRUE(f.ms().check_coherence_invariants());
}

TEST(LimitedDir, BelievedSharersMatchPointers) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 2));
  const Addr a = f.on_home(0);
  (void)f.read(3, a);
  (void)f.read(1, a);
  const DirectoryPolicy& dp = f.ms().directory_policy();
  const SharerSet believed = dp.believed_sharers(f.dir(a));
  EXPECT_EQ(believed.count(), 2);
  EXPECT_TRUE(believed.test(1));
  EXPECT_TRUE(believed.test(3));
  EXPECT_FALSE(believed.test(0));
}

TEST(LimitedDir, OverflowClearsOnceExclusive) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 1));
  const Addr a = f.on_home(0);
  (void)f.read(0, a);
  (void)f.read(1, a);
  EXPECT_TRUE(f.dir(a).imprecise);
  (void)f.write(2, a);  // Write miss: precise single owner again.
  EXPECT_FALSE(f.dir(a).imprecise);
  // Read-on-dirty rebuilds {owner, reader}: two sharers fit two pointers
  // but overflow a single one.
  (void)f.read(3, a);
  EXPECT_TRUE(f.dir(a).imprecise);
}

TEST(LimitedDir, ReadOnDirtyStaysPreciseWithTwoPointers) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 2));
  const Addr a = f.on_home(0);
  (void)f.write(2, a);
  (void)f.read(3, a);  // Owner downgrade: sharers {2, 3} fit 2 pointers.
  EXPECT_FALSE(f.dir(a).imprecise);
  (void)f.write(3, a);
  // Precise upgrade: only the other pointer (node 2) is invalidated.
  EXPECT_EQ(f.stats().messages_by_type[static_cast<int>(MsgType::kInval)],
            1u);
}

TEST(LimitedDir, OverflowBlindsAdDetection) {
  // AD needs the precise "one other copy == last writer" evidence, which
  // Dir_iB loses on overflow. LS's last-reader field needs no sharer
  // list, so it keeps working — an argument the LS design gets for free.
  ProtocolFixture f(limited_cfg(ProtocolKind::kAd, 2));
  const Addr a = f.on_home(0);
  (void)f.write(1, a);
  (void)f.read(2, a);  // Owner downgrade: sharers {1, 2} are precise...
  EXPECT_FALSE(f.dir(a).imprecise);
  (void)f.read(3, a);  // ...but the third sharer overflows.
  EXPECT_TRUE(f.dir(a).imprecise);
  (void)f.write(2, a);
  EXPECT_FALSE(f.dir(a).tagged);
}

TEST(LimitedDir, AdDetectionWorksWhilePrecise) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kAd, 2));
  const Addr a = f.on_home(0);
  (void)f.write(1, a);
  (void)f.read(2, a);  // {1, 2} precise; last_writer == 1.
  (void)f.write(2, a);  // Upgrade with migratory evidence: tags.
  EXPECT_TRUE(f.dir(a).tagged);
}

TEST(LimitedDir, LsTaggingSurvivesOverflow) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kLs, 1));
  const Addr a = f.on_home(0);
  (void)f.read(0, a);
  (void)f.read(1, a);
  (void)f.read(2, a);
  EXPECT_TRUE(f.dir(a).imprecise);
  (void)f.write(2, a);  // Writer == LR: LS tags despite the overflow.
  EXPECT_TRUE(f.dir(a).tagged);
}

TEST(LimitedDir, OverflowSurvivesReplacements) {
  // Real Dir_iB cannot learn from replacements once overflowed: the
  // pointer list is gone, so the entry stays imprecise (a broadcast
  // superset) even after every actual copy is evicted. The invariant
  // checker's superset rule permits exactly this.
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 1));
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  (void)f.read(2, a);
  EXPECT_TRUE(f.dir(a).imprecise);
  f.force_eviction(1, a);
  f.force_eviction(2, a);
  EXPECT_EQ(f.dir(a).state, DirState::kShared);
  EXPECT_TRUE(f.dir(a).imprecise);
  EXPECT_TRUE(f.ms().check_coherence_invariants());
  // The next writer re-precises the entry.
  (void)f.write(3, a);
  EXPECT_FALSE(f.dir(a).imprecise);
  EXPECT_EQ(f.dir(a).state, DirState::kDirty);
}

TEST(LimitedDir, PreciseReplacementReclaimsEntry) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 2));
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  (void)f.read(2, a);
  EXPECT_FALSE(f.dir(a).imprecise);
  f.force_eviction(1, a);
  f.force_eviction(2, a);
  EXPECT_EQ(f.dir(a).state, DirState::kUncached);
  EXPECT_FALSE(f.dir(a).imprecise);
}

}  // namespace
}  // namespace lssim
