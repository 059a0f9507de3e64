// Sweep-cell keys: which fields the hash covers, and one pinned key so
// an accidental change to the key layout fails here rather than only
// showing up as added/removed configs in a trend report.
#include "sweep/config_hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sweep/matrix.hpp"

namespace lssim {
namespace {

MachineConfig tiny_cfg(ProtocolKind kind = ProtocolKind::kBaseline) {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  cfg.l1 = CacheConfig{1024, 1, 16};
  cfg.l2 = CacheConfig{8192, 1, 16};
  cfg.protocol.kind = kind;
  return cfg;
}

std::uint64_t key(const MachineConfig& cfg) {
  return sweep_config_hash(cfg, "pingpong", {}, 1);
}

TEST(SweepConfigHash, CoversProtocolKnobs) {
  const std::uint64_t base = key(tiny_cfg());
  EXPECT_NE(key(tiny_cfg(ProtocolKind::kLs)), base);

  MachineConfig sparse = tiny_cfg();
  sparse.directory_scheme = DirectoryKind::kSparse;
  EXPECT_NE(key(sparse), base);

  MachineConfig tagged = tiny_cfg(ProtocolKind::kLs);
  tagged.protocol.default_tagged = true;
  EXPECT_NE(key(tagged), key(tiny_cfg(ProtocolKind::kLs)));

  MachineConfig hysteresis = tiny_cfg(ProtocolKind::kLs);
  hysteresis.protocol.tag_hysteresis = 2;
  EXPECT_NE(key(hysteresis), key(tiny_cfg(ProtocolKind::kLs)));
}

TEST(SweepConfigHash, CoversTimingAndGeometry) {
  const std::uint64_t base = key(tiny_cfg());

  MachineConfig bigger_l2 = tiny_cfg();
  bigger_l2.l2.size_bytes *= 2;
  EXPECT_NE(key(bigger_l2), base);

  MachineConfig slower_hop = tiny_cfg();
  slower_hop.latency.hop += 1;
  EXPECT_NE(key(slower_hop), base);

  MachineConfig more_nodes = tiny_cfg();
  more_nodes.num_nodes = 8;
  EXPECT_NE(key(more_nodes), base);
}

TEST(SweepConfigHash, CoversTransport) {
  const std::uint64_t base = key(tiny_cfg());
  MachineConfig bus = tiny_cfg();
  bus.interconnect = InterconnectKind::kBus;
  EXPECT_NE(key(bus), base);
  MachineConfig rr = bus;
  rr.bus_arbitration = BusArbitration::kRoundRobin;
  EXPECT_NE(key(rr), key(bus));
}

TEST(SweepConfigHash, PinnedCellKeyMatchesTheCheckedInBaseline) {
  // The first cell of bench/SWEEP_baseline.jsonl. Stores written by
  // earlier builds resume only while this key stays put.
  SweepAxes axes;
  axes.workloads = {"pingpong"};
  axes.protocols = {ProtocolKind::kBaseline};
  axes.directories = {DirectoryKind::kFullMap};
  axes.interconnects = {InterconnectKind::kNetwork};
  axes.node_counts = {2};
  axes.l1_sizes = {axes.base.l1.size_bytes};
  axes.l2_sizes = {axes.base.l2.size_bytes};
  axes.block_sizes = {axes.base.l1.block_bytes};
  axes.params = {{"rounds", "20"}};
  axes.seed = 1;
  SweepMatrix matrix;
  std::string error;
  ASSERT_TRUE(generate_sweep(axes, &matrix, &error)) << error;
  ASSERT_EQ(matrix.units.size(), 1u);
  EXPECT_EQ(matrix.units[0].label,
            "pingpong/Baseline/full-map/network/n2/l1=4096/l2=65536/b16");
  EXPECT_EQ(format_config_hash(matrix.units[0].config_hash),
            "0xe0ddff6bf4fe32bc");
}

}  // namespace
}  // namespace lssim
