// Interconnection network with per-link contention.
//
// The paper's machine uses a fixed-delay point-to-point network
// (modelled as kCrossbar: one hop between any pair). As an extension the
// simulator also provides a unidirectional-capable ring and a 2D mesh
// with dimension-order routing — every physical link along a route is a
// serialising resource, so topology changes both latency (hop count)
// and contention behaviour. `bench/ablation_topology` quantifies how the
// LS/AD/Baseline comparison shifts with the network.
#pragma once

#include <cstdint>
#include <vector>

#include "net/interconnect.hpp"
#include "net/message.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"
#include "stats/stats.hpp"

namespace lssim {

class Network final : public Interconnect {
 public:
  Network(int num_nodes, const LatencyConfig& latency, Stats& stats,
          Topology topology = Topology::kCrossbar);

  /// Sends one message at time `now`; returns its arrival time at `dst`.
  ///
  /// The route's physical links serialise messages: on each hop the
  /// message departs no earlier than the link's free time, occupies the
  /// link for `link_occupancy` cycles, and arrives `hop` cycles after
  /// departing. Node-internal transfers are not messages: src == dst
  /// throws std::logic_error (before any statistic is touched) in every
  /// build type, since a self-send would silently inflate the message
  /// counts the figures are built from.
  Cycles send(NodeId src, NodeId dst, MsgType type, Cycles now) override;

  /// Number of physical hops between two nodes under this topology.
  [[nodiscard]] int hop_count(NodeId src, NodeId dst) const noexcept override;

  /// Total cycles messages spent queued behind busy links (diagnostics).
  [[nodiscard]] Cycles total_queueing() const noexcept override {
    return stats_.queue_delay.sum;
  }

  [[nodiscard]] int num_nodes() const noexcept override { return num_nodes_; }
  [[nodiscard]] Topology topology() const noexcept { return topology_; }

 private:
  /// Grid node id of the next router on the route toward `dst`
  /// (dimension-order for the mesh, shorter way round for the ring).
  [[nodiscard]] int next_router(int at, int dst) const noexcept;

  [[nodiscard]] Cycles& link_free(int from, int to) noexcept {
    return link_free_[static_cast<std::size_t>(from) *
                          static_cast<std::size_t>(routers_) +
                      static_cast<std::size_t>(to)];
  }

  int num_nodes_;
  Topology topology_;
  int mesh_w_ = 0;   ///< Mesh grid width (kMesh2D only).
  int routers_ = 0;  ///< Router count (grid may exceed num_nodes_).
  Cycles hop_;
  Cycles occupancy_;
  std::vector<Cycles> link_free_;
  Stats& stats_;
};

}  // namespace lssim
