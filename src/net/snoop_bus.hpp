// Snooping shared bus (InterconnectKind::kBus).
//
// All nodes attach to one broadcast medium: every transaction a node
// places on the bus is observed by every other cache, so the directed
// forward/invalidate legs of the directory transaction become free snoop
// hits (snoops() == true; the engine skips those legs). The price is
// serialisation — the bus is a single resource, and a message departs
// only once the bus is free.
//
// Two arbitration disciplines are modelled (the shared-bus service
// disciplines of Nikolov & Lerato):
//
//   kFcfs       — grants in arrival order: depart = max(now, bus_free).
//   kRoundRobin — rotating priority: a grant that found the bus busy
//                 additionally waits for the rotation to walk from the
//                 last grantee to the requester (one cycle per position).
//                 An idle bus grants immediately, so both disciplines
//                 agree under no contention.
#pragma once

#include "net/interconnect.hpp"

namespace lssim {

class SnoopBus final : public Interconnect {
 public:
  SnoopBus(int num_nodes, const LatencyConfig& latency, Stats& stats,
           BusArbitration arbitration = BusArbitration::kFcfs);

  /// Broadcasts one message at time `now`; returns the time the
  /// transfer completes. The bus serialises: the message departs no
  /// earlier than the bus frees up (plus the rotation wait under
  /// round-robin when contended), occupies the bus for `link_occupancy`
  /// cycles, and completes `hop` cycles after departing. src == dst
  /// throws std::logic_error like Network::send, for the same reason.
  Cycles send(NodeId src, NodeId dst, MsgType type, Cycles now) override;

  /// Every attached node is one bus transfer away.
  [[nodiscard]] int hop_count(NodeId src, NodeId dst) const noexcept override {
    return src == dst ? 0 : 1;
  }

  [[nodiscard]] Cycles total_queueing() const noexcept override {
    return stats_.queue_delay.sum;
  }

  [[nodiscard]] int num_nodes() const noexcept override { return num_nodes_; }

  [[nodiscard]] bool snoops() const noexcept override { return true; }

  [[nodiscard]] BusArbitration arbitration() const noexcept {
    return arbitration_;
  }

 private:
  int num_nodes_;
  BusArbitration arbitration_;
  Cycles hop_;
  Cycles occupancy_;
  Cycles bus_free_ = 0;
  NodeId last_grantee_ = 0;
  Stats& stats_;
};

}  // namespace lssim
