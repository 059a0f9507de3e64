// The memory-system transaction engine: caches + directory + network
// glued into atomic, synchronously executed coherence transactions.
//
// This is the core of the reproduction. One protocol-agnostic engine
// implements the shared transaction mechanics (paper §2.1, §3.1): message
// legs, the directory state machine, invalidation fan-out and latency
// composition. Everything protocol-specific — when a block gets tagged or
// de-tagged, whether a read of a tagged block returns an exclusive
// (LStemp) copy, predictor training — is delegated to a CoherencePolicy
// (core/coherence_policy.hpp) resolved from the protocol registry:
// Baseline, AD, LS, ILS and the LS+AD hybrid all run through the exact
// same engine code.
//
// Because the simulated machine is sequentially consistent and processors
// stall on every L2 miss (paper §4.2), each access can be executed as one
// atomic transaction at its issue time: there are no transient directory
// states and no retries. Latency is composed from the Table 1 components;
// with default latencies an uncontended read costs exactly 100 (local),
// 220 (2-hop clean) or 420 (4-hop read-on-dirty) cycles.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/hierarchy.hpp"
#include "core/coherence_policy.hpp"
#include "core/directory.hpp"
#include "core/directory_policy.hpp"
#include "mem/address_space.hpp"
#include "net/interconnect.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"
#include "core/event_log.hpp"
#include "core/ils_predictor.hpp"
#include "stats/false_sharing.hpp"
#include "stats/ls_oracle.hpp"
#include "stats/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace lssim {

namespace check {
class InvariantChecker;  // src/check/invariants.hpp
}

/// Operation kinds a processor can issue. Atomic read-modify-writes are
/// single coherence transactions treated as writes (like SPARC ldstub /
/// swap), returning the old value.
enum class MemOpKind : std::uint8_t {
  kRead,
  kWrite,
  kSwap,
  kFetchAdd,
  kCas,
};

struct AccessRequest {
  MemOpKind op = MemOpKind::kRead;
  Addr addr = 0;
  unsigned size = 4;
  std::uint64_t wdata = 0;     ///< Store value / addend / CAS desired.
  std::uint64_t expected = 0;  ///< CAS expected value.
  StreamTag tag = StreamTag::kApp;
  /// Static access-site id (hash of the issuing source location); the
  /// simulator's stand-in for the program counter, used by kIls.
  std::uint32_t site = 0;

  [[nodiscard]] bool is_write() const noexcept {
    return op != MemOpKind::kRead;
  }
};

struct AccessResult {
  Cycles latency = 0;
  std::uint64_t value = 0;  ///< Loaded value (read) or old value (RMW).
  bool l1_hit = false;
  bool l2_hit = false;
  bool global = false;  ///< Transaction reached the home node.
};

class MemorySystem {
 public:
  /// `telemetry` (optional) attaches the observability layer's hot-path
  /// sinks: begin/end spans in the coherence trace and the tag-decision
  /// audit. Null (the default) keeps every hook to a single branch.
  /// Counts go to `stats` unconditionally.
  ///
  /// `policy_override` (optional) replaces the registry-resolved policy;
  /// the verification subsystem uses it to inject deliberately buggy
  /// policies (fault injection) without registering them.
  MemorySystem(const MachineConfig& config, AddressSpace& space,
               Stats& stats, Telemetry* telemetry = nullptr,
               std::unique_ptr<CoherencePolicy> policy_override = nullptr);
  ~MemorySystem();

  /// Executes one access atomically at simulated time `now`.
  AccessResult access(NodeId node, const AccessRequest& req, Cycles now);

  /// End-of-run bookkeeping: resolves deferred false-sharing
  /// classifications for lines still resident.
  void finalize();

  [[nodiscard]] const MachineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] LoadStoreOracle& oracle() noexcept { return oracle_; }
  /// The protocol policy driving this engine's tag/grant decisions.
  [[nodiscard]] CoherencePolicy& policy() noexcept { return *policy_; }
  /// ILS's per-node predictor tables; only valid when the active policy
  /// is instruction-centric (policy().ils_predictor() != nullptr).
  [[nodiscard]] IlsPredictor& predictor() noexcept {
    return *policy_->ils_predictor();
  }
  [[nodiscard]] const CoherencePolicy& policy() const noexcept {
    return *policy_;
  }
  [[nodiscard]] const EventLog& event_log() const noexcept { return log_; }
  [[nodiscard]] FalseSharingClassifier& classifier() noexcept { return fs_; }
  /// The coherence transport (directory network or snooping bus; see
  /// net/interconnect.hpp).
  [[nodiscard]] Interconnect& interconnect() noexcept { return *net_; }
  [[nodiscard]] Directory& directory() noexcept { return dir_; }
  [[nodiscard]] const Directory& directory() const noexcept { return dir_; }
  /// The directory organisation decoding this machine's sharer words.
  [[nodiscard]] const DirectoryPolicy& directory_policy() const noexcept {
    return *dirpol_;
  }
  [[nodiscard]] CacheHierarchy& cache(NodeId node) noexcept {
    return caches_[node];
  }
  [[nodiscard]] const CacheHierarchy& cache(NodeId node) const noexcept {
    return caches_[node];
  }

  /// Attaches (or detaches, with nullptr) the protocol invariant checker
  /// (src/check/invariants.hpp). Same null-gated pattern as telemetry:
  /// detached, the per-access cost is one pointer compare. The checker
  /// must outlive this engine or be detached first.
  void attach_checker(check::InvariantChecker* checker) noexcept {
    checker_ = checker;
  }

  /// Verifies directory/cache agreement (tests): sharer maps, owner
  /// states, inclusion. Returns true when all invariants hold.
  [[nodiscard]] bool check_coherence_invariants() const;

 private:
  // One protocol "leg": a message src -> dst paying one controller
  // traversal per endpoint crossing; same-node legs cost one controller
  // pass (the request stays inside the node).
  Cycles leg(NodeId src, NodeId dst, MsgType type, Cycles t);
  // Variant whose egress controller cost is folded into the preceding
  // cache readout (owner replies); free for same-node.
  Cycles leg_noegress(NodeId src, NodeId dst, MsgType type, Cycles t);

  Cycles do_read_miss(NodeId node, Addr block, Cycles now,
                      bool predicted_exclusive, std::uint32_t site);
  Cycles do_write_global(NodeId node, Addr block, Cycles now, bool upgrade);

  /// Invalidates every target's copy of `block` for `requester`'s write
  /// (or exclusive read). The directory at `home` issues the
  /// invalidations serially from `issue`; each target acks the requester.
  /// Returns the last ack's arrival (`issue` when there is none, and on a
  /// snooping transport, where the request broadcast already reached
  /// every cache).
  Cycles invalidate_targets(const SharerSet& targets, Addr block,
                            NodeId home, NodeId requester, Cycles issue);
  struct UpdateFanout {
    Cycles done = 0;      ///< Last update ack (or `issue`).
    SharerSet survivors;  ///< Targets that still hold a copy.
  };
  /// Dragon write-update: pushes `requester`'s new data to every target
  /// instead of invalidating it, with the timing of invalidate_targets.
  /// An Owned target downgrades to a plain (updated) sharer. Counts one
  /// update transaction of `targets.count()` updates.
  UpdateFanout update_targets(const SharerSet& targets, Addr block,
                              NodeId home, NodeId requester, Cycles issue);
  /// The owner's copy travels to `requester`: cache-to-cache on a
  /// snooping transport (memory snarfs the bus transfer), else via home
  /// (`wb_type` owner->home, memory update, `data_type` home->requester).
  Cycles owner_supplies(NodeId owner, NodeId home, NodeId requester,
                        MsgType wb_type, MsgType data_type, Cycles t);

  void handle_l2_victim(NodeId node, const CacheLine& victim, Cycles t);
  void invalidate_cached_copy(NodeId node, Addr block);

  /// Directory entry for `block` at the start of a global transaction.
  /// Under the sparse organisation this is where the bounded population
  /// is enforced: inserting a new block into a full table first evicts a
  /// victim entry (invalidating its cached copies).
  DirEntry& dir_entry_at(Addr block, Cycles now);
  void evict_directory_entry(Addr incoming, Cycles now);

  /// The one emission point for a coherence event: the event log, the
  /// actor's per-kind count in Stats and, for point events, a trace
  /// instant (docs/OBSERVABILITY.md has the kind -> sink table). The log
  /// and the trace are skipped when off.
  void emit(const ProtocolEvent& event);
  /// Completes transaction `kind` (read miss, write miss, upgrade): its
  /// trace span and its Stats::ownership_latency sample (issue -> grant).
  void close_txn(ProtoEventKind kind, NodeId node, Addr block, Cycles begin,
                 Cycles end);
  /// Tag-decision audit: records `entry`'s state AFTER the transition.
  void audit_event(TagAuditEvent event, TagReason reason,
                   const DirEntry& entry, Addr block, NodeId node) {
    if (audit_ != nullptr) {
      audit_->record(current_time_, block, node, event, reason,
                     entry.tag_progress, entry.detag_progress, entry.tagged);
    }
  }

  void tag_event(DirEntry& entry, TagReason reason, Addr block, NodeId node);
  void detag_event(DirEntry& entry, TagReason reason, Addr block,
                   NodeId node);
  /// Applies a policy decision through the tag/de-tag machinery. `reason`
  /// is the audit reason code of the rule that produced `action`;
  /// `block`/`node` identify the audited block and the node whose access
  /// caused the decision (requester, or evicting node for replacements).
  void apply_tag_action(TagAction action, DirEntry& entry, TagReason reason,
                        Addr block, NodeId node);

  [[nodiscard]] HomeStateAtMiss classify_home_state(Addr block,
                                                    const DirEntry& e) const;

  std::uint64_t apply_data(const AccessRequest& req);
  [[nodiscard]] std::uint64_t word_mask(const AccessRequest& req) const;

  MachineConfig cfg_;
  LatencyConfig lat_;
  AddressSpace& space_;
  Stats& stats_;
  /// The pluggable protocol policy (declared before dir_: the directory's
  /// default-tagged knob asks the policy whether tagging applies at all).
  std::unique_ptr<CoherencePolicy> policy_;
  /// Cached policy_->observes_accesses() so passive policies keep the
  /// L1-hit fast path free of virtual dispatch.
  bool policy_observes_accesses_ = false;
  /// The directory organisation (full-map, limited-ptr, coarse, sparse):
  /// owns the sharer-word encoding, resolves invalidation targets.
  std::unique_ptr<DirectoryPolicy> dirpol_;
  /// Sparse organisation's entry-population bound; 0 = unbounded.
  std::uint32_t dir_entry_limit_ = 0;
  /// The coherence transport (net/interconnect.hpp): the directory
  /// network or the snooping bus, per cfg_.interconnect.
  std::unique_ptr<Interconnect> net_;
  /// Cached net_->snoops(): on a snooping transport the engine skips the
  /// directed forward/invalidate/update legs — the request broadcast
  /// already reached every cache.
  bool snoops_ = false;
  /// Cached policy_->writes_update_sharers() (Dragon write-update).
  bool update_mode_ = false;
  /// Cached ProtocolConfig::trust_update_sharers (fault injection).
  bool trust_updates_ = false;
  Directory dir_;
  std::vector<CacheHierarchy> caches_;
  FalseSharingClassifier fs_;
  LoadStoreOracle oracle_;
  EventLog log_;
  // Observability (null when disabled; see src/telemetry/).
  CoherenceTrace* trace_ = nullptr;
  TagAuditLog* audit_ = nullptr;
  /// Invariant checker hook (null when verification is off).
  check::InvariantChecker* checker_ = nullptr;
  /// Cached cfg_.classify_false_sharing: gates the word-mask computation
  /// and classifier hooks out of the hot path in the common (off) case.
  bool fs_enabled_ = false;
  // Scratch: context of the in-flight access (for oracle/audit hooks).
  StreamTag current_tag_ = StreamTag::kApp;
  Cycles current_time_ = 0;
};

}  // namespace lssim
