// Sweep configuration generator (ROADMAP item 4).
//
// Production-scale measurement means thousands of configurations, not
// one hand-picked snapshot. SweepAxes describes the cross-product —
// protocols × directory organisations × interconnects × node counts ×
// cache/block geometries × workloads — and generate_sweep() expands it
// into a deterministic, validity-pruned, filtered list of SweepUnits.
//
// Every combination is checked through MachineConfig::validate() (the
// same validator the driver uses), so impossible machines — a full-map
// directory past 64 nodes, an L1 larger than its L2, a non-power-of-two
// set count — are pruned instead of erroring mid-sweep. Units are keyed
// by sweep_config_hash (sweep/config_hash.hpp): the runner
// (sweep/runner.hpp) skips keys already present in the results store, so
// an interrupted sweep resumes without re-executing anything.
//
// Ordering contract: units come out workload-major, then protocol,
// directory, interconnect, node count, L1, L2, block size — and the
// order is what the runner appends in, so two generations from the same
// axes are byte-identical stores.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hpp"

namespace lssim {

/// One cell of the sweep matrix: a fully resolved machine + workload.
struct SweepUnit {
  /// Human-readable cell key, e.g.
  /// "pingpong/LS/full-map/network/n4/l1=4096/l2=65536/b16". Include and
  /// exclude filters match against this string.
  std::string label;
  std::string workload;
  /// Workload parameter overrides, sorted by key (part of the hash).
  std::vector<std::pair<std::string, std::string>> params;
  MachineConfig machine;
  std::uint64_t seed = 1;
  /// sweep_config_hash of the above — the results-store completion key.
  std::uint64_t config_hash = 0;
};

/// The cross-product description. Empty axis vectors are invalid (the
/// caller chooses at least one value per axis; the CLI defaults every
/// axis it doesn't set).
struct SweepAxes {
  std::vector<std::string> workloads;
  std::vector<ProtocolKind> protocols;
  std::vector<DirectoryKind> directories;
  std::vector<InterconnectKind> interconnects;
  std::vector<int> node_counts;
  std::vector<std::uint32_t> l1_sizes;
  std::vector<std::uint32_t> l2_sizes;
  /// Applied to both cache levels (the hierarchy is inclusive and the
  /// validator requires equal block sizes).
  std::vector<std::uint32_t> block_sizes;

  /// Template for fields the axes don't cover (latencies, directory
  /// knobs, bus arbitration, watchdog budget, ...).
  MachineConfig base;
  /// Workload parameter overrides applied to every unit (sorted into
  /// SweepUnit::params).
  std::vector<std::pair<std::string, std::string>> params;
  std::uint64_t seed = 1;

  /// Label filters: when `include` is non-empty a unit's label must
  /// contain at least one of the substrings; a label containing any
  /// `exclude` substring is dropped. Applied after validity pruning.
  std::vector<std::string> include;
  std::vector<std::string> exclude;
};

/// generate_sweep() output: the surviving units plus what was dropped,
/// so callers can report coverage honestly (a sweep that silently
/// pruned half its matrix reads as "covered everything" when it didn't).
struct SweepMatrix {
  std::vector<SweepUnit> units;
  std::size_t combinations = 0;    ///< Size of the raw cross-product.
  std::size_t pruned_invalid = 0;  ///< Dropped by MachineConfig::validate().
  std::size_t filtered_out = 0;    ///< Dropped by include/exclude filters.
};

/// Expands the cross-product. Returns false and sets `*error` on an
/// empty axis or an unknown workload name; pruning and filtering are
/// never errors.
bool generate_sweep(const SweepAxes& axes, SweepMatrix* out,
                    std::string* error);

}  // namespace lssim
