// Sweep-cell key: a stable hash of everything that determines one
// simulation, used by the results store to skip completed cells.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/config.hpp"

namespace lssim {

/// Sweep-key schema version recorded in results-store headers. Version 1
/// covers everything below; bumping it (because a hashed field was
/// added) invalidates stored completion keys, which is the desired
/// behaviour — a key-layout change must force re-execution.
inline constexpr std::uint32_t kSweepConfigHashVersion = 1;

/// FNV-1a key identifying one sweep cell: the full machine configuration
/// (geometry, latencies, consistency, topology, transport, protocol and
/// directory knobs) plus the workload name, its parameter overrides and
/// the seed. Two sweep cells collide only if they would run the
/// identical simulation, so the results store can skip completed keys
/// on resume. Stable across runs and platforms (field-by-field,
/// little-endian widths); not stable across schema versions.
[[nodiscard]] std::uint64_t sweep_config_hash(
    const MachineConfig& config, std::string_view workload,
    const std::vector<std::pair<std::string, std::string>>& params,
    std::uint64_t seed) noexcept;

/// `hash` as the fixed-width lowercase hex string stored in results
/// files, e.g. "0x00c0ffee00c0ffee".
[[nodiscard]] std::string format_config_hash(std::uint64_t hash);

/// Inverse of format_config_hash (also accepts bare hex without the 0x
/// prefix). Returns false on junk.
bool parse_config_hash(std::string_view text, std::uint64_t* out) noexcept;

}  // namespace lssim
