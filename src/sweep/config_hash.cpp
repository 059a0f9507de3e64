#include "sweep/config_hash.hpp"

#include <cstdio>

namespace lssim {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

class Fnv1a {
 public:
  void mix(std::uint64_t value) noexcept {
    // Hash all 8 bytes explicitly so the result is independent of host
    // endianness and of the caller's integer width.
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= kFnvPrime;
    }
  }
  void mix(std::string_view text) noexcept {
    // Length-prefixed so adjacent strings can't alias ("ab","c" vs
    // "a","bc").
    mix(static_cast<std::uint64_t>(text.size()));
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= kFnvPrime;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

/// Hash of the machine fields that fix the simulated hardware: node
/// count, page interleaving, cache geometry, latencies, consistency
/// model, topology and coherence transport.
std::uint64_t machine_hash(const MachineConfig& config) noexcept {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(config.num_nodes));
  h.mix(config.page_bytes);
  for (const CacheConfig* cache : {&config.l1, &config.l2}) {
    h.mix(cache->size_bytes);
    h.mix(cache->assoc);
    h.mix(cache->block_bytes);
  }
  const LatencyConfig& lat = config.latency;
  h.mix(lat.l1_access);
  h.mix(lat.l2_access);
  h.mix(lat.l2_readout);
  h.mix(lat.controller);
  h.mix(lat.memory);
  h.mix(lat.hop);
  h.mix(lat.fill);
  h.mix(lat.link_occupancy);
  h.mix(config.word_bytes);
  h.mix(static_cast<std::uint64_t>(config.consistency));
  h.mix(config.write_buffer_depth);
  h.mix(static_cast<std::uint64_t>(config.topology));
  h.mix(static_cast<std::uint64_t>(config.interconnect));
  h.mix(static_cast<std::uint64_t>(config.bus_arbitration));
  return h.value();
}

}  // namespace

std::string format_config_hash(std::uint64_t hash) {
  char buffer[2 + 16 + 1];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

bool parse_config_hash(std::string_view text, std::uint64_t* out) noexcept {
  if (text.size() >= 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
  }
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = value;
  return true;
}

std::uint64_t sweep_config_hash(
    const MachineConfig& config, std::string_view workload,
    const std::vector<std::pair<std::string, std::string>>& params,
    std::uint64_t seed) noexcept {
  Fnv1a h;
  h.mix(std::uint64_t{kSweepConfigHashVersion});
  // The hardware, hashed separately and mixed in as one word: that is
  // the schema-1 key layout, so folding it in would change every key.
  h.mix(machine_hash(config));
  // The protocol and its behavioural knobs, the directory organisation
  // and its knobs.
  const ProtocolConfig& p = config.protocol;
  h.mix(static_cast<std::uint64_t>(p.kind));
  h.mix(static_cast<std::uint64_t>(p.default_tagged));
  h.mix(p.tag_hysteresis);
  h.mix(p.detag_hysteresis);
  h.mix(static_cast<std::uint64_t>(p.keep_tag_on_lone_write));
  h.mix(static_cast<std::uint64_t>(p.ad_detag_on_replacement));
  h.mix(static_cast<std::uint64_t>(config.directory_scheme));
  h.mix(config.directory_pointers);
  h.mix(config.directory_region);
  h.mix(config.directory_entries);
  h.mix(static_cast<std::uint64_t>(config.classify_false_sharing));
  // What ran on the machine: workload, parameter overrides (in the
  // caller-supplied order — the sweep generator emits them sorted), seed.
  h.mix(workload);
  h.mix(static_cast<std::uint64_t>(params.size()));
  for (const auto& [key, value] : params) {
    h.mix(key);
    h.mix(value);
  }
  h.mix(seed);
  return h.value();
}

}  // namespace lssim
