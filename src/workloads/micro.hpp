// Micro-workloads with analytically predictable sharing patterns.
//
// Used by the test suite (protocol behaviour is assertable), by the
// quickstart example and by ablation benches. Each exercises one of the
// access patterns the paper discusses:
//   * ping-pong   — token-passing: counters incremented by processors in
//                   strict turn order — pure migratory sharing (AD and LS
//                   both optimize it). A `turn` word (its own block) is
//                   spin-read to serialize the rounds.
//   * private RMW — each processor sweeps read-modify-writes over its own
//                   region larger than L2: load-store sequences broken by
//                   capacity evictions with NO migration (only LS helps —
//                   the paper's Cholesky scenario).
//   * read-mostly — a region everyone reads, one writer updates it
//                   periodically (writes to read-shared data; mis-tagging
//                   risk, extra read misses under LS).
#pragma once

#include <cstdint>

#include "machine/system.hpp"

namespace lssim {

// Each micro workload takes a `sync` knob (default on): when set, the
// programs rendezvous on a spin barrier before their main loop. Turning
// it off (`sync = 0`) removes the only timing-dependent control flow in
// private-RMW and read-mostly, making their access streams independent
// of protocol-induced latencies (ping-pong stays feedback-sensitive
// regardless: its turn-word spin count depends on timing by design). It
// also skips the N-way barrier spin, which dominates short runs on large
// machines.

struct PingPongParams {
  int rounds = 1000;       ///< Turns per processor.
  int counters = 1;        ///< Migratory counters updated each turn.
  Cycles think_cycles = 40;
  int sync = 1;            ///< Spin-barrier rendezvous before the loop.
};
void build_pingpong(System& sys, const PingPongParams& params);

struct PrivateRmwParams {
  std::uint64_t words_per_proc = 16 * 1024;  ///< 128 kB per processor.
  int sweeps = 4;
  Cycles compute = 2;
  int sync = 1;  ///< 0 = feedback-insensitive (no spin barrier).
};
void build_private_rmw(System& sys, const PrivateRmwParams& params);

struct ReadMostlyParams {
  std::uint64_t words = 1024;
  int rounds = 200;
  int writes_per_round = 4;  ///< Writer updates this many words per round.
  Cycles compute = 4;
  int sync = 1;  ///< 0 = feedback-insensitive (no spin barrier).
};
void build_read_mostly(System& sys, const ReadMostlyParams& params);

}  // namespace lssim
