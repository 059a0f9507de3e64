// Core-structure microbenchmarks (google-benchmark): throughput of the
// simulator's hot paths — cache lookup, directory access, full protocol
// transactions, network sends and the coroutine scheduler.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "lssim.hpp"

namespace {

using namespace lssim;

void BM_CacheLookupHit(benchmark::State& state) {
  Cache cache(CacheConfig{64 * 1024, 2, 32});
  for (Addr b = 0; b < 64 * 1024; b += 32) {
    (void)cache.insert(b, CacheState::kShared);
  }
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find(addr & ~Addr{31}));
    addr += 32;
    if (addr >= 32 * 1024) addr = 0;
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheInsertEvict(benchmark::State& state) {
  Cache cache(CacheConfig{4 * 1024, 1, 16});
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.insert(addr, CacheState::kShared));
    addr += 16;
  }
}
BENCHMARK(BM_CacheInsertEvict);

void BM_DirectoryEntry(benchmark::State& state) {
  Directory dir;
  Addr block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.entry(block & 0xffff0));
    block += 16;
  }
}
BENCHMARK(BM_DirectoryEntry);

void BM_NetworkSend(benchmark::State& state) {
  Stats stats(4);
  Network net(4, LatencyConfig{}, stats);
  Cycles now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.send(0, 1, MsgType::kReadReq, now));
    now += 50;
  }
}
BENCHMARK(BM_NetworkSend);

void BM_ProtocolL1Hit(benchmark::State& state) {
  MachineConfig cfg = MachineConfig::scientific_default();
  AddressSpace space(cfg.num_nodes, cfg.page_bytes);
  Stats stats(cfg.num_nodes);
  MemorySystem ms(cfg, space, stats);
  AccessRequest req;
  req.op = MemOpKind::kRead;
  req.addr = 64;
  req.size = 4;
  Cycles now = 0;
  (void)ms.access(0, req, now);
  for (auto _ : state) {
    now += 10;
    benchmark::DoNotOptimize(ms.access(0, req, now));
  }
}
BENCHMARK(BM_ProtocolL1Hit);

void BM_ProtocolMigratoryRmw(benchmark::State& state) {
  MachineConfig cfg = MachineConfig::scientific_default(ProtocolKind::kLs);
  AddressSpace space(cfg.num_nodes, cfg.page_bytes);
  Stats stats(cfg.num_nodes);
  MemorySystem ms(cfg, space, stats);
  Cycles now = 0;
  NodeId node = 0;
  for (auto _ : state) {
    AccessRequest req;
    req.addr = 128;
    req.size = 8;
    req.op = MemOpKind::kRead;
    now += 1000;
    (void)ms.access(node, req, now);
    req.op = MemOpKind::kWrite;
    now += 1000;
    benchmark::DoNotOptimize(ms.access(node, req, now));
    node = static_cast<NodeId>((node + 1) & 3);
  }
}
BENCHMARK(BM_ProtocolMigratoryRmw);

void BM_SchedulerPingPong(benchmark::State& state) {
  // Whole-stack throughput: accesses per second through coroutines,
  // scheduler, protocol and stats; System construction, the workload
  // build and teardown are untimed. The argument is the node count: 4
  // runs ping-pong; 64 and 256 run the private-RMW micro, whose coherence
  // work per access is constant, so a fall in items/s as nodes grow is
  // the scheduler's.
  const int nodes = static_cast<int>(state.range(0));
  const bool pingpong = nodes == 4;
  MachineConfig cfg =
      MachineConfig::scientific_default(ProtocolKind::kLs, nodes);
  if (!pingpong) cfg.directory_scheme = DirectoryKind::kLimitedPtr;
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sys = std::make_unique<System>(cfg);
    if (pingpong) {
      build_pingpong(*sys, PingPongParams{.rounds = 500, .counters = 2});
    } else {
      build_private_rmw(*sys,
                        PrivateRmwParams{.words_per_proc = 512, .sweeps = 1});
    }
    state.ResumeTiming();
    sys->run();
    benchmark::DoNotOptimize(sys->exec_time());
    accesses += sys->stats().accesses;
    state.PauseTiming();
    sys.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}
BENCHMARK(BM_SchedulerPingPong)
    ->Arg(4)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_WordMask(benchmark::State& state) {
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(word_mask_of(addr, 8, 256, 4));
    addr = (addr + 12) & 255;
  }
}
BENCHMARK(BM_WordMask);

}  // namespace
