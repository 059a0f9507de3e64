// Host-cost benchmark for lssim: what a user waits for per simulated
// access, end to end and per layer.
//
//   lssim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --out FILE [--tiny] [--work DIR]
//
// Writes one JSON document of raw measurements to FILE; perfbench/run.py
// checks the simulated results and reduces the timings to the metrics
// named in BENCHMARK.json (see perfbench/README.md).
//
// Every simulation starts from a freshly constructed System, so its
// caches, directory and network start empty. Set-up (System
// construction plus the workload builder) is timed apart from the run,
// and only the run counts towards wall time and the per-access rates.
//
// Timed pass (always): repeats the workload's simulations until the
// requested seconds are used. Each repetition sets simulations up in
// waves and runs each wave on up to `workers` host threads.
//
// Traced pass (--trace 1, after the timed pass): for each simulation,
// serially, an untraced run through run_sweep and a traced run, back to
// back. The traced run records the access stream with
// System::add_access_observer in chunks; each full chunk is replayed
// through a fresh MemorySystem::access and through standalone
// Cache::find, Directory::entry and AddressSpace::home_of batches. Spans
// are kept in memory and written to DIR at the end.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol_registry.hpp"
#include "exec/parallel_executor.hpp"
#include "lssim.hpp"
#include "sweep/matrix.hpp"
#include "sweep/results_store.hpp"
#include "sweep/runner.hpp"

namespace {

using namespace lssim;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Far above any benchmark simulation (LU under Baseline needs ~0.93e9
/// cycles); a run that reaches it has hung and counts as failed.
constexpr Cycles kWatchdogCycles = 100'000'000'000ULL;
/// Set-up is short and noisy: its median is taken over this many
/// set-ups of the whole workload.
constexpr int kSetupPasses = 15;
/// Records per replay chunk: bounds the trace buffer (32 B a record).
constexpr std::size_t kChunkRecords = std::size_t{1} << 20;
/// One access in this many is also timed on its own, for the per-class
/// latency percentiles.
constexpr std::uint64_t kSampleEvery = 64;
/// Messages per standalone Interconnect::send batch.
constexpr std::size_t kNetMessages = std::size_t{1} << 18;
/// Appends timed against a standalone ResultsStore.
constexpr std::size_t kStoreAppends = 256;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out;
  std::string work = ".";
};

bool parse_args(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--work") {
      args->work = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload.empty() || args->out.empty()) {
    *error = "--workload and --out are required";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Workloads. Each is a list of sweep axes (expanded by generate_sweep,
// so a cell here is the same machine the sweep CLI would build) plus the
// number of host threads its simulations run on.

struct Workload {
  std::vector<SweepAxes> axes;
  int workers = 1;
};

SweepAxes make_axes(std::vector<std::string> workloads,
                    std::vector<ProtocolKind> protocols,
                    std::vector<DirectoryKind> directories,
                    std::vector<InterconnectKind> interconnects, int nodes,
                    std::vector<std::pair<std::string, std::string>> params,
                    std::uint64_t seed) {
  SweepAxes axes;
  axes.workloads = std::move(workloads);
  axes.protocols = std::move(protocols);
  axes.directories = std::move(directories);
  axes.interconnects = std::move(interconnects);
  axes.node_counts = {nodes};
  axes.base = MachineConfig::scientific_default();
  axes.base.max_cycles = kWatchdogCycles;
  axes.l1_sizes = {axes.base.l1.size_bytes};
  axes.l2_sizes = {axes.base.l2.size_bytes};
  axes.block_sizes = {axes.base.l1.block_bytes};
  axes.params = std::move(params);
  axes.seed = seed;
  return axes;
}

bool make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   Workload* out) {
  using P = ProtocolKind;
  if (name == "lu-paper") {
    // Figure 6: LU 256x256, 4 nodes, full-map, network; Baseline/AD/LS.
    std::vector<std::pair<std::string, std::string>> params;
    if (tiny) params = {{"n", "32"}};
    out->axes.push_back(make_axes({"lu"}, {P::kBaseline, P::kAd, P::kLs},
                                  {DirectoryKind::kFullMap},
                                  {InterconnectKind::kNetwork}, 4, params,
                                  seed));
    out->workers = 1;
    return true;
  }
  if (name == "protocol-matrix") {
    // OLTP and MP3D x every registered protocol x two directory
    // organisations x both transports, at 4 nodes.
    const std::vector<DirectoryKind> dirs = {DirectoryKind::kFullMap,
                                             DirectoryKind::kLimitedPtr};
    const std::vector<InterconnectKind> ics = {InterconnectKind::kNetwork,
                                               InterconnectKind::kBus};
    std::vector<std::pair<std::string, std::string>> oltp;
    std::vector<std::pair<std::string, std::string>> mp3d;
    if (tiny) {
      oltp = {{"txns_per_proc", "20"}};
      mp3d = {{"particles", "200"}, {"steps", "2"}};
    }
    out->axes.push_back(
        make_axes({"oltp"}, all_protocol_kinds(), dirs, ics, 4, oltp, seed));
    out->axes.push_back(
        make_axes({"mp3d"}, all_protocol_kinds(), dirs, ics, 4, mp3d, seed));
    out->workers = std::min(4, default_jobs());
    return true;
  }
  if (name == "private-256") {
    // Private read-modify-writes at 256 nodes: no sharing, so coherence
    // work per access is constant and the scheduler's cost shows.
    const int nodes = tiny ? 16 : 256;
    const std::string words = tiny ? "256" : "4096";
    out->axes.push_back(make_axes(
        {"private"}, {P::kBaseline, P::kLs}, {DirectoryKind::kLimitedPtr},
        {InterconnectKind::kNetwork}, nodes,
        {{"words_per_proc", words}, {"sweeps", "1"}}, seed));
    out->workers = 1;
    return true;
  }
  return false;
}

struct Cell {
  SweepUnit unit;
  WorkloadBuilder build;
};

bool expand(const Workload& workload, std::vector<Cell>* cells,
            std::string* error) {
  for (const SweepAxes& axes : workload.axes) {
    SweepMatrix matrix;
    if (!generate_sweep(axes, &matrix, error)) return false;
    if (matrix.pruned_invalid != 0) {
      *error = "workload axes produced invalid machines";
      return false;
    }
    for (SweepUnit& unit : matrix.units) {
      DriverOptions options;
      options.workload = unit.workload;
      for (const auto& [key, value] : unit.params) options.params[key] = value;
      cells->push_back({std::move(unit), make_driver_builder(options)});
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Timed pass.

/// Cells set up at a time per worker: enough queued work that a worker
/// rarely idles at the end of a wave, few enough Systems alive at once
/// to keep memory small.
constexpr std::size_t kWavePerWorker = 4;

struct CellRun {
  double run_s = 0.0;
  bool ok = false;
  std::string error;
  RunResult result;
};

struct Rep {
  double wall_s = 0.0;  ///< Runs only; set-up between waves excluded.
  std::vector<CellRun> cells;
};

/// Runs every cell once: in waves, each wave set up first (untimed) and
/// then run on `workers` threads.
Rep timed_rep(const std::vector<Cell>& cells, int workers) {
  const std::size_t n = cells.size();
  const std::size_t wave =
      workers == 1 ? 1 : kWavePerWorker * static_cast<std::size_t>(workers);
  Rep rep;
  rep.cells.resize(n);
  for (std::size_t base = 0; base < n; base += wave) {
    const std::size_t count = std::min(wave, n - base);
    std::vector<std::unique_ptr<System>> systems(count);
    for (std::size_t k = 0; k < count; ++k) {
      const Cell& cell = cells[base + k];
      try {
        systems[k] =
            std::make_unique<System>(cell.unit.machine, cell.unit.seed);
        cell.build(*systems[k]);
      } catch (const std::exception& e) {
        rep.cells[base + k].error = std::string("set-up: ") + e.what();
        systems[k].reset();
      }
    }
    const auto start = Clock::now();
    parallel_for_index(count, workers, [&](std::size_t k) {
      if (!systems[k]) return;
      CellRun& run = rep.cells[base + k];
      try {
        const auto t0 = Clock::now();
        systems[k]->run();
        run.run_s = since(t0);
        run.ok = !systems[k]->timed_out();
        if (!run.ok) run.error = "max_cycles watchdog";
      } catch (const std::exception& e) {
        run.error = std::string("run: ") + e.what();
      }
    });
    rep.wall_s += since(start);
    for (std::size_t k = 0; k < count; ++k) {
      if (rep.cells[base + k].ok) {
        rep.cells[base + k].result = collect(*systems[k]);
      }
    }
    // Hand the wave's memory back, so that peak RSS measures the live
    // Systems rather than what the worker threads' malloc arenas retain.
    systems.clear();
    malloc_trim(0);
  }
  return rep;
}

/// System construction and workload build, each summed over the cells.
struct Setup {
  double ctor_s = 0.0;
  double build_s = 0.0;
};

/// Sets up every cell once, one System at a time, without running it.
Setup setup_pass(const std::vector<Cell>& cells) {
  Setup setup;
  for (const Cell& cell : cells) {
    try {
      const auto t0 = Clock::now();
      System sys(cell.unit.machine, cell.unit.seed);
      const auto t1 = Clock::now();
      cell.build(sys);
      setup.ctor_s += ns_between(t0, t1) * 1e-9;
      setup.build_s += since(t1);
    } catch (const std::exception&) {
      // The timed repetitions report this cell as failed.
    }
  }
  return setup;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------
// Traced pass.

/// A span around one call (or batch of calls) into a layer. `items`
/// counts the calls the span covers.
struct Span {
  std::string name;
  int sim = -1;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t items = 0;
};

class SpanLog {
 public:
  int begin(std::string name, int sim, int parent) {
    spans_.push_back({std::move(name), sim, parent, since(origin_), 0.0, 0});
    return static_cast<int>(spans_.size() - 1);
  }
  double end(int id, std::uint64_t items) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_s = since(origin_);
    span.items = items;
    return span.end_s - span.start_s;
  }
  /// Summed duration and items of every span named `name`.
  [[nodiscard]] std::pair<double, std::uint64_t> total(
      const std::string& name) const {
    double seconds = 0.0;
    std::uint64_t items = 0;
    for (const Span& span : spans_) {
      if (span.name == name) {
        seconds += span.end_s - span.start_s;
        items += span.items;
      }
    }
    return {seconds, items};
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Duration of an empty timed interval: what one pair of clock reads
/// adds to every individually timed call. The interquartile mean of 65536
/// samples: robust to interrupts, and finer than the clock's 1 ns tick.
double measure_clock_pair_ns() {
  std::vector<double> samples;
  samples.reserve(1 << 16);
  for (int i = 0; i < (1 << 16); ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    samples.push_back(ns_between(a, b));
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t q1 = samples.size() / 4;
  const std::size_t q3 = samples.size() - q1;
  double sum = 0.0;
  for (std::size_t i = q1; i < q3; ++i) sum += samples[i];
  return sum / static_cast<double>(q3 - q1);
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(values.size() - 1),
                       std::floor(q * static_cast<double>(values.size()))));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

struct Record {
  Addr addr = 0;
  Cycles now = 0;
  std::uint32_t latency = 0;
  std::uint32_t site = 0;
  std::uint16_t node = 0;
  MemOpKind op = MemOpKind::kRead;
  std::uint8_t size = 0;
  StreamTag tag = StreamTag::kApp;
};

/// A global transaction seen by the replay, kept for the standalone
/// Interconnect::send batch.
struct GlobalTxn {
  NodeId node = 0;
  NodeId home = 0;
  Cycles now = 0;
};

/// Totals the traced pass accumulates over every simulation.
struct LayerTotals {
  std::vector<double> l1_ns, l2_ns, global_ns;  ///< Sampled, net of clock.
  std::uint64_t latency_mismatches = 0;
  std::uint64_t sink = 0;  ///< Keeps standalone batches observable.
};

/// Replays a recorded access stream, chunk by chunk, through a fresh
/// memory system and the standalone layer functions.
class Replayer {
 public:
  Replayer(const MachineConfig& config, SpanLog& spans, LayerTotals& totals,
           double clock_pair_ns, int sim, int parent)
      : space_(config.num_nodes, config.page_bytes),
        stats_(config.num_nodes),
        memory_(config, space_, stats_),
        l1_(static_cast<std::size_t>(config.num_nodes), Cache(config.l1)),
        spans_(spans),
        totals_(totals),
        clock_pair_ns_(clock_pair_ns),
        sim_(sim),
        parent_(parent) {
    chunk_.reserve(kChunkRecords);
  }

  void record(NodeId node, const AccessRequest& req, Cycles now,
              Cycles latency) {
    chunk_.push_back({req.addr, now, static_cast<std::uint32_t>(latency),
                      req.site, static_cast<std::uint16_t>(node), req.op,
                      static_cast<std::uint8_t>(req.size), req.tag});
    if (chunk_.size() == kChunkRecords) flush();
  }

  /// Replays the buffered records and empties the buffer.
  void flush();

  /// Seconds spent inside flush() so far (excluded from the traced run).
  [[nodiscard]] double replay_s() const { return replay_s_; }
  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] MemorySystem& memory() { return memory_; }
  [[nodiscard]] const std::vector<GlobalTxn>& globals() const {
    return net_sample_;
  }

 private:
  AddressSpace space_;
  Stats stats_;
  MemorySystem memory_;
  // Standalone layer instances for the Directory::entry and Cache::find
  // batches (the run's L1 geometry, one cache per node).
  Directory directory_;
  std::vector<Cache> l1_;
  SpanLog& spans_;
  LayerTotals& totals_;
  double clock_pair_ns_;
  int sim_;
  int parent_;
  std::vector<Record> chunk_;
  std::vector<Addr> global_blocks_;
  std::vector<GlobalTxn> net_sample_;
  std::uint64_t seq_ = 0;
  double replay_s_ = 0.0;
};

void Replayer::flush() {
  if (chunk_.empty()) return;
  const auto flush_start = Clock::now();
  const int chunk = spans_.begin("replay.chunk", sim_, parent_);
  global_blocks_.clear();

  int span = spans_.begin("core.access", sim_, chunk);
  for (const Record& rec : chunk_) {
    AccessRequest req;
    req.op = rec.op;
    req.addr = rec.addr;
    req.size = rec.size;
    req.tag = rec.tag;
    req.site = rec.site;
    AccessResult res;
    if (seq_++ % kSampleEvery == 0) {
      const auto t0 = Clock::now();
      res = memory_.access(rec.node, req, rec.now);
      const auto t1 = Clock::now();
      const double ns = ns_between(t0, t1) - clock_pair_ns_;
      if (res.l1_hit) {
        totals_.l1_ns.push_back(ns);
      } else if (res.l2_hit) {
        totals_.l2_ns.push_back(ns);
      } else if (res.global) {
        totals_.global_ns.push_back(ns);
      }
    } else {
      res = memory_.access(rec.node, req, rec.now);
    }
    if (res.latency != rec.latency) totals_.latency_mismatches += 1;
    if (res.global) {
      const Addr block = l1_[rec.node].block_of(rec.addr);
      global_blocks_.push_back(block);
      if (net_sample_.size() < kNetMessages) {
        net_sample_.push_back(
            {static_cast<NodeId>(rec.node), space_.home_of(rec.addr),
             rec.now});
      }
    }
  }
  spans_.end(span, chunk_.size());

  // Cache::find: fill per-node caches of the run's L1 geometry with the
  // chunk's blocks (untimed), then time a batch of lookups over them.
  for (const Record& rec : chunk_) {
    Cache& cache = l1_[rec.node];
    const Addr block = cache.block_of(rec.addr);
    if (cache.find(block) == nullptr) {
      cache.insert_silent(block, CacheState::kShared);
    }
  }
  std::uint64_t hits = 0;
  span = spans_.begin("cache.find", sim_, chunk);
  for (const Record& rec : chunk_) {
    Cache& cache = l1_[rec.node];
    hits += cache.find(cache.block_of(rec.addr)) != nullptr ? 1 : 0;
  }
  spans_.end(span, chunk_.size());

  std::uint64_t tagged = 0;
  span = spans_.begin("directory.entry", sim_, chunk);
  for (const Addr block : global_blocks_) {
    tagged += directory_.entry(block).tagged ? 1 : 0;
  }
  spans_.end(span, global_blocks_.size());

  std::uint64_t homes = 0;
  span = spans_.begin("mem.home_of", sim_, chunk);
  for (const Record& rec : chunk_) homes += space_.home_of(rec.addr);
  spans_.end(span, chunk_.size());

  totals_.sink += hits + tagged + homes;
  chunk_.clear();
  spans_.end(chunk, 0);
  replay_s_ += since(flush_start);
}

/// Times Interconnect::send on `kind` over the replay's global
/// transactions, with message types drawn in the run's mix.
void time_send(const MachineConfig& config, InterconnectKind kind,
               const Stats& mix, const std::vector<GlobalTxn>& txns,
               SpanLog& spans, LayerTotals& totals, int sim, int parent) {
  const int nodes = config.num_nodes;
  std::uint64_t total = 0;
  for (const std::uint64_t count : mix.messages_by_type) total += count;
  if (nodes < 2 || total == 0 || txns.empty()) return;
  std::vector<MsgType> types;
  types.reserve(txns.size());
  for (int t = 0; t < kNumMsgTypes; ++t) {
    const auto share = static_cast<std::size_t>(std::llround(
        static_cast<double>(txns.size()) *
        static_cast<double>(mix.messages_by_type[static_cast<std::size_t>(t)]) /
        static_cast<double>(total)));
    types.insert(types.end(), share, static_cast<MsgType>(t));
  }
  types.resize(txns.size(), MsgType::kReadReq);
  Rng rng(0x5eedULL + static_cast<std::uint64_t>(sim));
  for (std::size_t i = types.size(); i > 1; --i) {
    std::swap(types[i - 1], types[rng.next_below(i)]);
  }

  MachineConfig cfg = config;
  cfg.interconnect = kind;
  Stats stats(nodes);
  const std::unique_ptr<Interconnect> net = make_interconnect(cfg, stats);
  const int span = spans.begin(kind == InterconnectKind::kBus
                                   ? "net.send.bus"
                                   : "net.send.network",
                               sim, parent);
  Cycles arrival = 0;
  for (std::size_t i = 0; i < txns.size(); ++i) {
    const GlobalTxn& txn = txns[i];
    const NodeId dst = txn.home != txn.node
                           ? txn.home
                           : static_cast<NodeId>((txn.node + 1) % nodes);
    arrival += net->send(txn.node, dst, types[i], txn.now);
  }
  spans.end(span, txns.size());
  totals.sink += arrival;
}

/// Whether two results agree on every counter the replay reproduces
/// (all but the scheduler-derived exec time and time breakdown).
bool replay_matches(const RunResult& timed, RunResult replayed) {
  replayed.exec_time = timed.exec_time;
  replayed.time = timed.time;
  return run_result_to_json(timed).dump() ==
         run_result_to_json(replayed).dump();
}

/// Set-up plus run of one simulation, traced: the access stream is
/// recorded and replayed chunk by chunk. Returns whether the replay
/// reproduced `timed` exactly; adds the queueing total to *queue_cycles
/// and the traced time, replay excluded, to *traced_s.
bool trace_sim(const Cell& cell, const RunResult& timed, int sim,
               SpanLog& spans, LayerTotals& totals, double clock_pair_ns,
               double* traced_s, std::uint64_t* queue_cycles) {
  const int root = spans.begin("sim " + cell.unit.label, sim, -1);
  Replayer replayer(cell.unit.machine, spans, totals, clock_pair_ns, sim,
                    root);
  const int run_span = spans.begin("machine.traced", sim, root);
  System sys(cell.unit.machine, cell.unit.seed);
  cell.build(sys);
  sys.add_access_observer([&replayer](NodeId node, const AccessRequest& req,
                                      Cycles now, Cycles latency) {
    replayer.record(node, req, now, latency);
  });
  sys.run();
  replayer.flush();
  *traced_s += spans.end(run_span, sys.stats().accesses) - replayer.replay_s();
  const Cycles queueing = sys.memory().interconnect().total_queueing();
  *queue_cycles += queueing;

  replayer.memory().finalize();
  const RunResult replayed = collect(cell.unit.machine, replayer.stats(),
                                     replayer.memory(), sys.exec_time());
  const bool agrees =
      !sys.timed_out() && replay_matches(timed, replayed) &&
      replay_matches(collect(sys), replayed) &&
      replayer.memory().interconnect().total_queueing() == queueing;

  for (const InterconnectKind kind :
       {InterconnectKind::kNetwork, InterconnectKind::kBus}) {
    time_send(cell.unit.machine, kind, replayer.stats(), replayer.globals(),
              spans, totals, sim, root);
  }
  spans.end(root, 0);
  return agrees;
}

/// Set-up plus run of one simulation with metrics, the event log and the
/// audit ring on.
double telemetry_on_s(const Cell& cell) {
  MachineConfig cfg = cell.unit.machine;
  cfg.telemetry.metrics = true;
  cfg.telemetry.audit_capacity = std::size_t{1} << 20;
  cfg.event_log_capacity = std::size_t{1} << 20;
  const auto t0 = Clock::now();
  System sys(cfg, cell.unit.seed);
  cell.build(sys);
  sys.run();
  return since(t0);
}

/// Appends records to a fresh store; returns the mean time per append.
double time_store_appends(const std::vector<Cell>& cells, const Rep& rep,
                          const std::string& path) {
  std::filesystem::remove(path);
  ResultsStore store;
  std::string error;
  if (!store.open(path, {}, &error)) {
    throw std::runtime_error("results store: " + error);
  }
  double seconds = 0.0;
  for (std::size_t k = 0; k < kStoreAppends; ++k) {
    const std::size_t i = k % cells.size();
    const SweepRecord record =
        make_sweep_record(cells[i].unit, rep.cells[i].result, 0.0);
    const auto t0 = Clock::now();
    if (!store.append(record, &error)) {
      throw std::runtime_error("results store: " + error);
    }
    seconds += since(t0);
  }
  std::filesystem::remove(path);
  return seconds / static_cast<double>(kStoreAppends);
}

Json::Object traced_pass(const std::vector<Cell>& cells,
                         const std::vector<Rep>& reps,
                         const std::vector<Setup>& setups, int workers,
                         double generate_s, const std::string& work_dir) {
  const double clock_pair_ns = measure_clock_pair_ns();
  const Rep& first = reps.front();
  std::filesystem::create_directories(work_dir);
  const std::string store_path = work_dir + "/store.jsonl";

  // Each simulation runs untraced, then traced, back to back so that
  // host drift between the two stays small. The untraced run goes
  // through the sweep runner on one worker: its per-unit wall time (set-up
  // included) is the untraced run time, and its stored result must equal
  // the timed one. The first LS simulation also runs with telemetry on.
  std::filesystem::remove(store_path);
  ResultsStore sweep_store;
  std::string error;
  if (!sweep_store.open(store_path, {}, &error)) {
    throw std::runtime_error("results store: " + error);
  }
  SweepRunOptions options;
  options.jobs = 1;

  SpanLog spans;
  LayerTotals totals;
  bool agrees = true;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double telemetry_off = 0.0;
  double telemetry_on = 0.0;
  std::uint64_t queue_cycles = 0;
  RunResult sum;
  LsOracleCounters ls_oracle;
  std::uint64_t ls_tagged = 0;
  std::uint64_t ls_detagged = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const RunResult& r = first.cells[i].result;
    SweepRunSummary summary;
    if (!run_sweep({cells[i].unit}, sweep_store, options, &summary, &error)) {
      throw std::runtime_error("run_sweep: " + error);
    }
    if (summary.executed != 1) {
      agrees = false;
      continue;
    }
    const SweepRecord& record = sweep_store.records().back();
    agrees = agrees && run_result_to_json(record.result).dump() ==
                           run_result_to_json(r).dump();
    untraced_s += record.wall_seconds;
    if (r.protocol == ProtocolKind::kLs && telemetry_on == 0.0) {
      telemetry_off = record.wall_seconds;
      telemetry_on = telemetry_on_s(cells[i]);
    }
    agrees = trace_sim(cells[i], r, static_cast<int>(i), spans, totals,
                       clock_pair_ns, &traced_s, &queue_cycles) &&
             agrees;
    sum.time += r.time;
    sum.accesses += r.accesses;
    sum.l1_hits += r.l1_hits;
    sum.l2_hits += r.l2_hits;
    sum.global_read_misses += r.global_read_misses;
    sum.global_write_actions += r.global_write_actions;
    sum.ownership_acquisitions += r.ownership_acquisitions;
    sum.eliminated_acquisitions += r.eliminated_acquisitions;
    sum.invalidations += r.invalidations;
    sum.traffic_total += r.traffic_total;
    if (r.protocol == ProtocolKind::kLs) {
      ls_oracle += r.oracle_total;
      ls_tagged += r.blocks_tagged;
      ls_detagged += r.blocks_detagged;
    }
  }
  agrees = agrees && totals.latency_mismatches == 0;
  std::filesystem::remove(store_path);

  const double append_s = time_store_appends(cells, first, store_path);

  // Spans go to disk only now, after every measurement.
  {
    std::ofstream out(work_dir + "/spans.jsonl");
    for (const Span& s : spans.spans()) {
      Json::Object o;
      o.emplace_back("name", Json(s.name));
      o.emplace_back("sim", Json(s.sim));
      o.emplace_back("parent", Json(s.parent));
      o.emplace_back("start_s", Json(s.start_s));
      o.emplace_back("end_s", Json(s.end_s));
      o.emplace_back("items", Json(s.items));
      out << Json(std::move(o)).dump() << '\n';
    }
  }

  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const auto per_item_ns = [&](const std::string& name) {
    const auto [seconds, items] = spans.total(name);
    return ratio(seconds * 1e9, static_cast<double>(items));
  };
  const double accesses = static_cast<double>(sum.accesses);
  const double global_txns =
      static_cast<double>(sum.global_read_misses + sum.global_write_actions);
  const double core_busy_s = spans.total("core.access").first;
  std::vector<double> efficiencies;
  for (const Rep& rep : reps) {
    double cells_s = 0.0;
    for (const CellRun& c : rep.cells) cells_s += c.run_s;
    efficiencies.push_back(ratio(cells_s, workers * rep.wall_s));
  }

  Json::Object m;
  const auto put = [&m](const char* name, double value) {
    m.emplace_back(name, Json(value));
  };
  std::vector<double> ctor_s;
  std::vector<double> build_s;
  std::vector<double> setup_s;
  for (const Setup& setup : setups) {
    ctor_s.push_back(setup.ctor_s);
    build_s.push_back(setup.build_s);
    setup_s.push_back(setup.ctor_s + setup.build_s);
  }
  // The untraced times include set-up, which is measured, so it comes off.
  put("machine.residual_ns_per_access",
      ratio((untraced_s - percentile(setup_s, 0.5) - core_busy_s) * 1e9,
            accesses));
  put("machine.system_ctor_s", percentile(ctor_s, 0.5));
  put("machine.busy_cycles", static_cast<double>(sum.time.busy));
  put("machine.read_stall_cycles", static_cast<double>(sum.time.read_stall));
  put("machine.write_stall_cycles",
      static_cast<double>(sum.time.write_stall));
  put("workloads.build_s", percentile(build_s, 0.5));
  put("core.busy_s", core_busy_s);
  put("core.ns_per_access", ratio(core_busy_s * 1e9, accesses));
  put("core.l1_hit_ns.p50", percentile(totals.l1_ns, 0.5));
  put("core.l1_hit_ns.p99", percentile(totals.l1_ns, 0.99));
  put("core.l2_hit_ns.p50", percentile(totals.l2_ns, 0.5));
  put("core.l2_hit_ns.p99", percentile(totals.l2_ns, 0.99));
  put("core.global_ns.p50", percentile(totals.global_ns, 0.5));
  put("core.global_ns.p99", percentile(totals.global_ns, 0.99));
  put("core.accesses", accesses);
  put("core.global_read_misses", static_cast<double>(sum.global_read_misses));
  put("core.global_write_actions",
      static_cast<double>(sum.global_write_actions));
  put("core.ownership_acquisitions",
      static_cast<double>(sum.ownership_acquisitions));
  put("core.eliminated_acquisitions",
      static_cast<double>(sum.eliminated_acquisitions));
  put("core.invalidations", static_cast<double>(sum.invalidations));
  put("core.ls_coverage", ratio(static_cast<double>(ls_oracle.eliminated_ls),
                                static_cast<double>(ls_oracle.ls_writes)));
  put("core.detag_ratio", ratio(static_cast<double>(ls_detagged),
                                static_cast<double>(ls_tagged)));
  put("cache.l1_hit_ratio", ratio(static_cast<double>(sum.l1_hits), accesses));
  put("cache.l2_hit_ratio",
      ratio(static_cast<double>(sum.l2_hits),
            accesses - static_cast<double>(sum.l1_hits)));
  put("cache.find_ns", per_item_ns("cache.find"));
  put("directory.entry_ns", per_item_ns("directory.entry"));
  put("mem.home_of_ns", per_item_ns("mem.home_of"));
  put("net.messages_per_global_txn",
      ratio(static_cast<double>(sum.traffic_total), global_txns));
  put("net.queue_cycles", static_cast<double>(queue_cycles));
  put("net.network_send_ns", per_item_ns("net.send.network"));
  put("net.bus_send_ns", per_item_ns("net.send.bus"));
  put("exec.parallel_efficiency", percentile(efficiencies, 0.5));
  put("sweep.generate_s", generate_s);
  put("sweep.store_append_ns", append_s * 1e9);
  put("telemetry.on_overhead_frac", ratio(telemetry_on, telemetry_off) - 1.0);
  put("bench.tracing_overhead_frac", ratio(traced_s, untraced_s) - 1.0);
  put("bench.replay_agrees", agrees ? 1.0 : 0.0);
  put("bench.clock_read_ns", clock_pair_ns);

  Json::Object samples;
  const auto count = [](const std::vector<double>& v) {
    return Json(static_cast<std::uint64_t>(v.size()));
  };
  samples.emplace_back("l1", count(totals.l1_ns));
  samples.emplace_back("l2", count(totals.l2_ns));
  samples.emplace_back("global", count(totals.global_ns));

  Json::Object out;
  out.emplace_back("metrics", Json(std::move(m)));
  out.emplace_back("latency_samples", Json(std::move(samples)));
  out.emplace_back("latency_mismatches", Json(totals.latency_mismatches));
  out.emplace_back("sink", Json(totals.sink));
  return out;
}

Json cell_run_to_json(const CellRun& run) {
  Json::Object o;
  o.emplace_back("run_s", Json(run.run_s));
  o.emplace_back("ok", Json(run.ok));
  o.emplace_back("error", Json(run.error));
  o.emplace_back("result",
                 run.ok ? run_result_to_json(run.result) : Json(nullptr));
  return Json(std::move(o));
}

int run(const Args& args) {
  Workload workload;
  if (!make_workload(args.workload, args.seed, args.tiny, &workload)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::vector<Cell> cells;
  std::string error;
  std::vector<double> generate_samples;
  for (int k = 0; k < 16; ++k) {
    std::vector<Cell> expanded;
    const auto t0 = Clock::now();
    if (!expand(workload, &expanded, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    generate_samples.push_back(since(t0));
    cells = std::move(expanded);
  }
  const double generate_s = percentile(generate_samples, 0.5);

  // Timed pass: whole repetitions while the next one fits in the budget.
  std::vector<Rep> reps;
  const auto start = Clock::now();
  do {
    reps.push_back(timed_rep(cells, workload.workers));
  } while (since(start) * (1.0 + 1.0 / static_cast<double>(reps.size())) <=
           args.seconds);
  const double rss_mb = peak_rss_mb();
  std::vector<Setup> setups;
  for (int k = 0; k < kSetupPasses; ++k) setups.push_back(setup_pass(cells));

  Json::Object doc;
  doc.emplace_back("workload", Json(args.workload));
  doc.emplace_back("seed", Json(args.seed));
  doc.emplace_back("tiny", Json(args.tiny));
  doc.emplace_back("workers", Json(workload.workers));
  Json::Array labels;
  for (const Cell& cell : cells) labels.emplace_back(cell.unit.label);
  doc.emplace_back("cells", Json(std::move(labels)));
  Json::Array rep_docs;
  for (const Rep& rep : reps) {
    Json::Object r;
    r.emplace_back("wall_s", Json(rep.wall_s));
    Json::Array runs;
    for (const CellRun& c : rep.cells) runs.push_back(cell_run_to_json(c));
    r.emplace_back("cells", Json(std::move(runs)));
    rep_docs.emplace_back(std::move(r));
  }
  doc.emplace_back("reps", Json(std::move(rep_docs)));
  Json::Array setups_doc;
  for (const Setup& setup : setups) {
    setups_doc.emplace_back(setup.ctor_s + setup.build_s);
  }
  doc.emplace_back("setup_samples", Json(std::move(setups_doc)));
  doc.emplace_back("peak_rss_mb", Json(rss_mb));

  bool all_ok = true;
  for (const Rep& rep : reps) {
    for (const CellRun& c : rep.cells) all_ok = all_ok && c.ok;
  }
  if (args.trace && all_ok) {
    doc.emplace_back("trace",
                     Json(traced_pass(cells, reps, setups, workload.workers,
                                      generate_s, args.work)));
  }

  std::ofstream out(args.out);
  out << Json(std::move(doc)).dump() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, &args, &error)) {
    std::fprintf(stderr, "lssim_perfbench: %s\n", error.c_str());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lssim_perfbench: %s\n", e.what());
    return 1;
  }
}
