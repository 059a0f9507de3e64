// Figure 6: Behavior of LU (256x256) at 4 processors.
//
// Paper reference points (normalized to Baseline = 100):
//   execution time: Baseline 100, AD 94, LS 84 (−16%)
//   traffic:        Baseline 100, AD ~89, LS ~80 (−20%)
//   read misses:    Baseline 100, AD 101, LS 101 (+1%)
//   write stall:    AD removes ~50%, LS removes ~85% (15% remains).
// Driver: false sharing between adjacent columns owned by different
// processors creates an "illusion of migratory behaviour" AD partially
// catches; LS also catches the non-migratory load-store sequences.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace lssim;

  const int jobs = bench::parse_jobs(argc, argv);
  LuParams params;  // 256x256 (paper configuration).
  const MachineConfig cfg = MachineConfig::scientific_default();

  const auto build = [&](System& sys) { build_lu(sys, params); };
  const auto results = bench::run_three(cfg, build, jobs);

  print_behavior_figure(std::cout, "LU (Figure 6)", results);
  bench::print_summary(results);
  std::printf("paper: exec 100/94/84, traffic 100/89/80, "
              "write stall -50%% (AD) / -85%% (LS)\n");
  return 0;
}
