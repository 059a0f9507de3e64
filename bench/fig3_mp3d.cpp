// Figure 3: Behavior of MP3D — execution time, network traffic and global
// read misses for Baseline / AD / LS.
//
// Paper reference points (normalized to Baseline = 100):
//   execution time: Baseline 100, AD 83, LS 77
//   traffic:        Baseline 100, AD 83, LS 76
//   read misses:    Baseline 100, AD 104, LS 105
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace lssim;

  const int jobs = bench::parse_jobs(argc, argv);
  Mp3dParams params;  // 10k particles, 10 steps (paper configuration).
  const MachineConfig cfg = MachineConfig::scientific_default();

  const auto build = [&](System& sys) { build_mp3d(sys, params); };
  const auto results = bench::run_three(cfg, build, jobs);

  print_behavior_figure(std::cout, "MP3D (Figure 3)", results);
  bench::print_summary(results);
  std::printf("paper: exec 100/83/77, traffic 100/83/76, "
              "read misses 100/104/105\n");
  return 0;
}
