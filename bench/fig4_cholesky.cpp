// Figure 4: Behavior of Cholesky at 4 processors.
//
// Paper reference points (normalized to Baseline = 100):
//   execution time: Baseline 100, AD 100, LS 69/70 (−30%)
//   traffic:        Baseline 100, AD 100, LS ~89 write-related −89%
//   read misses:    Baseline 100, AD ~100, LS ~98
// The signature result: AD removes essentially nothing at 4 processors
// (no migratory data), LS removes almost all ownership overhead.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace lssim;

  const int jobs = bench::parse_jobs(argc, argv);
  CholeskyParams params;  // n=600, bandwidth=64: footprint 300 kB >> L2.
  const MachineConfig cfg = MachineConfig::scientific_default();

  const auto build = [&](System& sys) { build_cholesky(sys, params); };
  const auto results = bench::run_three(cfg, build, jobs);

  print_behavior_figure(std::cout, "Cholesky (Figure 4)", results);
  bench::print_summary(results);
  std::printf("paper: exec 100/100/69, AD removes ~nothing at 4p, "
              "LS write traffic -89%%\n");
  return 0;
}
