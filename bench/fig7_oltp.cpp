// Figure 7: Behavior of OLTP (TPC-B-style, 40 branches).
//
// Paper reference points (normalized to Baseline = 100):
//   execution time: Baseline 100, AD 95, LS 87 (−13%)
//   traffic:        Baseline 100, AD 94, LS 85 (−15%)
//   read misses:    Baseline 100, AD ~100, LS 108 (+8%)
//   ~1.4 invalidations per write to shared blocks; busy time drops too
//   (less time in critical sections).
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace lssim;

  const int jobs = bench::parse_jobs(argc, argv);
  OltpParams params;  // 40 branches (paper configuration).
  const MachineConfig cfg = bench::oltp_bench_config();

  const auto build = [&](System& sys) { build_oltp(sys, params); };
  const auto results = bench::run_three(cfg, build, jobs);

  print_behavior_figure(std::cout, "OLTP (Figure 7)", results);
  bench::print_summary(results);
  std::printf("baseline invalidations per global write: %.2f "
              "(paper: ~1.4)\n",
              results[0].invalidations_per_write());
  std::printf("paper: exec 100/95/87, traffic 100/94/85, "
              "read misses 100/100/108\n");
  return 0;
}
