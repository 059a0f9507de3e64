// Figure 5: invalidation traffic for Cholesky at 4, 16 and 32 processors.
//
// Paper reference points (per processor count, Baseline total = 100):
//   4p:  invalidations ~0% of overhead; Global Inv's dominate;
//        AD-4 = 100 (removes nothing), LS-4 = 6.
//   16p: invalidations 16% of total; AD-16 = 84, LS-16 = 44.
//   32p: invalidations 29% of total; AD-32 = 70, LS-32 = 44.
// Trend to reproduce: the invalidation share grows with P, and AD closes
// in on LS as migration (task-queue contention) appears.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace lssim;

  const int jobs = bench::parse_jobs(argc, argv);
  for (int procs : {4, 16, 32}) {
    CholeskyParams params;
    params.n = 600;
    params.bandwidth = 64;
    MachineConfig cfg = MachineConfig::scientific_default(
        ProtocolKind::kBaseline, procs);

    const auto build = [&](System& sys) { build_cholesky(sys, params); };
    std::vector<RunResult> results = bench::run_three(cfg, build, jobs);
    std::vector<std::string> labels;
    for (ProtocolKind kind : bench::kAllProtocols) {
      labels.push_back(std::string(to_string(kind)) + "-" +
                       std::to_string(procs));
    }
    print_invalidation_figure(std::cout,
                              "Cholesky @" + std::to_string(procs) + "p",
                              results, labels);
    const double inv_share =
        results[0].invalidations + results[0].ownership_acquisitions == 0
            ? 0.0
            : static_cast<double>(results[0].invalidations) /
                  static_cast<double>(results[0].invalidations +
                                      results[0].ownership_acquisitions);
    std::printf("invalidation share of ownership overhead (Baseline): %s\n\n",
                pct(inv_share).c_str());
  }
  std::printf("paper: share ~0%% @4p, 16%% @16p, 29%% @32p; "
              "AD 100/84/70, LS 6/44/44\n");
  return 0;
}
