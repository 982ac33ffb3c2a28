// The benchmark's workloads. Each runs in its own process (main.cc) and
// returns its end-to-end metrics (untraced run) or per-layer metrics (traced
// run) plus the outcome of its correctness checks.

#ifndef OPTIMUS_PERFBENCH_WORKLOADS_H_
#define OPTIMUS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/core.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Output mismatches and ledger violations; any entry fails the run.
  std::vector<std::string> violations;
  Report metrics;  // End-to-end (untraced run) or per-layer (traced run).
};

// Sets every per-layer metric, with its unit, to 0 in print order. Workloads
// then set the ones their layers produce.
void ZeroLayerMetrics(Report* report);

Result RunWarmHot(const Args& args);
Result RunAzureMix(const Args& args);
Result RunSimFleet(const Args& args);

// Peak resident set of this process so far.
double PeakRssMb();

}  // namespace perfbench

#endif  // OPTIMUS_PERFBENCH_WORKLOADS_H_
