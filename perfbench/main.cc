// perfbench: one shard of the repository's end-to-end benchmark (run.py runs
// several shards of a workload, one process each, and merges them).
//
//   perfbench --workload warm_hot|azure_mix|sim_fleet --seed N --seconds S
//             --trace 0|1 [--shard K]
//
// One workload per process, so peak RSS and warm caches never leak between
// workloads or shards. The shard number salts the seed. --trace 0 measures
// the end-to-end metrics with all tracing off; --trace 1 measures the
// per-layer metrics (and the tracing overhead). The last line of standard
// output is one JSON object; the exit code is non-zero when any output or
// ledger check failed.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {

void ZeroLayerMetrics(Report* report) {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"gateway.transport_ms", "ms"},      {"gateway.handle_self_ms", "ms"},
      {"gateway.batch_size_mean", "count"}, {"gateway.sheds", "count"},
      {"gateway.retries", "count"},         {"platform.invoke_self_ms", "ms"},
      {"node_pool.locks_per_request", "count"}, {"plan.decide_ms", "ms"},
      {"plan.lookup_ms", "ms"},             {"plan_cache.hit_ratio", "ratio"},
      {"plan.deploy_ms", "ms"},             {"transform.ms", "ms"},
      {"transform.count", "count"},         {"transform.success_ratio", "ratio"},
      {"transform.fallbacks", "count"},     {"load.ms", "ms"},
      {"load.count", "count"},              {"inference.ms", "ms"},
      {"placement.rerouted", "count"},      {"placement.rebalances", "count"},
      {"sim.pull_s", "s"},                  {"sim.cost_model_s", "s"},
      {"sim.cost_model_calls_per_req", "count"}, {"sim.core_s", "s"},
      {"warming.hit_ratio", "ratio"},       {"warming.waste_ratio", "ratio"},
      {"warming.orders", "count"},          {"loadgen.lag_p99_ms", "ms"},
      {"start.cold_frac", "ratio"},         {"start.transform_frac", "ratio"},
      {"trace.residual_ms", "ms"},          {"trace.overhead_p50_ms", "ms"},
      {"trace.overhead_rps", "1/s"},
  };
  for (const auto& [name, unit] : metrics) {
    report->Set(name, 0.0, unit);
  }
}

double PeakRssMb() {
  // VmHWM is this program's own high-water mark. getrusage's ru_maxrss is
  // not: Linux carries the launching process's peak across fork and exec.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload warm_hot|azure_mix|sim_fleet --seed N "
               "--seconds S --trace 0|1 [--shard K]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  uint64_t shard = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--shard") {
      shard = std::strtoull(value, nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0.0) {
    return Usage();
  }
  const uint64_t seed = args.seed;
  args.seed = seed * 1000003 + shard;
  Result result;
  try {
    if (args.workload == "warm_hot") {
      result = RunWarmHot(args);
    } else if (args.workload == "azure_mix") {
      result = RunAzureMix(args);
    } else if (args.workload == "sim_fleet") {
      result = RunSimFleet(args);
    } else {
      return Usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  const bool correct = result.violations.empty();
  for (size_t i = 0; i < result.violations.size() && i < 20; ++i) {
    std::fprintf(stderr, "VIOLATION %s: %s\n", args.workload.c_str(),
                 result.violations[i].c_str());
  }
  std::printf("%s %s seed=%llu shard=%llu: sent=%llu failed=%llu violations=%zu\n",
              args.workload.c_str(), args.trace ? "traced" : "untraced",
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(shard),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), result.violations.size());
  result.metrics.Print(args.trace ? "per-layer metrics" : "end-to-end metrics");
  std::printf("%s\n", result.metrics.Json(correct, result.attempted, result.failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
