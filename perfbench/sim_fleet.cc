// sim_fleet: the streaming simulator over a Poisson mix of many functions
// that alias a few zoo architectures, on a cluster sized so warm and
// transform starts are not swamped by cold starts, with forecast-driven
// warming on. Only the sim, workload, cost-model and warming layers run: no
// lock, socket or real tensor is touched.
//
// The same seeded simulation runs pass after pass until the window closes.
// Every pass must reproduce the first one exactly; throughput is the passes'
// simulated requests per wall second, and latency their wall time, each
// the best decile over passes.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "perfbench/workloads.h"
#include "src/sim/simulator.h"
#include "src/zoo/registry.h"

namespace perfbench {
namespace {

using namespace optimus;

// 500 functions over 8 architectures at the §8.1 class rates: ~15k requests
// per pass, about a second of simulation on one core.
constexpr size_t kFunctions = 500;
constexpr size_t kModels = 8;
constexpr double kHorizonSeconds = 2000.0;
constexpr double kSloSeconds = 1.0;  // Virtual service-time limit.

// Times every pull from the wrapped source.
class TimedSource final : public TraceSource {
 public:
  explicit TimedSource(TraceSource* inner) : inner_(inner) {}
  bool Next(Arrival* out) override {
    const int64_t start = NowNs();
    const bool more = inner_->Next(out);
    ns += NowNs() - start;
    return more;
  }
  double Horizon() const override { return inner_->Horizon(); }
  uint64_t SizeHint() const override { return inner_->SizeHint(); }

  int64_t ns = 0;

 private:
  TraceSource* inner_;
};

// Times and counts every primitive cost the simulator asks for.
class TimedCostModel final : public CostModel {
 public:
  explicit TimedCostModel(const CostModel& inner) : inner_(inner) {}

  double OpStructureCost(OpKind kind, const OpAttributes& attrs) const override {
    return Time([&] { return inner_.OpStructureCost(kind, attrs); });
  }
  double WeightAssignCost(int64_t bytes, int64_t tensor_count) const override {
    return Time([&] { return inner_.WeightAssignCost(bytes, tensor_count); });
  }
  double DeserializeCost(int64_t bytes) const override {
    return Time([&] { return inner_.DeserializeCost(bytes); });
  }
  double ReshapeCost(OpKind kind, const OpAttributes& src,
                     const OpAttributes& dst) const override {
    return Time([&] { return inner_.ReshapeCost(kind, src, dst); });
  }
  double ReduceCost() const override {
    return Time([&] { return inner_.ReduceCost(); });
  }
  double EdgeCost() const override {
    return Time([&] { return inner_.EdgeCost(); });
  }
  double ReplaceOverhead() const override {
    return Time([&] { return inner_.ReplaceOverhead(); });
  }

  mutable int64_t ns = 0;
  mutable uint64_t calls = 0;

 private:
  template <typename F>
  double Time(F&& call) const {
    const int64_t start = NowNs();
    const double cost = call();
    ns += NowNs() - start;
    ++calls;
    return cost;
  }

  const CostModel& inner_;
};

struct Fleet {
  std::vector<Model> models;
  FunctionTable functions;
  SimWorkload workload;
};

void BuildFleet(Fleet* fleet) {
  const ModelRegistry registry = RepresentativeModels();
  const std::vector<std::string> names = RepresentativeModelNames();
  for (size_t i = 0; i < kModels && i < names.size(); ++i) {
    fleet->models.push_back(registry.Build(names[i]));
  }
  PoissonProcessSource::Options intern_only;
  intern_only.horizon_seconds = 0.0;
  PoissonProcessSource source(&fleet->functions, kFunctions, "fn_", intern_only);
  fleet->workload.models = &fleet->models;
  fleet->workload.functions = &fleet->functions;
  for (size_t fn = 0; fn < kFunctions; ++fn) {
    fleet->workload.function_model.push_back(static_cast<int32_t>(fn % fleet->models.size()));
  }
}

// 320 containers for 500 functions: nodes fill, so idle containers become
// transform donors, and the busiest functions stay warm. A two-minute
// keep-alive lets middle-class functions (one arrival per ~100 s) lapse
// between arrivals, which is what the warming cycle (every minute, with a
// budget large enough to reach past the always-warm functions) predicts.
SimConfig FleetConfig() {
  SimConfig config;
  config.system = SystemType::kOptimus;
  config.num_nodes = 40;
  config.containers_per_node = 8;
  config.keep_alive = 120.0;
  config.placement.kind = BalancerKind::kModelSharing;
  config.records = RecordMode::kOff;
  // The reservoir keeps every service time of a pass (~15k), so latency
  // percentiles and the SLO share are exact, not read off 5% buckets.
  config.sample_capacity = 1 << 16;
  config.warming.enabled = true;
  config.warming.interval = 60.0;
  config.warming.budget.max_orders_per_cycle = 64;
  return config;
}

struct Pass {
  // Kept for the first pass only: a later pass is checked against it and
  // dropped, so peak RSS does not grow with the number of passes.
  SimResult result;
  double wall_s = 0.0;
  int64_t pull_ns = 0;
  int64_t cost_ns = 0;
  uint64_t cost_calls = 0;
};

Pass RunPass(Fleet* fleet, uint64_t seed, bool traced) {
  PoissonProcessSource::Options options;
  options.horizon_seconds = kHorizonSeconds;
  options.seed = seed;
  AnalyticCostModel costs;
  Pass pass;
  const int64_t start = NowNs();
  PoissonProcessSource source(&fleet->functions, kFunctions, "fn_", options);
  if (traced) {
    TimedSource timed_source(&source);
    TimedCostModel timed_costs(costs);
    pass.result = RunSimulationStream(fleet->workload, &timed_source, FleetConfig(), timed_costs);
    pass.pull_ns = timed_source.ns;
    pass.cost_ns = timed_costs.ns;
    pass.cost_calls = timed_costs.calls;
  } else {
    pass.result = RunSimulationStream(fleet->workload, &source, FleetConfig(), costs);
  }
  pass.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return pass;
}

bool SameOutcome(const SimResult& a, const SimResult& b) {
  const double a_mean = a.AvgServiceTime(), b_mean = b.AvgServiceTime();
  return a.total_requests == b.total_requests && a.start_counts == b.start_counts &&
         std::memcmp(&a_mean, &b_mean, sizeof(double)) == 0 &&
         a.service_hist.buckets() == b.service_hist.buckets() &&
         a.warming_orders == b.warming_orders && a.warming_hits == b.warming_hits &&
         a.warming_waste == b.warming_waste;
}

// Runs passes for `seconds` (at least two), checking each against the first.
std::vector<Pass> RunPasses(Fleet* fleet, uint64_t seed, double seconds, bool traced,
                            Result* out) {
  std::vector<Pass> passes;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (passes.size() < 2 || NowNs() < deadline) {
    passes.push_back(RunPass(fleet, seed, traced));
    if (!SameOutcome(passes.front().result, passes.back().result)) {
      out->violations.push_back("pass " + std::to_string(passes.size() - 1) +
                                " differs from pass 0 on the same seed");
    }
    out->attempted += passes.back().result.total_requests;
    if (passes.size() > 1) {
      passes.back().result = SimResult();
    }
  }
  return passes;
}

std::vector<double> PassRps(const std::vector<Pass>& passes) {
  std::vector<double> rps;
  for (const Pass& pass : passes) {
    rps.push_back(static_cast<double>(passes.front().result.total_requests) / pass.wall_s);
  }
  return rps;
}

std::vector<double> PassMs(const std::vector<Pass>& passes) {
  std::vector<double> ms;
  for (const Pass& pass : passes) {
    ms.push_back(pass.wall_s * 1e3);
  }
  return ms;
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

}  // namespace

Result RunSimFleet(const Args& args) {
  Result out;
  // Set-up (model build and function interning) is repeated; the median is
  // reported and the last fleet is simulated.
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < 21; ++i) {
    const int64_t start = NowNs();
    fleet = std::make_unique<Fleet>();
    BuildFleet(fleet.get());
    setups.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }

  const double window = args.trace ? args.seconds / 2.0 : args.seconds;
  const std::vector<Pass> passes = RunPasses(fleet.get(), args.seed, window, false, &out);
  const SimResult& sim = passes.front().result;
  const double rps = Median(PassRps(passes));

  uint64_t started = 0;
  for (const uint64_t count : sim.start_counts) {
    started += count;
  }
  if (started != sim.total_requests) {
    out.violations.push_back("start counts sum to " + std::to_string(started) + ", not " +
                             std::to_string(sim.total_requests) + " requests");
  }
  if (sim.WarmingPrewarms() != sim.warming_hits + sim.warming_waste + sim.warming_unused) {
    out.violations.push_back("prewarms != hits + waste + unused");
  }
  std::vector<double> service = sim.service_sample.Sorted();
  if (service.size() != sim.total_requests) {
    out.violations.push_back("the reservoir kept " + std::to_string(service.size()) + " of " +
                             std::to_string(sim.total_requests) + " service times");
  }
  const double within = static_cast<double>(
      std::upper_bound(service.begin(), service.end(), kSloSeconds) - service.begin());
  const double n = static_cast<double>(std::max<uint64_t>(sim.total_requests, 1));
  std::printf("sim_fleet: %zu functions over %zu models, %d nodes x %d containers; "
              "%llu requests per pass, %zu passes\n",
              kFunctions, fleet->models.size(), FleetConfig().num_nodes,
              FleetConfig().containers_per_node,
              static_cast<unsigned long long>(sim.total_requests), passes.size());
  std::printf("start mix: warm=%.4f transform=%.4f cold=%.4f; service_p50_s=%.6g "
              "service_p99_s=%.6g; warming orders=%zu prewarms=%zu hits=%zu waste=%zu "
              "unused=%zu\n",
              sim.FractionOf(StartType::kWarm), sim.FractionOf(StartType::kTransform),
              sim.FractionOf(StartType::kCold), Quantile(&service, 0.5),
              Quantile(&service, TailQuantile(service.size(), 0.99)),
              sim.warming_orders, sim.WarmingPrewarms(), sim.warming_hits, sim.warming_waste,
              sim.warming_unused);

  if (!args.trace) {
    Report& report = out.metrics;
    // The virtual p50 is one model's fixed warm service time on every seed,
    // so the latency a user of the simulator sees is the wall time of a pass.
    report.SetWindows("latency_p50_ms", PassMs(passes), kBestDecileLow, "ms");
    report.Set("slo_attainment", within / n, "ratio");
    report.SetWindows("throughput_rps", PassRps(passes), kBestDecileHigh, "1/s");
    report.Set("warm_start_frac", sim.FractionOf(StartType::kWarm), "ratio");
    report.Set("service_mean_s", sim.AvgServiceTime(), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("setup_s", Quantile(&setups, 0.5), "s");
    std::printf("sim_rps (= throughput_rps here) = %.1f simulated requests per wall second\n",
                rps);
    return out;
  }

  // Traced half: the same passes through timing decorators. Per-pass means
  // keep the layer times comparable however many passes fit the window.
  const std::vector<Pass> traced = RunPasses(fleet.get(), args.seed, window, true, &out);
  if (!SameOutcome(sim, traced.front().result)) {
    out.violations.push_back("the traced pass differs from the untraced one");
  }
  double wall = 0.0, pull = 0.0, cost = 0.0, calls = 0.0;
  for (const Pass& pass : traced) {
    wall += pass.wall_s;
    pull += static_cast<double>(pass.pull_ns) * 1e-9;
    cost += static_cast<double>(pass.cost_ns) * 1e-9;
    calls += static_cast<double>(pass.cost_calls);
  }
  const double count = static_cast<double>(traced.size());
  const double prewarms = static_cast<double>(sim.WarmingPrewarms());
  Report& report = out.metrics;
  ZeroLayerMetrics(&report);
  report.Set("sim.pull_s", pull / count, "s");
  report.Set("sim.cost_model_s", cost / count, "s");
  report.Set("sim.cost_model_calls_per_req", calls / count / n, "count");
  report.Set("sim.core_s", (wall - pull - cost) / count, "s");
  report.Set("warming.hit_ratio",
             prewarms > 0 ? static_cast<double>(sim.warming_hits) / prewarms : 0.0, "ratio");
  report.Set("warming.waste_ratio",
             prewarms > 0 ? static_cast<double>(sim.warming_waste) / prewarms : 0.0, "ratio");
  report.Set("warming.orders", static_cast<double>(sim.warming_orders), "count");
  report.Set("start.cold_frac", sim.FractionOf(StartType::kCold), "ratio");
  report.Set("start.transform_frac", sim.FractionOf(StartType::kTransform), "ratio");
  report.Set("trace.overhead_p50_ms", Median(PassMs(traced)) - Median(PassMs(passes)), "ms");
  report.Set("trace.overhead_rps", Median(PassRps(traced)) - rps, "1/s");
  std::printf("trace: pass wall %.4f s = pull %.4f + cost model %.4f + core %.4f\n",
              wall / count, pull / count, cost / count, (wall - pull - cost) / count);
  return out;
}

}  // namespace perfbench
