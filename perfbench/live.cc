// The live workloads: the real gateway and platform in this process, driven
// over loopback sockets by at most kClients client threads.
//
//   warm_hot   a few tiny functions that stay warm after warm-up. Open-loop
//              Poisson phase, then a closed-loop phase. Gateway transport,
//              batcher and node lock do the work; planner, transformer and
//              loader sit idle.
//   azure_mix  an Azure-like skewed trace over 20 tiny functions on few
//              containers, so warm, transform and cold starts all serve a
//              share. Virtual time is the trace's own arrival time, handed to
//              the platform through the gateway's clock hook. A third of the
//              functions are deployed over POST /deploy during the open-loop
//              phase while the background rebalancer runs.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "perfbench/http_client.h"
#include "perfbench/workloads.h"
#include "src/gateway/service.h"
#include "src/graph/serialization.h"
#include "src/workload/azure.h"
#include "src/zoo/bert.h"
#include "src/zoo/mobilenet.h"
#include "src/zoo/resnet.h"

namespace perfbench {
namespace {

using optimus::Model;
using optimus::StartType;

constexpr int kClients = 4;   // nproc of the reference machine.
constexpr size_t kInputs = 4;  // Distinct input vectors per run.

struct Function {
  std::string name;
  std::function<Model()> build;
};

Function Cnn(const std::string& name, const std::string& family, double width,
             int64_t classes) {
  return {name, [family, width, classes] {
            if (family == "resnet18") {
              optimus::ResNetOptions options;
              options.width_multiplier = width;
              options.num_classes = classes;
              return optimus::BuildResNet(18, options);
            }
            optimus::MobileNetOptions options;
            options.width_multiplier = width;
            options.num_classes = classes;
            return optimus::BuildMobileNet(options);
          }};
}

Function Bert(const std::string& name, int layers, int64_t hidden, optimus::BertTask task) {
  return {name, [name, layers, hidden, task] {
            optimus::BertConfig config;
            config.name = name;
            config.num_layers = layers;
            config.hidden = hidden;
            config.heads = 2;
            config.intermediate = 4 * hidden;
            config.vocab_size = 2048;
            config.max_position = 128;
            config.task = task;
            return optimus::BuildBert(config);
          }};
}

// One request of the stream: which function, which input, and (azure_mix)
// the trace's virtual arrival time.
struct Op {
  size_t function = 0;
  size_t input = 0;
  double vtime = 0.0;
};

struct Spec {
  std::vector<Function> functions;
  size_t initial = 0;  // Deployed at setup; the rest are deployed mid-run.
  optimus::PlatformOptions platform;
  optimus::GatewayOptions gateway;
  bool virtual_time = false;
  double open_rate = 0.0;  // Offered wall rate of the open-loop phase (req/s).
  // Sequential requests before timing starts; their median latency is the
  // run's unloaded latency.
  size_t warmup_ops = 0;
  // The open loop's latency limit, as a multiple of the unloaded latency.
  // Set from the run rather than fixed in ms, attainment measures how much
  // load stretches latency; a host that is slower for a while slows the
  // unloaded requests alike. Chosen near the open loop's p95 on a calm host,
  // so a stretched tail shows.
  double slo_factor = 0.0;
  std::function<Op(size_t)> op;
  // Mid-run deploys: op index before which each late function is deployed.
  std::vector<std::pair<size_t, size_t>> late_deploys;  // (op index, function)
};

std::string Csv(const std::vector<float>& values, size_t limit) {
  // Same formatting as the gateway's response ("output=" line).
  std::ostringstream out;
  for (size_t i = 0; i < values.size() && i < limit; ++i) {
    out << (i > 0 ? "," : "") << values[i];
  }
  return out.str();
}

std::vector<float> ParseCsv(const std::string& csv) {
  std::vector<float> values;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    values.push_back(std::stof(token));
  }
  return values;
}

// Value of a "key=value" line of a gateway response body.
std::string Field(const std::string& body, const std::string& key) {
  const std::string lines = "\n" + body;
  const size_t at = lines.find("\n" + key + "=");
  if (at == std::string::npos) {
    return "";
  }
  const size_t begin = at + key.size() + 2;
  return lines.substr(begin, lines.find('\n', begin) - begin);
}

// What one served request returned.
struct OpInfo {
  size_t op = 0;
  bool ok = false;
  StartType start = StartType::kCold;
  double estimated_s = 0.0;
};

// Counters the platform already exports, read before and after a window.
struct Counters {
  optimus::PlatformCounters platform;
  uint64_t locks = 0;
  size_t rebalances = 0;
  size_t sheds = 0;
  size_t retries = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t batches = 0;
  double batched_requests = 0.0;
};

// One request a phase sent: an invoke of op `index`, or a deploy of
// function `index`.
struct Entry {
  bool deploy = false;
  size_t index = 0;
};

struct Phase {
  std::string name;
  bool open = false;
  bool traced = false;
  std::vector<Entry> entries;
  std::vector<Sample> samples;  // Sample::index is the position in `entries`.
  double elapsed_s = 0.0;
};

// Share of each window spent in the open-loop phase; the rest is closed loop.
constexpr double kOpenShare = 0.6;

class LiveBench {
 public:
  LiveBench(Spec spec, const Args& args) : spec_(std::move(spec)), args_(args) {
    optimus::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 17);
    for (size_t i = 0; i < kInputs; ++i) {
      std::vector<float> input;
      for (int j = 0; j < 8; ++j) {
        input.push_back(static_cast<float>(rng.UniformInt(1, 99)) / 100.0f);
      }
      input_csv_.push_back(Csv(input, input.size()));
    }
    ComputeReferences();
  }

  ~LiveBench() { Teardown(); }

  // Model build, server start, deploys (with plan-cache warming) and the
  // warm-up requests; returns its wall seconds.
  double Setup() {
    Teardown();
    const int64_t start = NowNs();
    std::vector<Model> models;
    for (const Function& function : spec_.functions) {
      models.push_back(function.build());
    }
    bodies_.clear();
    for (const Model& model : models) {
      const optimus::ModelFile file = optimus::SerializeModel(model);
      bodies_.emplace_back(file.begin(), file.end());
    }
    vtime_.store(0.0);
    std::function<double()> clock;
    if (spec_.virtual_time) {
      clock = [this] { return vtime_.load(std::memory_order_relaxed); };
    }
    service_ = std::make_unique<optimus::OptimusHttpService>(&costs_, spec_.platform,
                                                             spec_.gateway, clock);
    service_->platform().traces().set_sample_period(0);
    server_ = std::make_unique<optimus::HttpServer>();
    server_->Start(0, [this](const optimus::HttpRequest& request) { return Handle(request); },
                   kClients);
    deployed_ = std::make_unique<std::atomic<bool>[]>(spec_.functions.size());
    for (size_t f = 0; f < spec_.initial; ++f) {
      Deploy(f);
    }
    {
      std::lock_guard<std::mutex> lock(info_mutex_);
      infos_.clear();
    }
    std::vector<double> unloaded_ms;
    for (size_t k = 0; k < spec_.warmup_ops; ++k) {
      const int64_t sent = NowNs();
      if (Invoke(k) != Outcome::kOk) {
        Violation("warm-up request " + std::to_string(k) + " failed");
      }
      unloaded_ms.push_back(static_cast<double>(NowNs() - sent) * 1e-6);
    }
    unloaded_ms_ = Quantile(&unloaded_ms, 0.5);
    next_op_ = spec_.warmup_ops;
    return static_cast<double>(NowNs() - start) * 1e-9;
  }

  void Teardown() {
    if (server_ != nullptr) {
      server_->Stop();
    }
    server_.reset();
    service_.reset();
  }

  void SetTracing(bool on) {
    tracing_.store(on);
    service_->platform().traces().set_sample_period(on ? 1 : 0);
  }

  Phase OpenPhase(double seconds, uint64_t salt) {
    Phase phase;
    phase.name = "open";
    phase.open = true;
    phase.traced = tracing_.load();
    const std::vector<int64_t> offsets =
        PoissonOffsets(args_.seed * 1000003 + salt, spec_.open_rate, seconds);
    // A late deploy goes out just before the invoke with its op index; its
    // function sees no invoke until a gap later (see RunAzureMix).
    std::vector<int64_t> schedule;
    for (const int64_t offset : offsets) {
      const size_t op = next_op_++;
      for (const auto& [at, function] : spec_.late_deploys) {
        if (at == op) {
          schedule.push_back(offset);
          phase.entries.push_back({true, function});
        }
      }
      schedule.push_back(offset);
      phase.entries.push_back({false, op});
    }
    phase.samples = RunOpenLoop(schedule, kClients, [&](size_t i) {
      const Entry& entry = phase.entries[i];
      return entry.deploy ? Deploy(entry.index) : Invoke(entry.index);
    });
    phase.elapsed_s = static_cast<double>(schedule.empty() ? 0 : schedule.back()) * 1e-9;
    return phase;
  }

  Phase ClosedPhase(double seconds) {
    Phase phase;
    phase.name = "closed";
    phase.traced = tracing_.load();
    phase.samples =
        RunClosedLoop(kClients, seconds, next_op_, [&](size_t op) { return Invoke(op); });
    phase.elapsed_s = seconds;
    for (Sample& sample : phase.samples) {
      next_op_ = std::max(next_op_, sample.index + 1);
      phase.entries.push_back({false, sample.index});
      sample.index = phase.entries.size() - 1;
    }
    return phase;
  }

  Counters ReadCounters() {
    optimus::OptimusPlatform& platform = service_->platform();
    Counters counters;
    counters.platform = platform.counters();
    counters.locks = platform.NodeLockAcquisitions();
    counters.rebalances = platform.placement().Rebalances();
    counters.sheds = service_->Sheds();
    counters.retries = service_->Retries();
    counters.plan_hits = platform.metrics().GetCounter("optimus_plan_cache_hits_total").Value();
    counters.plan_misses =
        platform.metrics().GetCounter("optimus_plan_cache_misses_total").Value();
    const auto batch = platform.metrics().GetHistogram("optimus_batch_size").Snapshot();
    counters.batches = batch.count;
    counters.batched_requests = batch.sum_seconds;
    return counters;
  }

  // Checks the platform's books against what the clients saw: every
  // successful response is one start in /stats, by type.
  void CheckLedger() {
    HttpClient client(server_->port());
    const ClientResponse stats = client.Send("GET", "/stats");
    size_t seen[3] = {0, 0, 0};
    size_t failed = 0;
    {
      std::lock_guard<std::mutex> lock(info_mutex_);
      for (const OpInfo& info : infos_) {
        info.ok ? ++seen[static_cast<int>(info.start)] : ++failed;
      }
    }
    const auto stat = [&](const char* key) {
      return static_cast<size_t>(std::stoull("0" + Field(stats.body, key)));
    };
    const size_t warm = stat("warm"), transform = stat("transform"), cold = stat("cold");
    if (stats.status != 200 || warm != seen[0] || transform != seen[1] || cold != seen[2] ||
        stat("failed_invokes") > failed) {
      Violation("ledger: /stats warm+transform+cold=" + std::to_string(warm) + "+" +
                std::to_string(transform) + "+" + std::to_string(cold) + " vs client " +
                std::to_string(seen[0]) + "+" + std::to_string(seen[1]) + "+" +
                std::to_string(seen[2]));
    }
    std::printf("ledger: /stats warm+transform+cold = %zu+%zu+%zu = %zu; clients saw %zu "
                "succeeded\n",
                warm, transform, cold, warm + transform + cold, seen[0] + seen[1] + seen[2]);
  }

  std::vector<OpInfo> Infos() {
    std::lock_guard<std::mutex> lock(info_mutex_);
    std::vector<OpInfo> infos = infos_;
    std::sort(infos.begin(), infos.end(),
              [](const OpInfo& a, const OpInfo& b) { return a.op < b.op; });
    return infos;
  }

  // Drains the platform's request traces into spans linked under the
  // Handle span of the same request.
  std::vector<Span> TakeSpans(size_t* unmatched);

  // Median latency of the warm-up requests, sent one at a time.
  double unloaded_ms() const { return unloaded_ms_; }
  const Spec& spec() const { return spec_; }
  const std::vector<std::string>& violations() const { return violations_; }
  optimus::OptimusHttpService& service() { return *service_; }

 private:
  void ComputeReferences() {
    // Clean scratch loads, one function at a time on a platform of its own,
    // so the reference phase stays below the serving phase's peak RSS.
    optimus::PlatformOptions options;
    options.num_nodes = 1;
    options.containers_per_node = 1;
    options.warm_plan_cache = false;
    options.trace_sample_period = 0;
    for (const Function& function : spec_.functions) {
      optimus::OptimusPlatform reference(&costs_, options);
      reference.Deploy(function.name, function.build());
      std::vector<std::string> outputs;
      for (const std::string& csv : input_csv_) {
        outputs.push_back(Csv(reference.Invoke(function.name, ParseCsv(csv), 0.0).output, 8));
      }
      references_.push_back(std::move(outputs));
    }
  }

  // Deploys (a few per run, set-up included) are always timed; invokes and
  // admin routes only while tracing.
  optimus::HttpResponse Handle(const optimus::HttpRequest& request) {
    const bool deploy = request.path == "/deploy";
    if (!deploy && !tracing_.load(std::memory_order_relaxed)) {
      return service_->Handle(request);
    }
    Span span;
    span.start_ns = NowNs();
    optimus::HttpResponse response = service_->Handle(request);
    span.end_ns = NowNs();
    span.name = deploy ? "Deploy" : request.path == "/invoke" ? "Handle" : "Admin";
    const auto rid = request.query.find("rid");
    span.request = rid == request.query.end() ? 0 : std::stoull(rid->second);
    spans_.Add(std::move(span));
    return response;
  }

  static HttpClient& Client(uint16_t port) {
    thread_local std::unique_ptr<HttpClient> client;
    if (client == nullptr || client->port() != port) {
      client = std::make_unique<HttpClient>(port);
    }
    return *client;
  }

  Outcome Deploy(size_t function) {
    const ClientResponse response = Client(server_->port())
                                        .Send("POST", "/deploy?name=" + spec_.functions[function].name,
                                              bodies_[function]);
    if (response.status != 200) {
      Violation("deploy of " + spec_.functions[function].name + " failed: " + response.body);
      return Outcome::kFailed;
    }
    deployed_[function].store(true);
    return Outcome::kOk;
  }

  Outcome Invoke(size_t k) {
    const Op op = spec_.op(k);
    const Function& function = spec_.functions[op.function];
    // A late function's first invokes trail its deploy by a gap of ops;
    // should the deploy still be running, wait for it (bounded).
    for (int polls = 0; !deployed_[op.function].load() && polls < 50000; ++polls) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (spec_.virtual_time) {
      double now = vtime_.load();
      while (now < op.vtime && !vtime_.compare_exchange_weak(now, op.vtime)) {
      }
    }
    Span span;
    span.name = "client";
    span.request = k;
    span.start_ns = NowNs();
    const ClientResponse response =
        Client(server_->port())
            .Send("POST", "/invoke?name=" + function.name + "&rid=" + std::to_string(k),
                  input_csv_[op.input]);
    span.end_ns = NowNs();
    if (tracing_.load(std::memory_order_relaxed)) {
      spans_.Add(std::move(span));
    }
    OpInfo info;
    info.op = k;
    info.ok = response.status == 200;
    if (info.ok) {
      const std::string start = Field(response.body, "start");
      info.start = start == "Warm" ? StartType::kWarm
                   : start == "Transform" ? StartType::kTransform
                                          : StartType::kCold;
      info.estimated_s = std::stod("0" + Field(response.body, "estimated_latency"));
      if (Field(response.body, "output") != references_[op.function][op.input]) {
        Violation("request " + std::to_string(k) + " (" + function.name + ", " + start +
                  "): output " + Field(response.body, "output") + " differs from reference " +
                  references_[op.function][op.input]);
      }
    }
    {
      std::lock_guard<std::mutex> lock(info_mutex_);
      infos_.push_back(info);
    }
    if (response.status == 429) {
      return Outcome::kShed;
    }
    return info.ok ? Outcome::kOk : Outcome::kFailed;
  }

  void Violation(const std::string& what) {
    std::lock_guard<std::mutex> lock(info_mutex_);
    violations_.push_back(what);
  }

  Spec spec_;
  Args args_;
  optimus::AnalyticCostModel costs_;
  std::vector<std::string> input_csv_;
  std::vector<std::vector<std::string>> references_;  // [function][input] output line.
  std::vector<std::string> bodies_;                   // Serialized models.
  std::unique_ptr<optimus::OptimusHttpService> service_;
  std::unique_ptr<optimus::HttpServer> server_;
  std::unique_ptr<std::atomic<bool>[]> deployed_;
  std::atomic<double> vtime_{0.0};
  std::atomic<bool> tracing_{false};
  size_t next_op_ = 0;
  double unloaded_ms_ = 0.0;
  SpanLog spans_;
  std::mutex info_mutex_;
  std::vector<OpInfo> infos_;
  std::vector<std::string> violations_;
};

std::vector<Span> LiveBench::TakeSpans(size_t* unmatched) {
  std::vector<Span> spans = spans_.Take();
  // Handle spans per function (from the op stream), by start, for the join.
  std::unordered_map<std::string, std::vector<const Span*>> handles;
  for (const Span& span : spans) {
    if (span.name == "Handle") {
      handles[spec_.functions[spec_.op(span.request).function].name].push_back(&span);
    }
  }
  for (auto& [name, list] : handles) {
    std::sort(list.begin(), list.end(),
              [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });
  }
  *unmatched = 0;
  std::unordered_set<const Span*> claimed;
  uint64_t next_id = uint64_t{1} << 40;  // Clear of SpanLog ids.
  std::vector<Span> platform_spans;
  // Each platform trace joins the Handle span of its request: same function,
  // containing the gateway's request span. Traces go in order of their end,
  // each to the unclaimed container that ends first, so a long Handle that
  // overlaps a short one never takes the short one's trace.
  struct Traced {
    std::string function;
    std::vector<Span> spans;
    int64_t start_ns = 0;  // The gateway's request span; end -1 when absent.
    int64_t end_ns = -1;
  };
  std::vector<Traced> requests;
  for (const auto& trace : service_->platform().traces().Drain()) {
    Traced traced;
    traced.function = trace->root();
    for (const optimus::telemetry::TraceSpan& recorded : trace->spans()) {
      Span span;
      span.id = next_id++;
      span.name = recorded.category == "meta_op" ? "meta_op" : recorded.name;
      span.start_ns = static_cast<int64_t>(recorded.start_ns);
      span.end_ns = span.start_ns + static_cast<int64_t>(recorded.duration_ns);
      if (span.name == "request") {
        traced.start_ns = span.start_ns;
        traced.end_ns = span.end_ns;
      }
      traced.spans.push_back(std::move(span));
    }
    requests.push_back(std::move(traced));
  }
  std::sort(requests.begin(), requests.end(),
            [](const Traced& a, const Traced& b) { return a.end_ns < b.end_ns; });
  for (Traced& traced : requests) {
    const Span* handle = nullptr;
    const auto list = handles.find(traced.function);
    if (traced.end_ns >= 0 && list != handles.end()) {
      auto it = std::upper_bound(
          list->second.begin(), list->second.end(), traced.start_ns,
          [](int64_t start, const Span* span) { return start < span->start_ns; });
      for (int steps = 0; it != list->second.begin() && steps < 64; ++steps) {
        --it;
        if ((*it)->end_ns >= traced.end_ns && claimed.count(*it) == 0 &&
            (handle == nullptr || (*it)->end_ns < handle->end_ns)) {
          handle = *it;
        }
      }
    }
    if (handle == nullptr) {
      ++*unmatched;
      continue;
    }
    claimed.insert(handle);
    NestByContainment(&traced.spans, handle->id);
    for (Span& span : traced.spans) {
      span.request = handle->request;
      platform_spans.push_back(std::move(span));
    }
  }
  // Client spans are roots; a Handle hangs under the client span of its
  // request id.
  std::unordered_map<uint64_t, uint64_t> client_of;
  for (const Span& span : spans) {
    if (span.name == "client") {
      client_of[span.request] = span.id;
    }
  }
  for (Span& span : spans) {
    if (span.name == "Handle") {
      const auto client = client_of.find(span.request);
      span.parent = client == client_of.end() ? 0 : client->second;
    }
  }
  spans.insert(spans.end(), platform_spans.begin(), platform_spans.end());
  return spans;
}

// Metrics of one set of phases (the untraced or the traced half).
struct Window {
  std::vector<Sample> open;  // Every open-loop invoke sent; kOk when served.
  std::vector<Sample> closed;
  double closed_seconds = 0.0;
  std::vector<double> lag_ms;
  size_t ok = 0;
  size_t starts[3] = {0, 0, 0};
  std::vector<double> service_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<size_t> invoke_ops;
};

Window Summarize(const std::vector<Phase>& phases, const std::vector<OpInfo>& infos) {
  Window window;
  for (const Phase& phase : phases) {
    size_t sent = 0, ok = 0, failed = 0, shed = 0, deploys = 0;
    std::vector<double> lags;
    for (const Sample& sample : phase.samples) {
      const Entry& entry = phase.entries[sample.index];
      if (entry.deploy) {
        ++deploys;
        continue;
      }
      ++sent;
      window.invoke_ops.push_back(entry.index);
      const auto info = std::lower_bound(
          infos.begin(), infos.end(), entry.index,
          [](const OpInfo& a, size_t op) { return a.op < op; });
      const bool served = sample.outcome == Outcome::kOk && info != infos.end() &&
                          info->op == entry.index && info->ok;
      served ? ++ok : sample.outcome == Outcome::kShed ? ++shed : ++failed;
      if (served) {
        ++window.starts[static_cast<int>(info->start)];
        window.service_s.push_back(info->estimated_s);
      }
      if (phase.open) {
        lags.push_back(sample.LagMs());
        window.open.push_back(sample);
        if (!served && sample.outcome == Outcome::kOk) {
          window.open.back().outcome = Outcome::kFailed;
        }
      }
    }
    window.attempted += sent;
    window.failed += failed + shed;
    window.ok += ok;
    if (phase.open) {
      window.lag_ms.insert(window.lag_ms.end(), lags.begin(), lags.end());
    } else {
      for (const Sample& sample : phase.samples) {
        if (sample.outcome == Outcome::kOk) {
          window.closed.push_back(sample);
        }
      }
      window.closed_seconds = phase.elapsed_s;
    }
    std::printf("phase %-6s%s: sent=%zu succeeded=%zu failed=%zu shed=%zu deploys=%zu "
                "over %.2fs",
                phase.name.c_str(), phase.traced ? "(traced)" : "", sent, ok, failed, shed,
                deploys, phase.elapsed_s);
    if (phase.open) {
      std::vector<double> sorted = lags;
      std::printf(" lateness p50=%.3fms p99=%.3fms", Quantile(&sorted, 0.5),
                  Quantile(&sorted, TailQuantile(sorted.size(), 0.99)));
    }
    std::printf("\n");
  }
  return window;
}

// Open-loop latency and SLO attainment are each the best decile over
// windows of this many open-loop requests (pooled across shards), and
// closed-loop throughput the best decile over windows of this many seconds.
constexpr size_t kOpenWindow = 500;
constexpr double kRateWindowSeconds = 0.5;

double ServedMedianMs(const std::vector<const Sample*>& requests) {
  std::vector<double> latency;
  for (const Sample* sample : requests) {
    if (sample->outcome == Outcome::kOk) {
      latency.push_back(sample->LatencyMs());
    }
  }
  return Quantile(&latency, 0.5);
}

// Share of the requests sent that were served within the limit; a failed or
// shed request counts as a miss.
double WithinLimitShare(const std::vector<const Sample*>& requests, double limit_ms) {
  size_t within = 0;
  for (const Sample* sample : requests) {
    within += sample->outcome == Outcome::kOk && sample->LatencyMs() <= limit_ms ? 1 : 0;
  }
  return static_cast<double>(within) / static_cast<double>(std::max<size_t>(requests.size(), 1));
}

void EndToEnd(const Window& window, double slo_ms, double setup_s, Report* report) {
  std::vector<double> latency;
  for (const Sample& sample : window.open) {
    if (sample.outcome == Outcome::kOk) {
      latency.push_back(sample.LatencyMs());
    }
  }
  const double ok = static_cast<double>(std::max<size_t>(window.ok, 1));
  std::vector<double> service = window.service_s;
  double service_sum = 0.0;
  for (const double s : service) {
    service_sum += s;
  }
  const double tail_q = TailQuantile(latency.size(), 0.99);
  const double tail_ms = Quantile(&latency, tail_q);
  std::printf("open loop: n=%zu served of %zu sent; latency_p%g_ms = %.4f ms (printed, not in "
              "BENCHMARK.json); slo limit %.3f ms\n",
              latency.size(), window.open.size(), tail_q * 100.0, tail_ms, slo_ms);
  std::printf("closed loop: %zu served in %.2f s\n", window.closed.size(),
              window.closed_seconds);
  report->SetWindows("latency_p50_ms", PerWindow(window.open, kOpenWindow, ServedMedianMs),
                     kBestDecileLow, "ms");
  report->SetWindows("slo_attainment",
                     PerWindow(window.open, kOpenWindow,
                               [slo_ms](const std::vector<const Sample*>& requests) {
                                 return WithinLimitShare(requests, slo_ms);
                               }),
                     kBestDecileHigh, "ratio");
  report->SetWindows("throughput_rps",
                     RateWindows(window.closed, window.closed_seconds, kRateWindowSeconds),
                     kBestDecileHigh, "1/s");
  report->Set("warm_start_frac", static_cast<double>(window.starts[0]) / ok, "ratio");
  report->Set("service_mean_s", service_sum / ok, "s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  report->Set("setup_s", setup_s, "s");
  std::printf("start mix over %zu succeeded: cold_start_frac=%.4f transform_frac=%.4f; "
              "service_p99_s=%.6g\n",
              window.ok, static_cast<double>(window.starts[2]) / ok,
              static_cast<double>(window.starts[1]) / ok,
              Quantile(&service, TailQuantile(service.size(), 0.99)));
}

void Layers(LiveBench* bench, const Window& window, const Counters& before,
            const Counters& after, double overhead_p50_ms, double overhead_rps,
            Report* report) {
  size_t unmatched = 0;
  std::vector<Span> all = bench->TakeSpans(&unmatched);
  std::unordered_map<uint64_t, bool> timed;
  for (const size_t op : window.invoke_ops) {
    timed[op] = true;
  }
  std::vector<Span> spans;
  double deploy_ms = 0.0;
  size_t deploys = 0;
  for (Span& span : all) {
    if (span.name == "Deploy") {
      deploy_ms += static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
      ++deploys;
    } else if (span.name != "Admin" && timed.count(span.request) > 0) {
      spans.push_back(std::move(span));
    }
  }
  const std::map<std::string, int64_t> self = SelfTimeByName(spans);
  const double n = static_cast<double>(std::max<size_t>(window.invoke_ops.size(), 1));
  const auto per_request_ms = [&](std::initializer_list<const char*> names) {
    double ns = 0.0;
    for (const char* name : names) {
      const auto it = self.find(name);
      ns += it == self.end() ? 0.0 : static_cast<double>(it->second);
    }
    return ns * 1e-6 / n;
  };
  size_t loads = 0;
  for (const Span& span : spans) {
    loads += span.name == "scratch_load" ? 1 : 0;
  }
  const optimus::PlatformCounters& a = after.platform;
  const optimus::PlatformCounters& b = before.platform;
  const double transforms = static_cast<double>(a.transforms - b.transforms);
  const double transform_failures =
      static_cast<double>(a.transform_failures - b.transform_failures);
  const double hits = static_cast<double>(after.plan_hits - before.plan_hits);
  const double lookups = hits + static_cast<double>(after.plan_misses - before.plan_misses);
  const double prewarms = static_cast<double>(
      a.warming_prewarms_cold + a.warming_prewarms_transform - b.warming_prewarms_cold -
      b.warming_prewarms_transform);
  const double batches = static_cast<double>(after.batches - before.batches);
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  report->Set("gateway.transport_ms", per_request_ms({"client"}), "ms");
  report->Set("gateway.handle_self_ms", per_request_ms({"Handle", "request"}), "ms");
  report->Set("gateway.batch_size_mean",
              ratio(after.batched_requests - before.batched_requests, batches), "count");
  report->Set("gateway.sheds", static_cast<double>(after.sheds - before.sheds), "count");
  report->Set("gateway.retries", static_cast<double>(after.retries - before.retries), "count");
  report->Set("platform.invoke_self_ms", per_request_ms({"invoke"}), "ms");
  report->Set("node_pool.locks_per_request",
              static_cast<double>(after.locks - before.locks) / n, "count");
  report->Set("plan.decide_ms", per_request_ms({"decide"}), "ms");
  report->Set("plan.lookup_ms", per_request_ms({"plan_lookup"}), "ms");
  report->Set("plan_cache.hit_ratio", ratio(hits, lookups), "ratio");
  report->Set("plan.deploy_ms", ratio(deploy_ms, static_cast<double>(deploys)), "ms");
  report->Set("transform.ms", per_request_ms({"meta_op"}), "ms");
  report->Set("transform.count", transforms, "count");
  report->Set("transform.success_ratio", ratio(transforms, transforms + transform_failures),
              "ratio");
  report->Set("transform.fallbacks",
              static_cast<double>(a.transform_fallbacks - b.transform_fallbacks), "count");
  report->Set("load.ms", per_request_ms({"scratch_load"}), "ms");
  report->Set("load.count", static_cast<double>(loads), "count");
  report->Set("inference.ms", per_request_ms({"inference"}), "ms");
  report->Set("placement.rerouted",
              static_cast<double>(a.rerouted_invokes - b.rerouted_invokes), "count");
  report->Set("placement.rebalances", static_cast<double>(after.rebalances - before.rebalances),
              "count");
  report->Set("warming.hit_ratio",
              ratio(static_cast<double>(a.warming_hits - b.warming_hits), prewarms), "ratio");
  report->Set("warming.waste_ratio",
              ratio(static_cast<double>(a.warming_waste - b.warming_waste), prewarms), "ratio");
  report->Set("warming.orders", static_cast<double>(a.warming_orders - b.warming_orders),
              "count");
  std::vector<double> lags = window.lag_ms;
  report->Set("loadgen.lag_p99_ms", Quantile(&lags, TailQuantile(lags.size(), 0.99)), "ms");
  const double ok = static_cast<double>(std::max<size_t>(window.ok, 1));
  report->Set("start.cold_frac", static_cast<double>(window.starts[2]) / ok, "ratio");
  report->Set("start.transform_frac", static_cast<double>(window.starts[1]) / ok, "ratio");

  // The layers' self times must add up to what the clients observed, less
  // the generator's own lateness (open loop), which belongs to no layer.
  double client_ms = 0.0;
  size_t observed = 0;
  for (const Span& span : spans) {
    if (span.name == "client") {
      client_ms += static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
      ++observed;
    }
  }
  double lag_ms = 0.0;
  for (const double lag : window.lag_ms) {
    lag_ms += lag;
  }
  double layers_ms = 0.0;
  for (const auto& [name, ns] : self) {
    layers_ms += static_cast<double>(ns) * 1e-6 / n;
  }
  report->Set("trace.residual_ms", client_ms / n - layers_ms, "ms");
  std::printf("trace: observed mean %.4f ms = generator lateness %.4f + layer self times %.4f "
              "+ residual %.4f\n",
              (client_ms + lag_ms) / n, lag_ms / n, layers_ms, client_ms / n - layers_ms);
  report->Set("trace.overhead_p50_ms", overhead_p50_ms, "ms");
  report->Set("trace.overhead_rps", overhead_rps, "1/s");
  std::printf("trace: %zu invoke requests, %zu client spans, %zu platform traces unmatched, "
              "%llu dropped\n",
              window.invoke_ops.size(), observed, unmatched,
              static_cast<unsigned long long>(
                  bench->service().platform().traces().TracesDropped()));
}

Result RunLive(Spec spec, const Args& args) {
  Result result;
  LiveBench bench(std::move(spec), args);
  const double references_rss_mb = PeakRssMb();
  const double setup_s = bench.Setup();
  std::printf("unloaded latency %.4f ms (median of %zu sequential warm-up requests)\n",
              bench.unloaded_ms(), bench.spec().warmup_ops);
  const double slo_ms = bench.spec().slo_factor * bench.unloaded_ms();

  // Untraced: open loop (60% of the window) then closed loop (40%). Traced
  // run: the same pair untraced over half the window (the overhead
  // baseline), then traced over the other half.
  const double scale = args.trace ? args.seconds / 2.0 : args.seconds;
  const double open_s = kOpenShare * scale;
  const double closed_s = scale - open_s;
  std::vector<Phase> untraced;
  untraced.push_back(bench.OpenPhase(open_s, 1));
  untraced.push_back(bench.ClosedPhase(closed_s));
  const Window base = Summarize(untraced, bench.Infos());
  Report e2e;
  EndToEnd(base, slo_ms, setup_s, &e2e);
  result.attempted = base.attempted;
  result.failed = base.failed;
  if (!args.trace) {
    result.metrics = e2e;
  } else {
    bench.SetTracing(true);
    const Counters before = bench.ReadCounters();
    std::vector<Phase> traced;
    traced.push_back(bench.OpenPhase(open_s, 2));
    traced.push_back(bench.ClosedPhase(closed_s));
    const Counters after = bench.ReadCounters();
    bench.SetTracing(false);
    const Window window = Summarize(traced, bench.Infos());
    Report traced_e2e;
    EndToEnd(window, slo_ms, setup_s, &traced_e2e);
    ZeroLayerMetrics(&result.metrics);
    Layers(&bench, window, before, after,
           traced_e2e.Get("latency_p50_ms") - e2e.Get("latency_p50_ms"),
           traced_e2e.Get("throughput_rps") - e2e.Get("throughput_rps"), &result.metrics);
    result.attempted += window.attempted;
    result.failed += window.failed;
  }
  bench.CheckLedger();
  std::printf("peak_rss_mb: %.1f after the references, %.1f at the end\n", references_rss_mb,
              PeakRssMb());
  result.violations = bench.violations();
  return result;
}

}  // namespace

Result RunWarmHot(const Args& args) {
  Spec spec;
  spec.functions = {Cnn("resnet18", "resnet18", 0.25, 1000),
                    Cnn("mobilenet", "mobilenet", 0.25, 1000),
                    Bert("bert_sc", 2, 128, optimus::BertTask::kSequenceClassification),
                    Bert("bert_nsp", 2, 64, optimus::BertTask::kNextSentencePrediction)};
  spec.initial = spec.functions.size();
  spec.platform.num_nodes = 2;
  spec.platform.containers_per_node = 4;
  spec.platform.trace_capacity = 1 << 17;
  // An eighth of the closed loop's rate on a calm host, so a host running at
  // a third of its speed for a while (seen here) does not saturate it.
  spec.open_rate = 500.0;
  spec.slo_factor = 2.5;
  const size_t hot = spec.functions.size();
  spec.warmup_ops = hot * kInputs * 4;
  const uint64_t seed = args.seed;
  spec.op = [hot, seed, warmup = spec.warmup_ops](size_t k) {
    Op op;
    if (k < warmup) {
      op.function = k % hot;
      op.input = (k / hot) % kInputs;
      return op;
    }
    optimus::Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ (k * 0xbf58476d1ce4e5b9ULL));
    op.function = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(hot) - 1));
    op.input = static_cast<size_t>(rng.UniformInt(0, kInputs - 1));
    return op;
  };
  return RunLive(std::move(spec), args);
}

Result RunAzureMix(const Args& args) {
  using optimus::BertTask;
  Spec spec;
  spec.functions = {
      Cnn("resnet18", "resnet18", 0.25, 1000),
      Cnn("resnet18_c100", "resnet18", 0.25, 100),
      Cnn("resnet18_s", "resnet18", 0.125, 1000),
      Cnn("resnet18_s_c10", "resnet18", 0.125, 10),
      Cnn("mobilenet", "mobilenet", 0.25, 1000),
      Cnn("mobilenet_c100", "mobilenet", 0.25, 100),
      Cnn("mobilenet_s", "mobilenet", 0.125, 1000),
      Cnn("mobilenet_s_c10", "mobilenet", 0.125, 10),
      Bert("bert", 2, 128, BertTask::kNone),
      Bert("bert_sc", 2, 128, BertTask::kSequenceClassification),
      Bert("bert_tc", 2, 128, BertTask::kTokenClassification),
      Bert("bert_qa", 2, 128, BertTask::kQuestionAnswering),
      Bert("bert_nsp", 2, 128, BertTask::kNextSentencePrediction),
      Bert("bert_mc", 2, 128, BertTask::kMultipleChoice),
      Bert("bert_s", 2, 64, BertTask::kNone),
      Bert("bert_s_sc", 2, 64, BertTask::kSequenceClassification),
      Bert("bert_s_qa", 2, 64, BertTask::kQuestionAnswering),
      Bert("bert4_s", 4, 64, BertTask::kNone),
      Bert("bert4_s_sc", 4, 64, BertTask::kSequenceClassification),
      Bert("bert4_s_mc", 4, 64, BertTask::kMultipleChoice)};
  const size_t count = spec.functions.size();
  spec.initial = count - count / 3;
  spec.platform.num_nodes = 2;
  spec.platform.containers_per_node = 3;
  spec.platform.rebalance_interval = 7200.0;
  spec.platform.trace_capacity = 1 << 17;
  spec.virtual_time = true;
  // A fifth of the closed loop's rate on a calm host: at 800 req/s a host
  // running at half speed saturated the open loop (p50 1 ms -> 13 ms).
  spec.open_rate = 400.0;
  // Transform and cold starts, a third of the requests, take several times
  // the (warm) unloaded median.
  spec.slo_factor = 4.0;
  spec.warmup_ops = 400;

  std::vector<std::string> names;
  for (const Function& function : spec.functions) {
    names.push_back(function.name);
  }
  // The trace is fixed, as the paper replays one production trace; the seed
  // drives the send schedule and the inputs.
  optimus::AzureTraceOptions trace_options;
  trace_options.seed = 2024;
  trace_options.horizon_seconds = 7 * 24.0 * 3600;
  trace_options.peak_rate = 0.03;
  const optimus::Trace trace = optimus::GenerateAzureTrace(names, trace_options);
  std::unordered_map<std::string, size_t> index;
  for (size_t f = 0; f < count; ++f) {
    index[names[f]] = f;
  }
  // Late deploys spread over the first half of the first open-loop phase;
  // each late function sees no invoke for the next `gap` ops, which leaves
  // its deploy the time to finish.
  const double open_seconds = kOpenShare * (args.trace ? args.seconds / 2.0 : args.seconds);
  const size_t late = count - spec.initial;
  const size_t spacing =
      static_cast<size_t>(spec.open_rate * open_seconds / 2.0) / (late + 1);
  const size_t gap = std::max<size_t>(spacing / 2, 1);
  std::vector<size_t> available(count, 0);
  for (size_t f = spec.initial; f < count; ++f) {
    const size_t at = spec.warmup_ops + spacing * (f - spec.initial + 1);
    spec.late_deploys.emplace_back(at, f);
    available[f] = at + gap;
  }
  auto ops = std::make_shared<std::vector<Op>>();
  for (size_t i = 0; i < trace.size(); ++i) {
    const size_t f = index[trace[i].function];
    if (ops->size() >= available[f]) {
      ops->push_back({f, i % kInputs, trace[i].arrival});
    }
  }
  const double horizon = trace_options.horizon_seconds;
  spec.op = [ops, horizon](size_t k) {
    Op op = (*ops)[k % ops->size()];
    op.vtime += horizon * static_cast<double>(k / ops->size());
    return op;
  };
  std::printf("azure trace: %zu arrivals over %.0f virtual s, %zu functions (%zu late)\n",
              ops->size(), horizon, count, count - spec.initial);
  return RunLive(std::move(spec), args);
}

}  // namespace perfbench
