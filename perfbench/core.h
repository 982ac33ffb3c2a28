// Benchmark-side logic shared by every workload: spans and their self-time
// reduction, the percentile rules, open- and closed-loop load generation, and
// the metric report. Nothing here drives the platform, so tests exercise it
// with fake senders and hand-built spans.

#ifndef OPTIMUS_PERFBENCH_CORE_H_
#define OPTIMUS_PERFBENCH_CORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Wall nanoseconds on the platform's trace clock (telemetry::MonotonicNanos),
// so benchmark spans and platform spans share one time axis.
int64_t NowNs();

// One timed interval. `parent` is the id of the span that caused it (0 for a
// root); spans of one request share `request`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Thread-safe span sink; ids are assigned on Add.
class SpanLog {
 public:
  uint64_t Add(Span span);
  std::vector<Span> Take();

 private:
  std::mutex mutex_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

// Per-name self time: each span's duration minus the part of it its
// children cover (overlapping children are counted once; a child's time
// outside its parent is not subtracted). Returns name -> summed self ns.
std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans);

// Links spans recorded without parents (one request's platform spans) by
// interval containment: each span's parent becomes the innermost earlier
// span that contains it, or `root_parent` when none does.
void NestByContainment(std::vector<Span>* spans, uint64_t root_parent);

// Quantile q of `values` (sorted in place), linearly interpolated.
double Quantile(std::vector<double>* values, double q);

// The highest quantile, no higher than `max_q`, that has at least ten of
// `n` samples beyond it (n * (1 - q) >= 10); 0.5 when even the median has
// fewer. Candidates: 0.999, 0.99, 0.95, 0.9, 0.5.
double TailQuantile(size_t n, double max_q);

enum class Outcome { kOk, kFailed, kShed };

// One request as the load generator saw it. Latency counts from the
// scheduled send time, so a stall also delays every request queued behind it.
struct Sample {
  size_t index = 0;  // The request index handed to the sender.
  int64_t scheduled_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  Outcome outcome = Outcome::kOk;

  double LatencyMs() const { return static_cast<double>(done_ns - scheduled_ns) * 1e-6; }
  double LagMs() const { return static_cast<double>(sent_ns - scheduled_ns) * 1e-6; }
};

// Sends request `index`; must be thread-safe.
using Sender = std::function<Outcome(size_t index)>;

// Open loop: request i is due at start + offsets_ns[i] whatever the state of
// earlier requests; `workers` connections take requests in order, so a
// request waits when all of them are busy. Returns one sample per offset.
std::vector<Sample> RunOpenLoop(const std::vector<int64_t>& offsets_ns, int workers,
                                const Sender& send);

// Closed loop: `workers` clients each send their next request as soon as the
// previous one completes, until `seconds` have passed. Request indices start
// at `first_index`. Samples are in completion order.
std::vector<Sample> RunClosedLoop(int workers, double seconds, size_t first_index,
                                  const Sender& send);

// The samples, in scheduled order, cut into as many consecutive windows of
// at least `window` samples as they fill (at least one); returns `measure`
// of each window.
using WindowMeasure = std::function<double(const std::vector<const Sample*>&)>;
std::vector<double> PerWindow(const std::vector<Sample>& samples, size_t window,
                              const WindowMeasure& measure);

// Completions per second of a closed loop that ran `seconds`, per window:
// the run is cut into as many equal consecutive windows of at least
// `window_s` as it fills (at least one), counted from the first send.
std::vector<double> RateWindows(const std::vector<Sample>& samples, double seconds,
                                double window_s);

// Poisson arrival offsets at `rate` per second over `seconds`.
std::vector<int64_t> PoissonOffsets(uint64_t seed, double rate, double seconds);

// A timing measured over windows reports its best decile: the 10th
// percentile of the windows when lower is better, the 90th when higher is.
// On a 4-vCPU VM shared with other tenants, they slow every thread for
// seconds to minutes at a time; the best windows of a run are the ones they
// left alone, so this estimate follows the program more than the neighbours.
// The median of the windows spread by up to 0.59 of itself over ten runs of
// the same code there; the best decile by at most 0.22.
constexpr double kBestDecileLow = 0.1;
constexpr double kBestDecileHigh = 0.9;

// Metrics in print order, each with its unit. A metric measured over windows
// carries them, with the quantile q of them it reports; merging shards takes
// that quantile of all shards' windows.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void SetWindows(const std::string& name, std::vector<double> windows, double q,
                  const std::string& unit);
  double Get(const std::string& name) const;
  // "name = value unit" lines for people.
  void Print(const char* heading) const;
  // The machine line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}},
  // plus "windows":{name:{"q":..,"unit":..,"values":[..]}} when any metric
  // has them.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::vector<double> windows;
    double q = 0.5;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // OPTIMUS_PERFBENCH_CORE_H_
