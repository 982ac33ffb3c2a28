#include "perfbench/core.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/telemetry/trace.h"

namespace perfbench {

int64_t NowNs() { return static_cast<int64_t>(optimus::telemetry::MonotonicNanos()); }

uint64_t SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = next_id_++;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> taken;
  taken.swap(spans_);
  return taken;
}

std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back(&span);
    }
  }
  std::map<std::string, int64_t> self;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& span : spans) {
    covered.clear();
    const auto it = children.find(span.id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        const int64_t begin = std::max(child->start_ns, span.start_ns);
        const int64_t end = std::min(child->end_ns, span.end_ns);
        if (begin < end) {
          covered.emplace_back(begin, end);
        }
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t reach = span.start_ns;
    for (const auto& [begin, end] : covered) {
      const int64_t from = std::max(begin, reach);
      if (end > from) {
        covered_ns += end - from;
        reach = end;
      }
    }
    self[span.name] += (span.end_ns - span.start_ns) - covered_ns;
  }
  return self;
}

void NestByContainment(std::vector<Span>* spans, uint64_t root_parent) {
  std::vector<Span*> order;
  order.reserve(spans->size());
  for (Span& span : *spans) {
    order.push_back(&span);
  }
  std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
    return a->start_ns != b->start_ns ? a->start_ns < b->start_ns : a->end_ns > b->end_ns;
  });
  std::vector<const Span*> open;
  for (Span* span : order) {
    while (!open.empty() && open.back()->end_ns < span->end_ns) {
      open.pop_back();
    }
    span->parent = open.empty() ? root_parent : open.back()->id;
    open.push_back(span);
  }
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) {
    return 0.0;
  }
  std::sort(values->begin(), values->end());
  const double position = q * static_cast<double>(values->size() - 1);
  const size_t below = static_cast<size_t>(std::floor(position));
  const size_t above = std::min(below + 1, values->size() - 1);
  const double weight = position - static_cast<double>(below);
  return (*values)[below] * (1.0 - weight) + (*values)[above] * weight;
}

double TailQuantile(size_t n, double max_q) {
  // Per-mille integers keep the "at least ten beyond" test exact.
  for (const int per_mille : {999, 990, 950, 900, 500}) {
    if (per_mille > static_cast<int>(std::lround(max_q * 1000.0))) {
      continue;
    }
    if (static_cast<uint64_t>(1000 - per_mille) * n >= 10000) {
      return per_mille / 1000.0;
    }
  }
  return 0.5;
}

namespace {

// Sleeps until shortly before `due_ns`, then spins: a timer wake-up on a
// busy VM can run late by a good share of a request's latency, and that
// lateness would be charged to the request.
void SleepUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 200'000;
  for (int64_t now = NowNs(); now < due_ns - kSpinNs; now = NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - kSpinNs - now));
  }
  while (NowNs() < due_ns) {
  }
}

// A sender that throws counts as a failed request instead of ending the
// process from a worker thread.
Outcome SendOnce(const Sender& send, size_t index) {
  try {
    return send(index);
  } catch (const std::exception&) {
    return Outcome::kFailed;
  }
}

}  // namespace

std::vector<Sample> RunOpenLoop(const std::vector<int64_t>& offsets_ns, int workers,
                                const Sender& send) {
  std::vector<Sample> samples(offsets_ns.size());
  std::atomic<size_t> next{0};
  // A short lead lets every worker start before the first request is due.
  const int64_t start = NowNs() + 2'000'000;
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < offsets_ns.size(); i = next.fetch_add(1)) {
        Sample& sample = samples[i];
        sample.index = i;
        sample.scheduled_ns = start + offsets_ns[i];
        SleepUntil(sample.scheduled_ns);
        sample.sent_ns = NowNs();
        sample.outcome = SendOnce(send, i);
        sample.done_ns = NowNs();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return samples;
}

std::vector<Sample> RunClosedLoop(int workers, double seconds, size_t first_index,
                                  const Sender& send) {
  std::atomic<size_t> next{first_index};
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<Sample>> per_worker(static_cast<size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<Sample>& mine = per_worker[static_cast<size_t>(w)];
      while (NowNs() < deadline) {
        Sample sample;
        sample.index = next.fetch_add(1);
        sample.scheduled_ns = sample.sent_ns = NowNs();
        sample.outcome = SendOnce(send, sample.index);
        sample.done_ns = NowNs();
        mine.push_back(sample);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::vector<Sample> samples;
  for (const std::vector<Sample>& mine : per_worker) {
    samples.insert(samples.end(), mine.begin(), mine.end());
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.done_ns < b.done_ns; });
  return samples;
}

std::vector<double> PerWindow(const std::vector<Sample>& samples, size_t window,
                              const WindowMeasure& measure) {
  std::vector<const Sample*> ordered;
  for (const Sample& sample : samples) {
    ordered.push_back(&sample);
  }
  std::sort(ordered.begin(), ordered.end(), [](const Sample* a, const Sample* b) {
    return a->scheduled_ns < b->scheduled_ns;
  });
  const size_t windows = std::max<size_t>(window == 0 ? 1 : ordered.size() / window, 1);
  std::vector<double> values;
  for (size_t w = 0; w < windows && !ordered.empty(); ++w) {
    values.push_back(measure({ordered.begin() + w * ordered.size() / windows,
                              ordered.begin() + (w + 1) * ordered.size() / windows}));
  }
  return values;
}

std::vector<double> RateWindows(const std::vector<Sample>& samples, double seconds,
                                double window_s) {
  if (seconds <= 0.0 || samples.empty()) {
    return {};
  }
  const size_t windows = std::max<size_t>(static_cast<size_t>(seconds / window_s + 1e-9), 1);
  window_s = seconds / static_cast<double>(windows);
  int64_t start_ns = samples.front().sent_ns;
  for (const Sample& sample : samples) {
    start_ns = std::min(start_ns, sample.sent_ns);
  }
  std::vector<double> rates(windows, 0.0);
  const double window_ns = window_s * 1e9;
  for (const Sample& sample : samples) {
    const double slot = static_cast<double>(sample.done_ns - start_ns) / window_ns;
    if (slot >= 0.0 && slot < static_cast<double>(windows)) {
      rates[static_cast<size_t>(slot)] += 1.0 / window_s;
    }
  }
  return rates;
}

std::vector<int64_t> PoissonOffsets(uint64_t seed, double rate, double seconds) {
  optimus::Rng rng(seed);
  std::vector<int64_t> offsets;
  for (double t = rng.Exponential(rate); t < seconds; t += rng.Exponential(rate)) {
    offsets.push_back(static_cast<int64_t>(t * 1e9));
  }
  return offsets;
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit, {}, 0.5});
}

void Report::SetWindows(const std::string& name, std::vector<double> windows, double q,
                        const std::string& unit) {
  std::vector<double> sorted = windows;
  Set(name, Quantile(&sorted, q), unit);
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.windows = std::move(windows);
      metric.q = q;
    }
  }
}

double Report::Get(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      return metric.value;
    }
  }
  return 0.0;
}

void Report::Print(const char* heading) const {
  std::printf("-- %s\n", heading);
  for (const Metric& metric : metrics_) {
    std::printf("  %-32s %14.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
}

namespace {

// Shortest round-trip digits; JSON has no NaN or infinity.
std::string Number(double value) {
  char digits[64];
  const auto end =
      std::to_chars(digits, digits + sizeof(digits), std::isfinite(value) ? value : 0.0).ptr;
  return std::string(digits, end);
}

}  // namespace

std::string Report::Json(bool correct, uint64_t attempted, uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  std::string windows;
  for (const Metric& metric : metrics_) {
    out += out.back() == '{' ? "" : ", ";
    out += "\"" + metric.name + "\": {\"value\": " + Number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
    if (!metric.windows.empty()) {
      windows += windows.empty() ? "" : ", ";
      windows += "\"" + metric.name + "\": {\"q\": " + Number(metric.q) + ", \"unit\": \"" +
                 metric.unit + "\", \"values\": [";
      for (size_t i = 0; i < metric.windows.size(); ++i) {
        windows += (i > 0 ? ", " : "") + Number(metric.windows[i]);
      }
      windows += "]}";
    }
  }
  out += "}";
  if (!windows.empty()) {
    out += ", \"windows\": {" + windows + "}";
  }
  out += "}";
  return out;
}

}  // namespace perfbench
