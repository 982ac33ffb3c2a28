// Tests for the benchmark's own logic: self-time subtraction, the tail
// percentile rule, and open-loop latency accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "perfbench/core.h"

namespace perfbench {
namespace {

Span At(uint64_t id, uint64_t parent, const char* name, int64_t start, int64_t end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SelfTime, SubtractsNestedChildrenOnce) {
  // client [0,100] > Handle [10,90] > invoke [20,80] > {decide [25,35], inference [40,70]}
  const std::vector<Span> spans = {
      At(1, 0, "client", 0, 100),   At(2, 1, "Handle", 10, 90),
      At(3, 2, "invoke", 20, 80),   At(4, 3, "decide", 25, 35),
      At(5, 3, "inference", 40, 70)};
  const std::map<std::string, int64_t> self = SelfTimeByName(spans);
  EXPECT_EQ(self.at("client"), 20);
  EXPECT_EQ(self.at("Handle"), 20);
  EXPECT_EQ(self.at("invoke"), 20);
  EXPECT_EQ(self.at("decide"), 10);
  EXPECT_EQ(self.at("inference"), 30);
  int64_t total = 0;
  for (const auto& [name, ns] : self) {
    total += ns;
  }
  EXPECT_EQ(total, 100);  // Self times add up to the root span.
}

TEST(SelfTime, OverlappingAndOverhangingChildren) {
  // Two children overlap on [30,40]; a third pokes past the parent's end.
  const std::vector<Span> spans = {At(1, 0, "parent", 0, 100), At(2, 1, "a", 20, 40),
                                   At(3, 1, "b", 30, 50), At(4, 1, "c", 90, 120)};
  const std::map<std::string, int64_t> self = SelfTimeByName(spans);
  EXPECT_EQ(self.at("parent"), 100 - 30 - 10);
  EXPECT_EQ(self.at("c"), 30);
}

TEST(SelfTime, NestByContainmentBuildsTheTree) {
  std::vector<Span> spans = {At(12, 0, "inference", 40, 70), At(10, 0, "request", 0, 100),
                             At(11, 0, "invoke", 20, 80), At(13, 0, "decide", 25, 35)};
  NestByContainment(&spans, 7);
  std::map<std::string, uint64_t> parent;
  for (const Span& span : spans) {
    parent[span.name] = span.parent;
  }
  EXPECT_EQ(parent["request"], 7u);
  EXPECT_EQ(parent["invoke"], 10u);
  EXPECT_EQ(parent["decide"], 11u);
  EXPECT_EQ(parent["inference"], 11u);  // Not decide: decide ended at 35.
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailQuantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(999, 0.99), 0.95);
  EXPECT_DOUBLE_EQ(TailQuantile(200, 0.99), 0.95);
  EXPECT_DOUBLE_EQ(TailQuantile(199, 0.99), 0.9);
  EXPECT_DOUBLE_EQ(TailQuantile(100, 0.99), 0.9);
  EXPECT_DOUBLE_EQ(TailQuantile(99, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(5, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(100000, 0.99), 0.99);  // Capped at max_q.
  EXPECT_DOUBLE_EQ(TailQuantile(10000, 1.0), 0.999);
}

TEST(Percentile, QuantileInterpolates) {
  std::vector<double> values = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(Quantile(&values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(&values, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(Quantile(&values, 0.9), 4.6);
}

TEST(OpenLoop, LatencyCountsFromScheduledSendTime) {
  // One connection, a request due every 2 ms; the server stalls 60 ms on the
  // first. Every request queued behind the stall must carry the wait.
  std::vector<int64_t> offsets;
  for (int i = 0; i < 10; ++i) {
    offsets.push_back(i * 2'000'000);
  }
  const std::vector<Sample> samples = RunOpenLoop(offsets, 1, [](size_t index) {
    std::this_thread::sleep_for(std::chrono::milliseconds(index == 0 ? 60 : 0));
    return Outcome::kOk;
  });
  ASSERT_EQ(samples.size(), offsets.size());
  EXPECT_GE(samples[0].LatencyMs(), 60.0);
  for (size_t i = 1; i < samples.size(); ++i) {
    // Due at 2i ms, served after the stall ends at >= 60 ms.
    EXPECT_GE(samples[i].LatencyMs(), 60.0 - 2.0 * static_cast<double>(i)) << i;
    EXPECT_GE(samples[i].LagMs(), 60.0 - 2.0 * static_cast<double>(i) - 0.5) << i;
    // Timed from the schedule, not from the (late) actual send.
    EXPECT_GT(samples[i].LatencyMs(), static_cast<double>(samples[i].done_ns -
                                                          samples[i].sent_ns) * 1e-6 + 1.0)
        << i;
  }
}

TEST(ClosedLoop, RunsForTheWindowAndCountsEveryRequest) {
  const std::vector<Sample> samples = RunClosedLoop(2, 0.05, 100, [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Outcome::kOk;
  });
  ASSERT_GT(samples.size(), 10u);
  int64_t first_sent = samples.front().sent_ns;
  for (const Sample& sample : samples) {
    first_sent = std::min(first_sent, sample.sent_ns);
  }
  // The last completion lands at (about) the 50 ms deadline or later.
  EXPECT_GE(samples.back().done_ns - first_sent, 45'000'000);
  for (const Sample& sample : samples) {
    EXPECT_GE(sample.index, 100u);
    EXPECT_EQ(sample.scheduled_ns, sample.sent_ns);
  }
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

Sample Timed(int64_t scheduled_ms, double latency_ms) {
  Sample sample;
  sample.scheduled_ns = sample.sent_ns = scheduled_ms * 1'000'000;
  sample.done_ns = sample.scheduled_ns + static_cast<int64_t>(latency_ms * 1e6);
  return sample;
}

TEST(Windows, OneStalledWindowDoesNotSetTheMedian) {
  // Three windows of 1000 requests; the middle one stalls at 50 ms for 60% of
  // its requests. Its p50 is 50 ms, the others' 1 ms: the median window wins.
  std::vector<Sample> samples;
  for (int i = 0; i < 3000; ++i) {
    const bool stalled = i >= 1000 && i < 1600;
    samples.push_back(Timed(i, stalled ? 50.0 : 1.0 + (i % 2)));
  }
  const WindowMeasure p50 = [](const std::vector<const Sample*>& window) {
    std::vector<double> latency;
    for (const Sample* sample : window) {
      latency.push_back(sample->LatencyMs());
    }
    return Quantile(&latency, 0.5);
  };
  EXPECT_EQ(PerWindow(samples, 1000, p50), (std::vector<double>{1.5, 50.0, 1.5}));
  EXPECT_DOUBLE_EQ(Median(PerWindow(samples, 1000, p50)), 1.5);
  // 3500 samples still make three windows (of 1166-1167), in scheduled
  // order whatever the input order.
  for (int i = 3000; i < 3500; ++i) {
    samples.push_back(Timed(i, 1.0 + (i % 2)));
  }
  std::reverse(samples.begin(), samples.end());
  const WindowMeasure size = [](const std::vector<const Sample*>& window) {
    return static_cast<double>(window.size());
  };
  EXPECT_EQ(PerWindow(samples, 1000, size), (std::vector<double>{1166, 1167, 1167}));
  EXPECT_LE(Median(PerWindow(samples, 1000, p50)), 2.0);
  // Too few samples for one full window: one window of all of them.
  samples.resize(500);
  EXPECT_EQ(PerWindow(samples, 1000, size), std::vector<double>{500});
  EXPECT_TRUE(PerWindow({}, 1000, size).empty());
}

TEST(Windows, RateIsTheMedianWindow) {
  // 1 s at 100/s, then a 0.5 s stall with nothing done, then 1 s at 100/s.
  std::vector<Sample> samples;
  for (int i = 0; i < 100; ++i) {
    samples.push_back(Timed(i * 10, 0.0));
    samples.push_back(Timed(1500 + i * 10, 0.0));
  }
  EXPECT_EQ(RateWindows(samples, 2.5, 0.5), (std::vector<double>{100, 100, 0, 100, 100}));
  // Windows stretch to cut the run evenly; a run shorter than one window is
  // one window.
  const std::vector<double> stretched = RateWindows(samples, 2.5, 1.0);
  ASSERT_EQ(stretched.size(), 2u);  // Two windows of 1.25 s, 100 requests each.
  EXPECT_NEAR(stretched[0], 80.0, 1e-9);
  EXPECT_NEAR(stretched[1], 80.0, 1e-9);
  samples.resize(50);
  EXPECT_EQ(RateWindows(samples, 0.4, 0.5), std::vector<double>{62.5});
}

TEST(Report, JsonCarriesEveryDigit) {
  Report report;
  report.Set("latency_p50_ms", 1.2345678901234, "ms");
  report.Set("setup_s", 0.5, "s");
  EXPECT_EQ(report.Json(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"latency_p50_ms\": {\"value\": 1.2345678901234, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  report.SetWindows("throughput_rps", {30, 10, 20}, 0.5, "1/s");
  EXPECT_DOUBLE_EQ(report.Get("throughput_rps"), 20.0);
  EXPECT_NE(report.Json(true, 10, 0)
                .find("\"windows\": {\"throughput_rps\": {\"q\": 0.5, \"unit\": \"1/s\", "
                      "\"values\": [30, 10, 20]}}"),
            std::string::npos);
}

TEST(Report, WindowedTimingsReportTheirBestDecile) {
  Report report;
  const std::vector<double> windows = {5, 1, 9, 3, 7, 2, 10, 4, 8, 6};
  report.SetWindows("latency_p50_ms", windows, kBestDecileLow, "ms");
  report.SetWindows("throughput_rps", windows, kBestDecileHigh, "1/s");
  EXPECT_DOUBLE_EQ(report.Get("latency_p50_ms"), 1.9);
  EXPECT_DOUBLE_EQ(report.Get("throughput_rps"), 9.1);
}

}  // namespace
}  // namespace perfbench
