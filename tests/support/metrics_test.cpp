// Contracts of the support::metrics registry and the Chrome-trace tracer
// (`ctest -L metrics`): counters stay exact under concurrent increments,
// histograms honour their bucket contract, trace files are valid
// JSON with one complete event per span, and -- the observability layer's
// hard rule -- instrumentation never changes a result. The compiled-out
// (-DETHSM_METRICS=OFF) differential runs as a separate CI leg via
// tools/compare_trees.py; here we cover the runtime on/off axis in-process.

#include "support/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/solve_memo.h"
#include "api/render.h"
#include "api/runner.h"
#include "api/spec.h"
#include "support/checkpoint.h"
#include "support/temp_dir.h"
#include "support/trace.h"

namespace ethsm::support::metrics {
namespace {

TEST(MetricsCounterTest, SingleThreadedArithmetic) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsCounterTest, ConcurrentIncrementsAreExact) {
  // More threads than stripes, so several threads share a stripe and the
  // relaxed adds must still never lose an increment.
  constexpr unsigned kThreads = 24;
  constexpr std::uint64_t kPerThread = 20000;
  Counter c;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(MetricsGaugeTest, SetAddSub) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(7);
  EXPECT_EQ(g.value(), 8);
}

TEST(MetricsHistogramTest, BucketAssignmentIsInclusiveUpperBound) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1
  h.observe(1.0);  // <= 1 (inclusive)
  h.observe(1.5);  // <= 2
  h.observe(4.0);  // <= 4 (inclusive)
  h.observe(9.0);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  EXPECT_EQ(h.cumulative(0), 2u);  // le=1
  EXPECT_EQ(h.cumulative(1), 3u);  // le=2
  EXPECT_EQ(h.cumulative(2), 4u);  // le=4
}

TEST(MetricsHistogramTest, ConcurrentObservationsKeepCountAndSumExact) {
  constexpr unsigned kThreads = 8;
  constexpr int kPerThread = 5000;
  Histogram h(Histogram::latency_bounds_seconds());
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(0.001);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * static_cast<std::uint64_t>(kPerThread));
  EXPECT_NEAR(h.sum(), 0.001 * kThreads * kPerThread, 1e-6);
}

TEST(MetricsRegistryTest, CreateOrGetReturnsTheSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("test_total");
  Counter& b = reg.counter("test_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  Registry reg;
  (void)reg.counter("thing");
  EXPECT_THROW((void)reg.gauge("thing"), std::logic_error);
}

TEST(MetricsRegistryTest, PrometheusExpositionShape) {
  Registry reg;
  reg.counter("demo_total", "a demo counter").add(7);
  reg.gauge("demo_depth").set(-2);
  Histogram& h = reg.histogram("demo_seconds", {0.5, 1.0});
  h.observe(0.25);
  h.observe(2.0);
  reg.register_counter_fn("demo_fn_total", [] { return std::uint64_t{9}; });

  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# HELP demo_total a demo counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("demo_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("demo_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("demo_fn_total 9\n"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotShape) {
  Registry reg;
  reg.counter("a_total").add(1);
  reg.gauge("b_depth").set(2);
  reg.histogram("c_seconds", {1.0}).observe(0.5);
  const std::string json = reg.render_json();
  EXPECT_NE(json.find("\"counters\": {\"a_total\": 1}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {\"b_depth\": 2}"), std::string::npos);
  EXPECT_NE(json.find("\"c_seconds\": {\"buckets\": [{\"le\": 1, \"count\": "
                      "1}], \"sum\": 0.5, \"count\": 1}"),
            std::string::npos);
}

// ------------------------------------------------------------------ trace ---

/// Minimal structural JSON check: brackets/braces balance outside string
/// literals and the document has the expected envelope. (No JSON parser in
/// the C++ test image; the Python gate in CI does the full parse.)
bool balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char ch : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') {
      in_string = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testutil::temp_dir("trace") + "/trace.json";
  }
  void TearDown() override {
    if (trace::enabled()) trace::stop();
  }

  std::string read_file() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  std::string path_;
};

TEST_F(TraceTest, FileIsValidJsonWithOneCompleteEventPerSpan) {
  trace::start(path_);
  EXPECT_TRUE(trace::enabled());
  { trace::Span outer("outer"); trace::Span inner("inner"); }
  // Spans from worker threads merge into the same file.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] { trace::Span span("worker"); });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(trace::stop());

  const std::string text = read_file();
  EXPECT_TRUE(balanced_json(text)) << text;
  EXPECT_EQ(text.rfind("{\"traceEvents\": [", 0), 0u) << text.substr(0, 40);
  EXPECT_EQ(count_occurrences(text, "\"ph\": \"X\""), 6u) << text;
  EXPECT_EQ(count_occurrences(text, "\"name\": \"worker\""), 4u);
  // Complete events carry the fields Perfetto requires.
  EXPECT_NE(text.find("\"ts\": "), std::string::npos);
  EXPECT_NE(text.find("\"dur\": "), std::string::npos);
  EXPECT_NE(text.find("\"pid\": 1"), std::string::npos);
}

TEST_F(TraceTest, CheckpointLoadsCostOneSpanEachNotOnePerRecord) {
  const std::string dir = testutil::temp_dir("trace-checkpoint");
  constexpr std::uint64_t kFingerprint = 0x5eed;
  {
    CheckpointStore writer(dir, kFingerprint);
    for (std::uint64_t job = 0; job < 8; ++job) {
      writer.append(job, std::vector<std::byte>(16, std::byte{1}));
    }
  }
  trace::start(path_);
  const CheckpointStore store(dir, kFingerprint);
  const auto records = read_checkpoint_records(dir, kFingerprint);
  ASSERT_TRUE(trace::stop());
  EXPECT_EQ(store.size(), 8u);
  EXPECT_EQ(records.size(), 8u);
  EXPECT_EQ(count_occurrences(read_file(), "\"name\": \"checkpoint.load\""),
            2u);
}

TEST_F(TraceTest, SpansOutsideAnActiveTraceAreFree) {
  ASSERT_FALSE(trace::enabled());
  { trace::Span span("ignored"); }
  // stop() without start() reports that nothing was active.
  EXPECT_FALSE(trace::stop());
}

// ----------------------------------------------------------- differential ---

/// The write-only-tap rule, runtime axis: the same spec computed with the
/// tracer running and with it off renders bitwise-identical JSON, while the
/// process-wide solver counters prove the instrumented path actually ran.
/// The process solve memo is emptied before each run, so neither run is
/// answered from chains an earlier run (or an earlier test) solved. A
/// threshold spec exercises the stationary solves (`markov.solve` spans), a
/// revenue spec with simulation runs the Monte-Carlo path (`sim.run`).
TEST(MetricsDifferentialTest, TracingOnAndOffRenderIdenticalResults) {
  struct Case {
    const char* spec;
    const char* span;
  };
  const Case cases[] = {
      {"kind = threshold\n"
       "gammas = 0,1\n"
       "tolerance = 1e-2\n"
       "threshold_max_lead = 25\n",
       "markov.solve"},
      {"kind = revenue\n"
       "alphas = 0.2,0.35\n"
       "max_lead = 25\n"
       "sim_runs = 2\n"
       "sim_blocks = 2000\n",
       "sim.run"},
  };
  Counter& solves = registry().counter("ethsm_solver_solves_total");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.span);
    const api::ExperimentSpec spec = api::parse_spec(c.spec);
    analysis::SolveMemo::process().clear();
    const std::string plain = api::render_json(api::run(spec));

    analysis::SolveMemo::process().clear();
    const std::uint64_t solves_before = solves.value();
    const std::string trace_path =
        testutil::temp_dir("differential") + "/trace.json";
    trace::start(trace_path);
    const std::string traced = api::render_json(api::run(spec));
    ASSERT_TRUE(trace::stop());

    EXPECT_EQ(plain, traced);
    std::ostringstream trace_text;
    trace_text << std::ifstream(trace_path, std::ios::binary).rdbuf();
    EXPECT_GT(count_occurrences(trace_text.str(),
                                "\"name\": \"" + std::string(c.span) + "\""),
              0u);
    if constexpr (kEnabled) {
      EXPECT_GT(solves.value(), solves_before);
    } else {
      EXPECT_EQ(solves.value(), solves_before);
    }
  }
}

}  // namespace
}  // namespace ethsm::support::metrics
