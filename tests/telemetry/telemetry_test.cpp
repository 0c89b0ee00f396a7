// Unit contracts of the host telemetry layer (src/telemetry/): ring
// overflow semantics, span recording, histogram bucketing parity with
// trace::Histogram, enable/shutdown lifecycle, heartbeat records, and
// Chrome-trace export well-formedness for degenerate harvests. The
// determinism firewall itself is pinned in firewall_test.cpp.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/options.hpp"

namespace alb::telemetry {
namespace {

/// Shuts the collector down even when an ASSERT aborts the test body.
struct CollectorGuard {
  ~CollectorGuard() { Collector::shutdown(); }
};

// Light structural JSON check, enough to catch unbalanced braces or
// truncated writes in exporter output built from controlled inputs
// (no span name or label in these tests contains a brace or quote).
void expect_balanced_json(const std::string& s, const char* what) {
  long depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0) << what;
  }
  EXPECT_EQ(depth, 0) << what << ": unbalanced braces";
  EXPECT_FALSE(in_string) << what << ": unterminated string";
}

TEST(ThreadRingTest, OverflowDropsAreCountedNeverBlocking) {
  ThreadRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.push("span", i, i + 1, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(ring.spans_recorded(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<Span> spans = ring.spans();
  ASSERT_EQ(spans.size(), 4u);
  // The first `capacity` spans are kept; overflow drops the new ones.
  EXPECT_EQ(spans.front().t0_ns, 0);
  EXPECT_EQ(spans.back().arg, 3u);
}

TEST(ThreadRingTest, CountersAccumulate) {
  ThreadRing ring(4);
  ring.add(kJobNs, 100);
  ring.add(kJobNs, 23);
  ring.add(kJobsRun, 2);
  EXPECT_EQ(ring.counter(kJobNs), 123u);
  EXPECT_EQ(ring.counter(kJobsRun), 2u);
}

TEST(ScopedSpanTest, NoActiveCollectorIsANoop) {
  ASSERT_EQ(Collector::active(), nullptr);
  { ScopedSpan s("test.noop", 7); }  // must not crash or allocate a ring
  EXPECT_EQ(Collector::active(), nullptr);
}

TEST(ScopedSpanTest, RecordsNameArgAndForwardTime) {
  Collector::enable({});
  CollectorGuard guard;
  Collector* tc = Collector::active();
  ASSERT_NE(tc, nullptr);
  {
    ScopedSpan s("test.span", 1);
    s.set_arg(42);
  }
  const HostTrace t = tc->harvest();
  ASSERT_EQ(t.spans_total, 1u);
  ASSERT_EQ(t.threads.size(), 1u);
  const Span& s = t.threads[0].spans[0];
  EXPECT_STREQ(s.name, "test.span");
  EXPECT_EQ(s.arg, 42u);
  EXPECT_GE(s.t1_ns, s.t0_ns);
}

TEST(AtomicHistTest, SnapshotMatchesTraceHistogram) {
  AtomicHist ah;
  trace::Histogram ref;
  for (std::uint64_t v : {1ull, 5ull, 5ull, 1000ull, 123456789ull}) {
    ah.add(v);
    ref.add(v);
  }
  const trace::Histogram got = ah.snapshot();
  EXPECT_EQ(got.count, ref.count);
  EXPECT_EQ(got.min, ref.min);
  EXPECT_EQ(got.max, ref.max);
  EXPECT_DOUBLE_EQ(got.mean(), ref.mean());
  for (int p : {50, 95, 99}) {
    EXPECT_EQ(got.percentile(p), ref.percentile(p)) << "p" << p;
  }
}

TEST(CollectorTest, EnableShutdownCyclesReRegisterThreadRings) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    Collector::enable({});
    CollectorGuard guard;
    Collector* tc = Collector::active();
    ASSERT_NE(tc, nullptr);
    { ScopedSpan s("test.cycle", static_cast<std::uint64_t>(cycle)); }
    const HostTrace t = tc->harvest();
    // A fresh collector must not see the previous cycle's spans.
    EXPECT_EQ(t.spans_total, 1u) << "cycle " << cycle;
  }
  EXPECT_EQ(Collector::active(), nullptr);
}

TEST(CollectorTest, HarvestMergesThreadsChronologically) {
  Collector::enable({});
  CollectorGuard guard;
  Collector* tc = Collector::active();
  ASSERT_NE(tc, nullptr);
  tc->label_thread("main");
  { ScopedSpan s("test.first"); }
  std::thread([tc] {
    tc->label_thread("worker");
    { ScopedSpan s("test.second"); }
  }).join();
  { ScopedSpan s("test.third"); }
  const HostTrace t = tc->harvest();
  ASSERT_EQ(t.threads.size(), 2u);
  EXPECT_EQ(t.threads[0].label, "main");
  EXPECT_EQ(t.threads[1].label, "worker");
  const auto merged = t.merged();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_STREQ(merged[0].second.name, "test.first");
  EXPECT_STREQ(merged[1].second.name, "test.second");
  EXPECT_STREQ(merged[2].second.name, "test.third");
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].second.t1_ns, merged[i].second.t1_ns);
  }
}

TEST(CollectorTest, RingOverflowSurfacesInHarvest) {
  Config cfg;
  cfg.ring_capacity = 2;
  Collector::enable(cfg);
  CollectorGuard guard;
  Collector* tc = Collector::active();
  ASSERT_NE(tc, nullptr);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan s("test.overflow", static_cast<std::uint64_t>(i));
  }
  const HostTrace t = tc->harvest();
  EXPECT_EQ(t.spans_total, 2u);
  EXPECT_EQ(t.dropped_total, 3u);

  // An overflowed harvest must still export as well-formed JSON.
  std::ostringstream chrome, json;
  write_host_chrome_trace(t, chrome);
  write_host_json(t, json);
  expect_balanced_json(chrome.str(), "chrome trace (overflowed)");
  expect_balanced_json(json.str(), "json snapshot (overflowed)");
  EXPECT_NE(json.str().find("\"spans_dropped\":3"), std::string::npos);
}

TEST(ExportTest, EmptyHarvestIsWellFormed) {
  const HostTrace t;  // no threads, no spans
  std::ostringstream chrome, json;
  write_host_chrome_trace(t, chrome);
  write_host_json(t, json);
  expect_balanced_json(chrome.str(), "chrome trace (empty)");
  expect_balanced_json(json.str(), "json snapshot (empty)");
  EXPECT_NE(chrome.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.str().find("\"pool\""), std::string::npos);
}

TEST(HeartbeatTest, RecordsCarryTheDocumentedSchema) {
  const std::string path = "telemetry_test_heartbeat.jsonl";
  std::remove(path.c_str());
  {
    Config cfg;
    cfg.progress_period_s = 3600;  // periodic emits irrelevant; we drive them
    cfg.progress_path = path;
    cfg.job_name = "test-job";
    Collector::enable(cfg);
    CollectorGuard guard;
    Collector* tc = Collector::active();
    ASSERT_NE(tc, nullptr);
    tc->pool_begin(10, 2);
    tc->pool_worker_state(0, true);
    tc->pool_job_done();
    tc->emit_heartbeat(false);
  }  // shutdown() appends the final record
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  for (const std::string& line : lines) {
    expect_balanced_json(line, "heartbeat record");
    for (const char* key :
         {"\"type\":\"heartbeat\"", "\"job\":\"test-job\"", "\"seq\":", "\"wall_s\":",
          "\"jobs_total\":10", "\"jobs_done\":1", "\"workers\":2", "\"workers_busy\":",
          "\"worker_state\":", "\"jobs_per_min\":", "\"eta_s\":", "\"cache_hits\":",
          "\"cache_misses\":", "\"spans\":", "\"spans_dropped\":", "\"rss_kb\":",
          "\"final\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " missing in: " << line;
    }
  }
  EXPECT_NE(lines.front().find("\"final\":false"), std::string::npos);
  EXPECT_NE(lines.back().find("\"final\":true"), std::string::npos);
  std::remove(path.c_str());
}

TEST(OptionsTest, OptValueOptionTakesImplicitValueNeverTheNextToken) {
  util::Options opts;
  opts.define_opt_value("progress", "0", "2", "heartbeat period");
  opts.define_flag("quick", "flag");
  const char* argv[] = {"prog", "--progress", "--quick"};
  ASSERT_TRUE(opts.parse(3, argv));
  EXPECT_EQ(opts.get("progress"), "2");  // implicit, --quick not consumed
  EXPECT_TRUE(opts.has_flag("quick"));

  util::Options opts2;
  opts2.define_opt_value("progress", "0", "2", "heartbeat period");
  const char* argv2[] = {"prog", "--progress=7.5"};
  ASSERT_TRUE(opts2.parse(2, argv2));
  EXPECT_EQ(opts2.get("progress"), "7.5");
  EXPECT_DOUBLE_EQ(opts2.get_double("progress"), 7.5);

  util::Options opts3;
  opts3.define_opt_value("progress", "0", "2", "heartbeat period");
  const char* argv3[] = {"prog"};
  ASSERT_TRUE(opts3.parse(1, argv3));
  EXPECT_EQ(opts3.get("progress"), "0");  // untouched default
}

}  // namespace
}  // namespace alb::telemetry
