// Unit tests for the flight recorder (ring semantics, span pairing),
// the metrics registry, and the Chrome trace exporter.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace {

using namespace alb;

trace::Config enabled_config(std::size_t capacity) {
  trace::Config cfg;
  cfg.enabled = true;
  cfg.capacity = capacity;
  return cfg;
}

TEST(Recorder, KeepsEverythingBelowCapacity) {
  trace::Recorder rec(enabled_config(64));
  for (int i = 0; i < 10; ++i) {
    rec.set_time(i * 100);
    rec.instant(trace::Category::App, "tick", /*actor=*/i, /*id=*/static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 0u);
  const trace::Trace t = rec.harvest();
  ASSERT_EQ(t.events.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(t.events[static_cast<std::size_t>(i)].id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(t.events[static_cast<std::size_t>(i)].time, i * 100);
  }
}

TEST(Recorder, WraparoundDropsOldestKeepsNewestWindow) {
  trace::Recorder rec(enabled_config(8));
  for (int i = 0; i < 20; ++i) {
    rec.set_time(i);
    rec.instant(trace::Category::App, "tick", -1, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  EXPECT_EQ(rec.size(), 8u);
  const trace::Trace t = rec.harvest();
  EXPECT_EQ(t.recorded, 20u);
  EXPECT_EQ(t.dropped, 12u);
  EXPECT_EQ(t.capacity, 8u);
  ASSERT_EQ(t.events.size(), 8u);
  // The newest window [12, 20) survives, in chronological order.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(t.events[i].id, 12 + i);
    EXPECT_EQ(t.events[i].time, static_cast<sim::SimTime>(12 + i));
  }
}

TEST(Recorder, WraparoundAtExactMultipleOfCapacity) {
  trace::Recorder rec(enabled_config(4));
  for (int i = 0; i < 8; ++i) rec.instant(trace::Category::Sim, "e", -1, static_cast<std::uint64_t>(i));
  const trace::Trace t = rec.harvest();
  ASSERT_EQ(t.events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t.events[i].id, 4 + i);
}

TEST(Recorder, SpanBeginEndPairingSurvivesInterleaving) {
  trace::Recorder rec(enabled_config(64));
  // Two interleaved spans, as produced by concurrent coroutines:
  // A begins, B begins, A ends, B ends.
  const std::uint64_t a = rec.next_span_id();
  const std::uint64_t b = rec.next_span_id();
  EXPECT_NE(a, b);
  rec.set_time(10);
  rec.begin(trace::Category::Orca, "span", 0, a);
  rec.set_time(20);
  rec.begin(trace::Category::Orca, "span", 1, b);
  rec.set_time(30);
  rec.end(trace::Category::Orca, "span", 0, a);
  rec.set_time(40);
  rec.end(trace::Category::Orca, "span", 1, b);

  const trace::Trace t = rec.harvest();
  ASSERT_EQ(t.events.size(), 4u);
  // Every Begin has exactly one matching End with the same (name, id),
  // and the End comes later.
  std::map<std::uint64_t, int> open;
  for (const trace::TraceEvent& e : t.events) {
    if (e.phase == trace::EventPhase::Begin) {
      EXPECT_EQ(open[e.id]++, 0);
    } else if (e.phase == trace::EventPhase::End) {
      EXPECT_EQ(--open[e.id], 0);
    }
  }
  for (const auto& [id, n] : open) EXPECT_EQ(n, 0) << "unbalanced span id " << id;
}

TEST(Recorder, HarvestOrderAfterSeveralFullWraps) {
  // Capacity 3, 10 pushes: the ring wraps three times and its oldest
  // slot ends mid-array, so harvest() must splice two runs.
  trace::Recorder rec(enabled_config(3));
  for (int i = 0; i < 10; ++i) {
    rec.set_time(i);
    rec.instant(trace::Category::App, "tick", -1, static_cast<std::uint64_t>(i));
  }
  const trace::Trace t = rec.harvest();
  EXPECT_EQ(t.recorded, 10u);
  EXPECT_EQ(t.dropped, 7u);
  ASSERT_EQ(t.events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(t.events[i].id, 7 + i);
}

TEST(Session, DisabledSessionHasNoRecorder) {
  trace::Session off{};  // default config: disabled
  EXPECT_EQ(off.recorder(), nullptr);

  trace::Session on(enabled_config(16));
  EXPECT_NE(on.recorder(), nullptr);
}

TEST(Session, HarvestIsEmptyWhenTracingIsOff) {
  const trace::Trace t = trace::Session{}.harvest();
  EXPECT_TRUE(t.events.empty());
  EXPECT_EQ(t.recorded, 0u);
  EXPECT_EQ(t.capacity, 0u);
}

TEST(Session, EngineTracerNullWhenNothingAttached) {
  sim::Engine eng;
  // The zero-overhead-when-off contract: no session attached means the
  // cached recorder pointer every layer checks is null.
  EXPECT_EQ(eng.tracer(), nullptr);
  EXPECT_EQ(eng.trace_session(), nullptr);
}

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
  trace::Metrics m;
  std::uint64_t* c = m.counter("net/test.msgs");
  *c += 3;
  *c += 4;
  *m.gauge("app/ratio") = 0.5;
  trace::Histogram* h = m.histogram("net/test.bytes");
  h->add(0);
  h->add(1);
  h->add(100);
  h->add(1000);

  // Instrument pointers are stable: a second lookup is the same object.
  EXPECT_EQ(m.counter("net/test.msgs"), c);

  const trace::MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(*s.counter("net/test.msgs"), 7u);
  EXPECT_DOUBLE_EQ(*s.gauge("app/ratio"), 0.5);
  EXPECT_DOUBLE_EQ(s.value("net/test.msgs"), 7.0);
  EXPECT_DOUBLE_EQ(s.value("app/ratio"), 0.5);
  EXPECT_DOUBLE_EQ(s.value("no/such.metric"), 0.0);
  EXPECT_EQ(s.counter("no/such.metric"), nullptr);
  EXPECT_EQ(s.histogram("net/test.msgs"), nullptr);
  ASSERT_NE(s.histogram("net/test.bytes"), nullptr);
  const trace::Histogram& hs = *s.histogram("net/test.bytes");
  EXPECT_EQ(hs.count, 4u);
  EXPECT_EQ(hs.sum, 1101u);
  EXPECT_EQ(hs.min, 0u);
  EXPECT_EQ(hs.max, 1000u);
  EXPECT_DOUBLE_EQ(hs.mean(), 1101.0 / 4.0);
}

TEST(Metrics, HistogramPercentilesAreBucketUpperBounds) {
  trace::Histogram h;
  for (int i = 0; i < 90; ++i) h.add(10);   // bucket 4: [8, 16)
  for (int i = 0; i < 10; ++i) h.add(500);  // bucket 9: [256, 512)
  EXPECT_EQ(h.percentile(50), 15u);   // bucket 4 upper bound
  EXPECT_EQ(h.percentile(99), 500u);  // bucket 9 upper bound, clamped to max
  EXPECT_EQ(h.percentile(0), 10u);    // exact min
  EXPECT_EQ(h.percentile(100), 500u); // exact max
  // Empty histogram reports 0 everywhere.
  trace::Histogram empty;
  EXPECT_EQ(empty.percentile(50), 0u);
}

TEST(Metrics, CsvAndJsonAreNameOrderedAndStable) {
  trace::Metrics m;
  *m.counter("b/second") = 2;
  *m.counter("a/first") = 1;
  std::ostringstream csv1, csv2;
  m.snapshot().write_csv(csv1);
  m.snapshot().write_csv(csv2);
  EXPECT_EQ(csv1.str(), csv2.str());
  // Name order, independent of registration order.
  EXPECT_LT(csv1.str().find("a/first"), csv1.str().find("b/second"));

  std::ostringstream js;
  m.snapshot().write_json(js);
  const std::string j = js.str();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"a/first\":1"), std::string::npos);
}

TEST(ChromeTrace, ExportHasMetadataAndBalancedEvents) {
  trace::Recorder rec(enabled_config(64));
  rec.set_time(1000);
  rec.instant(trace::Category::Net, "net.hop.wan", 3, 7, 128);
  rec.set_time(2000);
  rec.begin(trace::Category::Orca, "orca.rpc", 0, 42, 64);
  rec.set_time(3500);
  rec.end(trace::Category::Orca, "orca.rpc", 0, 42, 32);

  const std::string json = trace::chrome_trace_string(rec.harvest());
  // Structural spot-checks (full parse validation runs in tools/check.sh
  // via python3 -m json.tool).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"net.hop.wan\""), std::string::npos);
  // Async span phases for the RPC, instant phase for the hop.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Sim-time microseconds with fixed sub-microsecond digits: 2000 ns = 2.000 us.
  EXPECT_NE(json.find("\"ts\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":3.500"), std::string::npos);

  // Serialization is a pure function of the Trace.
  EXPECT_EQ(json, trace::chrome_trace_string(rec.harvest()));
}

TEST(ChromeTrace, EscapesQuotesBackslashesAndControlChars) {
  std::ostringstream os;
  trace::write_json_escaped(os, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(os.str(), "a\\\"b\\\\c\\nd\\te\\u0001f");
}

TEST(ChromeTrace, PassesNonAsciiBytesThrough) {
  // UTF-8 multibyte sequences are valid inside JSON strings; only the
  // ASCII control range needs \u escapes.
  std::ostringstream os;
  trace::write_json_escaped(os, "caf\xc3\xa9 \xe2\x86\x92");
  EXPECT_EQ(os.str(), "caf\xc3\xa9 \xe2\x86\x92");
}

TEST(ChromeTrace, EscapedNameSurvivesExport) {
  trace::Recorder rec(enabled_config(8));
  rec.set_time(10);
  rec.instant(trace::Category::App, "weird\"name\n", 0, 1);
  const std::string json = trace::chrome_trace_string(rec.harvest());
  EXPECT_NE(json.find("weird\\\"name\\n"), std::string::npos);
  EXPECT_EQ(json.find("weird\"name"), std::string::npos);
}

TEST(ChromeTrace, EmptyTraceIsValidJson) {
  // A zero-event harvest (or one where every event was dropped) must
  // still produce well-formed JSON: metadata only, no trailing comma.
  const std::string json = trace::chrome_trace_string(trace::Trace{});
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(", ]"), std::string::npos);
}

TEST(ChromeTrace, OnlyDroppedTraceIsValidJson) {
  trace::Trace t;
  t.recorded = 100;
  t.dropped = 100;
  t.capacity = 0;
  const std::string json = trace::chrome_trace_string(t);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.find(",]"), std::string::npos);
}

TEST(ChromeTrace, HighlightSpansEmitCriticalPathTrack) {
  trace::Recorder rec(enabled_config(8));
  rec.set_time(100);
  rec.instant(trace::Category::App, "tick", 0, 1);
  const std::vector<trace::HighlightSpan> spans = {{"net/wan.latency", 0, 50},
                                                   {"app/compute", 50, 100}};
  const std::string plain = trace::chrome_trace_string(rec.harvest());
  const std::string with = trace::chrome_trace_string(rec.harvest(), spans);
  // No highlight → byte-identical to the pre-highlight format, so the
  // determinism gates over default exports are unaffected.
  EXPECT_EQ(plain.find("critical path"), std::string::npos);
  EXPECT_NE(with.find("critical path"), std::string::npos);
  EXPECT_NE(with.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(with.find("net/wan.latency"), std::string::npos);
  EXPECT_GT(with.size(), plain.size());
}

}  // namespace
