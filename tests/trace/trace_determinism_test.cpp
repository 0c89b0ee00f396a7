// Golden determinism test for the observability layer: a fixed-seed run
// with the flight recorder on must serialize to byte-identical artifacts
// (Chrome trace JSON and metrics CSV) whether the campaign executes it
// sequentially or sharded across a worker pool. This pins the tentpole
// contract from src/trace/trace.hpp: traces record simulated time only,
// so `--jobs N` can never change an output byte.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hpp"
#include "campaign/campaign.hpp"
#include "trace/chrome_trace.hpp"

namespace {

using namespace alb;

const apps::AppEntry& find_app(const std::string& name) {
  if (const apps::AppEntry* e = apps::find_app(name)) return *e;
  ADD_FAILURE() << "app not in registry: " << name;
  std::abort();
}

apps::AppConfig traced_config(int clusters, int per, std::uint64_t seed) {
  apps::AppConfig cfg;
  cfg.clusters = clusters;
  cfg.procs_per_cluster = per;
  cfg.net_cfg = net::das_config(clusters, per);
  cfg.seed = seed;
  cfg.trace.enabled = true;
  return cfg;
}

/// Runs the same traced job list under the given worker count and
/// serializes every result: per-run trace JSON + per-run metrics CSV,
/// concatenated.
std::string run_campaign_serialized(int jobs) {
  const apps::AppEntry& asp = find_app("ASP");
  std::vector<std::function<apps::AppResult()>> tasks;
  for (std::uint64_t seed : {42ull, 43ull, 44ull, 45ull}) {
    tasks.push_back([&asp, seed] { return asp.run(traced_config(2, 4, seed)); });
  }
  campaign::Options opts;
  opts.jobs = jobs;
  const std::vector<apps::AppResult> results = campaign::run(std::move(tasks), opts);

  std::ostringstream out;
  for (const apps::AppResult& r : results) {
    EXPECT_NE(r.trace, nullptr);
    out << trace::chrome_trace_string(*r.trace);
    r.stats.write_csv(out);
  }
  return out.str();
}

TEST(TraceDeterminism, ByteIdenticalAcrossJobCounts) {
  const std::string sequential = run_campaign_serialized(1);
  const std::string sharded = run_campaign_serialized(4);
  ASSERT_FALSE(sequential.empty());
  // Byte-for-byte: hash-free direct comparison so a mismatch prints a
  // usable diff via the first differing position.
  if (sequential != sharded) {
    std::size_t i = 0;
    while (i < sequential.size() && i < sharded.size() && sequential[i] == sharded[i]) ++i;
    FAIL() << "serialized artifacts diverge at byte " << i << ": ..."
           << sequential.substr(i > 40 ? i - 40 : 0, 80) << "... vs ..."
           << sharded.substr(i > 40 ? i - 40 : 0, 80) << "...";
  }
}

TEST(TraceDeterminism, RepeatedRunIsByteIdentical) {
  const apps::AppEntry& asp = find_app("ASP");
  const apps::AppResult a = asp.run(traced_config(2, 4, 42));
  const apps::AppResult b = asp.run(traced_config(2, 4, 42));
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  EXPECT_EQ(trace::chrome_trace_string(*a.trace), trace::chrome_trace_string(*b.trace));
  std::ostringstream ca, cb;
  a.stats.write_csv(ca);
  b.stats.write_csv(cb);
  EXPECT_EQ(ca.str(), cb.str());
  // And tracing itself must not perturb the simulation: same trace_hash
  // as an untraced run.
  apps::AppConfig untraced = traced_config(2, 4, 42);
  untraced.trace.enabled = false;
  const apps::AppResult c = asp.run(untraced);
  EXPECT_EQ(c.trace, nullptr);
  EXPECT_EQ(a.trace_hash, c.trace_hash);
  EXPECT_EQ(a.checksum, c.checksum);
}

bool same_event(const trace::TraceEvent& a, const trace::TraceEvent& b) {
  return a.time == b.time && a.id == b.id && a.arg == b.arg &&
         std::string_view(a.name) == b.name && a.actor == b.actor && a.cat == b.cat &&
         a.phase == b.phase && a.aux == b.aux;
}

TEST(TraceWraparound, WrappedRunKeepsTheNewestEventsOfTheRun) {
  // One ring per run: a wrapped recording is the time suffix of the
  // unwrapped one, not a per-cluster window.
  constexpr std::size_t kCapacity = 20000;
  const apps::AppEntry& ra = find_app("RA");
  const apps::AppResult full = ra.run(traced_config(4, 4, 42));
  apps::AppConfig small = traced_config(4, 4, 42);
  small.trace.capacity = kCapacity;
  const apps::AppResult wrapped = ra.run(small);
  ASSERT_NE(full.trace, nullptr);
  ASSERT_NE(wrapped.trace, nullptr);
  ASSERT_EQ(full.trace->dropped, 0u);
  ASSERT_GT(full.trace->events.size(), kCapacity) << "the small ring must wrap";

  const trace::Trace& w = *wrapped.trace;
  EXPECT_EQ(w.capacity, kCapacity);
  EXPECT_EQ(w.recorded, full.trace->recorded);
  EXPECT_EQ(w.dropped, full.trace->recorded - kCapacity);
  ASSERT_EQ(w.events.size(), kCapacity);
  const std::size_t skip = full.trace->events.size() - kCapacity;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    ASSERT_TRUE(same_event(w.events[i], full.trace->events[skip + i]))
        << "kept event " << i << " is not event " << skip + i << " of the unwrapped run";
  }
}

}  // namespace
