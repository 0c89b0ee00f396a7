// Content-addressed result cache tests: exact (de)serialization
// round-trips, key stability/version sensitivity, hit-equals-miss
// bit-identity, disk persistence, and damaged disk entries (rejected by
// the trailer, counted as corrupt misses, replaced by re-simulation).

#include "campaign/result_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/app.hpp"
#include "scenario/scenario.hpp"

namespace alb {
namespace {

using campaign::ResultCache;

apps::AppConfig small_tsp_config() {
  apps::AppConfig cfg = scenario::load("das").base;
  cfg.clusters = 2;
  cfg.procs_per_cluster = 2;
  return cfg;
}

const apps::AppResult& small_tsp_result() {
  static const apps::AppResult r = [] {
    for (const auto& e : apps::registry()) {
      if (e.name == "TSP") return e.run(small_tsp_config());
    }
    return apps::AppResult{};
  }();
  return r;
}

TEST(ResultCacheSerialization, RoundTripsARealRunExactly) {
  const apps::AppResult& r = small_tsp_result();
  ASSERT_GT(r.events, 0u);
  const std::string text = campaign::serialize_result(r);
  const apps::AppResult back = campaign::parse_result(text);
  EXPECT_EQ(back.elapsed, r.elapsed);
  EXPECT_EQ(back.checksum, r.checksum);
  EXPECT_EQ(back.trace_hash, r.trace_hash);
  EXPECT_EQ(back.events, r.events);
  EXPECT_EQ(static_cast<int>(back.status), static_cast<int>(r.status));
  EXPECT_EQ(back.error, r.error);
  // Traffic counters, per kind and combined.
  for (int k = 0; k < net::TrafficStats::kNumKinds; ++k) {
    const auto& a = r.traffic.kind_at(k);
    const auto& b = back.traffic.kind_at(k);
    EXPECT_EQ(a.intra_msgs, b.intra_msgs) << k;
    EXPECT_EQ(a.intra_bytes, b.intra_bytes) << k;
    EXPECT_EQ(a.inter_msgs, b.inter_msgs) << k;
    EXPECT_EQ(a.inter_bytes, b.inter_bytes) << k;
    EXPECT_EQ(a.inter_logical_msgs, b.inter_logical_msgs) << k;
    EXPECT_EQ(a.inter_logical_bytes, b.inter_logical_bytes) << k;
  }
  EXPECT_EQ(back.traffic.combined().flushes, r.traffic.combined().flushes);
  // App metrics (doubles must round-trip bit-exactly via %.17g).
  EXPECT_EQ(back.metrics, r.metrics);
  // Full metrics registry snapshot.
  ASSERT_FALSE(r.stats.empty());
  EXPECT_TRUE(back.stats == r.stats);
  // Serialization of the parsed value is the same bytes: a fixed point.
  EXPECT_EQ(campaign::serialize_result(back), text);
}

TEST(ResultCacheSerialization, HardFailureStatusRoundTrips) {
  apps::AppResult r = small_tsp_result();
  r.status = apps::AppResult::RunStatus::HardFailure;
  r.error = "rpc to cluster 1 exhausted 12 attempts";  // spaces survive
  const apps::AppResult back = campaign::parse_result(campaign::serialize_result(r));
  EXPECT_EQ(static_cast<int>(back.status),
            static_cast<int>(apps::AppResult::RunStatus::HardFailure));
  EXPECT_EQ(back.error, r.error);
}

TEST(ResultCacheSerialization, MalformedTextThrows) {
  EXPECT_THROW((void)campaign::parse_result(""), std::runtime_error);
  EXPECT_THROW((void)campaign::parse_result("albres 2\n"), std::runtime_error);
  EXPECT_THROW((void)campaign::parse_result("albres 1\nelapsed=abc\n"),
               std::runtime_error);
}

TEST(ResultCacheSerialization, ErrorTextWithNewlineRoundTrips) {
  apps::AppResult r = small_tsp_result();
  r.status = apps::AppResult::RunStatus::HardFailure;
  r.error = "line one\nline two \\n is not a newline\\";
  const std::string text = campaign::serialize_result(r);
  const apps::AppResult back = campaign::parse_result(text);
  EXPECT_EQ(back.error, r.error);
  EXPECT_EQ(back.checksum, r.checksum);
  EXPECT_EQ(campaign::serialize_result(back), text);
}

TEST(ResultCacheSerialization, TruncatedEntryIsRejected) {
  const std::string text = campaign::serialize_result(small_tsp_result());
  // Cut at every line boundary (the torn-write case that used to parse
  // as a valid result with counters missing) and mid-line.
  for (std::size_t cut = text.find('\n'); cut + 1 < text.size(); cut = text.find('\n', cut + 1)) {
    EXPECT_THROW((void)campaign::parse_result(text.substr(0, cut + 1)), std::runtime_error)
        << "accepted a prefix of " << cut + 1 << " bytes";
  }
  EXPECT_THROW((void)campaign::parse_result(text.substr(0, text.size() - 1)),
               std::runtime_error);
  EXPECT_THROW((void)campaign::parse_result(text.substr(0, text.size() / 2)),
               std::runtime_error);
}

TEST(ResultCacheSerialization, FlippedByteIsRejected) {
  const std::string text = campaign::serialize_result(small_tsp_result());
  for (const std::size_t at : {text.find("checksum=") + 9, text.size() / 2, text.size() - 3}) {
    std::string bad = text;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    EXPECT_THROW((void)campaign::parse_result(bad), std::runtime_error) << "byte " << at;
  }
}

// A parsed entry that names an instrument twice keeps the last value,
// and re-serializing it writes each name once.
TEST(ResultCacheSerialization, DuplicateStatNamesLastWins) {
  apps::AppResult r;
  r.stats.set_counter("net/a.msgs", 1);
  r.stats.set_gauge("orca/b.ratio", 0.25);
  trace::Histogram h;
  h.add(8);
  r.stats.set_histogram("net/c.bytes", h);
  const std::string text = campaign::serialize_result(r);
  const std::size_t trailer = text.rfind("end=");
  std::string body = text.substr(0, trailer);
  body += "counter=net/a.msgs 7\ngauge=orca/b.ratio 0.5\n";
  const std::size_t hist = body.find("hist=net/c.bytes ");
  body += body.substr(hist, body.find('\n', hist) + 1 - hist);
  // Re-sign the edited body: the trailer is FNV-1a 64 over it.
  std::uint64_t fnv = 1469598103934665603ull;
  for (const char c : body) {
    fnv ^= static_cast<unsigned char>(c);
    fnv *= 1099511628211ull;
  }
  char sig[17];
  std::snprintf(sig, sizeof sig, "%016llx", static_cast<unsigned long long>(fnv));

  const apps::AppResult back = campaign::parse_result(body + "end=" + sig + "\n");
  ASSERT_NE(back.stats.counter("net/a.msgs"), nullptr);
  EXPECT_EQ(*back.stats.counter("net/a.msgs"), 7u);
  EXPECT_DOUBLE_EQ(back.stats.value("orca/b.ratio"), 0.5);
  ASSERT_NE(back.stats.histogram("net/c.bytes"), nullptr);
  EXPECT_EQ(*back.stats.histogram("net/c.bytes"), h);
  r.stats.set_counter("net/a.msgs", 7);
  r.stats.set_gauge("orca/b.ratio", 0.5);
  EXPECT_EQ(campaign::serialize_result(back), campaign::serialize_result(r));
}

TEST(ResultCacheKey, StableAndSensitive) {
  ResultCache a("", "v1");
  const std::string req = scenario::canonical_request("TSP", small_tsp_config());
  const std::string k = a.key(req);
  EXPECT_EQ(k.size(), 16u);  // 64-bit hex address
  EXPECT_EQ(k, a.key(req));
  // Different request -> different key; different binary -> different key.
  apps::AppConfig other = small_tsp_config();
  other.seed = 43;
  EXPECT_NE(k, a.key(scenario::canonical_request("TSP", other)));
  ResultCache b("", "v2");
  EXPECT_NE(k, b.key(req));
}

TEST(ResultCache, HitReturnsTheStoredBytes) {
  ResultCache cache("", "v1");
  const std::string key = cache.key("req");
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  const apps::AppResult& r = small_tsp_result();
  cache.store(key, r);
  EXPECT_EQ(cache.stats().stores, 1u);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(campaign::serialize_result(*hit), campaign::serialize_result(r));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ResultCache, DiskPersistsAcrossInstances) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "alb_cache_test").string();
  std::filesystem::remove_all(dir);
  const apps::AppResult& r = small_tsp_result();
  std::string key;
  {
    ResultCache writer(dir, "v1");
    key = writer.key("persisted-req");
    writer.store(key, r);
  }
  ResultCache reader(dir, "v1");
  const auto hit = reader.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(reader.stats().hits, 1u);
  EXPECT_EQ(reader.stats().misses, 0u);
  EXPECT_EQ(hit->trace_hash, r.trace_hash);
  EXPECT_EQ(hit->checksum, r.checksum);
  EXPECT_EQ(campaign::serialize_result(*hit), campaign::serialize_result(r));
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, CorruptDiskEntryIsAMissAndResimulationReplacesIt) {
  // The alb-serve flow against a damaged --cache-dir: lookup, simulate
  // the misses, store, and serve the next batch from the cache.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "alb_cache_corrupt_test").string();
  std::filesystem::remove_all(dir);
  const apps::AppResult& r = small_tsp_result();
  std::string key;
  {
    ResultCache writer(dir, "v1");
    key = writer.key("damaged-req");
    writer.store(key, r);
  }
  // store() renamed its temp file into place: only the entry is left.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().filename().string(), key + ".albres");
    ++files;
  }
  EXPECT_EQ(files, 1u);
  const std::string path = dir + "/" + key + ".albres";
  std::string text;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    text = os.str();
  }
  {
    // Truncate at a line boundary, as a crash mid-write would have.
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text.substr(0, text.find("counter="));
  }
  {
    ResultCache serve(dir, "v1");
    EXPECT_FALSE(serve.lookup(key).has_value());
    EXPECT_EQ(serve.stats().misses, 1u);
    EXPECT_EQ(serve.stats().hits, 0u);
    EXPECT_EQ(serve.stats().corrupt, 1u);
    trace::Metrics m;
    serve.publish_metrics(m);
    EXPECT_EQ(m.snapshot().value("campaign/cache.corrupt"), 1.0);
    serve.store(key, r);  // the re-simulated result
    ASSERT_TRUE(serve.lookup(key).has_value());
  }
  ResultCache next(dir, "v1");
  const auto hit = next.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(next.stats().corrupt, 0u);
  EXPECT_EQ(campaign::serialize_result(*hit), text);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, PublishesMetrics) {
  ResultCache cache("", "v1");
  (void)cache.lookup(cache.key("a"));
  cache.store(cache.key("a"), small_tsp_result());
  (void)cache.lookup(cache.key("a"));
  trace::Metrics m;
  cache.publish_metrics(m);
  const trace::MetricsSnapshot snap = m.snapshot();
  EXPECT_EQ(snap.value("campaign/cache.hits"), 1.0);
  EXPECT_EQ(snap.value("campaign/cache.misses"), 1.0);
  EXPECT_EQ(snap.value("campaign/cache.stores"), 1.0);
}

}  // namespace
}  // namespace alb
