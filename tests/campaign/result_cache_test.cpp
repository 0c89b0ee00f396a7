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
  EXPECT_EQ(back.stats.counters, r.stats.counters);
  EXPECT_EQ(back.stats.gauges, r.stats.gauges);
  ASSERT_EQ(back.stats.histograms.size(), r.stats.histograms.size());
  for (const auto& [name, h] : r.stats.histograms) {
    const auto it = back.stats.histograms.find(name);
    ASSERT_NE(it, back.stats.histograms.end()) << name;
    EXPECT_EQ(it->second.count, h.count) << name;
    EXPECT_EQ(it->second.sum, h.sum) << name;
    EXPECT_EQ(it->second.min, h.min) << name;
    EXPECT_EQ(it->second.max, h.max) << name;
    EXPECT_EQ(it->second.buckets, h.buckets) << name;
  }
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
  const std::string* text = cache.lookup_text(key);
  ASSERT_NE(text, nullptr);
  EXPECT_EQ(*text, campaign::serialize_result(r));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->trace_hash, r.trace_hash);
  EXPECT_EQ(hit->elapsed, r.elapsed);
  EXPECT_EQ(cache.stats().hits, 2u);
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
