#pragma once
// Content-addressed simulation result cache.
//
// Every run is a pure function of its canonical request text (see
// scenario::canonical_request) and the binary version, so the cache
// key hash(version + request) identifies a result *exactly*: a hit
// returns the stored AppResult bit-identical to re-simulation, which
// is what lets a sweep service answer repeated requests with zero
// re-simulation and a byte-identical response stream. The binary
// version participates in the key because a code change may move
// event timing even when the request text is unchanged.
//
// Storage is a versioned text serialization of AppResult minus the
// flight-recorder trace (cached requests run untraced; metrics and
// traffic counters are simulated values and round-trip exactly),
// closed by a hash trailer. An optional disk directory persists
// entries one file per key, so a warm cache survives process restarts
// of the same binary. Files are written to a temp name and renamed into
// place; a file that still fails to parse (truncated, damaged) is a
// counted miss, never an error, and its re-simulation replaces it.
//
// Thread-safety: none. The intended pattern (tools/alb_serve.cpp) is
// plan -> run the misses through run_sim_jobs (the parallelism lives
// there) -> store -> emit, all on the driving thread.

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "apps/app.hpp"
#include "trace/metrics.hpp"

namespace alb::campaign {

/// Serializes `r` (minus the trace) as versioned text ("albres 2"), one
/// key=value per line, ending in an `end=<fnv64 of all bytes before
/// it>` trailer. Doubles render as %.17g and round-trip bit-exactly;
/// the error text escapes backslash and newline.
std::string serialize_result(const apps::AppResult& r);

/// Inverse of serialize_result. Throws std::runtime_error on malformed
/// or version-mismatched text and on a missing or mismatched trailer.
apps::AppResult parse_result(const std::string& text);

class ResultCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t corrupt = 0;  ///< disk entries that failed to parse (counted as misses)
  };

  /// `disk_dir`: "" = memory-only; otherwise entries are also written
  /// to (and on miss read from) `<disk_dir>/<key>.albres`.
  /// `binary_version`: defaults to the build's ALB_BINARY_VERSION.
  explicit ResultCache(std::string disk_dir = "", std::string binary_version = "");

  /// The content address of a canonical request under this binary.
  std::string key(const std::string& canonical_request) const;

  /// Memory first, then disk (a disk hit is promoted to memory).
  /// Counts a hit or a miss. An entry that fails to parse is dropped,
  /// counted in stats().corrupt and reported as a miss.
  std::optional<apps::AppResult> lookup(const std::string& key);

  void store(const std::string& key, const apps::AppResult& r);

  const Stats& stats() const { return stats_; }

  /// Publishes campaign/cache.{hits,misses,stores,corrupt} counters.
  void publish_metrics(trace::MetricsSnapshot& m) const;

 private:
  /// Memory, then disk; no accounting.
  const std::string* find(const std::string& key);
  /// Counts one lookup outcome (and its latency when telemetry is on).
  void count(bool hit, std::int64_t t0_ns);

  std::string dir_;
  std::string version_;
  std::map<std::string, std::string> mem_;  // key -> serialized text
  Stats stats_;
};

}  // namespace alb::campaign
