#include "campaign/result_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "net/traffic_stats.hpp"
#include "telemetry/telemetry.hpp"

#ifndef ALB_BINARY_VERSION
#define ALB_BINARY_VERSION "dev"
#endif

namespace alb::campaign {

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr const char* kHeader = "albres 2";
constexpr const char* kTrailer = "end=";

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// error= text is one line: backslash and newline are escaped.
std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
    } else if (i + 1 < s.size() && (s[i + 1] == '\\' || s[i + 1] == 'n')) {
      out += s[++i] == 'n' ? '\n' : '\\';
    } else {
      throw std::runtime_error("result cache: bad escape in '" + s + "'");
    }
  }
  return out;
}

/// One "key=value" line of text[*pos, end); returns false at `end`.
bool next_line(const std::string& text, std::size_t end, std::size_t* pos, std::string* key,
               std::string* value) {
  while (*pos < end) {
    const std::size_t eol = std::min(text.find('\n', *pos), end);
    const std::string line = text.substr(*pos, eol - *pos);
    *pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("result cache: malformed line '" + line + "'");
    }
    *key = line.substr(0, eq);
    *value = line.substr(eq + 1);
    return true;
  }
  return false;
}

/// Splits a space-separated field list; throws if the count is wrong.
std::vector<std::string> fields(const std::string& v, std::size_t expect_at_least) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= v.size()) {
    const std::size_t sp = std::min(v.find(' ', pos), v.size());
    if (sp > pos) out.push_back(v.substr(pos, sp - pos));
    pos = sp + 1;
  }
  if (out.size() < expect_at_least) {
    throw std::runtime_error("result cache: expected >= " + std::to_string(expect_at_least) +
                             " fields, got " + std::to_string(out.size()) + " in '" + v + "'");
  }
  return out;
}

std::uint64_t to_u64(const std::string& s) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size()) {
    throw std::runtime_error("result cache: bad integer '" + s + "'");
  }
  return v;
}

std::int64_t to_i64(const std::string& s) {
  char* end = nullptr;
  const std::int64_t v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size()) {
    throw std::runtime_error("result cache: bad integer '" + s + "'");
  }
  return v;
}

double to_dbl(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) {
    throw std::runtime_error("result cache: bad number '" + s + "'");
  }
  return v;
}

}  // namespace

std::string serialize_result(const apps::AppResult& r) {
  std::string out = std::string(kHeader) + "\n";
  out += "elapsed=" + std::to_string(r.elapsed) + "\n";
  out += std::string("status=") +
         (r.status == apps::AppResult::RunStatus::Ok ? "ok" : "hard_failure") + "\n";
  if (!r.error.empty()) out += "error=" + escape(r.error) + "\n";
  out += "checksum=" + std::to_string(r.checksum) + "\n";
  out += "trace_hash=" + std::to_string(r.trace_hash) + "\n";
  out += "events=" + std::to_string(r.events) + "\n";
  for (int k = 0; k < net::TrafficStats::kNumKinds; ++k) {
    const net::KindCounters& c = r.traffic.kind_at(k);
    out += "traffic.kind=" + std::to_string(k) + " " + std::to_string(c.intra_msgs) + " " +
           std::to_string(c.intra_bytes) + " " + std::to_string(c.inter_msgs) + " " +
           std::to_string(c.inter_bytes) + " " + std::to_string(c.inter_logical_msgs) + " " +
           std::to_string(c.inter_logical_bytes) + "\n";
  }
  const net::CombinedCounters& cc = r.traffic.combined();
  out += "traffic.combined=" + std::to_string(cc.flushes) + " " + std::to_string(cc.members) +
         " " + std::to_string(cc.wire_bytes) + " " + std::to_string(cc.logical_bytes) + "\n";
  for (const auto& [name, v] : r.metrics) out += "metric=" + name + " " + fmt(v) + "\n";
  r.stats.for_each_counter([&](std::string_view name, std::uint64_t v) {
    out.append("counter=").append(name).append(" ").append(std::to_string(v)).append("\n");
  });
  r.stats.for_each_gauge([&](std::string_view name, double v) {
    out.append("gauge=").append(name).append(" ").append(fmt(v)).append("\n");
  });
  r.stats.for_each_histogram([&](std::string_view name, const trace::Histogram& h) {
    out.append("hist=").append(name);
    for (const std::uint64_t v : {h.count, h.sum, h.min, h.max}) {
      out.append(" ").append(std::to_string(v));
    }
    for (const std::uint64_t b : h.buckets) out.append(" ").append(std::to_string(b));
    out.append("\n");
  });
  out += kTrailer + hex64(fnv1a(kFnvBasis, out)) + "\n";
  return out;
}

apps::AppResult parse_result(const std::string& text) {
  std::size_t pos = 0;
  {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    if (text.substr(0, eol) != kHeader) {
      throw std::runtime_error("result cache: unsupported format header");
    }
    pos = eol + 1;
  }
  // The last line is the trailer: a hash of every byte before it. A
  // torn write (truncated at any point) or a flipped byte fails here.
  const std::size_t nl = text.rfind(std::string("\n") + kTrailer);
  const std::size_t body_end = nl == std::string::npos ? 0 : nl + 1;
  const std::string_view body(text.data(), body_end);
  const std::string trailer = kTrailer + hex64(fnv1a(kFnvBasis, body)) + "\n";
  if (body_end < pos || text.size() != body_end + trailer.size()) {
    throw std::runtime_error("result cache: missing end= trailer");
  }
  if (text.compare(body_end, trailer.size(), trailer) != 0) {
    throw std::runtime_error("result cache: end= trailer does not match the entry");
  }
  apps::AppResult r;
  std::string key, value;
  while (next_line(text, body.size(), &pos, &key, &value)) {
    if (key == "elapsed") {
      r.elapsed = to_i64(value);
    } else if (key == "status") {
      if (value == "ok") r.status = apps::AppResult::RunStatus::Ok;
      else if (value == "hard_failure") r.status = apps::AppResult::RunStatus::HardFailure;
      else throw std::runtime_error("result cache: bad status '" + value + "'");
    } else if (key == "error") {
      r.error = unescape(value);
    } else if (key == "checksum") {
      r.checksum = to_u64(value);
    } else if (key == "trace_hash") {
      r.trace_hash = to_u64(value);
    } else if (key == "events") {
      r.events = to_u64(value);
    } else if (key == "traffic.kind") {
      const auto f = fields(value, 7);
      const std::int64_t k = to_i64(f[0]);
      if (k < 0 || k >= net::TrafficStats::kNumKinds) {
        throw std::runtime_error("result cache: traffic kind out of range: " + f[0]);
      }
      net::KindCounters& c = r.traffic.kind_at(static_cast<int>(k));
      c.intra_msgs = to_u64(f[1]);
      c.intra_bytes = to_u64(f[2]);
      c.inter_msgs = to_u64(f[3]);
      c.inter_bytes = to_u64(f[4]);
      c.inter_logical_msgs = to_u64(f[5]);
      c.inter_logical_bytes = to_u64(f[6]);
    } else if (key == "traffic.combined") {
      const auto f = fields(value, 4);
      net::CombinedCounters& c = r.traffic.combined_mut();
      c.flushes = to_u64(f[0]);
      c.members = to_u64(f[1]);
      c.wire_bytes = to_u64(f[2]);
      c.logical_bytes = to_u64(f[3]);
    } else if (key == "metric") {
      const auto f = fields(value, 2);
      r.metrics[f[0]] = to_dbl(f[1]);
    } else if (key == "counter") {
      const auto f = fields(value, 2);
      r.stats.set_counter(f[0], to_u64(f[1]));
    } else if (key == "gauge") {
      const auto f = fields(value, 2);
      r.stats.set_gauge(f[0], to_dbl(f[1]));
    } else if (key == "hist") {
      const auto f = fields(value, 5 + trace::Histogram::kBuckets);
      trace::Histogram h;
      h.count = to_u64(f[1]);
      h.sum = to_u64(f[2]);
      h.min = to_u64(f[3]);
      h.max = to_u64(f[4]);
      for (int b = 0; b < trace::Histogram::kBuckets; ++b) {
        h.buckets[static_cast<std::size_t>(b)] = to_u64(f[static_cast<std::size_t>(5 + b)]);
      }
      r.stats.set_histogram(f[0], h);
    } else {
      throw std::runtime_error("result cache: unknown field '" + key + "'");
    }
  }
  return r;
}

ResultCache::ResultCache(std::string disk_dir, std::string binary_version)
    : dir_(std::move(disk_dir)),
      version_(binary_version.empty() ? ALB_BINARY_VERSION : std::move(binary_version)) {}

std::string ResultCache::key(const std::string& canonical_request) const {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, version_);
  h = fnv1a(h, std::string(1, '\0'));
  h = fnv1a(h, canonical_request);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

const std::string* ResultCache::find(const std::string& key) {
  auto it = mem_.find(key);
  if (it == mem_.end() && !dir_.empty()) {
    std::ifstream is(dir_ + "/" + key + ".albres", std::ios::binary);
    if (is) {
      std::ostringstream text;
      text << is.rdbuf();
      it = mem_.emplace(key, text.str()).first;
    }
  }
  return it == mem_.end() ? nullptr : &it->second;
}

void ResultCache::count(bool hit, std::int64_t t0_ns) {
  ++(hit ? stats_.hits : stats_.misses);
  // Host telemetry reads the wall clock around the lookup; the outcome
  // and returned bytes are identical with telemetry on or off.
  if (telemetry::Collector* tc = telemetry::Collector::active()) {
    tc->record_cache(hit, static_cast<std::uint64_t>(telemetry::now_ns() - t0_ns));
  }
}

std::optional<apps::AppResult> ResultCache::lookup(const std::string& key) {
  const std::int64_t t0 = telemetry::Collector::active() ? telemetry::now_ns() : 0;
  std::optional<apps::AppResult> r;
  if (const std::string* text = find(key)) {
    try {
      r = parse_result(*text);
    } catch (const std::runtime_error&) {
      // Only a disk file can fail to parse (store() keeps its own
      // bytes): a torn write or a damaged file. Forget it and report a
      // miss; the caller re-simulates and store() replaces the file.
      mem_.erase(key);
      ++stats_.corrupt;
    }
  }
  count(r.has_value(), t0);
  return r;
}

void ResultCache::store(const std::string& key, const apps::AppResult& r) {
  std::string text = serialize_result(r);
  if (!dir_.empty()) {
    // Write a private temp file, then rename it into place: a reader
    // (or a crash) never sees a half-written entry under the key.
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);  // best effort; the write reports
    const std::string path = dir_ + "/" + key + ".albres";
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    bool written = false;
    {
      std::ofstream os(tmp, std::ios::binary);
      os << text;
      written = static_cast<bool>(os.flush());
    }
    if (written) std::filesystem::rename(tmp, path, ec);
    if (!written || ec) std::filesystem::remove(tmp, ec);
  }
  mem_[key] = std::move(text);
  ++stats_.stores;
}

void ResultCache::publish_metrics(trace::MetricsSnapshot& m) const {
  m.set_counter("campaign/cache.hits", stats_.hits);
  m.set_counter("campaign/cache.misses", stats_.misses);
  m.set_counter("campaign/cache.stores", stats_.stores);
  m.set_counter("campaign/cache.corrupt", stats_.corrupt);
}

}  // namespace alb::campaign
