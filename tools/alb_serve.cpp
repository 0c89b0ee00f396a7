// alb-serve: cache-backed batch simulation driver.
//
// Reads request lines (stdin or --requests FILE) of the form
//
//   <scenario-ref> [key=value ...]
//
// where <scenario-ref> names a shipped scenario (scenarios/<name>.scn)
// or a .scn path, and the optional overrides apply on top of every
// expanded run of that scenario. They are the [run] vocabulary minus
// label (app opt adapt seed coll wan_streams combine_bytes clusters
// per_cluster rtt latency bandwidth; `per` spells per_cluster), parsed
// and range-checked by scenario::apply_override (docs/SCENARIOS.md).
// Each expanded run is answered from the content-addressed result cache
// (src/campaign/result_cache.hpp) when its canonical request has been
// simulated before — by this process or, with --cache-dir, by any
// previous process of the same binary — and only the misses are
// simulated, sharded --jobs wide through the campaign engine.
//
// stdout carries one line per expanded run containing only simulated
// values, so a cache hit is byte-identical to a fresh simulation and
// `diff` across repeats/--jobs values must be empty (check.sh pins
// this). Cache statistics and throughput go to stderr; --metrics-out
// dumps the campaign/cache.* counters as CSV.
//
// --validate DIR instead parses every .scn under DIR and reports each
// file's expanded run count, failing loudly on the first bad file.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "campaign/result_cache.hpp"
#include "campaign/sim_jobs.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/cli.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/metrics.hpp"
#include "util/options.hpp"

namespace {

using namespace alb;

/// One expanded (request line × scenario run) unit of work.
struct Unit {
  std::string scenario;   ///< scenario name (for the output line)
  scenario::RunPlan run;  ///< the scenario run with the line's overrides
  std::string key;        ///< cache key of the canonical request
  bool resolved = false;
  apps::AppResult result;
};

/// Formats a double the same way the result serialization does, so the
/// output line is a pure function of the stored result.
std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Exact p-th percentile of `v` (sorted in place); 0 when empty.
double pct_ms(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

int validate_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".scn") files.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "alb-serve: cannot read directory " << dir << ": " << ec.message() << '\n';
    return 1;
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "alb-serve: no .scn files under " << dir << '\n';
    return 1;
  }
  for (const fs::path& p : files) {
    try {
      const scenario::Scenario sc = scenario::load(p.string());
      std::cout << "ok " << p.string() << " name=" << sc.name << " runs=" << sc.runs.size()
                << '\n';
    } catch (const scenario::ScenarioError& e) {
      std::cerr << "alb-serve: " << e.what() << '\n';
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alb;
  util::Options opts;
  opts.define("requests", "", "request list file (default: read stdin)");
  opts.define("jobs", "0", "worker threads for cache misses (0 = hardware concurrency)");
  opts.define("cache-dir", "", "persist cache entries here (one file per key)");
  opts.define("metrics-out", "", "write the cache/serve metrics registry as CSV here");
  opts.define("app", "TSP", "default app when neither the scenario nor the request names one");
  opts.define("validate", "", "parse-validate every .scn under this directory and exit");
  telemetry::define_cli_options(opts);

  try {
    if (!opts.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << "alb-serve: " << e.what() << '\n';
    return 2;
  }
  if (const std::string& dir = opts.get("validate"); !dir.empty()) return validate_dir(dir);

  // Host telemetry is stderr/side-file-only: stdout stays byte-identical
  // with telemetry on or off (the check.sh telemetry stage diffs it).
  telemetry::enable_from_cli(opts, "alb-serve");
  if (telemetry::Collector* tc = telemetry::Collector::active()) tc->label_thread("serve-main");
  struct TelemetryGuard {
    ~TelemetryGuard() { telemetry::Collector::shutdown(); }
  } telemetry_guard;

  std::vector<Unit> units;
  campaign::ResultCache cache(opts.get("cache-dir"));
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t request_lines = 0;
  try {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (const std::string& path = opts.get("requests"); !path.empty()) {
      file.open(path);
      if (!file) throw std::runtime_error("cannot read request file " + path);
      in = &file;
    }

    // Parsed-scenario cache: a request mix repeats a handful of
    // scenarios thousands of times; parse each file once.
    telemetry::ScopedSpan parse_span("serve.parse");
    const std::string source = opts.get("requests").empty() ? "<stdin>" : opts.get("requests");
    std::map<std::string, scenario::Scenario> scenarios;
    std::string line;
    int line_no = 0;
    while (std::getline(*in, line)) {
      ++line_no;
      std::istringstream tok(line);
      std::string ref;
      if (!(tok >> ref) || ref[0] == '#') continue;
      ++request_lines;
      auto it = scenarios.find(ref);
      if (it == scenarios.end()) it = scenarios.emplace(ref, scenario::load(ref)).first;
      const scenario::Scenario& sc = it->second;
      struct Override {
        std::string key, value;
        int col;
      };
      std::vector<Override> overrides;
      while (tok >> std::ws && !tok.eof()) {
        const int col = static_cast<int>(tok.tellg()) + 1;
        std::string t;
        tok >> t;
        const std::size_t eq = t.find('=');
        if (eq == std::string::npos) {
          throw scenario::ScenarioError(scenario::ScenarioError::Code::Syntax, source, line_no,
                                        col, "override '" + t + "' is not key=value");
        }
        // `per` is the request-line spelling of per_cluster.
        const std::string key = t.substr(0, eq);
        overrides.push_back({key == "per" ? "per_cluster" : key, t.substr(eq + 1), col});
      }
      for (const scenario::RunPlan& plan : sc.runs) {
        Unit u{sc.name, plan, "", false, {}};
        if (u.run.app.empty()) {
          scenario::apply_override(&u.run, "app", opts.get("app"), "<command line>", 1, 1);
        }
        for (const Override& o : overrides) {
          scenario::apply_override(&u.run, o.key, o.value, source, line_no, o.col);
        }
        scenario::check_run(u.run, source, line_no, 1);
        u.key = cache.key(scenario::canonical_request(u.run.app, u.run.cfg));
        units.push_back(std::move(u));
      }
    }
    parse_span.set_arg(request_lines);
  } catch (const std::exception& e) {
    std::cerr << "alb-serve: " << e.what() << '\n';
    return 2;
  }

  // Resolve every unit against the cache; simulate each distinct missed
  // key exactly once, --jobs wide. Per-unit lookup wall latency feeds
  // the hit-side tail-latency percentiles (stderr only).
  std::vector<campaign::SimJob> jobs;
  std::vector<std::string> job_keys;
  std::map<std::string, std::size_t> scheduled;  // key -> jobs index
  std::vector<double> hit_ms;
  {
    telemetry::ScopedSpan resolve_span("serve.resolve", units.size());
    for (Unit& u : units) {
      const auto l0 = std::chrono::steady_clock::now();
      std::optional<apps::AppResult> hit = cache.lookup(u.key);
      const double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - l0)
              .count();
      if (hit) {
        hit_ms.push_back(ms);
        u.result = std::move(*hit);
        u.resolved = true;
      } else if (scheduled.find(u.key) == scheduled.end()) {
        scheduled.emplace(u.key, jobs.size());
        jobs.push_back(campaign::SimJob{apps::find_app(u.run.app)->run, u.run.cfg});
        job_keys.push_back(u.key);
      }
    }
  }

  campaign::Options copts;
  copts.jobs = static_cast<int>(opts.get_int("jobs"));
  campaign::RunStats stats;
  std::vector<apps::AppResult> fresh;
  try {
    telemetry::ScopedSpan sim_span("serve.simulate", jobs.size());
    fresh = campaign::run_sim_jobs(jobs, copts, &stats);
  } catch (const std::exception& e) {
    std::cerr << "alb-serve: simulation failed: " << e.what() << '\n';
    return 1;
  }
  // A missed unit's wall latency is its simulation job's execution
  // time (the queueing-free approximation: lookup cost is separate and
  // negligible next to a simulate).
  std::vector<double> miss_ms;
  {
    telemetry::ScopedSpan store_span("serve.store", fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) cache.store(job_keys[i], fresh[i]);
  }
  for (Unit& u : units) {
    if (!u.resolved) {
      const std::size_t j = scheduled.at(u.key);
      u.result = fresh[j];
      u.resolved = true;
      if (j < stats.job_seconds.size() && stats.job_seconds[j] >= 0) {
        miss_ms.push_back(stats.job_seconds[j] * 1e3);
      }
    }
  }

  // One line per unit, simulated values only — a hit emits the same
  // bytes a fresh simulation would (the cache round-trips exactly).
  {
    telemetry::ScopedSpan out_span("serve.output", units.size());
    for (const Unit& u : units) {
      const apps::AppResult& r = u.result;
      std::cout << "scenario=" << u.scenario << " run=" << u.run.label << " app=" << u.run.app
                << " key=" << u.key << " elapsed_s=" << fmt_g(sim::to_seconds(r.elapsed))
                << " checksum=" << r.checksum << " trace_hash=" << r.trace_hash
                << " events=" << r.events
                << " status=" << (r.status == apps::AppResult::RunStatus::Ok ? "ok" : "hard_failure")
                << '\n';
    }
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const campaign::ResultCache::Stats& cs = cache.stats();
  // Request latency split hit-vs-miss: a single aggregate wall_s hides
  // the tail entirely (a 1 ms hit and a 2 s simulate average to
  // meaninglessness). Percentiles are exact (sorted samples).
  std::cerr << "alb-serve: requests=" << request_lines << " expanded=" << units.size()
            << " hits=" << cs.hits << " misses=" << cs.misses << " stores=" << cs.stores
            << " workers=" << stats.workers << " wall_s=" << fmt_g(wall) << " req_per_min="
            << fmt_g(wall > 0 ? static_cast<double>(units.size()) / wall * 60.0 : 0.0)
            << " hit_ms_p50=" << fmt_g(pct_ms(hit_ms, 50))
            << " hit_ms_p95=" << fmt_g(pct_ms(hit_ms, 95))
            << " hit_ms_p99=" << fmt_g(pct_ms(hit_ms, 99))
            << " miss_ms_p50=" << fmt_g(pct_ms(miss_ms, 50))
            << " miss_ms_p95=" << fmt_g(pct_ms(miss_ms, 95))
            << " miss_ms_p99=" << fmt_g(pct_ms(miss_ms, 99)) << '\n';
  // The worker-pool accounting table (campaign/pool.*), stderr only.
  std::cerr << "alb-serve pool: workers=" << stats.workers << " jobs_total=" << stats.jobs_total
            << " jobs_run=" << stats.jobs_run << " jobs_cancelled=" << stats.jobs_cancelled
            << " utilization=" << fmt_g(stats.utilization())
            << " jobs_per_sec=" << fmt_g(stats.jobs_per_sec())
            << " job_s_p50=" << fmt_g(stats.job_seconds_percentile(50))
            << " job_s_p95=" << fmt_g(stats.job_seconds_percentile(95))
            << " job_s_max=" << fmt_g(stats.job_seconds_percentile(100)) << '\n';

  if (const std::string& p = opts.get("metrics-out"); !p.empty()) {
    trace::Metrics m;
    cache.publish_metrics(m);
    campaign::publish_pool_metrics(stats, m);
    *m.counter("campaign/serve.requests") = request_lines;
    *m.counter("campaign/serve.expanded") = units.size();
    *m.counter("campaign/serve.simulated") = fresh.size();
    std::ofstream os(p, std::ios::binary);
    if (!os) {
      std::cerr << "alb-serve: cannot open " << p << " for writing\n";
      return 1;
    }
    m.snapshot().write_csv(os);
    std::cout << "wrote " << p << '\n';
  }

  // Host-telemetry artifacts + final heartbeat; diagnostics on stderr so
  // stdout stays telemetry-independent.
  if (!telemetry::finish_cli(opts, std::cerr)) return 1;
  return 0;
}
