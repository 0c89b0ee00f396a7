// Resilience sweep: what WAN faults cost, and what recovery buys.
//
// Runs TSP (central job queue — every remote fetch a WAN RPC) and ASP
// (sequenced broadcasts) on the 4-cluster DAS topology across a
// loss × jitter grid, with the faults-off run of each app as baseline.
// Per cell it reports the slowdown versus that baseline plus the
// recovery counters (drops, retries, timeouts, duplicate suppressions),
// demonstrating that every faulted run still computes the exact
// baseline checksum. The grid is submitted as one campaign, so --jobs
// shards it over the worker pool with bit-identical results.
//
//   ./bench_resilience [--quick] [--csv] [--jobs=N] [--seed=S] [--json=PATH]
//
// results/BENCH_resilience.json holds the tracked numbers; rerun with
// `--json results/BENCH_resilience.json` to refresh.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/asp.hpp"
#include "apps/tsp.hpp"
#include "bench_common.hpp"

namespace {

using namespace alb;
using namespace alb::bench;

struct Cell {
  std::string app;
  double loss = 0.0;
  double jitter = 0.0;
};

AppConfig faulted_config(std::uint64_t seed, const Cell& cell) {
  AppConfig c = make_config(4, 4, false, seed);
  if (cell.loss > 0 || cell.jitter > 0) {
    c.faults.enabled = true;
    c.faults.wan.loss = cell.loss;
    c.faults.wan.latency_jitter = cell.jitter;
    c.faults.wan.bandwidth_jitter = cell.jitter;
  }
  return c;
}

double stat(const AppResult& r, const char* name) { return r.stats.value(name); }

void write_json(const std::string& path, const std::vector<Cell>& cells,
                const std::vector<AppResult>& results, const std::vector<double>& slowdown,
                bool all_ok) {
  std::ofstream os(path);
  os << "{\n  \"suite\": \"bench_resilience\",\n"
     << "  \"topology\": \"4 clusters x 4\",\n"
     << "  \"cells\": " << cells.size() << ",\n"
     << "  \"all_checksums_match_baseline\": " << (all_ok ? "true" : "false") << ",\n"
     << "  \"grid\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const AppResult& r = results[i];
    os << "    {\"app\": \"" << cells[i].app << "\", \"loss\": " << cells[i].loss
       << ", \"jitter\": " << cells[i].jitter
       << ", \"elapsed_ns\": " << r.elapsed
       << ", \"slowdown\": " << slowdown[i]
       << ", \"drops\": " << stat(r, "net/fault.drops")
       << ", \"retries\": " << stat(r, "net/fault.retries")
       << ", \"rpc_timeouts\": " << stat(r, "net/fault.timeouts.rpc")
       << ", \"seq_timeouts\": " << stat(r, "net/fault.timeouts.seq")
       << ", \"dup_requests\": "
       << stat(r, "net/fault.dup.rpc_requests") + stat(r, "net/fault.dup.seq_requests")
       << ", \"trace_hash\": " << r.trace_hash << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts;
  opts.define_flag("csv", "emit CSV instead of an aligned table");
  opts.define_flag("quick", "smaller problems and a reduced loss grid");
  opts.define("seed", "42", "workload seed", util::Options::Kind::Int);
  opts.define("json", "BENCH_resilience.json", "output path for machine-readable results");
  define_jobs_option(opts);
  if (!parse_options(opts, argc, argv)) return 0;
  const bool csv = opts.has_flag("csv");
  const bool quick = opts.has_flag("quick");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  const int njobs = static_cast<int>(opts.get_int("jobs"));

  apps::TspParams tsp;
  apps::AspParams asp;
  if (quick) {
    tsp.cities = 11;
    tsp.job_depth = 3;
    asp.nodes = 48;
  }

  const std::vector<double> losses =
      quick ? std::vector<double>{0.0, 0.05} : std::vector<double>{0.0, 0.01, 0.05};
  const std::vector<double> jitters = {0.0, 0.25};

  // Loss 0 + jitter 0 is the faults-off baseline cell of each app.
  std::vector<Cell> cells;
  std::vector<campaign::SimJob> jobs;
  for (const char* app : {"TSP", "ASP"}) {
    for (double loss : losses) {
      for (double jitter : jitters) {
        Cell cell{app, loss, jitter};
        AppConfig cfg = faulted_config(seed, cell);
        if (cell.app == std::string("TSP")) {
          jobs.push_back({[tsp](const AppConfig& c) { return apps::run_tsp(c, tsp); }, cfg});
        } else {
          jobs.push_back({[asp](const AppConfig& c) { return apps::run_asp(c, asp); }, cfg});
        }
        cells.push_back(cell);
      }
    }
  }

  std::cout << "resilience sweep: " << jobs.size() << " simulations ("
            << (quick ? "quick" : "full") << " grid)\n";
  const std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {njobs});

  // Baseline (loss 0, jitter 0) elapsed + checksum per app.
  std::vector<double> slowdown(cells.size(), 0.0);
  bool all_ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::size_t base = i;
    for (std::size_t j = 0; j < cells.size(); ++j) {
      if (cells[j].app == cells[i].app && cells[j].loss == 0 && cells[j].jitter == 0) {
        base = j;
        break;
      }
    }
    slowdown[i] = results[base].elapsed > 0
                      ? static_cast<double>(results[i].elapsed) /
                            static_cast<double>(results[base].elapsed)
                      : 0.0;
    if (results[i].status != AppResult::RunStatus::Ok ||
        results[i].checksum != results[base].checksum) {
      all_ok = false;
    }
  }

  util::Table t({"app", "loss", "jitter", "elapsed ms", "slowdown", "drops", "retries",
                 "timeouts", "dups"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const AppResult& r = results[i];
    t.row()
        .add(cells[i].app)
        .add(cells[i].loss, 2)
        .add(cells[i].jitter, 2)
        .add(sim::to_seconds(r.elapsed) * 1e3, 2)
        .add(slowdown[i], 3)
        .add(stat(r, "net/fault.drops"), 0)
        .add(stat(r, "net/fault.retries"), 0)
        .add(stat(r, "net/fault.timeouts.rpc") + stat(r, "net/fault.timeouts.seq"), 0)
        .add(stat(r, "net/fault.dup.rpc_requests") + stat(r, "net/fault.dup.seq_requests"),
             0);
  }
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  std::cout << (all_ok ? "all faulted checksums match the faults-off baseline\n"
                       : "CHECKSUM MISMATCH against the faults-off baseline\n");

  write_json(opts.get("json"), cells, results, slowdown, all_ok);
  std::cout << "wrote " << opts.get("json") << "\n";
  return all_ok ? 0 : 1;
}
