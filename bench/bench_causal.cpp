// Causal-profile sweep: where the critical path goes, per app variant.
//
// Runs TSP and ASP (original and optimized variants) on the 4-cluster
// DAS topology with the flight recorder on, reconstructs each run's
// happens-before DAG, and reports the critical path's per-blame
// breakdown plus the standard what-if projections (WAN latency = LAN,
// WAN bandwidth x8, sequencer co-located). This is the §4 story in one
// table: the original TSP's path is WAN-latency-bound, the optimized
// one is compute-bound, and the what-if column predicts the payoff
// before anyone rewrites the application. The grid is one campaign, so
// --jobs shards it with bit-identical output.
//
//   ./bench_causal [--quick] [--csv] [--jobs=N] [--seed=S] [--json=PATH]
//
// tools/publish_results.py regenerates results/BENCH_causal.json.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/asp.hpp"
#include "apps/tsp.hpp"
#include "bench_common.hpp"
#include "trace/causal/causal.hpp"

namespace {

using namespace alb;
using namespace alb::bench;

struct Cell {
  std::string app;
  bool optimized = false;
};

struct Profile {
  trace::causal::CriticalPath cp;
  std::size_t orphan_ends = 0;
  std::vector<trace::causal::Projection> what_if;
};

double pct(sim::SimTime part, sim::SimTime whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

void write_json(const std::string& path, const std::vector<Cell>& cells,
                const std::vector<AppResult>& results, const std::vector<Profile>& profiles) {
  std::ofstream os(path);
  os << "{\n  \"suite\": \"bench_causal\",\n"
     << "  \"topology\": \"4 clusters x 4\",\n"
     << "  \"points\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Profile& p = profiles[i];
    os << "    {\"app\": \"" << cells[i].app << "\", \"variant\": \""
       << (cells[i].optimized ? "opt" : "orig") << "\", \"elapsed_ns\": " << results[i].elapsed
       << ", \"cp_length_ns\": " << p.cp.length << ", \"segments\": " << p.cp.segments.size()
       << ", \"orphan_ends\": " << p.orphan_ends
       << ", \"wan_share_pct\": " << pct(p.cp.wan_total(), p.cp.length) << ",\n"
       << "     \"by_blame_ns\": {";
    bool first = true;
    for (const auto& [k, v] : p.cp.by_blame) {
      os << (first ? "" : ", ") << "\"" << k << "\": " << v;
      first = false;
    }
    os << "},\n     \"what_if\": [";
    for (std::size_t j = 0; j < p.what_if.size(); ++j) {
      const trace::causal::Projection& pj = p.what_if[j];
      os << (j ? ", " : "") << "{\"scenario\": \"" << pj.scenario.name
         << "\", \"projected_ns\": " << pj.projected << ", \"speedup\": " << pj.speedup << "}";
    }
    os << "]}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts;
  opts.define_flag("csv", "emit CSV instead of an aligned table");
  opts.define_flag("quick", "smaller problem sizes");
  opts.define("seed", "42", "workload seed", util::Options::Kind::Int);
  opts.define("json", "BENCH_causal.json", "output path for machine-readable results");
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

  std::vector<Cell> cells;
  std::vector<campaign::SimJob> jobs;
  for (const char* app : {"TSP", "ASP"}) {
    for (bool optimized : {false, true}) {
      AppConfig cfg = make_config(4, 4, optimized, seed);
      cfg.trace.enabled = true;
      if (app == std::string("TSP")) {
        jobs.push_back({[tsp](const AppConfig& c) { return apps::run_tsp(c, tsp); }, cfg});
      } else {
        jobs.push_back({[asp](const AppConfig& c) { return apps::run_asp(c, asp); }, cfg});
      }
      cells.push_back({app, optimized});
    }
  }

  std::cout << "causal sweep: " << jobs.size() << " traced simulations ("
            << (quick ? "quick" : "full") << " sizes)\n";
  const std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {njobs});

  // Post-processing is deterministic per trace, so doing it after the
  // campaign keeps --jobs byte-identity for free.
  std::vector<Profile> profiles(cells.size());
  bool ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!results[i].trace || results[i].status != AppResult::RunStatus::Ok) {
      ok = false;
      continue;
    }
    const net::TopologyConfig topo = jobs[i].cfg.topology();
    const trace::causal::Dag dag = trace::causal::build_dag(*results[i].trace, topo);
    profiles[i].cp = trace::causal::critical_path(dag);
    profiles[i].orphan_ends = dag.orphan_ends;
    for (const trace::causal::Scenario& sc : trace::causal::standard_scenarios(topo)) {
      profiles[i].what_if.push_back(trace::causal::what_if(dag, sc));
    }
  }

  util::Table t({"app", "variant", "elapsed ms", "wan_pct", "seq_pct", "compute_pct",
                 "latxeq", "bwx8", "seqloc"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Profile& p = profiles[i];
    const auto share = [&](const char* key) {
      const auto it = p.cp.by_blame.find(key);
      return pct(it == p.cp.by_blame.end() ? 0 : it->second, p.cp.length);
    };
    auto& row = t.row()
                    .add(cells[i].app)
                    .add(cells[i].optimized ? "opt" : "orig")
                    .add(sim::to_seconds(results[i].elapsed) * 1e3, 2)
                    .add(pct(p.cp.wan_total(), p.cp.length), 2)
                    .add(share("orca/seq.wait"), 2)
                    .add(share("app/compute"), 2);
    for (const trace::causal::Projection& pj : p.what_if) row.add(pj.speedup, 3);
    for (std::size_t j = p.what_if.size(); j < 3; ++j) row.add(std::string("-"));
  }
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  if (!ok) std::cout << "MISSING TRACE in at least one sweep point\n";

  write_json(opts.get("json"), cells, results, profiles);
  std::cout << "wrote " << opts.get("json") << "\n";
  return ok ? 0 : 1;
}
