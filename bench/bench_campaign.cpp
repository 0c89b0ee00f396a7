// Campaign engine benchmark: the wall-clock cost of reproducing the
// paper's figure suite. Builds the complete job set of Figures 1-14
// (every app in the registry × original/optimized × the full
// 1/2/4-cluster sweep — ~26 deterministic simulations per app), runs it
// once on the sequential reference path (--jobs 1) and once sharded over
// the worker pool, verifies the two result sets are bit-identical
// (elapsed, checksum and engine trace_hash per job), and reports
// per-job wall times plus campaign throughput as machine-readable JSON.
//
//   ./bench_campaign [--jobs=N] [--quick] [--seed=S] [--json=PATH]
//
// results/BENCH_campaign.json holds the tracked numbers for this
// machine; rerun with `--json results/BENCH_campaign.json` to refresh.

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace alb;
using namespace alb::bench;

struct Phase {
  int workers = 0;
  campaign::RunStats stats;
  std::vector<AppResult> results;
};

Phase run_phase(const std::vector<campaign::SimJob>& jobs, int njobs) {
  Phase p;
  p.workers = campaign::resolve_jobs(njobs);
  p.results = campaign::run_sim_jobs(jobs, {njobs}, &p.stats);
  return p;
}

/// Bit-identity over everything the tables/CSV are derived from.
bool identical(const std::vector<AppResult>& a, const std::vector<AppResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].elapsed != b[i].elapsed || a[i].checksum != b[i].checksum ||
        a[i].trace_hash != b[i].trace_hash || a[i].events != b[i].events) {
      return false;
    }
  }
  return true;
}

void write_json(const std::string& path, const std::vector<std::string>& labels,
                const Phase& seq, const Phase& par, bool same) {
  std::ofstream os(path);
  os << "{\n  \"suite\": \"bench_campaign\",\n"
     << "  \"job_set\": \"figure suite (Figures 1-14)\",\n"
     << "  \"jobs_total\": " << labels.size() << ",\n"
     << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
     << "  \"bit_identical\": " << (same ? "true" : "false") << ",\n"
     << "  \"sequential\": {\"workers\": 1, \"wall_seconds\": " << seq.stats.wall_seconds
     << ", \"jobs_per_sec\": " << seq.stats.jobs_per_sec() << "},\n"
     << "  \"parallel\": {\"workers\": " << par.workers
     << ", \"wall_seconds\": " << par.stats.wall_seconds
     << ", \"jobs_per_sec\": " << par.stats.jobs_per_sec() << "},\n"
     << "  \"campaign_speedup\": "
     << (par.stats.wall_seconds > 0 ? seq.stats.wall_seconds / par.stats.wall_seconds : 0.0)
     << ",\n  \"jobs\": [\n";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    os << "    {\"job\": \"" << labels[i]
       << "\", \"seq_seconds\": " << seq.stats.job_seconds[i]
       << ", \"par_seconds\": " << par.stats.job_seconds[i]
       << ", \"trace_hash\": " << seq.results[i].trace_hash << "}"
       << (i + 1 < labels.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts;
  opts.define_flag("quick", "reduced sweep per figure (60-CPU points only)");
  opts.define("seed", "42", "workload seed", util::Options::Kind::Int);
  opts.define("jobs", "0", "parallel-phase workers (0 = hardware concurrency)",
              util::Options::Kind::Int);
  opts.define("json", "BENCH_campaign.json", "output path for machine-readable results");
  telemetry::define_cli_options(opts);
  if (!parse_options(opts, argc, argv)) return 0;
  telemetry::enable_from_cli(opts, "bench_campaign");
  const bool quick = opts.has_flag("quick");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  const int njobs = static_cast<int>(opts.get_int("jobs"));

  // The full figure-suite job set, in the order the figure benches
  // submit it: per app, the original sweep then the optimized sweep.
  std::vector<campaign::SimJob> jobs;
  std::vector<std::string> labels;
  for (const auto& entry : alb::apps::registry()) {
    for (bool optimized : {false, true}) {
      for (campaign::SimJob& j : sweep_jobs(entry.run, optimized, quick, seed)) {
        labels.push_back(entry.name + (optimized ? "/opt/" : "/orig/") +
                         std::to_string(j.cfg.clusters) + "x" +
                         std::to_string(j.cfg.procs_per_cluster));
        jobs.push_back(std::move(j));
      }
    }
  }
  std::cout << "figure-suite campaign: " << jobs.size() << " simulations ("
            << (quick ? "quick" : "full") << " sweep)\n";

  Phase seq = run_phase(jobs, 1);
  Phase par = run_phase(jobs, njobs);
  const bool same = identical(seq.results, par.results);

  util::Table t({"phase", "workers", "wall s", "jobs/s", "speedup"});
  t.row().add("sequential").add(1).add(seq.stats.wall_seconds, 2)
      .add(seq.stats.jobs_per_sec(), 2).add(1.0, 2);
  t.row().add("parallel").add(par.workers).add(par.stats.wall_seconds, 2)
      .add(par.stats.jobs_per_sec(), 2)
      .add(par.stats.wall_seconds > 0
               ? seq.stats.wall_seconds / par.stats.wall_seconds
               : 0.0,
           2);
  t.print(std::cout);
  std::cout << "\nparallel results bit-identical to sequential: "
            << (same ? "yes" : "NO — DETERMINISM REGRESSION") << "\n";

  const std::string json = opts.get("json");
  write_json(json, labels, seq, par, same);
  std::cout << "wrote " << json << "\n";
  if (!telemetry::finish_cli(opts, std::cerr)) return 2;
  return same ? 0 : 1;
}
