// Ablation study: decomposes each composite optimization into its
// parts and sweeps the design choices DESIGN.md calls out, on
// 4 clusters x 15 CPUs:
//
//   water    — cluster cache alone, write-back reduction alone, both
//   asp      — centralized vs rotating vs migrating sequencer
//   ida      — cluster-first order alone, remember-empty alone, both
//   ra       — node-batch x cluster-batch grid
//   sor      — original vs split-phase vs chaotic (period 2/3/6)
//   tsp      — job grain (prefix depth) x queue placement
//
//   ./bench_ablation [--study=water|asp|ida|ra|sor|tsp|all] [--jobs=N]
//
// Every study submits its whole grid (baseline included) as one
// campaign, so --jobs shards the runs while the printed tables stay
// byte-identical to the sequential order.

#include <iostream>

#include "apps/asp.hpp"
#include "apps/ida.hpp"
#include "apps/ra.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "apps/water.hpp"
#include "bench_common.hpp"

namespace {

using namespace alb;
using namespace alb::bench;
using namespace alb::apps;

double speedup(sim::SimTime t1, const AppResult& r) {
  return static_cast<double>(t1) / static_cast<double>(r.elapsed);
}

/// Wraps a run_<app>(cfg, params) call with pinned params as a SimJob.
template <typename Params, typename Fn>
campaign::SimJob param_job(Fn run, Params p, AppConfig cfg) {
  return {[run, p](const AppConfig& c) { return run(c, p); }, std::move(cfg)};
}

void water_study(bool csv, int njobs) {
  WaterParams prm = WaterParams::bench_default();
  std::vector<campaign::SimJob> jobs;
  jobs.push_back(param_job(run_water, prm, make_config(1, 1, false)));
  for (bool cache : {false, true}) {
    for (bool reducer : {false, true}) {
      WaterParams p = prm;
      p.use_cache = cache;
      p.use_reducer = reducer;
      jobs.push_back(param_job(run_water, p, make_config(4, 15, false)));
    }
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {njobs});

  sim::SimTime t1 = results[0].elapsed;
  util::Table t({"cache", "reducer", "speedup 60/4", "inter RPC", "inter KB"});
  std::size_t i = 1;
  for (bool cache : {false, true}) {
    for (bool reducer : {false, true}) {
      const AppResult& r = results[i++];
      t.row()
          .add(cache ? "on" : "off")
          .add(reducer ? "on" : "off")
          .add(speedup(t1, r), 1)
          .add(static_cast<long long>(r.traffic.inter_rpc_count()))
          .add(static_cast<long long>(r.traffic.inter_rpc_bytes() / 1024));
    }
  }
  std::cout << "--- Water: cluster cache x write-back reduction ---\n";
  if (csv) t.print_csv(std::cout);
  else t.print(std::cout);
  std::cout << "\n";
}

void asp_study(bool csv, int njobs) {
  AspParams prm = AspParams::bench_default();
  struct Case {
    const char* name;
    orca::SequencerKind kind;
  };
  const std::vector<Case> cases{
      {"centralized", orca::SequencerKind::Centralized},
      {"rotating (paper default)", orca::SequencerKind::Rotating},
      {"migrating (paper opt)", orca::SequencerKind::Migrating}};

  std::vector<campaign::SimJob> jobs;
  jobs.push_back(param_job(run_asp, prm, make_config(1, 1, false)));
  for (const Case& c : cases) {
    AspParams p = prm;
    p.sequencer = c.kind;
    jobs.push_back(param_job(run_asp, p, make_config(4, 15, false)));
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {njobs});

  sim::SimTime t1 = results[0].elapsed;
  util::Table t({"sequencer", "speedup 60/4", "inter ctrl+bcast msgs"});
  std::size_t i = 1;
  for (const Case& c : cases) {
    const AppResult& r = results[i++];
    t.row()
        .add(c.name)
        .add(speedup(t1, r), 1)
        .add(static_cast<long long>(r.traffic.inter_bcast_count()));
  }
  std::cout << "--- ASP: broadcast sequencer strategy ---\n";
  if (csv) t.print_csv(std::cout);
  else t.print(std::cout);
  std::cout << "\n";
}

void ida_study(bool csv, int njobs) {
  IdaParams prm = IdaParams::bench_default();
  std::vector<campaign::SimJob> jobs;
  jobs.push_back(param_job(run_ida, prm, make_config(1, 1, false)));
  for (bool cf : {false, true}) {
    for (bool re : {false, true}) {
      IdaParams p = prm;
      p.cluster_first = cf;
      p.remember_empty = re;
      jobs.push_back(param_job(run_ida, p, make_config(4, 15, false)));
    }
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {njobs});

  sim::SimTime t1 = results[0].elapsed;
  util::Table t({"cluster-first", "remember-empty", "speedup 60/4",
                 "remote steal attempts"});
  std::size_t i = 1;
  for (bool cf : {false, true}) {
    for (bool re : {false, true}) {
      AppResult& r = results[i++];
      t.row()
          .add(cf ? "on" : "off")
          .add(re ? "on" : "off")
          .add(speedup(t1, r), 1)
          .add(static_cast<long long>(r.metrics["remote_steal_attempts"]));
    }
  }
  std::cout << "--- IDA*: steal order x remember-empty (§4.6) ---\n";
  if (csv) t.print_csv(std::cout);
  else t.print(std::cout);
  std::cout << "\n";
}

void ra_study(bool csv, int njobs) {
  RaParams prm = RaParams::bench_default();
  std::vector<campaign::SimJob> jobs;
  jobs.push_back(param_job(run_ra, prm, make_config(1, 1, false)));
  for (int nb : {1, 4, 16}) {
    for (int cb : {0, 64, 256, 1024}) {
      RaParams p = prm;
      p.node_batch = nb;
      p.cluster_batch = cb == 0 ? 1 : cb;
      jobs.push_back(param_job(run_ra, p, make_config(4, 15, cb != 0)));
    }
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {njobs});

  sim::SimTime t1 = results[0].elapsed;
  util::Table t({"node batch", "cluster batch", "speedup 60/4", "inter data msgs"});
  std::size_t i = 1;
  for (int nb : {1, 4, 16}) {
    for (int cb : {0, 64, 256, 1024}) {
      const AppResult& r = results[i++];
      t.row()
          .add(nb)
          .add(cb == 0 ? std::string("off") : std::to_string(cb))
          .add(speedup(t1, r), 1)
          .add(static_cast<long long>(r.traffic.kind(net::MsgKind::Data).inter_msgs));
    }
  }
  std::cout << "--- RA: node-level x cluster-level combining ---\n";
  if (csv) t.print_csv(std::cout);
  else t.print(std::cout);
  std::cout << "\n";
}

void sor_study(bool csv, int njobs) {
  SorParams prm = SorParams::bench_default();
  struct Case {
    const char* name;
    SorVariant v;
    int period;
  };
  const std::vector<Case> cases{
      {"original (sync exchange)", SorVariant::kOriginal, 3},
      {"split-phase overlap", SorVariant::kSplitPhase, 3},
      {"chaotic, drop 1/2", SorVariant::kChaotic, 2},
      {"chaotic, drop 2/3 (paper)", SorVariant::kChaotic, 3},
      {"chaotic, drop 5/6", SorVariant::kChaotic, 6}};

  std::vector<campaign::SimJob> jobs;
  jobs.push_back(param_job(run_sor, prm, make_config(1, 1, false)));
  for (const Case& c : cases) {
    SorParams p = prm;
    p.variant = c.v;
    p.chaotic_period = c.period;
    jobs.push_back(param_job(run_sor, p, make_config(4, 15, false)));
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {njobs});

  sim::SimTime t1 = results[0].elapsed;
  util::Table t({"variant", "speedup 60/4", "inter data msgs"});
  std::size_t i = 1;
  for (const Case& c : cases) {
    const AppResult& r = results[i++];
    t.row()
        .add(c.name)
        .add(speedup(t1, r), 1)
        .add(static_cast<long long>(r.traffic.kind(net::MsgKind::Data).inter_msgs));
  }
  std::cout << "--- SOR: exchange strategies (iteration count pinned at "
            << prm.fixed_iterations << ") ---\n";
  if (csv) t.print_csv(std::cout);
  else t.print(std::cout);
  std::cout << "note: chaotic variants trade dropped exchanges for extra\n"
               "iterations at equal tolerance; see EXPERIMENTS.md.\n\n";
}

void tsp_study(bool csv, int njobs) {
  // Per depth: its own single-CPU baseline plus the central/per-cluster
  // pair — three independent triples, one campaign.
  std::vector<campaign::SimJob> jobs;
  for (int depth : {3, 4, 5}) {
    TspParams p = TspParams::bench_default();
    p.job_depth = depth;
    jobs.push_back(param_job(run_tsp, p, make_config(1, 1, false)));
    for (bool opt : {false, true}) {
      jobs.push_back(param_job(run_tsp, p, make_config(4, 15, opt)));
    }
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {njobs});

  util::Table t({"job depth", "#jobs grain", "queue", "speedup 60/4"});
  std::size_t i = 0;
  for (int depth : {3, 4, 5}) {
    sim::SimTime t1 = results[i++].elapsed;
    for (bool opt : {false, true}) {
      const AppResult& r = results[i++];
      t.row()
          .add(depth)
          .add(depth == 3 ? "132 coarse" : depth == 4 ? "1320 medium" : "11880 fine")
          .add(opt ? "per-cluster" : "central")
          .add(speedup(t1, r), 1);
    }
  }
  std::cout << "--- TSP: job grain x queue placement (§5.2's trade-off) ---\n";
  if (csv) t.print_csv(std::cout);
  else t.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts;
  opts.define("study", "all", "water|asp|ida|ra|sor|tsp|all");
  opts.define_flag("csv", "emit CSV");
  define_jobs_option(opts);
  if (!parse_options(opts, argc, argv)) return 0;
  const std::string study = opts.get("study");
  const bool csv = opts.has_flag("csv");
  const int njobs = static_cast<int>(opts.get_int("jobs"));
  std::cout << "=== Ablations on 4 clusters x 15 CPUs (speedup vs 1 CPU) ===\n\n";
  if (study == "water" || study == "all") water_study(csv, njobs);
  if (study == "asp" || study == "all") asp_study(csv, njobs);
  if (study == "ida" || study == "all") ida_study(csv, njobs);
  if (study == "ra" || study == "all") ra_study(csv, njobs);
  if (study == "sor" || study == "all") sor_study(csv, njobs);
  if (study == "tsp" || study == "all") tsp_study(csv, njobs);
  return 0;
}
