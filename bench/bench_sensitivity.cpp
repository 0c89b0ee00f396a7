// Sensitivity ablation (§4.4's "slower network" observation and §7's
// future work): sweep WAN latency and bandwidth independently and report
// 4-cluster speedups for original and optimized programs. This includes
// the paper's concrete data point that ATPG degrades visibly at
// 10 ms / 2 Mbit/s while being insensitive on the DAS WAN.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace alb;
  using namespace alb::bench;
  util::Options opts;
  opts.define_flag("csv", "emit CSV");
  opts.define("app", "ATPG", "application to sweep (or 'all')");
  define_jobs_option(opts);
  if (!parse_options(opts, argc, argv)) return 0;
  const int njobs = static_cast<int>(opts.get_int("jobs"));

  // The WAN grid is data, not code: scenarios/sensitivity.scn carries
  // one labelled [run] per point. The table's rtt/Mbit columns derive
  // from each run's WAN link (one-way latency + the fixed per-direction
  // path cost, see net::wan_one_way_for_rtt).
  const scenario::Scenario sweep = scenario::load("sensitivity");
  const auto rtt_ms = [](const AppConfig& cfg) {
    return static_cast<double>(cfg.net_cfg.wan.latency + net::kWanFixedOneWay) * 2 / 1e6;
  };
  const auto mbit = [](const AppConfig& cfg) {
    return cfg.net_cfg.wan.bandwidth_bytes_per_sec * 8 / 1e6;
  };

  // Per selected app: one baseline + an (orig, opt) pair per WAN point,
  // submitted as a single campaign.
  std::vector<campaign::SimJob> jobs;
  std::vector<const apps::AppEntry*> selected;
  for (const auto& entry : apps::registry()) {
    if (opts.get("app") != "all" && entry.name != opts.get("app")) continue;
    selected.push_back(&entry);
    jobs.push_back({entry.run, make_config(1, 1, false)});
    for (const scenario::RunPlan& plan : sweep.runs) {
      AppConfig cfg = plan.cfg;
      cfg.optimized = false;
      jobs.push_back({entry.run, cfg});
      cfg.optimized = true;
      jobs.push_back({entry.run, cfg});
    }
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {njobs});

  util::Table t({"app", "WAN", "rtt ms", "Mbit/s", "orig 60/4", "opt 60/4"});
  std::size_t i = 0;
  for (const apps::AppEntry* entry : selected) {
    const AppResult& base = results[i++];
    for (const scenario::RunPlan& plan : sweep.runs) {
      const AppResult& orig = results[i++];
      const AppResult& opt = results[i++];
      t.row()
          .add(entry->name)
          .add(plan.label)
          .add(rtt_ms(plan.cfg), 1)
          .add(mbit(plan.cfg), 2)
          .add(static_cast<double>(base.elapsed) / orig.elapsed, 1)
          .add(static_cast<double>(base.elapsed) / opt.elapsed, 1);
    }
  }
  std::cout << "=== WAN sensitivity sweep (4 clusters x 15 CPUs) ===\n";
  if (opts.has_flag("csv")) t.print_csv(std::cout);
  else t.print(std::cout);
  return 0;
}
