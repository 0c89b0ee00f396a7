#pragma once
// The simulation face of the campaign engine: (AppConfig → AppResult)
// jobs. Every sweep-style bench builds its run list as SimJobs and hands
// it to run_sim_jobs(); with Options{1} this is exactly the old
// sequential for-loop, with Options{N} the same list is sharded over N
// workers and the results come back in the same order.

#include <functional>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "campaign/campaign.hpp"

namespace alb::campaign {

using SimRunner = std::function<apps::AppResult(const apps::AppConfig&)>;

/// One schedulable simulation: a runner plus the config to run it at.
struct SimJob {
  SimRunner run;
  apps::AppConfig cfg;
};

/// Executes the whole job list on the campaign engine; results are in
/// submission order (jobs[i] → result[i]) regardless of worker count.
/// Traced jobs (cfg.trace.enabled) return their full event stream via
/// AppResult::trace, so per-point post-processing — e.g. the causal
/// critical-path breakdowns bench_causal writes into its results JSON —
/// runs after the pool joins and inherits --jobs byte-identity for free.
inline std::vector<apps::AppResult> run_sim_jobs(const std::vector<SimJob>& jobs,
                                                 const Options& opts = {},
                                                 RunStats* stats = nullptr) {
  std::vector<std::function<apps::AppResult()>> tasks;
  tasks.reserve(jobs.size());
  for (const SimJob& j : jobs) tasks.push_back([&j] { return j.run(j.cfg); });
  return run(std::move(tasks), opts, stats);
}

}  // namespace alb::campaign
