// Calibration probe (not a paper figure): runs one app at selected
// configurations, printing simulated time, wall time and key traffic
// counters. Used to pick bench-default problem sizes and cost constants
// (see EXPERIMENTS.md) and handy when porting to new WAN parameters.
//
// All counters come from the per-run metrics registry snapshot
// (AppResult::stats, see src/trace/metrics.hpp); the `net/wan.table.*`
// names are the same aggregates bench_table4_5 reports.

#include <chrono>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace alb;
  using namespace alb::bench;
  util::Options opts;
  opts.define("app", "Water", "app name from the registry (or 'all')");
  opts.define_flag("opt", "run the optimized variant");
  if (!parse_options(opts, argc, argv)) return 0;

  const bool optimized = opts.has_flag("opt");
  util::Table t({"app", "clusters", "cpus", "sim_s", "wall_ms", "interRPC", "interKB",
                 "interBcast", "speedup"});
  for (const auto& entry : apps::registry()) {
    if (opts.get("app") != "all" && entry.name != opts.get("app")) continue;
    sim::SimTime t1 = 0;
    for (auto [clusters, per] : {std::pair{1, 1}, std::pair{1, 16}, std::pair{1, 60},
                                 std::pair{2, 30}, std::pair{4, 15}}) {
      auto wall0 = std::chrono::steady_clock::now();
      AppResult r = entry.run(make_config(clusters, per, optimized));
      auto wall1 = std::chrono::steady_clock::now();
      if (clusters == 1 && per == 1) t1 = r.elapsed;
      t.row()
          .add(entry.name)
          .add(clusters)
          .add(clusters * per)
          .add(sim::to_seconds(r.elapsed), 3)
          .add(std::chrono::duration<double, std::milli>(wall1 - wall0).count(), 0)
          .add(static_cast<long long>(r.stats.value("net/wan.table.rpc.msgs")))
          .add(static_cast<long long>(r.stats.value("net/wan.table.rpc.bytes") / 1024))
          .add(static_cast<long long>(r.stats.value("net/wan.table.bcast.msgs")))
          .add(r.elapsed ? static_cast<double>(t1) / r.elapsed : 0.0, 1);
    }
  }
  t.print(std::cout);
  return 0;
}
