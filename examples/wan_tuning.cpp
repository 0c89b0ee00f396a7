// "Is my application wide-area ready?" — takes any application from the
// suite and sweeps the WAN round-trip time and bandwidth independently,
// printing 4-cluster speedups. This is the sensitivity analysis the
// paper names as future work (§7), packaged as a user-facing tool.
//
//   ./wan_tuning --app=SOR
//   ./wan_tuning --app=Water --optimized

#include <iostream>

#include "apps/app.hpp"
#include "net/presets.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace alb;

int main(int argc, char** argv) {
  util::Options opts;
  opts.define("app", "SOR", "application name (see README for the suite)");
  opts.define_flag("optimized", "sweep the optimized variant");
  if (!opts.parse(argc, argv)) return 0;

  const apps::AppEntry* entry = apps::find_app(opts.get("app"));
  if (!entry) {
    std::cerr << "unknown app: " << opts.get("app") << " (try Water, TSP, ASP, "
              << "ATPG, IDA*, RA, ACP, SOR)\n";
    return 1;
  }
  const bool optimized = opts.has_flag("optimized");

  apps::AppConfig base_cfg;
  base_cfg.clusters = 1;
  base_cfg.procs_per_cluster = 1;
  base_cfg.net_cfg = net::das_config(1, 1);
  apps::AppResult base = entry->run(base_cfg);

  auto speedup_at = [&](sim::SimTime rtt, double mbit) {
    apps::AppConfig cfg;
    cfg.clusters = 4;
    cfg.procs_per_cluster = 15;
    cfg.net_cfg = net::custom_wan_config(4, 15, rtt, mbit * 1e6);
    cfg.optimized = optimized;
    apps::AppResult r = entry->run(cfg);
    return static_cast<double>(base.elapsed) / static_cast<double>(r.elapsed);
  };

  std::cout << (optimized ? "optimized " : "original ") << entry->name
            << " on 4 clusters x 15 CPUs (speedup vs 1 CPU; upper bound ~55)\n\n";

  util::Table lat({"WAN rtt (bandwidth fixed at 4.53 Mbit/s)", "speedup"});
  for (double ms : {0.5, 1.0, 2.7, 5.0, 10.0, 30.0}) {
    lat.row().add(util::format_fixed(ms, 1) + " ms").add(speedup_at(sim::milliseconds(ms), 4.53), 1);
  }
  lat.print(std::cout);
  std::cout << "\n";
  util::Table bw({"WAN bandwidth (rtt fixed at 2.7 ms)", "speedup"});
  for (double mbit : {0.5, 1.0, 2.0, 4.53, 10.0, 34.0, 100.0}) {
    bw.row().add(util::format_fixed(mbit, 2) + " Mbit/s").add(speedup_at(sim::milliseconds(2.7), mbit), 1);
  }
  bw.print(std::cout);
  return 0;
}
