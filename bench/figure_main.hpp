#pragma once
// Shared main() for the per-application speedup figures (Figures 1-14):
// runs the original and optimized program over the paper's sweep
// (1/2/4 clusters x 1..60 CPUs) and prints both curve families.

#include <iostream>

#include "bench_common.hpp"

namespace alb::bench {

inline int figure_main(int argc, char** argv, const std::string& app_name,
                       const std::string& figure_label) {
  FigureOptions fo;
  if (!fo.parse(argc, argv)) return 0;
  const apps::AppEntry* entry = apps::find_app(app_name);
  if (!entry) {
    std::cerr << "app not in registry: " << app_name << "\n";
    return 1;
  }
  // Both variants' sweeps go out as one campaign so the worker pool stays
  // saturated across the whole figure, not per curve family.
  std::vector<campaign::SimJob> jobs =
      sweep_jobs(entry->run, /*optimized=*/false, fo.quick, fo.seed);
  const std::size_t n_orig = jobs.size();
  for (campaign::SimJob& j : sweep_jobs(entry->run, /*optimized=*/true, fo.quick, fo.seed)) {
    jobs.push_back(std::move(j));
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {fo.jobs});
  SpeedupCurves orig = assemble_speedup_curves(
      fo.quick, {results.begin(), results.begin() + n_orig});
  SpeedupCurves opt = assemble_speedup_curves(
      fo.quick, {results.begin() + n_orig, results.end()});
  print_figure(std::cout, figure_label, orig, opt, fo.csv);
  std::cout << "T(1) = " << sim::to_seconds(orig.t1) << " simulated seconds\n";
  return 0;
}

}  // namespace alb::bench
