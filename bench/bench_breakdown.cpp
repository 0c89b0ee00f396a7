// Compute/communication breakdown (supporting the paper's §5
// discussion): for every application at 60 CPUs, the fraction of
// aggregate process time spent computing — the remainder is
// communication stall plus load imbalance. Contrast the single cluster,
// the original on 4 clusters, and the optimized program on 4 clusters
// to see what each optimization bought back.

#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace alb;
  using namespace alb::bench;
  FigureOptions fo;
  if (!fo.parse(argc, argv)) return 0;

  // Three runs per app, fanned out over --jobs; results come back in
  // submission order.
  std::vector<campaign::SimJob> jobs;
  for (const auto& entry : apps::registry()) {
    jobs.push_back({entry.run, make_config(1, 60, false)});
    jobs.push_back({entry.run, make_config(4, 15, false)});
    jobs.push_back({entry.run, make_config(4, 15, true)});
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {fo.jobs});

  util::Table t({"app", "1cl compute %", "orig 4cl compute %", "opt 4cl compute %",
                 "overhead removed %"});
  for (std::size_t i = 0; i < apps::registry().size(); ++i) {
    const double c1 = results[3 * i].metrics["compute_fraction"] * 100;
    const double co = results[3 * i + 1].metrics["compute_fraction"] * 100;
    const double cp = results[3 * i + 2].metrics["compute_fraction"] * 100;
    t.row()
        .add(apps::registry()[i].name)
        .add(c1, 1)
        .add(co, 1)
        .add(cp, 1)
        .add(cp - co, 1);
  }
  std::cout << "=== Compute fraction of aggregate process time (60 CPUs) ===\n"
            << "(100% - compute = communication stalls + load imbalance)\n";
  if (fo.csv) t.print_csv(std::cout);
  else t.print(std::cout);
  return 0;
}
