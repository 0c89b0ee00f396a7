// Figure 16: two-cluster performance improvements (the configuration
// validated against the real Delft-Amsterdam WAN). For every app:
//   original on 16/1, original on 32/2, optimized on 32/2,
//   optimized on 32/1 (upper bound).

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace alb;
  using namespace alb::bench;
  FigureOptions fo;
  if (!fo.parse(argc, argv)) return 0;

  // Five runs per app (baseline + four bars), one campaign for the suite.
  std::vector<campaign::SimJob> jobs;
  for (const auto& entry : apps::registry()) {
    jobs.push_back({entry.run, make_config(1, 1, false, fo.seed)});
    jobs.push_back({entry.run, make_config(1, 16, false, fo.seed)});
    jobs.push_back({entry.run, make_config(2, 16, false, fo.seed)});
    jobs.push_back({entry.run, make_config(2, 16, true, fo.seed)});
    jobs.push_back({entry.run, make_config(1, 32, true, fo.seed)});
  }
  std::vector<AppResult> results = campaign::run_sim_jobs(jobs, {fo.jobs});

  util::Table t({"app", "orig 16/1", "orig 32/2", "opt 32/2", "opt 32/1"});
  std::size_t i = 0;
  for (const auto& entry : apps::registry()) {
    const AppResult& base = results[i];
    auto speedup = [&](std::size_t k) {
      return static_cast<double>(base.elapsed) / static_cast<double>(results[i + k].elapsed);
    };
    t.row()
        .add(entry.name)
        .add(speedup(1), 1)
        .add(speedup(2), 1)
        .add(speedup(3), 1)
        .add(speedup(4), 1);
    i += 5;
  }
  std::cout << "=== Figure 16: two-cluster performance improvements (speedups) ===\n";
  if (fo.csv) t.print_csv(std::cout);
  else t.print(std::cout);
  std::cout << "\nPaper's reading: on two clusters performance is generally closer\n"
               "to the upper bound than on four.\n";
  return 0;
}
