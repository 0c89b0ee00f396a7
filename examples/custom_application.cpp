// Writing a new application against the framework: a parallel Monte
// Carlo pi estimator with a cluster-aware final reduction, swept over
// topologies to see how its (embarrassingly parallel) profile survives
// the WAN — the baseline the paper contrasts its medium-grain suite
// against.
//
//   ./custom_application [--samples=N]

#include <algorithm>
#include <iostream>
#include <utility>

#include "core/cluster_reduce.hpp"
#include "net/presets.hpp"
#include "orca/runtime.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace alb;

namespace {

struct Tally {
  long long inside = 0;
  long long total = 0;
};

/// Runs the estimator on a given topology; returns (pi, simulated ms).
std::pair<double, double> run(int clusters, int per, long long samples) {
  sim::Engine eng;
  net::Network net(eng, net::das_config(clusters, per));
  orca::Runtime rt(net);
  Tally result;
  rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    // Each process draws its share of samples; ~50 ns of simulated CPU
    // per sample (a 200 MHz-era estimate for two RNG draws + compare).
    const long long mine = samples / p.nprocs;
    Tally local;
    for (long long i = 0; i < mine; ++i) {
      double x = p.rng.uniform();
      double y = p.rng.uniform();
      if (x * x + y * y <= 1.0) ++local.inside;
      ++local.total;
    }
    co_await p.compute(mine * 50);
    Tally sum = co_await wide::cluster_reduce<Tally>(
        rt, p, 100, local, 16, [](Tally&& a, const Tally& b) {
          return Tally{a.inside + b.inside, a.total + b.total};
        });
    if (p.rank == 0) result = sum;
  });
  rt.run_all();
  double pi = 4.0 * static_cast<double>(result.inside) /
              static_cast<double>(result.total);
  return {pi, sim::to_milliseconds(rt.last_finish())};
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts;
  opts.define("samples", "20000000", "total Monte Carlo samples", util::Options::Kind::Int);
  if (!util::parse_options(opts, argc, argv)) return 0;
  const long long samples = opts.get_int("samples");
  // (clusters, cpus per cluster) of the sweep.
  constexpr std::pair<int, int> kTopologies[] = {{1, 1}, {1, 16}, {1, 60}, {2, 30}, {4, 15}};
  long long max_cpus = 0;
  for (auto [clusters, per] : kTopologies) max_cpus = std::max<long long>(max_cpus, clusters * per);
  // Every process needs a sample, or the estimate divides by zero.
  if (samples < max_cpus) {
    std::cerr << "custom_application: --samples must be at least " << max_cpus
              << ", one per process (got " << samples << ")\n";
    return 2;
  }

  util::Table t({"clusters", "cpus", "pi estimate", "sim ms", "speedup"});
  double t1 = 0;
  for (auto [clusters, per] : kTopologies) {
    auto [pi, ms] = run(clusters, per, samples);
    if (clusters == 1 && per == 1) t1 = ms;
    t.row()
        .add(clusters)
        .add(clusters * per)
        .add(pi, 5)
        .add(ms, 1)
        .add(t1 / ms, 1);
  }
  std::cout << "Monte Carlo pi on the simulated DAS (" << samples << " samples)\n\n";
  t.print(std::cout);
  std::cout << "\nCoarse-grained parallelism barely notices the WAN — the paper's\n"
               "point is that far finer-grained programs can get there too, with\n"
               "cluster-aware restructuring.\n";
  return 0;
}
