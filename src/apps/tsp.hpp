#pragma once
// Traveling Salesman Problem (§4.2).
//
// Branch-and-bound over a random symmetric distance matrix. The master
// expands the search tree to a fixed depth; each resulting prefix is a
// job. Workers fetch jobs and run depth-first search with pruning
// against the global bound. As in the paper's experiments, the global
// bound is fixed in advance (to the greedy nearest-neighbour tour) so
// runs are deterministic and no bound updates are broadcast.
//
// Original: one physically centralized FIFO job queue on the master —
// on four clusters ~75% of job fetches are intercluster RPCs.
// Optimized: per-cluster job queues, statically seeded (§4.2/§5.2).

#include "apps/app.hpp"

namespace alb::apps {

/// Largest instance the search handles (its state is a 64-bit city
/// mask); tsp_reference and run_tsp throw std::invalid_argument for
/// fewer than 2 or more than this many cities.
inline constexpr int kMaxTspCities = 63;

struct TspParams {
  int cities = 13;
  /// Prefix depth used to generate jobs (master-side): depth 4 yields
  /// 1320 jobs, ~22 per worker at 60 CPUs. Must be in [1, cities]
  /// (std::invalid_argument otherwise).
  int job_depth = 4;
  /// Simulated cost of expanding one search-tree node.
  sim::SimTime ns_per_node = 150;

  static TspParams bench_default() { return {}; }
};

struct TspOutcome {
  long long best_tour = 0;       // best tour length found under the bound
  long long nodes_expanded = 0;  // total search nodes (work measure)
};

TspOutcome tsp_reference(const TspParams& params, std::uint64_t seed);
std::uint64_t tsp_checksum(const TspOutcome& o);

AppResult run_tsp(const AppConfig& cfg, const TspParams& params);

}  // namespace alb::apps
