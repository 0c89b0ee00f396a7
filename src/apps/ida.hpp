#pragma once
// Iterative Deepening A* on the 15-puzzle (§4.6).
//
// The root position is expanded breadth-first into a pool of jobs
// (search-tree prefixes) distributed round-robin over the processes'
// local deques. Each deepening iteration searches every job depth-first
// under the current threshold (Manhattan-distance heuristic), counting
// *all* solutions at the threshold to keep runs deterministic, exactly
// as the paper does. Idle processes steal jobs; idle/active transitions
// are broadcast (termination detection), and each iteration ends with a
// global reduction of the solutions found.
//
// Original: the fixed victim order own+1,2,4,... (mod P), no idle
// knowledge — the highest-ranked process of a cluster starts stealing
// from remote clusters.
// Optimized: steal from the own cluster first + "remember empty" (§4.6).

#include "apps/app.hpp"

namespace alb::apps {

struct IdaParams {
  /// Number of random scramble moves that define the instance.
  int scramble_moves = 60;
  /// Fixed job-pool size (independent of P so that the work decomposition
  /// — and hence the node-count checksum — is identical on every
  /// topology). Must comfortably exceed the largest process count.
  int job_pool = 24000;
  /// Simulated cost of expanding one search node (~50k expansions/s,
  /// the 200 MHz-era rate for 15-puzzle solvers).
  sim::SimTime ns_per_node = 20000;
  /// Ablation overrides for the two steal-policy knobs of §4.6.
  std::optional<bool> cluster_first;
  std::optional<bool> remember_empty;

  static IdaParams bench_default() { return {}; }
};

struct IdaOutcome {
  int solution_depth = 0;       // optimal move count
  long long solutions = 0;      // solution paths at that depth
  long long nodes_expanded = 0;  // total over all iterations
};

/// The sequential solve. Throws std::logic_error when the deepening
/// threshold passes `scramble_moves` without a solution, which only a
/// broken search kernel can cause.
IdaOutcome ida_reference(const IdaParams& params, std::uint64_t seed);
std::uint64_t ida_checksum(const IdaOutcome& o);

AppResult run_ida(const AppConfig& cfg, const IdaParams& params);

namespace detail {

struct IdaIteration {
  long long solutions = 0;
  long long nodes = 0;
};

/// One deepening iteration of ida_reference: the whole job pool
/// searched at `threshold`.
IdaIteration ida_iteration(const IdaParams& params, std::uint64_t seed, int threshold);

}  // namespace detail

}  // namespace alb::apps
