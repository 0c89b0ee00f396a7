#pragma once
// Automatic Test Pattern Generation (§4.4).
//
// A random combinational circuit is generated from the seed; the fault
// list (stuck-at-0/1 on every gate output) is statically partitioned
// over the processes. For each fault a process searches for a test
// pattern by simulating deterministic pseudo-random input vectors
// against the good and faulty circuit until the outputs differ (or a
// try budget is exhausted).
//
// Original program: every generated pattern updates a shared statistics
// object on process 0 — one small RPC per pattern, most crossing the
// WAN on a multicluster.
// Optimized program: counts are accumulated locally and combined at the
// end with a hierarchical cluster reduction — one intercluster RPC per
// cluster (§4.4's "single RPC per cluster").

#include <vector>

#include "apps/app.hpp"

namespace alb::apps {

struct AtpgParams {
  int gates = 1200;
  int primary_inputs = 20;
  int max_vectors_per_fault = 12;
  /// Simulated cost of evaluating one gate once (calibrated so the
  /// one-processor run is ~60 simulated seconds, the regime where the
  /// paper's ATPG keeps high multicluster efficiency on the DAS WAN).
  sim::SimTime ns_per_gate_eval = 850;

  static AtpgParams bench_default() { return {}; }
};

struct AtpgOutcome {
  long long patterns_found = 0;
  long long faults_detected = 0;
  long long faults_untestable = 0;
};

/// Sequential reference (also defines the checksum).
AtpgOutcome atpg_reference(const AtpgParams& params, std::uint64_t seed);
std::uint64_t atpg_checksum(const AtpgOutcome& o);

AppResult run_atpg(const AppConfig& cfg, const AtpgParams& params);

namespace detail {

/// One fault's search: whether a vector detected it, and the modeled
/// work (gate evaluations) charged to simulated time.
struct FaultResult {
  bool detected = false;
  long long evals = 0;
};

/// The per-fault results over the seeded circuit, fault (gate, stuck)
/// at index 2 * gate + stuck. Exposed for kernel-equivalence tests.
std::vector<FaultResult> atpg_fault_results(const AtpgParams& params, std::uint64_t seed);

}  // namespace detail

}  // namespace alb::apps
