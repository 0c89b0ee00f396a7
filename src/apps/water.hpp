#pragma once
// Water (§4.1) — n-squared n-body molecular dynamics in the style of the
// SPLASH "Water-Nsquared" application.
//
// Molecules are distributed in equal blocks. Each timestep every process
// fetches the position blocks of the next half of the processes
// (half-shell method), computes the pairwise forces it is responsible
// for, sends force contributions back to the remote owners, and then
// integrates its own molecules.
//
// Original: block fetches and force write-backs are direct RPCs to the
// owner — the same block crosses the same WAN link once per requesting
// process.
// Optimized: cluster-level caching of fetched blocks (ClusterCache) and
// cluster-level combining of force updates (ClusterReducer), so each
// (cluster, owner) pair exchanges one message per timestep in each
// direction (§4.1).
//
// Forces are accumulated in 48.16 fixed point, making the sum exactly
// associative/commutative: original, optimized, and sequential runs
// produce bit-identical trajectories (asserted by the tests).

#include "apps/app.hpp"

namespace alb::apps {

struct WaterParams {
  int molecules = 2048;
  int steps = 2;
  /// Simulated cost of one pairwise force evaluation (SPLASH Water pair
  /// interactions are heavy: ~8 us on a 200 MHz Pentium Pro).
  sim::SimTime ns_per_pair = 8000;
  /// Simulated cost of integrating one molecule.
  sim::SimTime ns_per_integration = 500;
  /// Marshalled bytes per molecule in a position block.
  std::size_t bytes_per_molecule = 24;
  /// Ablation overrides: when set, enable the cluster cache / the
  /// write-back reducer independently of cfg.optimized.
  std::optional<bool> use_cache;
  std::optional<bool> use_reducer;

  static WaterParams bench_default() { return {}; }
};

namespace detail {

/// std::lround without the libm call: rounds half away from zero. Exact
/// for |x| < 2^52, where truncating to an integer and subtracting it
/// leaves the fraction with no rounding error.
inline long long round_half_away(double x) {
  const long long t = static_cast<long long>(x);
  const double f = x - static_cast<double>(t);
  return t + (f >= 0.5) - (f <= -0.5);
}

}  // namespace detail

/// Sequential trajectory checksum (the ground truth for all runs).
std::uint64_t water_reference_checksum(const WaterParams& params, std::uint64_t seed);

AppResult run_water(const AppConfig& cfg, const WaterParams& params);

}  // namespace alb::apps
