#pragma once
// Campaign-level metrics aggregation.
//
// Every simulation job carries its own trace::Metrics registry (one per
// Harness, per worker thread — never shared), and its AppResult holds
// the registry's snapshot. This header folds those per-run snapshots
// into one campaign-wide view: counters and histogram buckets add,
// gauges sum (divide by `campaign/runs` for a mean), and app-scope
// scalar metrics are folded in under `app/<name>`.
//
// Determinism: results arrive in submission order (the campaign
// engine's contract, see campaign.hpp) and merging is a fold over that
// order into name-ordered arrays, so the aggregate — like everything else
// in a campaign — is byte-identical for every `--jobs` value.

#include <vector>

#include "apps/app.hpp"
#include "trace/metrics.hpp"

namespace alb::campaign {

/// Merges the per-run metrics snapshots of `results` (in submission
/// order) into one snapshot. Adds `campaign/runs` = results.size() and
/// folds each run's app-specific metrics in as `app/<name>` gauges
/// (summed across runs).
inline trace::MetricsSnapshot aggregate_metrics(const std::vector<apps::AppResult>& results) {
  trace::MetricsSnapshot agg;
  for (const apps::AppResult& r : results) {
    agg.merge(r.stats);
    for (const auto& [name, v] : r.metrics) agg.add_gauge("app/" + name, v);
  }
  agg.set_counter("campaign/runs", results.size());
  return agg;
}

}  // namespace alb::campaign
