#pragma once
// Campaign execution engine.
//
// A *campaign* is a batch of independent, deterministic simulation jobs
// (e.g. every (clusters, cpus, variant) point of a paper figure). Each
// job is single-threaded inside the simulator; the engine's only role is
// to fan the jobs out over a fixed pool of worker threads and put the
// results back in submission order, so that a parallel campaign is
// byte-identical to the sequential one. That determinism contract is
// pinned by tests/campaign/ and by the CSV-diff smoke in tools/check.sh.
//
// Scheduling model: a single atomic cursor over the job list. Workers
// claim the next unclaimed index, run it, and write the result into the
// slot reserved for that index — no locks on the result path, no result
// reordering, and completion order never observable in the output.
// `jobs = 1` is the sequential reference path: the campaign runs inline
// on the calling thread with no pool at all.
//
// Exceptions: a throwing job records its std::exception_ptr, the pool
// stops claiming new work, every in-flight job drains, and the failure
// with the *lowest submission index* is rethrown — the same exception the
// sequential path would have surfaced first.
//
// Contracts:
//   * Determinism — for any `jobs` value, run() returns the same results
//     in the same order as `jobs = 1`, provided each task is itself
//     deterministic and independent (simulation jobs are: each owns its
//     Engine, Network, Runtime and flight recorder). Observability
//     composes with this: per-run metrics snapshots and traces are
//     produced inside each job and returned in submission order, so
//     `--jobs` never changes any output byte.
//   * Thread-safety — run() itself may be called from one thread at a
//     time per Options instance; tasks must not share mutable state.
//     RunStats is written only after the pool has drained.
//   * Overhead — `jobs = 1` runs inline on the caller with no pool, no
//     threads and no synchronization: the sequential reference path.

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace alb::trace {
class MetricsSnapshot;
}

namespace alb::campaign {

/// Scheduling knobs for one campaign.
struct Options {
  /// Worker threads. 0 = hardware concurrency; 1 = sequential reference
  /// path (runs inline on the caller, spawns no threads).
  int jobs = 0;
};

/// Resolves Options::jobs: 0 (or negative) maps to the machine's
/// hardware concurrency, never less than 1.
int resolve_jobs(int jobs);

/// Wall-clock accounting for one campaign, filled by run().
struct RunStats {
  int workers = 0;            ///< pool size actually used
  std::size_t jobs_total = 0; ///< submitted jobs
  std::size_t jobs_run = 0;   ///< jobs that executed (== total unless a job threw)
  /// Jobs an earlier failure cancelled before they ran; always
  /// jobs_run + jobs_cancelled == jobs_total.
  std::size_t jobs_cancelled = 0;
  double wall_seconds = 0;    ///< submission to last-result wall time
  /// Per-job execution wall time, in submission order. Cancelled
  /// (never-run) jobs hold the kCancelled sentinel, so a genuinely
  /// instant job (0.0 s) is distinguishable from one that never ran.
  std::vector<double> job_seconds;

  /// job_seconds value marking a job a failure cancelled before it ran.
  static constexpr double kCancelled = -1.0;

  double jobs_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(jobs_run) / wall_seconds : 0.0;
  }

  /// Fraction of the pool's wall-clock capacity spent inside job
  /// bodies: sum of executed job_seconds / (workers × wall_seconds),
  /// clamped to [0, 1]. 0 when nothing ran.
  double utilization() const;

  /// Exact p-th percentile (p in [0, 100]) of the executed jobs'
  /// wall seconds (cancelled sentinels excluded); 0 when nothing ran.
  double job_seconds_percentile(double p) const;
};

/// Publishes `stats` as operator-side campaign/pool.* counters and
/// gauges. These are wall-clock host values: callers feed them only
/// into operator snapshots (alb-serve --metrics-out), never into a
/// per-run AppResult snapshot — the metrics' determinism contract
/// covers simulated values only.
void publish_pool_metrics(const RunStats& stats, trace::MetricsSnapshot& m);

namespace detail {
/// Type-erased scheduler core: invokes body(i) for i in [0, n) across
/// the pool, preserving the contract documented above. Rethrows the
/// lowest-index job failure after the pool drains.
void run_indexed(std::size_t n, const std::function<void(std::size_t)>& body,
                 const Options& opts, RunStats* stats);
}  // namespace detail

/// Runs every task and returns the results in submission order,
/// regardless of completion order. See file comment for the exception
/// and determinism contract.
template <typename R>
std::vector<R> run(std::vector<std::function<R()>> tasks, const Options& opts = {},
                   RunStats* stats = nullptr) {
  std::vector<std::optional<R>> slots(tasks.size());
  detail::run_indexed(
      tasks.size(), [&](std::size_t i) { slots[i].emplace(tasks[i]()); }, opts,
      stats);
  std::vector<R> out;
  out.reserve(slots.size());
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace alb::campaign
