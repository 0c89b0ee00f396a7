#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <string>
#include <thread>

#include "telemetry/telemetry.hpp"
#include "trace/metrics.hpp"

namespace alb::campaign {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double RunStats::utilization() const {
  if (workers <= 0 || wall_seconds <= 0) return 0.0;
  double busy = 0;
  for (const double s : job_seconds) {
    if (s >= 0) busy += s;
  }
  return std::min(1.0, busy / (static_cast<double>(workers) * wall_seconds));
}

double RunStats::job_seconds_percentile(double p) const {
  std::vector<double> ran;
  ran.reserve(job_seconds.size());
  for (const double s : job_seconds) {
    if (s >= 0) ran.push_back(s);
  }
  if (ran.empty()) return 0.0;
  std::sort(ran.begin(), ran.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const std::size_t rank = static_cast<std::size_t>(clamped / 100.0 * static_cast<double>(ran.size()));
  return ran[std::min(rank, ran.size() - 1)];
}

void publish_pool_metrics(const RunStats& stats, trace::MetricsSnapshot& m) {
  m.set_counter("campaign/pool.workers",
                static_cast<std::uint64_t>(stats.workers > 0 ? stats.workers : 0));
  m.set_counter("campaign/pool.jobs_total", stats.jobs_total);
  m.set_counter("campaign/pool.jobs_run", stats.jobs_run);
  m.set_counter("campaign/pool.jobs_cancelled", stats.jobs_cancelled);
  m.set_gauge("campaign/pool.wall_seconds", stats.wall_seconds);
  m.set_gauge("campaign/pool.jobs_per_sec", stats.jobs_per_sec());
  m.set_gauge("campaign/pool.utilization", stats.utilization());
  m.set_gauge("campaign/pool.job_seconds_p50", stats.job_seconds_percentile(50));
  m.set_gauge("campaign/pool.job_seconds_p95", stats.job_seconds_percentile(95));
  m.set_gauge("campaign/pool.job_seconds_max", stats.job_seconds_percentile(100));
}

namespace detail {

void run_indexed(std::size_t n, const std::function<void(std::size_t)>& body,
                 const Options& opts, RunStats* stats) {
  const int workers = resolve_jobs(opts.jobs);
  std::vector<double> job_seconds(n, RunStats::kCancelled);
  std::vector<std::exception_ptr> failures(n);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> cancelled{false};
  std::atomic<std::size_t> jobs_run{0};
  const auto t0 = Clock::now();

  // Host telemetry: spans/progress only — never results. The collector
  // pointer is captured once; inactive telemetry costs one branch per
  // job.
  telemetry::Collector* tc = telemetry::Collector::active();
  const int pool_workers =
      (n <= 1) ? 1 : std::min<int>(workers, static_cast<int>(n ? n : 1));
  if (tc) tc->pool_begin(n, pool_workers);

  // Claims and runs jobs until the list is exhausted or a failure
  // cancels the campaign. Runs on the caller when workers == 1.
  auto drain = [&](int wid) {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || cancelled.load(std::memory_order_acquire)) {
        if (tc) tc->pool_worker_state(wid, false);
        return;
      }
      if (tc) tc->pool_worker_state(wid, true);
      const auto j0 = Clock::now();
      {
        telemetry::ScopedSpan span("campaign.job", i);
        try {
          body(i);
        } catch (...) {
          failures[i] = std::current_exception();
          cancelled.store(true, std::memory_order_release);
        }
      }
      job_seconds[i] = seconds_since(j0);
      jobs_run.fetch_add(1, std::memory_order_relaxed);
      if (tc) {
        telemetry::ThreadRing& r = tc->ring();
        r.add(telemetry::kJobNs, static_cast<std::uint64_t>(job_seconds[i] * 1e9));
        r.add(telemetry::kJobsRun, 1);
        tc->pool_job_done();
        tc->pool_worker_state(wid, false);
      }
    }
  };

  if (workers <= 1 || n <= 1) {
    drain(0);
  } else {
    const std::size_t pool = std::min<std::size_t>(static_cast<std::size_t>(workers), n);
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t w = 0; w < pool; ++w) {
      threads.emplace_back([&drain, tc, w] {
        if (tc) tc->label_thread("campaign-worker-" + std::to_string(w));
        drain(static_cast<int>(w));
      });
    }
    for (std::thread& t : threads) t.join();
  }

  if (stats) {
    stats->workers = (n <= 1) ? 1 : std::min<int>(workers, static_cast<int>(n ? n : 1));
    stats->jobs_total = n;
    stats->jobs_run = jobs_run.load(std::memory_order_relaxed);
    stats->jobs_cancelled = n - stats->jobs_run;
    stats->wall_seconds = seconds_since(t0);
    stats->job_seconds = std::move(job_seconds);
  }

  // Surface the failure the sequential reference path would have hit
  // first: the lowest submission index that threw.
  for (std::size_t i = 0; i < n; ++i) {
    if (failures[i]) std::rethrow_exception(failures[i]);
  }
}

}  // namespace detail

}  // namespace alb::campaign
