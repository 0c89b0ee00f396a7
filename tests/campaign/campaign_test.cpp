// Campaign engine unit tests: submission-order results, exception
// propagation, the sequential reference path and stats accounting.

#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace alb {
namespace {

using campaign::Options;
using campaign::RunStats;

std::vector<std::function<int()>> counting_tasks(int n) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < n; ++i) tasks.push_back([i] { return i; });
  return tasks;
}

TEST(CampaignTest, ResultsInSubmissionOrder) {
  std::vector<int> out = campaign::run(counting_tasks(32), Options{4});
  ASSERT_EQ(out.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], i);
}

TEST(CampaignTest, SubmissionOrderSurvivesReversedCompletionOrder) {
  // Early jobs sleep longest, so completion order is roughly the reverse
  // of submission order; results must come back in submission order.
  const int n = 8;
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back([i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * (n - i)));
      return i * 10;
    });
  }
  std::vector<int> out = campaign::run(std::move(tasks), Options{n});
  ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(out[i], i * 10);
}

TEST(CampaignTest, SequentialReferencePathRunsInlineAndInOrder) {
  const auto caller = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([i, caller, &order] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
      return i;
    });
  }
  std::vector<int> out = campaign::run(std::move(tasks), Options{1});
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(CampaignTest, WorkerExceptionPropagates) {
  for (int jobs : {1, 4}) {
    std::vector<std::function<int()>> tasks = counting_tasks(8);
    tasks[5] = []() -> int { throw std::runtime_error("job 5 failed"); };
    EXPECT_THROW(
        { campaign::run(std::move(tasks), Options{jobs}); }, std::runtime_error)
        << "jobs=" << jobs;
  }
}

TEST(CampaignTest, LowestSubmissionIndexFailureWins) {
  // Two failing jobs: the one the sequential path would hit first must
  // be the one rethrown, at any worker count.
  for (int jobs : {1, 3, 8}) {
    std::vector<std::function<int()>> tasks = counting_tasks(16);
    tasks[3] = []() -> int { throw std::runtime_error("first"); };
    tasks[12] = []() -> int { throw std::runtime_error("second"); };
    try {
      campaign::run(std::move(tasks), Options{jobs});
      FAIL() << "expected an exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first") << "jobs=" << jobs;
    }
  }
}

TEST(CampaignTest, FailureCancelsRemainingJobs) {
  std::atomic<int> executed{0};
  std::vector<std::function<int()>> tasks;
  tasks.push_back([]() -> int { throw std::runtime_error("early"); });
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&executed] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return executed.fetch_add(1);
    });
  }
  EXPECT_THROW({ campaign::run(std::move(tasks), Options{2}); }, std::runtime_error);
  // The pool stops claiming work after the failure; with two workers at
  // most a handful of jobs can already be in flight.
  EXPECT_LT(executed.load(), 64);
}

TEST(CampaignTest, EmptyCampaignReturnsEmpty) {
  RunStats stats;
  std::vector<int> out = campaign::run<int>({}, Options{4}, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.jobs_total, 0u);
  EXPECT_EQ(stats.jobs_run, 0u);
  EXPECT_EQ(stats.jobs_cancelled, 0u);
}

TEST(CampaignTest, CancelledJobsAreAccountedExplicitly) {
  // An early failure on the sequential path cancels every later job;
  // the stats must say so explicitly rather than leaving the reader to
  // subtract, and the per-job times must distinguish "ran in ~0 s"
  // from "never ran" via the kCancelled sentinel.
  RunStats stats;
  std::vector<std::function<int()>> tasks;
  tasks.push_back([] { return 1; });
  tasks.push_back([]() -> int { throw std::runtime_error("boom"); });
  for (int i = 0; i < 6; ++i) tasks.push_back([] { return 0; });
  EXPECT_THROW({ campaign::run(std::move(tasks), Options{1}, &stats); }, std::runtime_error);
  EXPECT_EQ(stats.jobs_total, 8u);
  EXPECT_EQ(stats.jobs_run, 2u);  // the success + the throwing job
  EXPECT_EQ(stats.jobs_cancelled, 6u);
  EXPECT_EQ(stats.jobs_run + stats.jobs_cancelled, stats.jobs_total);
  ASSERT_EQ(stats.job_seconds.size(), 8u);
  EXPECT_GE(stats.job_seconds[0], 0.0);
  EXPECT_GE(stats.job_seconds[1], 0.0);
  for (std::size_t i = 2; i < 8; ++i) {
    EXPECT_EQ(stats.job_seconds[i], RunStats::kCancelled) << "job " << i;
  }
}

TEST(CampaignTest, ParallelFailureKeepsCancellationInvariant) {
  RunStats stats;
  std::vector<std::function<int()>> tasks;
  tasks.push_back([]() -> int { throw std::runtime_error("early"); });
  for (int i = 0; i < 63; ++i) {
    tasks.push_back([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return 0;
    });
  }
  EXPECT_THROW({ campaign::run(std::move(tasks), Options{2}, &stats); }, std::runtime_error);
  EXPECT_EQ(stats.jobs_total, 64u);
  EXPECT_EQ(stats.jobs_run + stats.jobs_cancelled, stats.jobs_total);
  EXPECT_GT(stats.jobs_cancelled, 0u);
  std::size_t sentinels = 0;
  for (double s : stats.job_seconds) {
    if (s == RunStats::kCancelled) ++sentinels;
    else EXPECT_GE(s, 0.0);
  }
  EXPECT_EQ(sentinels, stats.jobs_cancelled);
}

TEST(CampaignTest, StatsCountJobsAndTimes) {
  RunStats stats;
  std::vector<int> out = campaign::run(counting_tasks(10), Options{4}, &stats);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(stats.jobs_total, 10u);
  EXPECT_EQ(stats.jobs_run, 10u);
  EXPECT_EQ(stats.workers, 4);
  EXPECT_GT(stats.wall_seconds, 0.0);
  ASSERT_EQ(stats.job_seconds.size(), 10u);
  EXPECT_GT(stats.jobs_per_sec(), 0.0);
}

TEST(CampaignTest, ResolveJobsDefaultsToHardwareConcurrency) {
  EXPECT_GE(campaign::resolve_jobs(0), 1);
  EXPECT_GE(campaign::resolve_jobs(-3), 1);
  EXPECT_EQ(campaign::resolve_jobs(7), 7);
}

}  // namespace
}  // namespace alb
