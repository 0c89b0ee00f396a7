// The determinism firewall: enabling host telemetry must not change a
// single bit of simulation output. Every field the golden tests, the
// result cache and the CSV diffs hash — elapsed, checksum, trace_hash,
// events, status — must be identical with a collector active, across
// the campaign pool (--jobs 1 vs 4), clean and under an enabled
// FaultPlan. This is
// the tripwire for any instrumentation site that accidentally feeds
// wall-clock state back into the simulation.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "campaign/sim_jobs.hpp"
#include "net/presets.hpp"
#include "telemetry/telemetry.hpp"

namespace alb {
namespace {

using apps::AppConfig;
using apps::AppResult;

struct CollectorGuard {
  ~CollectorGuard() { telemetry::Collector::shutdown(); }
};

AppConfig base_cfg(bool faulted) {
  AppConfig c;
  c.clusters = 4;
  c.procs_per_cluster = 2;
  c.net_cfg = net::das_config(4, 2);
  c.seed = 42;
  if (faulted) {
    c.faults.enabled = true;
    c.faults.wan.loss = 0.1;
    c.faults.wan.latency_jitter = 0.25;
  }
  return c;
}

apps::SorParams small_sor() {
  apps::SorParams p;
  p.rows = 48;
  p.cols = 24;
  p.fixed_iterations = 6;
  return p;
}

void expect_identical(const AppResult& ref, const AppResult& r, const std::string& what) {
  EXPECT_EQ(r.elapsed, ref.elapsed) << what << ": simulated run time diverged";
  EXPECT_EQ(r.checksum, ref.checksum) << what << ": computed answer diverged";
  EXPECT_EQ(r.events, ref.events) << what << ": event count diverged";
  EXPECT_EQ(r.trace_hash, ref.trace_hash) << what << ": event schedule diverged";
  EXPECT_EQ(r.status, ref.status) << what << ": run status diverged";
}

/// The four jobs every firewall case runs: both program variants, clean
/// and faulted.
std::vector<campaign::SimJob> firewall_jobs() {
  const apps::SorParams prm = small_sor();
  const campaign::SimRunner run = [prm](const AppConfig& c) {
    return apps::run_sor(c, prm);
  };
  std::vector<campaign::SimJob> jobs;
  for (bool faulted : {false, true}) {
    for (bool optimized : {false, true}) {
      AppConfig c = base_cfg(faulted);
      c.optimized = optimized;
      jobs.push_back({run, c});
    }
  }
  return jobs;
}

std::string job_label(std::size_t i) {
  static const char* const names[] = {"clean/orig", "clean/opt", "faulted/orig", "faulted/opt"};
  return names[i % 4];
}

TEST(TelemetryFirewall, OutputsIdenticalWithTelemetryOnAcrossJobs) {
  const std::vector<campaign::SimJob> jobs = firewall_jobs();

  // Reference: telemetry off, sequential campaign path.
  ASSERT_EQ(telemetry::Collector::active(), nullptr);
  const std::vector<AppResult> ref = campaign::run_sim_jobs(jobs, {1});

  // Telemetry on, tight ring (forces overflow mid-run) and a live
  // heartbeat thread: the worst-case active collector.
  telemetry::Config cfg;
  cfg.ring_capacity = 2;
  cfg.progress_period_s = 0.01;
  cfg.progress_path = "telemetry_firewall_heartbeat.jsonl";
  cfg.job_name = "firewall-test";
  telemetry::Collector::enable(cfg);
  CollectorGuard guard;
  ASSERT_NE(telemetry::Collector::active(), nullptr);

  for (int njobs : {1, 4}) {
    const std::vector<AppResult> got = campaign::run_sim_jobs(jobs, {njobs});
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expect_identical(ref[i], got[i],
                       "telemetry-on/--jobs " + std::to_string(njobs) + "/" + job_label(i));
    }
  }

  // The collector actually observed the runs (this test must not pass
  // vacuously with dead instrumentation)...
  telemetry::Collector* tc = telemetry::Collector::active();
  const telemetry::HostTrace t = tc->harvest();
  EXPECT_GT(t.spans_total + t.dropped_total, 0u);
  EXPECT_GT(t.dropped_total, 0u);  // ring_capacity 2 must have overflowed
  std::uint64_t job_spans = 0;
  for (const telemetry::HostThread& th : t.threads) {
    for (const telemetry::Span& s : th.spans) {
      if (std::string_view(s.name) == "campaign.job") ++job_spans;
    }
  }
  EXPECT_GT(job_spans, 0u) << "campaign jobs recorded no telemetry spans";
}

TEST(TelemetryFirewall, AppResultIdenticalAcrossEnableDisableForEveryVariant) {
  // Direct (no campaign pool) single-app check over both program
  // variants: run with telemetry off, then on, then off again — the
  // third run also proves shutdown leaves no residue in the app stack.
  const apps::TspParams prm{};  // registry defaults
  for (bool optimized : {false, true}) {
    AppConfig c = base_cfg(/*faulted=*/false);
    c.optimized = optimized;
    const AppResult off1 = apps::run_tsp(c, prm);
    telemetry::Collector::enable({});
    const AppResult on = apps::run_tsp(c, prm);
    telemetry::Collector::shutdown();
    const AppResult off2 = apps::run_tsp(c, prm);
    const std::string what = optimized ? "tsp/opt" : "tsp/orig";
    expect_identical(off1, on, what + "/telemetry-on");
    expect_identical(off1, off2, what + "/after-shutdown");
  }
}

}  // namespace
}  // namespace alb
