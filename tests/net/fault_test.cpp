// Deterministic WAN fault injection (src/net/fault.hpp).
//
// Two contracts matter most:
//  * a DISABLED plan is a strict no-op — byte-identical event schedule,
//    pinned against a plan-free run;
//  * an ENABLED plan is deterministic — the same (seed, plan) pair
//    reproduces the same drops, the same trace hash and the same
//    elapsed time on every run.

#include <gtest/gtest.h>

#include "apps/tsp.hpp"
#include "net/fault.hpp"
#include "net/presets.hpp"

namespace alb::net {
namespace {

FaultPlan lossy_wan_plan() {
  FaultPlan p;
  p.enabled = true;
  p.wan.loss = 0.2;
  p.wan.latency_jitter = 0.25;
  p.wan.bandwidth_jitter = 0.25;
  return p;
}

TEST(FaultInjector, DisabledPlanCannotDrop) {
  FaultPlan p;
  p.wan.loss = 1.0;  // knobs set but master switch off
  EXPECT_FALSE(p.can_drop());
  p.enabled = true;
  EXPECT_TRUE(p.can_drop());
}

TEST(FaultInjector, JitterOnlyPlansDoNotArmRecovery) {
  FaultPlan p;
  p.enabled = true;
  p.wan.latency_jitter = 0.5;
  p.lan.bandwidth_jitter = 0.1;
  EXPECT_FALSE(p.can_drop());
  FaultInjector fi(p, 42);
  EXPECT_FALSE(fi.recovery_active());
}

TEST(FaultInjector, LossDrawsAreSeedDeterministic) {
  FaultPlan p = lossy_wan_plan();
  FaultInjector a(p, 42);
  FaultInjector b(p, 42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.lose(LinkClass::Wan), b.lose(LinkClass::Wan)) << "draw " << i;
  }
  // A different seed decorrelates the stream.
  FaultInjector c(p, 43);
  int differing = 0;
  FaultInjector a2(p, 42);
  for (int i = 0; i < 1000; ++i) {
    if (a2.lose(LinkClass::Wan) != c.lose(LinkClass::Wan)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, LossRateIsRoughlyHonored) {
  FaultPlan p;
  p.enabled = true;
  p.wan.loss = 0.1;
  FaultInjector fi(p, 42);
  int dropped = 0;
  for (int i = 0; i < 10000; ++i) {
    if (fi.lose(LinkClass::Wan)) ++dropped;
  }
  EXPECT_NEAR(dropped, 1000, 150);
  // Classes without loss never drop (and draw no RNG).
  EXPECT_FALSE(fi.lose(LinkClass::Lan));
  EXPECT_FALSE(fi.lose(LinkClass::Access));
}

TEST(FaultInjector, JitterIsOneSidedAndBounded) {
  FaultPlan p;
  p.enabled = true;
  p.wan.latency_jitter = 0.5;
  FaultInjector fi(p, 42);
  const sim::SimTime base = sim::microseconds(100);
  for (int i = 0; i < 1000; ++i) {
    const sim::SimTime t = fi.jitter_latency(LinkClass::Wan, base);
    EXPECT_GE(t, base);
    EXPECT_LT(t, base + base / 2 + 1);
  }
  // Un-jittered classes pass through untouched.
  EXPECT_EQ(fi.jitter_latency(LinkClass::Lan, base), base);
  EXPECT_EQ(fi.jitter_serialize(LinkClass::Wan, base), base);  // bw jitter unset
}

TEST(FaultInjector, ForceDropHitsListedWanMessages) {
  FaultPlan p;
  p.enabled = true;
  p.force_drop = {1, 3};
  FaultInjector fi(p, 42);
  EXPECT_FALSE(fi.lose(LinkClass::Wan));  // index 0
  EXPECT_TRUE(fi.lose(LinkClass::Wan));   // index 1
  EXPECT_FALSE(fi.lose(LinkClass::Wan));  // index 2
  EXPECT_TRUE(fi.lose(LinkClass::Wan));   // index 3
  EXPECT_FALSE(fi.lose(LinkClass::Wan));  // index 4
  EXPECT_EQ(fi.drops(), 0u);              // lose() decides; count_drop accounts
}

TEST(FaultInjector, FlapWindowLookup) {
  FaultPlan p;
  p.enabled = true;
  p.flaps.push_back(FlapWindow{0, 1, sim::milliseconds(1), sim::milliseconds(2)});
  p.flaps.push_back(FlapWindow{-1, -1, sim::milliseconds(5), sim::milliseconds(6)});
  FaultInjector fi(p, 42);
  EXPECT_FALSE(fi.flapped_until(0, 1, 0).has_value());
  auto until = fi.flapped_until(0, 1, sim::milliseconds(1));
  ASSERT_TRUE(until.has_value());
  EXPECT_EQ(*until, sim::milliseconds(2));
  // Window (0,1) does not cover the reverse direction...
  EXPECT_FALSE(fi.flapped_until(1, 0, sim::milliseconds(1)).has_value());
  // ...but the wildcard window covers every pair.
  EXPECT_TRUE(fi.flapped_until(1, 0, sim::milliseconds(5)).has_value());
  // End is exclusive.
  EXPECT_FALSE(fi.flapped_until(0, 1, sim::milliseconds(2)).has_value());
}

TEST(FaultInjector, BrownoutStateComposesWorstCase) {
  FaultPlan p;
  p.enabled = true;
  p.brownouts.push_back(Brownout{0, 0, sim::milliseconds(10), 2.0, 0.1});
  p.brownouts.push_back(Brownout{-1, 0, sim::milliseconds(10), 4.0, 0.05});
  FaultInjector fi(p, 42);
  auto gs = fi.gateway_state(0, sim::milliseconds(5));
  EXPECT_DOUBLE_EQ(gs.slow_factor, 4.0);
  EXPECT_DOUBLE_EQ(gs.extra_loss, 0.1);
  auto idle = fi.gateway_state(1, sim::milliseconds(5));
  EXPECT_DOUBLE_EQ(idle.slow_factor, 4.0);  // wildcard brownout covers cluster 1 too
  auto after = fi.gateway_state(0, sim::milliseconds(20));
  EXPECT_DOUBLE_EQ(after.slow_factor, 1.0);
  EXPECT_DOUBLE_EQ(after.extra_loss, 0.0);
}

TEST(FaultInjector, TimeoutsBackOffUntilTheBudgetFailsTheCluster) {
  FaultPlan p = lossy_wan_plan();
  p.recovery.backoff = 2.0;
  p.recovery.max_attempts = 3;
  FaultInjector fi(p, 42, 2);
  const auto attempt = [](FailureInfo::Kind kind, int n) {
    return FailureInfo{kind, /*node=*/1, /*op_id=*/7, n};
  };
  const sim::SimTime t0 = sim::milliseconds(10);
  EXPECT_EQ(fi.after_timeout(0, attempt(FailureInfo::Kind::RpcTimeout, 1), t0, 0), 2 * t0);
  EXPECT_EQ(fi.after_timeout(0, attempt(FailureInfo::Kind::SeqTimeout, 2), 2 * t0, 0), 4 * t0);
  EXPECT_FALSE(fi.failed(0));

  // The last attempt fails its cluster, and only that one.
  int fan_outs = 0;
  fi.on_fail([&](ClusterId c, const FailureInfo& info) {
    ++fan_outs;
    EXPECT_EQ(c, 0);
    EXPECT_EQ(info.attempts, 3);
  });
  EXPECT_EQ(fi.after_timeout(0, attempt(FailureInfo::Kind::RpcTimeout, 3), 4 * t0, 5),
            std::nullopt);
  EXPECT_TRUE(fi.failed(0));
  EXPECT_FALSE(fi.failed(1));
  ASSERT_TRUE(fi.failure().has_value());
  EXPECT_EQ(fi.failure()->kind, FailureInfo::Kind::RpcTimeout);

  // A failed cluster's requests give up at once; nothing fails twice.
  EXPECT_EQ(fi.after_timeout(0, attempt(FailureInfo::Kind::SeqTimeout, 1), t0, 6), std::nullopt);
  EXPECT_EQ(fan_outs, 1);
  EXPECT_EQ(fi.retries(), 2u);
  EXPECT_EQ(fi.rpc_timeouts(), 2u);
  EXPECT_EQ(fi.seq_timeouts(), 2u);
}

// ---------------------------------------------------------------------
// Whole-run contracts (through the app harness).
// ---------------------------------------------------------------------

apps::AppConfig tsp_cfg(int clusters, int per) {
  apps::AppConfig c;
  c.clusters = clusters;
  c.procs_per_cluster = per;
  c.net_cfg = das_config(clusters, per);
  c.optimized = false;
  c.seed = 42;
  return c;
}

apps::TspParams small_tsp() {
  apps::TspParams p;
  p.cities = 10;
  p.job_depth = 3;
  return p;
}

TEST(FaultPlanContract, DisabledPlanIsByteIdentical) {
  const apps::TspParams prm = small_tsp();
  const apps::AppResult base = run_tsp(tsp_cfg(2, 2), prm);

  apps::AppConfig cfg = tsp_cfg(2, 2);
  cfg.faults = lossy_wan_plan();  // fully populated...
  cfg.faults.enabled = false;     // ...but disabled: must be a no-op
  const apps::AppResult off = run_tsp(cfg, prm);

  EXPECT_EQ(off.trace_hash, base.trace_hash);
  EXPECT_EQ(off.events, base.events);
  EXPECT_EQ(off.elapsed, base.elapsed);
  EXPECT_EQ(off.checksum, base.checksum);
  EXPECT_EQ(off.status, apps::AppResult::RunStatus::Ok);
}

TEST(FaultPlanContract, FaultedRunIsSeedDeterministic) {
  const apps::TspParams prm = small_tsp();
  apps::AppConfig cfg = tsp_cfg(2, 2);
  cfg.faults = lossy_wan_plan();
  const apps::AppResult a = run_tsp(cfg, prm);
  const apps::AppResult b = run_tsp(cfg, prm);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.stats.value("net/fault.drops"), b.stats.value("net/fault.drops"));
}

TEST(FaultPlanContract, JitterOnlySlowsButComputesTheSameAnswer) {
  const apps::TspParams prm = small_tsp();
  const apps::AppResult base = run_tsp(tsp_cfg(2, 2), prm);

  apps::AppConfig cfg = tsp_cfg(2, 2);
  cfg.faults.enabled = true;
  cfg.faults.wan.latency_jitter = 0.5;
  cfg.faults.wan.bandwidth_jitter = 0.5;
  const apps::AppResult jittered = run_tsp(cfg, prm);

  EXPECT_EQ(jittered.status, apps::AppResult::RunStatus::Ok);
  EXPECT_EQ(jittered.checksum, base.checksum);
  // One-sided jitter can only slow a run down.
  EXPECT_GE(jittered.elapsed, base.elapsed);
  // No loss configured: nothing dropped, no retries armed.
  EXPECT_EQ(jittered.stats.value("net/fault.drops"), 0.0);
  EXPECT_EQ(jittered.stats.value("net/fault.retries"), 0.0);
}

}  // namespace
}  // namespace alb::net
