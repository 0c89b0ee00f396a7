// Canonical-scenario goldens: every shipped .scn file must reproduce
// the configuration the benches used to hand-build, byte-identically.
// Two layers of pinning:
//
//   1. Config equality — the scenario-loaded AppConfig's canonical
//      request text equals the hand-built (presets.hpp) config's, so
//      the .scn files and the C++ presets cannot drift apart.
//   2. Absolute run goldens — trace_hash/events values captured from
//      the pre-scenario builds (the old `cfg.net_cfg = das_config(...)`
//      path), clean and faulted, so routing the tools/benches through
//      the loader provably changed no output byte.

#include <gtest/gtest.h>

#include <string>

#include "apps/app.hpp"
#include "net/fault.hpp"
#include "net/presets.hpp"
#include "scenario/scenario.hpp"

namespace alb {
namespace {

apps::AppConfig hand_built(int clusters, int per, net::TopologyConfig net_cfg) {
  apps::AppConfig c;
  c.clusters = clusters;
  c.procs_per_cluster = per;
  c.net_cfg = std::move(net_cfg);
  return c;
}

/// The fault plan `alb-trace --faults` hand-built before it was moved
/// into scenarios/faults-preset.scn — kept verbatim here as the golden.
net::FaultPlan legacy_fault_preset() {
  net::FaultPlan p;
  p.enabled = true;
  p.wan.loss = 0.05;
  p.wan.latency_jitter = 0.25;
  p.wan.bandwidth_jitter = 0.25;
  p.flaps.push_back({-1, -1, sim::milliseconds(5), sim::milliseconds(25)});
  p.brownouts.push_back({1, sim::milliseconds(30), sim::milliseconds(50), 2.0, 0.05});
  return p;
}

apps::AppResult run_registry_app(const std::string& name, const apps::AppConfig& cfg) {
  if (const apps::AppEntry* e = apps::find_app(name)) return e->run(cfg);
  ADD_FAILURE() << "app not in registry: " << name;
  return {};
}

TEST(ScenarioGolden, DasScnEqualsDasConfig) {
  EXPECT_EQ(scenario::canonical_request("TSP", scenario::load("das").base),
            scenario::canonical_request("TSP", hand_built(4, 15, net::das_config(4, 15))));
}

TEST(ScenarioGolden, InternetScnEqualsInternetConfig) {
  EXPECT_EQ(scenario::canonical_request("TSP", scenario::load("internet").base),
            scenario::canonical_request("TSP", hand_built(4, 15, net::internet_config(4, 15))));
}

TEST(ScenarioGolden, SlowWanScnEqualsSlowWanConfig) {
  EXPECT_EQ(scenario::canonical_request("TSP", scenario::load("slow-wan").base),
            scenario::canonical_request("TSP", hand_built(4, 15, net::slow_wan_config(4, 15))));
}

TEST(ScenarioGolden, SensitivityRunsEqualCustomWanConfigs) {
  // The five WAN points the bench's hand-built table used to carry.
  struct Point {
    const char* label;
    double rtt_ms;
    double mbit;
  };
  const Point points[] = {
      {"LAN-like", 0.5, 100.0},        {"DAS ATM", 2.7, 4.53},
      {"Internet(Sunday)", 8.0, 1.8},  {"slow (ATPG case)", 10.0, 2.0},
      {"very slow", 30.0, 1.0},
  };
  const scenario::Scenario sc = scenario::load("sensitivity");
  ASSERT_EQ(sc.runs.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sc.runs[i].label, points[i].label);
    EXPECT_EQ(scenario::canonical_request("ATPG", sc.runs[i].cfg),
              scenario::canonical_request(
                  "ATPG", hand_built(4, 15,
                                     net::custom_wan_config(
                                         4, 15, sim::milliseconds(points[i].rtt_ms),
                                         points[i].mbit * 1e6))))
        << points[i].label;
  }
}

TEST(ScenarioGolden, FaultsPresetScnEqualsLegacyPreset) {
  apps::AppConfig legacy = hand_built(4, 15, net::das_config(4, 15));
  legacy.faults = legacy_fault_preset();
  EXPECT_EQ(scenario::canonical_request("TSP", scenario::load("faults-preset").base),
            scenario::canonical_request("TSP", legacy));
}

// --- absolute goldens (pre-scenario builds, seed 42) -----------------

TEST(ScenarioGolden, TspCleanRunPinned) {
  apps::AppConfig cfg = scenario::load("das").base;
  cfg.clusters = 2;
  cfg.procs_per_cluster = 2;
  const apps::AppResult r = run_registry_app("TSP", cfg);
  EXPECT_EQ(r.trace_hash, 453478609224202581ull);
  EXPECT_EQ(r.events, 10053u);
  // And the scenario path changes nothing vs the hand-built config.
  const apps::AppResult h =
      run_registry_app("TSP", hand_built(2, 2, net::das_config(2, 2)));
  EXPECT_EQ(r.trace_hash, h.trace_hash);
  EXPECT_EQ(r.checksum, h.checksum);
  EXPECT_EQ(r.elapsed, h.elapsed);
}

TEST(ScenarioGolden, TspFaultedRunPinned) {
  apps::AppConfig cfg = scenario::load("das").base;
  cfg.clusters = 2;
  cfg.procs_per_cluster = 2;
  cfg.faults = scenario::load("faults-preset").base.faults;
  const apps::AppResult r = run_registry_app("TSP", cfg);
  EXPECT_EQ(r.trace_hash, 11450783730213148142ull);
  EXPECT_EQ(r.events, 10122u);
  apps::AppConfig legacy = hand_built(2, 2, net::das_config(2, 2));
  legacy.faults = legacy_fault_preset();
  const apps::AppResult h = run_registry_app("TSP", legacy);
  EXPECT_EQ(r.trace_hash, h.trace_hash);
  EXPECT_EQ(r.checksum, h.checksum);
}

TEST(ScenarioGolden, AspCleanRunPinned) {
  apps::AppConfig cfg = scenario::load("das").base;
  cfg.clusters = 2;
  cfg.procs_per_cluster = 4;
  const apps::AppResult r = run_registry_app("ASP", cfg);
  EXPECT_EQ(r.trace_hash, 14097529430529361369ull);
  EXPECT_EQ(r.events, 40318u);
}

}  // namespace
}  // namespace alb
