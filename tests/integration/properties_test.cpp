// System-level property tests: determinism, traffic conservation,
// sequencer interchangeability, link accounting and causal-analysis
// invariants, swept over applications and topologies with
// parameterized gtest.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/acp.hpp"
#include "apps/app.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "net/presets.hpp"
#include "orca/shared_object.hpp"
#include "scenario/scenario.hpp"
#include "trace/causal/causal.hpp"

namespace alb::apps {
namespace {

AppConfig cfg(int clusters, int per, bool optimized) {
  AppConfig c;
  c.clusters = clusters;
  c.procs_per_cluster = per;
  c.net_cfg = net::das_config(clusters, per);
  c.optimized = optimized;
  return c;
}

// ------------------------------------------------------------ determinism
// Re-running any app on any topology must give the identical simulated
// time, checksum and traffic — byte for byte.
using DetParam = std::tuple<int /*app index*/, int /*clusters*/, bool /*opt*/>;

class DeterminismSweep : public ::testing::TestWithParam<DetParam> {};

TEST_P(DeterminismSweep, RunsAreBitReproducible) {
  const int app_idx = std::get<0>(GetParam());
  const int clusters = std::get<1>(GetParam());
  const bool opt = std::get<2>(GetParam());
  // Small fixed workloads so the sweep stays fast. Apps with large
  // bench defaults are exercised through their *Params small variants
  // in the app tests; here we take the three cheapest registry apps.
  struct SmallApp {
    const char* name;
    AppResult (*run)(const AppConfig&);
  };
  static const SmallApp small_apps[] = {
      {"TSP",
       [](const AppConfig& c) {
         TspParams p;
         p.cities = 9;
         p.job_depth = 2;
         return run_tsp(c, p);
       }},
      {"ACP",
       [](const AppConfig& c) {
         AcpParams p;
         p.variables = 40;
         p.tightness = 0.9;
         return run_acp(c, p);
       }},
      {"SOR",
       [](const AppConfig& c) {
         SorParams p;
         p.rows = 24;
         p.cols = 16;
         p.omega = 1.8;
         return run_sor(c, p);
       }},
  };
  const SmallApp& app = small_apps[app_idx];
  AppConfig c = cfg(clusters, 2, opt);
  AppResult a = app.run(c);
  AppResult b = app.run(c);
  EXPECT_EQ(a.elapsed, b.elapsed) << app.name;
  EXPECT_EQ(a.checksum, b.checksum) << app.name;
  EXPECT_EQ(a.traffic.total_messages(), b.traffic.total_messages()) << app.name;
  EXPECT_EQ(a.traffic.total_inter_bytes(), b.traffic.total_inter_bytes()) << app.name;
}

std::string det_param_name(const ::testing::TestParamInfo<DetParam>& info) {
  // Braced initializers cannot appear inside the INSTANTIATE macro
  // (macro argument splitting), hence this named generator.
  const char* name = std::get<0>(info.param) == 0   ? "TSP"
                     : std::get<0>(info.param) == 1 ? "ACP"
                                                    : "SOR";
  return std::string(name) + "_" + std::to_string(std::get<1>(info.param)) + "cl_" +
         (std::get<2>(info.param) ? "opt" : "orig");
}

INSTANTIATE_TEST_SUITE_P(
    AppsTopologies, DeterminismSweep,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(1, 2, 4),
                       ::testing::Bool()),
    det_param_name);

// -------------------------------------------------- traffic conservation
// Counted WAN bytes must equal the sum of the bytes that crossed each
// WAN circuit (link accounting and traffic stats agree).
TEST(TrafficConservation, WanLinkBytesMatchStats) {
  sim::Engine eng;
  net::Network net(eng, net::das_config(3, 3));
  orca::Runtime rt(net);
  auto obj = orca::create_remote<long long>(rt, 0, 0);
  rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await obj.invoke_void(p, 100 + p.rank, 50, [](long long& v) { ++v; });
    }
  });
  rt.run_all();
  std::uint64_t link_bytes = 0;
  for (net::ClusterId a = 0; a < 3; ++a) {
    for (net::ClusterId b = 0; b < 3; ++b) {
      if (a != b) link_bytes += net.wan_link(a, b).bytes();
    }
  }
  EXPECT_EQ(link_bytes, net.stats().total_inter_bytes());
}

TEST(TrafficConservation, SingleClusterNeverTouchesWan) {
  TspParams p;
  p.cities = 9;
  p.job_depth = 2;
  AppResult r = run_tsp(cfg(1, 6, false), p);
  EXPECT_EQ(r.traffic.total_inter_bytes(), 0u);
  for (auto k : {net::MsgKind::Rpc, net::MsgKind::Bcast, net::MsgKind::Control,
                 net::MsgKind::Data}) {
    EXPECT_EQ(r.traffic.kind(k).inter_msgs, 0u);
  }
}

// ------------------------------------------- sequencer interchangeability
// All three sequencer strategies must produce the same application
// results (they only change timing, never ordering semantics).
TEST(SequencerEquivalence, AcpFixpointIdenticalUnderAllStrategies) {
  AcpParams p;
  p.variables = 40;
  p.tightness = 0.9;
  const std::uint64_t want = acp_reference_checksum(p, 42);
  for (auto kind : {orca::SequencerKind::Centralized, orca::SequencerKind::Rotating,
                    orca::SequencerKind::Migrating}) {
    // run_acp chooses its own runtime config; emulate by running the
    // raw board protocol under each sequencer instead.
    sim::Engine eng;
    net::Network net(eng, net::das_config(2, 2));
    orca::Runtime::Config rtc;
    rtc.sequencer = kind;
    rtc.migrate_threshold = 2;
    orca::Runtime rt(net, rtc);
    auto board = orca::create_replicated<std::vector<int>>(rt, std::vector<int>(8, 0));
    rt.spawn_all([&](orca::Proc& p2) -> sim::Task<void> {
      for (int i = 0; i < 4; ++i) {
        const int rank = p2.rank;
        co_await board.write(p2, 16, [rank, i](std::vector<int>& v) {
          v[static_cast<std::size_t>(rank)] = i + 1;
        });
      }
    });
    rt.run_all();
    for (int r = 0; r < 4; ++r) {
      const auto& v = board.local(rt.proc(r));
      for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], 4);
    }
  }
  EXPECT_EQ(want, acp_reference_checksum(p, 42));  // oracle stability
}

// ------------------------------------------------------- timing monotony
// More WAN latency can never make an original program faster.
TEST(TimingMonotonicity, SlowerWanNeverHelps) {
  SorParams p;
  p.rows = 24;
  p.cols = 16;
  p.omega = 1.8;
  p.fixed_iterations = 20;
  sim::SimTime prev = 0;
  for (double rtt_ms : {1.0, 2.7, 10.0, 30.0}) {
    AppConfig c = cfg(2, 4, false);
    c.net_cfg = net::custom_wan_config(2, 4, sim::milliseconds(rtt_ms), 4.53e6);
    AppResult r = run_sor(c, p);
    EXPECT_GE(r.elapsed, prev) << "rtt " << rtt_ms;
    prev = r.elapsed;
  }
}

TEST(TimingMonotonicity, MoreBandwidthNeverHurts) {
  SorParams p;
  p.rows = 24;
  p.cols = 16;
  p.omega = 1.8;
  p.fixed_iterations = 20;
  sim::SimTime prev = std::numeric_limits<sim::SimTime>::max();
  for (double mbit : {0.5, 2.0, 4.53, 20.0}) {
    AppConfig c = cfg(2, 4, false);
    c.net_cfg = net::custom_wan_config(2, 4, sim::milliseconds(2.7), mbit * 1e6);
    AppResult r = run_sor(c, p);
    EXPECT_LE(r.elapsed, prev) << "bw " << mbit;
    prev = r.elapsed;
  }
}

// ----------------------------------------------------- engine accounting
TEST(EngineAccounting, LinkUtilizationBoundedByRunTime) {
  sim::Engine eng;
  net::Network net(eng, net::das_config(2, 2));
  orca::Runtime rt(net);
  rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      rt.send_data(p, (p.rank + 1) % p.nprocs, 5, 2000);
      co_await p.compute(sim::microseconds(100));
    }
  });
  rt.run_all();
  // Processes finish before the network drains (sends are asynchronous),
  // so the bound is the time of the last processed event, which covers
  // the final delivery.
  const sim::SimTime drained = eng.now();
  for (net::ClusterId a = 0; a < 2; ++a) {
    for (net::ClusterId b = 0; b < 2; ++b) {
      if (a == b) continue;
      EXPECT_LE(net.wan_link(a, b).busy_time(), drained);
      EXPECT_LE(net.wan_link(a, b).busy_until(), drained);
      EXPECT_GE(net.wan_link(a, b).busy_time(), 0);
    }
  }
}

// ------------------------------------------------ generated geometries
// The causal analysis of a run must read the topology the run
// simulated. Each app is traced on das.scn's net_cfg, left as loaded,
// at a geometry other than the scenario's 4x15: every compute node of
// cfg.topology() gets a program chain, no gateway does, and the
// critical path telescopes to the run's elapsed time.
using GeomParam = std::tuple<int /*registry index*/, std::pair<int, int> /*clusters x per*/>;

class GeneratedGeometry : public ::testing::TestWithParam<GeomParam> {};

TEST_P(GeneratedGeometry, CausalAnalysisReadsTheRunTopology) {
  const auto [app_idx, geometry] = GetParam();
  const auto [clusters, per] = geometry;
  const AppEntry& app = registry()[static_cast<std::size_t>(app_idx)];
  AppConfig c = scenario::load("das").base;
  ASSERT_EQ(c.clusters, 4);
  ASSERT_EQ(c.procs_per_cluster, 15);
  c.clusters = clusters;
  c.procs_per_cluster = per;
  c.trace.enabled = true;  // ACP's run wraps the ring: the kept window must hold too
  const AppResult r = app.run(c);
  ASSERT_TRUE(r.trace);

  const net::TopologyConfig topo = c.topology();
  const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, topo);
  const net::Topology t(topo);
  std::vector<bool> chained(static_cast<std::size_t>(t.num_nodes()), false);
  for (std::size_t i = 0; i < dag.events.size(); ++i) {
    const int actor = dag.events[i].actor;
    if (dag.slots[i].program != trace::causal::kNone && actor >= 0 && actor < t.num_nodes()) {
      chained[static_cast<std::size_t>(actor)] = true;
    }
  }
  for (net::NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(chained[static_cast<std::size_t>(n)], t.is_compute(n))
        << app.name << ": node " << n << (t.is_compute(n) ? " (compute)" : " (gateway)");
  }

  const trace::causal::CriticalPath cp = trace::causal::critical_path(dag);
  ASSERT_FALSE(cp.segments.empty()) << app.name;
  EXPECT_EQ(cp.length, r.elapsed) << app.name;
  EXPECT_EQ(cp.segments.front().begin, 0) << app.name;
  EXPECT_EQ(cp.segments.back().end, cp.length) << app.name;
  sim::SimTime sum = 0;
  for (std::size_t i = 0; i < cp.segments.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(cp.segments[i].begin, cp.segments[i - 1].end) << app.name;
    }
    sum += cp.segments[i].dur();
  }
  EXPECT_EQ(sum, cp.length) << app.name;
}

std::string geom_param_name(const ::testing::TestParamInfo<GeomParam>& info) {
  std::string name = registry()[static_cast<std::size_t>(std::get<0>(info.param))].name;
  std::erase(name, '*');  // IDA* -> IDA: gtest names are identifiers
  const auto [clusters, per] = std::get<1>(info.param);
  return name + "_" + std::to_string(clusters) + "x" + std::to_string(per);
}

INSTANTIATE_TEST_SUITE_P(
    AppsGeometries, GeneratedGeometry,
    ::testing::Combine(::testing::Range(0, static_cast<int>(registry().size())),
                       ::testing::Values(std::make_pair(2, 3), std::make_pair(4, 4))),
    geom_param_name);

}  // namespace
}  // namespace alb::apps
