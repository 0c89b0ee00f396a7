// Contracts of the causal analysis layer (src/trace/causal/):
// happens-before DAG invariants over real traced runs and synthetic
// wrapped rings, critical-path telescoping, what-if projections
// validated against actual re-simulation, and the faults composition.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "apps/asp.hpp"
#include "apps/ra.hpp"
#include "apps/tsp.hpp"
#include "net/presets.hpp"
#include "net/topology.hpp"
#include "orca/tags.hpp"
#include "trace/causal/causal.hpp"
#include "trace/trace.hpp"

namespace {

using namespace alb;
using apps::AppConfig;
using apps::AppResult;

AppConfig traced_config(int clusters, int per) {
  AppConfig cfg;
  cfg.clusters = clusters;
  cfg.procs_per_cluster = per;
  cfg.net_cfg = net::das_config(clusters, per);
  cfg.seed = 42;
  cfg.trace.enabled = true;
  return cfg;
}

apps::TspParams small_tsp() {
  apps::TspParams p;
  p.cities = 10;
  p.job_depth = 3;
  return p;
}

apps::AspParams small_asp() {
  apps::AspParams p;
  p.nodes = 48;
  return p;
}

// --- protocol decoding -----------------------------------------------

TEST(CausalProtocol, EveryRuntimeTagMapsToItsProtocol) {
  using trace::causal::Protocol;
  const std::pair<orca::RtsTag, Protocol> table[] = {
      {orca::kTagRpcRequest, Protocol::Rpc},         {orca::kTagRpcReply, Protocol::Rpc},
      {orca::kTagBcastData, Protocol::Bcast},        {orca::kTagSeqRequest, Protocol::Seq},
      {orca::kTagSeqReply, Protocol::Seq},           {orca::kTagSeqToken, Protocol::Seq},
      {orca::kTagSeqMigrate, Protocol::Seq},         {orca::kTagBarrierArrive, Protocol::Barrier},
      {orca::kTagBarrierRelease, Protocol::Barrier}, {orca::kTagSeqHint, Protocol::Seq},
      {orca::kTagSeqArm, Protocol::Seq},
  };
  // The tags are consecutive negatives from -1; the table covers them all.
  ASSERT_EQ(std::size(table), static_cast<std::size_t>(-orca::kTagSeqArm));
  for (const auto& [tag, proto] : table) {
    EXPECT_EQ(trace::causal::protocol_of_tag(tag), proto) << "tag " << static_cast<int>(tag);
  }
  EXPECT_EQ(trace::causal::protocol_of_tag(0), Protocol::App);
}

// --- DAG invariants --------------------------------------------------

TEST(CausalDag, OrphanEndsFromWraparoundAreDroppedAndCounted) {
  // Capacity 4: the begin at t=0 is overwritten by the instants, so its
  // end arrives with no matching begin in the surviving window.
  trace::Config tc;
  tc.enabled = true;
  tc.capacity = 4;
  trace::Recorder rec(tc);
  rec.set_time(0);
  rec.begin(trace::Ev::Wan, /*actor=*/0, /*id=*/7);
  for (int i = 1; i <= 4; ++i) {
    rec.set_time(i * 10);
    rec.instant(trace::Ev::AppCompute, 0, static_cast<std::uint64_t>(i));
  }
  rec.set_time(100);
  rec.end(trace::Ev::Wan, 0, 7);

  const trace::Trace t = std::move(rec).harvest();
  const trace::causal::Dag dag = trace::causal::build_dag(t, net::das_config(2, 2));
  EXPECT_EQ(dag.orphan_ends, 1u);
  for (const trace::TraceEvent& e : dag.events) {
    EXPECT_NE(e.phase, trace::EventPhase::End) << trace::to_string(e.name);
  }
}

TEST(CausalDag, MatchedSpansSurviveNormalization) {
  trace::Config tc;
  tc.enabled = true;
  tc.capacity = 16;
  trace::Recorder rec(tc);
  rec.set_time(0);
  rec.begin(trace::Ev::Wan, 0, 7);
  rec.set_time(50);
  rec.end(trace::Ev::Wan, 0, 7);
  const trace::Trace t = std::move(rec).harvest();
  const trace::causal::Dag dag = trace::causal::build_dag(t, net::das_config(2, 2));
  EXPECT_EQ(dag.orphan_ends, 0u);
  ASSERT_EQ(dag.events.size(), 2u);
  EXPECT_EQ(dag.events[1].phase, trace::EventPhase::End);
}

TEST(CausalDag, EventsAreTheTraceEvents) {
  // The Dag reads its events in place: kept event i is the trace event
  // at trace_index(i), the indices strictly increase, and the positions
  // they skip are exactly the orphan Ends. Checked on a wrapped ring
  // (capacity 24000, under half the run) and an unwrapped one.
  apps::RaParams ra;
  ra.stones = 6;
  for (const bool wrapped : {true, false}) {
    AppConfig cfg = traced_config(4, 4);
    if (wrapped) cfg.trace.capacity = 24000;
    const AppResult r = apps::run_ra(cfg, ra);
    ASSERT_TRUE(r.trace);
    const trace::Trace& t = *r.trace;
    ASSERT_EQ(t.dropped > 0, wrapped);
    const trace::causal::Dag dag = trace::causal::build_dag(t, cfg.net_cfg);
    EXPECT_EQ(dag.orphan_ends > 0, wrapped);

    std::vector<bool> kept(t.events.size(), false);
    std::size_t i = 0;
    for (const trace::TraceEvent& e : dag.events) {
      const std::uint32_t at = dag.events.trace_index(i);
      ASSERT_LT(at, t.events.size());
      if (i > 0) {
        ASSERT_LT(dag.events.trace_index(i - 1), at);
      }
      const trace::TraceEvent& want = t.events[at];
      EXPECT_EQ(&e, &want) << "kept event " << i << " is not read in place";
      EXPECT_EQ(e.time, want.time);
      EXPECT_EQ(e.id, want.id);
      EXPECT_EQ(e.arg, want.arg);
      EXPECT_EQ(e.actor, want.actor);
      EXPECT_EQ(e.name, want.name);
      EXPECT_EQ(e.phase, want.phase);
      EXPECT_EQ(e.aux, want.aux);
      EXPECT_EQ(&dag.events[i], &e);
      kept[at] = true;
      ++i;
    }
    EXPECT_EQ(i, dag.events.size());
    EXPECT_EQ(dag.slots.size(), dag.events.size());

    std::uint64_t skipped = 0;
    for (std::size_t at = 0; at < t.events.size(); ++at) {
      if (kept[at]) continue;
      ++skipped;
      EXPECT_EQ(t.events[at].phase, trace::EventPhase::End) << "trace event " << at;
    }
    EXPECT_EQ(skipped, dag.orphan_ends) << (wrapped ? "wrapped" : "unwrapped");
  }
}

TEST(CausalDag, SparseMessageIdsKeepTheirJourneys) {
  // Real runs mint dense message ids; the journey table must not rely
  // on that. Ids 1 and 2^40 interleave a LAN and a WAN journey, then
  // 3000 more ids spaced 2^40 apart force the table to grow. Trailing
  // comments give each event's kept index.
  trace::Config tc;
  tc.enabled = true;
  tc.capacity = 1 << 16;
  trace::Recorder rec(tc);
  const std::int16_t rpc = trace::Recorder::clamp_tag(orca::kTagRpcRequest);
  const std::int16_t bcast = trace::Recorder::clamp_tag(orca::kTagBcastData);
  const net::TopologyConfig net = net::das_config(2, 2);
  const net::NodeId gw0 = net::Topology(net).gateway_of(0);
  const net::NodeId gw1 = net::Topology(net).gateway_of(1);
  const std::uint64_t lan = 1;
  const std::uint64_t wan = std::uint64_t{1} << 40;
  rec.set_time(10);
  rec.instant(trace::Ev::SendLan, 0, lan, 64, rpc);        // 0
  rec.set_time(20);
  rec.begin(trace::Ev::Wan, 0, wan, 128, bcast);            // 1
  rec.set_time(30);
  rec.instant(trace::Ev::Deliver, 1, lan, 64, rpc);         // 2
  rec.set_time(40);
  rec.instant(trace::Ev::HopGwIn, gw0, wan, 128);           // 3
  rec.instant(trace::Ev::WanQueue, gw0, wan, 5);            // 4
  rec.set_time(60);
  rec.instant(trace::Ev::HopWan, gw0, wan, 128);            // 5
  rec.set_time(1060);
  rec.instant(trace::Ev::HopGwOut, gw1, wan, 128);          // 6
  rec.set_time(1070);
  rec.instant(trace::Ev::Deliver, 2, wan, 128, bcast);      // 7
  constexpr std::uint32_t kBulk = 3000;
  constexpr std::uint32_t kFirstBulk = 8;
  for (std::uint32_t k = 1; k <= kBulk; ++k) {
    rec.instant(trace::Ev::SendLan, 0, std::uint64_t{k} << 40 | 3, k, rpc);
  }
  rec.set_time(2000);
  for (std::uint32_t k = 1; k <= kBulk; ++k) {
    rec.instant(trace::Ev::Deliver, 1, std::uint64_t{k} << 40 | 3, k, rpc);
  }

  const trace::Trace t = std::move(rec).harvest();
  const trace::causal::Dag dag = trace::causal::build_dag(t, net);
  ASSERT_EQ(dag.events.size(), kFirstBulk + 2 * kBulk);
  using trace::causal::EdgeClass;
  using trace::causal::EdgeKind;
  using trace::causal::Protocol;
  const auto message = [&dag](std::uint32_t to) { return dag.edge({to, EdgeKind::Message}); };
  struct Hop {
    std::uint32_t from, to;
    EdgeClass cls;
    Protocol proto;
  };
  for (const Hop& h : {Hop{0, 2, EdgeClass::Lan, Protocol::Rpc},
                       Hop{1, 3, EdgeClass::Access, Protocol::Bcast},
                       Hop{3, 5, EdgeClass::Gateway, Protocol::Bcast},
                       Hop{5, 6, EdgeClass::WanTransfer, Protocol::Bcast},
                       Hop{6, 7, EdgeClass::Lan, Protocol::Bcast}}) {
    ASSERT_EQ(dag.pred({h.to, EdgeKind::Message}), h.from) << "event " << h.to;
    const trace::causal::Edge e = message(h.to);
    EXPECT_EQ(e.cls, h.cls) << "event " << h.to;
    EXPECT_EQ(e.proto, h.proto) << "event " << h.to;
  }
  EXPECT_EQ(message(2).bytes, 64u);
  EXPECT_EQ(message(6).wan_queue, 5);
  EXPECT_EQ(message(6).wan_lat + message(6).wan_ser, 1000 - 5);
  for (std::uint32_t k = 0; k < kBulk; ++k) {
    const std::uint32_t send = kFirstBulk + k;
    const std::uint32_t deliver = kFirstBulk + kBulk + k;
    ASSERT_EQ(dag.pred({deliver, EdgeKind::Message}), send) << "bulk id " << k + 1;
    EXPECT_EQ(message(deliver).cls, EdgeClass::Lan);
    EXPECT_EQ(message(deliver).proto, Protocol::Rpc);
  }
}

TEST(CausalDag, EdgesNeverGoBackwardInSimTime) {
  const AppResult r = apps::run_tsp(traced_config(2, 2), small_tsp());
  ASSERT_TRUE(r.trace);
  const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, net::das_config(2, 2));
  EXPECT_GT(dag.edge_count(), 0u);
  std::size_t visited = 0;
  dag.for_each_edge([&](const trace::causal::Edge& e) {
    ++visited;
    EXPECT_GE(e.dur, 0);
    EXPECT_LE(dag.events[e.from].time, dag.events[e.to].time);
    EXPECT_EQ(dag.events[e.to].time - dag.events[e.from].time, e.dur);
  });
  EXPECT_EQ(visited, dag.edge_count());
}

TEST(CausalDag, WanTransferSplitSumsToItsDuration) {
  // Dag stores only each WAN crossing's queue wait; the edge view
  // derives latency and serialization from it and reads the payload
  // size off the sink event. The split must still cover the crossing
  // exactly.
  AppConfig cfg = traced_config(4, 4);
  cfg.coll = orca::coll::Mode::Tree;
  const AppResult r = apps::run_ra(cfg, apps::RaParams::bench_default());
  ASSERT_TRUE(r.trace);
  const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, cfg.net_cfg);
  std::size_t crossings = 0;
  std::size_t queued = 0;
  dag.for_each_edge([&](const trace::causal::Edge& e) {
    if (e.kind != trace::causal::EdgeKind::Message ||
        e.cls != trace::causal::EdgeClass::WanTransfer) {
      return;
    }
    ++crossings;
    if (e.wan_queue > 0) ++queued;
    EXPECT_GE(e.wan_queue, 0);
    EXPECT_GE(e.wan_lat, 0);
    EXPECT_GE(e.wan_ser, 0);
    EXPECT_EQ(e.wan_queue + e.wan_lat + e.wan_ser, e.dur);
    EXPECT_EQ(e.bytes, dag.events[e.to].arg);
  });
  EXPECT_GT(crossings, 0u);
  EXPECT_GT(queued, 0u) << "no crossing queued; the stored wait is untested";
}

// --- critical path ---------------------------------------------------

void expect_telescopes(const trace::causal::CriticalPath& cp) {
  ASSERT_FALSE(cp.segments.empty());
  EXPECT_EQ(cp.segments.front().begin, 0);
  EXPECT_EQ(cp.segments.back().end, cp.length);
  sim::SimTime sum = 0;
  for (std::size_t i = 0; i < cp.segments.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(cp.segments[i].begin, cp.segments[i - 1].end);
    }
    sum += cp.segments[i].dur();
  }
  EXPECT_EQ(sum, cp.length);
  sim::SimTime by_blame_sum = 0;
  for (const auto& [k, v] : cp.by_blame) by_blame_sum += v;
  EXPECT_EQ(by_blame_sum, cp.length);
}

TEST(CriticalPath, SinglePrcessRunIsExactlyElapsed) {
  // One process, no communication: the path is the program chain and
  // its length is the run's elapsed time, exactly.
  const AppResult r = apps::run_tsp(traced_config(1, 1), small_tsp());
  ASSERT_TRUE(r.trace);
  const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, net::das_config(1, 1));
  const trace::causal::CriticalPath cp = trace::causal::critical_path(dag);
  EXPECT_EQ(cp.length, r.elapsed);
  expect_telescopes(cp);
}

TEST(CriticalPath, SegmentsTelescopeOnDistributedRuns) {
  {
    const AppResult r = apps::run_tsp(traced_config(2, 2), small_tsp());
    ASSERT_TRUE(r.trace);
    const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, net::das_config(2, 2));
    const trace::causal::CriticalPath cp = trace::causal::critical_path(dag);
    EXPECT_EQ(cp.length, dag.end);
    expect_telescopes(cp);
  }
  {
    const AppResult r = apps::run_asp(traced_config(2, 2), small_asp());
    ASSERT_TRUE(r.trace);
    const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, net::das_config(2, 2));
    const trace::causal::CriticalPath cp = trace::causal::critical_path(dag);
    EXPECT_EQ(cp.length, dag.end);
    expect_telescopes(cp);
  }
}

TEST(CriticalPath, DeterministicAcrossRebuilds) {
  const AppResult r = apps::run_asp(traced_config(2, 2), small_asp());
  ASSERT_TRUE(r.trace);
  const auto cfg = net::das_config(2, 2);
  const trace::causal::CriticalPath a =
      trace::causal::critical_path(trace::causal::build_dag(*r.trace, cfg));
  const trace::causal::CriticalPath b =
      trace::causal::critical_path(trace::causal::build_dag(*r.trace, cfg));
  EXPECT_EQ(a.length, b.length);
  EXPECT_EQ(a.segments.size(), b.segments.size());
  EXPECT_EQ(a.by_blame, b.by_blame);
}

// --- what-if validation ----------------------------------------------

// Projection error of `wan-lat-eq-lan` versus actually re-simulating
// with the LAN-equal WAN latency. These tolerances are the documented
// contract (docs/OBSERVABILITY.md): ASP is a data-parallel pipeline
// whose work is timing-independent, so the retimer is near-exact; TSP
// is branch-and-bound, where a faster WAN propagates bounds earlier and
// *changes the work itself* — the DAG retimer cannot see pruning, so
// its error bound is loose.
double projection_error_pct(const AppResult& traced, const AppConfig& cfg,
                            const trace::causal::Dag& dag,
                            const std::function<AppResult(const AppConfig&)>& run) {
  const trace::causal::Scenario sc =
      trace::causal::parse_scenario("wan-lat-eq-lan", cfg.net_cfg);
  EXPECT_TRUE(sc.validatable);
  const trace::causal::Projection pj = trace::causal::what_if(dag, sc);
  EXPECT_EQ(pj.observed, traced.elapsed);

  AppConfig vcfg = cfg;
  vcfg.net_cfg = trace::causal::apply_scenario(sc, cfg.net_cfg);
  vcfg.trace.enabled = false;
  const AppResult actual = run(vcfg);
  EXPECT_EQ(actual.status, AppResult::RunStatus::Ok);
  EXPECT_GT(actual.elapsed, 0);
  return 100.0 *
         std::abs(static_cast<double>(pj.projected) - static_cast<double>(actual.elapsed)) /
         static_cast<double>(actual.elapsed);
}

TEST(WhatIf, WanLatEqLanMatchesResimulationAsp) {
  const AppConfig cfg = traced_config(2, 4);
  const apps::AspParams p = small_asp();
  const auto run = [&](const AppConfig& c) { return apps::run_asp(c, p); };
  const AppResult r = run(cfg);
  ASSERT_TRUE(r.trace);
  const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, cfg.net_cfg);
  EXPECT_LT(projection_error_pct(r, cfg, dag, run), 2.0);
}

TEST(WhatIf, WanLatEqLanMatchesResimulationTsp) {
  const AppConfig cfg = traced_config(2, 4);
  const apps::TspParams p = small_tsp();
  const auto run = [&](const AppConfig& c) { return apps::run_tsp(c, p); };
  const AppResult r = run(cfg);
  ASSERT_TRUE(r.trace);
  const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, cfg.net_cfg);
  EXPECT_LT(projection_error_pct(r, cfg, dag, run), 35.0);
}

TEST(WhatIf, UnknownScenarioThrows) {
  EXPECT_THROW(trace::causal::parse_scenario("wan-warp-x9", net::das_config(2, 2)),
               std::runtime_error);
  EXPECT_THROW(trace::causal::parse_scenario("wan-bw-x0", net::das_config(2, 2)),
               std::runtime_error);
}

TEST(WhatIf, StandardScenariosProjectNoSlowdown) {
  // Every standard scenario only relaxes a resource, so the projection
  // must never exceed the observed makespan.
  const AppConfig cfg = traced_config(2, 2);
  const AppResult r = apps::run_asp(cfg, small_asp());
  ASSERT_TRUE(r.trace);
  const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, cfg.net_cfg);
  for (const trace::causal::Scenario& sc : trace::causal::standard_scenarios(cfg.net_cfg)) {
    const trace::causal::Projection pj = trace::causal::what_if(dag, sc);
    EXPECT_LE(pj.projected, pj.observed) << sc.name;
    EXPECT_GE(pj.speedup, 1.0) << sc.name;
  }
}

// --- faults composition ----------------------------------------------

TEST(CausalFaults, RetriesAppearOnCriticalPathWithFaultBlame) {
  AppConfig cfg = traced_config(2, 2);
  cfg.faults.enabled = true;
  cfg.faults.wan.loss = 0.30;  // heavy loss: retries dominate the path
  const AppResult r = apps::run_tsp(cfg, small_tsp());
  ASSERT_EQ(r.status, AppResult::RunStatus::Ok);
  ASSERT_TRUE(r.trace);
  EXPECT_GT(r.stats.value("net/fault.retries"), 0.0);

  const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, cfg.net_cfg);
  const trace::causal::CriticalPath cp = trace::causal::critical_path(dag);
  expect_telescopes(cp);
  const auto it = cp.by_blame.find("net/fault.retry");
  ASSERT_NE(it, cp.by_blame.end())
      << "faulted run's critical path has no net/fault.retry segments";
  EXPECT_GT(it->second, 0);
}

// --- wide-area collectives -------------------------------------------

TEST(CausalCollective, TreeBroadcastShrinksWideAreaBlameOnAsp) {
  // Rows large enough that one row's access serialization (~69 us)
  // exceeds a gateway forwarding slot (50 us), so tree mode replicates
  // at the gateway instead of re-serializing the row up the access link
  // once per remote cluster.
  apps::AspParams p;
  p.nodes = 192;
  AppConfig flat_cfg = traced_config(4, 2);
  const AppResult flat = apps::run_asp(flat_cfg, p);
  AppConfig tree_cfg = traced_config(4, 2);
  tree_cfg.coll = orca::coll::Mode::Tree;
  const AppResult tree = apps::run_asp(tree_cfg, p);
  ASSERT_TRUE(flat.trace);
  ASSERT_TRUE(tree.trace);
  EXPECT_EQ(tree.checksum, flat.checksum) << "collective layout changed the answer";
  EXPECT_LT(tree.elapsed, flat.elapsed);

  const trace::causal::CriticalPath cp_flat =
      trace::causal::critical_path(trace::causal::build_dag(*flat.trace, flat_cfg.net_cfg));
  const trace::causal::CriticalPath cp_tree =
      trace::causal::critical_path(trace::causal::build_dag(*tree.trace, tree_cfg.net_cfg));
  expect_telescopes(cp_flat);
  expect_telescopes(cp_tree);

  auto blame_of = [](const trace::causal::CriticalPath& cp, const std::string& key) {
    const auto it = cp.by_blame.find(key);
    return it == cp.by_blame.end() ? sim::SimTime{0} : it->second;
  };
  // The star keeps one WAN crossing per cross-cluster handoff, so the
  // tree must not add propagation time to the path...
  EXPECT_LE(blame_of(cp_tree, "net/wan.latency"), blame_of(cp_flat, "net/wan.latency"));
  // ...and the dispatch win (C-1 access serializations collapsing into
  // one) must show up as strictly less network time on the path.
  const auto net_flat = cp_flat.by_layer.find("net");
  const auto net_tree = cp_tree.by_layer.find("net");
  ASSERT_NE(net_flat, cp_flat.by_layer.end());
  ASSERT_NE(net_tree, cp_tree.by_layer.end());
  EXPECT_LT(net_tree->second, net_flat->second);
}

TEST(CausalCollective, CombineHoldsAreClassedAndBlamedHonestly) {
  EXPECT_EQ(trace::causal::blame(trace::causal::EdgeClass::CombineWait,
                                 trace::causal::Protocol::App),
            "net/wan.combine.wait");
  // RA original floods the WAN with small fire-and-forget updates; in
  // tree mode the default gateway combining holds the burst behind the
  // first (bypassed) message, and every hold must surface in the DAG as
  // a CombineWait edge rather than disappearing into the gateway hop.
  AppConfig cfg = traced_config(4, 2);
  cfg.coll = orca::coll::Mode::Tree;
  const AppResult r = apps::run_ra(cfg, apps::RaParams::bench_default());
  ASSERT_TRUE(r.trace);
  ASSERT_GT(r.stats.value("net/wan.combined.flushes"), 0.0)
      << "combining never engaged; the hold path is untested";
  const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, cfg.net_cfg);
  std::uint64_t holds = 0;
  dag.for_each_edge([&holds](const trace::causal::Edge& e) {
    if (e.cls == trace::causal::EdgeClass::CombineWait) ++holds;
  });
  EXPECT_GT(holds, 0u);
  expect_telescopes(trace::causal::critical_path(dag));
}

}  // namespace
