// Golden-value determinism tests.
//
// The engine's trace hash folds the canonical (time, lamport, owner)
// triple of *every* event a run dispatches, so it pins the complete
// event schedule — times, counts and ordering — of a whole simulation.
// These golden values must never change: any scheduling refactor
// (event-queue storage, coroutine resume fast path, network hop
// restructuring) has to be bit-identical to the original semantics to
// pass. If a change legitimately alters the schedule (a new protocol, a
// changed cost model), that is a behaviour change, not a refactor — this
// file must be re-goldened in the same PR with a written justification.
//
// Re-goldened (partitioned-engine PR), two distinct causes:
//
//  * Hash definition: the old (time, global-seq) FNV stream became an
//    owner-decomposed fold over canonical (time, lamport, owner) keys
//    (one accumulator per cluster, folded in cluster order). The
//    parallel engine that motivated it is gone; the definition stays,
//    pinned by these values. This alone re-keyed every trace_hash even
//    where the schedule was unchanged (the TSP pins: events and elapsed
//    below are byte-for-byte the pre-refactor seed values).
//
//  * Sequencer protocols: partition safety forbids one cluster reading
//    another's state, so the rotating token's wakeup kick now chases
//    the parked token hop-by-hop around the ring (total cost per
//    broadcast: exactly one revolution, the paper's "each cluster
//    broadcasts in turn"), and the migrating sequencer's relocation
//    hint is a routed message instead of an instant pointer swap.
//    Both change the ASP schedules (counts and elapsed move a few
//    percent); the paper-claim ratios they exist to reproduce are
//    pinned in paper_claims_test.cpp and still hold.
//
// Application checksums are unchanged everywhere: the computed answers
// did not move, only control-plane scheduling.
//
// Scenario: the 4-cluster ASP + TSP runs of the issue's acceptance
// criteria (small calibrated workloads; both the original and the
// wide-area-optimized variants), plus a pure-engine synthetic schedule.
//
// The ATPG pins cover the one app whose simulated time depends on a
// work count (gate evaluations) that its checksum does not see: a host
// kernel rewrite that miscounted `evals` would move `elapsed` here.
//
// The RA and IDA* pins cover the host setup of the two simulator-bound
// apps: RA's predecessor lists fix the order its updates are emitted in,
// and IDA*'s victim order fixes which steal RPCs are sent. They run at
// 4x3, where P is not a power of two, so RA's `owner_of` modulo and the
// wrap-around in IDA*'s original victim order are both exercised.
//
// The Water pins cover the host tables that count how many force
// contributions each owner waits for, and how many each cluster's
// reducer merges. P = 12 (4x3) is even, so the antipodal blocks are
// split between the halves of the ring; P = 15 (3x5) is odd.
//
// The extra ASP pins cover every path that builds a fixed-location
// sequencer: the single-cluster default, an app-forced centralized
// sequencer on four clusters (clean and under WAN loss, where the
// retry and regrant paths run), and the sequencer that --adapt starts
// before it arms migration. The lossy original ASP pins the rotating
// sequencer's retry loop, and the adaptive TSP pins the central job
// queue's split into per-cluster shares.
//
// MetricsGolden pins the full published metrics snapshot (every
// counter, gauge and histogram row of write_csv) for runs that reach
// the gateway-combining, tree-dissemination, cluster-cache, reducer and
// fault-drop accounting. The lossy Water run also pins its schedule and
// answer: Water makes RPCs only through its cluster cache and reducer,
// so its RPC timeouts and duplicate requests are the blocking-RPC
// retry loop at work. The four-stream Water run pins payloads split
// into chunks striped over a circuit's sub-streams. The one-cluster
// ASP run pins the WAN histograms a run publishes even when nothing
// crosses a WAN, and adaptive RA pins the orca/adapt.* names.
//
// CausalGolden pins the causal analysis end to end on a trace whose
// recorder ring wrapped, so normalization drops orphan Ends: the DAG's
// shape, every edge field, the critical path's blame and the standard
// what-if projections. The unwrapped cases pin only what does not
// depend on the order of same-time records: the DAG's size, a clean
// normalization, the critical path's length and blame, and the
// projections.
//
// ExportGolden pins the Chrome trace export byte for byte, and the
// number of events recorded under each name, for three traced runs:
// the lossy Water run above (RPC retry, timeout, duplicate and WAN
// drop events), adaptive RA (an adaptation decision) and a two-cluster
// TSP run that also records every engine dispatch.
//
// WrappedRa was re-pinned when the per-cluster recorder rings became
// one ring per run: a wrapped trace now keeps the run's newest events
// rather than each cluster's, so the kept window and its orphan Ends
// moved. The unwrapped pins did not.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/asp.hpp"
#include "apps/atpg.hpp"
#include "apps/ida.hpp"
#include "apps/ra.hpp"
#include "apps/tsp.hpp"
#include "apps/water.hpp"
#include "net/presets.hpp"
#include "sim/engine.hpp"
#include "trace/causal/causal.hpp"

namespace alb::apps {
namespace {

AppConfig cfg4(bool optimized, int per = 2) {
  AppConfig c;
  c.clusters = 4;
  c.procs_per_cluster = per;
  c.net_cfg = net::das_config(4, per);
  c.optimized = optimized;
  c.seed = 42;
  return c;
}

struct Golden {
  std::uint64_t trace_hash;
  std::uint64_t events;
  sim::SimTime elapsed;
  std::uint64_t checksum;
};

void expect_golden(const AppResult& r, const Golden& g, const char* what) {
  EXPECT_EQ(r.trace_hash, g.trace_hash) << what << ": event schedule changed";
  EXPECT_EQ(r.events, g.events) << what << ": event count changed";
  EXPECT_EQ(r.elapsed, g.elapsed) << what << ": simulated run time changed";
  EXPECT_EQ(r.checksum, g.checksum) << what << ": computed answer changed";
}

TEST(TraceGolden, Asp4ClusterOriginal) {
  AspParams p;
  p.nodes = 64;
  expect_golden(run_asp(cfg4(false), p),
                Golden{10104232891845147170ull, 4412ull, 379949263,
                       8836462817929870582ull},
                "ASP original");
}

TEST(TraceGolden, Asp4ClusterOptimized) {
  AspParams p;
  p.nodes = 64;
  expect_golden(run_asp(cfg4(true), p),
                Golden{3766858901267215559ull, 2787ull, 48915170,
                       8836462817929870582ull},
                "ASP optimized");
}

AspParams golden_asp(std::optional<orca::SequencerKind> sequencer = std::nullopt) {
  AspParams p;
  p.nodes = 64;
  p.sequencer = sequencer;
  return p;
}

std::uint64_t counter_of(const AppResult& r, const char* name) {
  const std::uint64_t* v = r.stats.counter(name);
  return v ? *v : 0;
}

TEST(TraceGolden, Asp1ClusterDefault) {
  AppConfig c;
  c.clusters = 1;
  c.procs_per_cluster = 4;
  c.net_cfg = net::das_config(1, 4);
  c.seed = 42;
  expect_golden(run_asp(c, golden_asp()),
                Golden{8916085547728858586ull, 1084ull, 28326472,
                       8836462817929870582ull},
                "ASP 1 cluster, default sequencer");
}

TEST(TraceGolden, Asp4ClusterOriginalLossy) {
  // WAN loss alone never reaches the rotating sequencer: its requests
  // and grants stay inside a cluster, and the token is stream traffic.
  // The flap holds the token at a gateway long enough for a request to
  // time out, retry and be refreshed in the pending queue.
  AppConfig c = cfg4(false);
  c.faults.enabled = true;
  c.faults.wan.loss = 0.05;
  c.faults.flaps.push_back(net::FlapWindow{-1, -1, sim::milliseconds(5), sim::milliseconds(25)});
  const AppResult r = run_asp(c, golden_asp());
  expect_golden(r,
                Golden{17813638459638824829ull, 4483ull, 398691102,
                       8836462817929870582ull},
                "ASP original, lossy WAN");
  EXPECT_GT(counter_of(r, "net/fault.timeouts.seq"), 0u) << "no sequencer retry ran";
}

TEST(TraceGolden, Asp4ClusterCentralized) {
  expect_golden(run_asp(cfg4(false, 3), golden_asp(orca::SequencerKind::Centralized)),
                Golden{10291615306102786414ull, 4347ull, 170171496,
                       8836462817929870582ull},
                "ASP centralized");
}

TEST(TraceGolden, Asp4ClusterCentralizedLossy) {
  AppConfig c = cfg4(false, 3);
  c.faults.enabled = true;
  c.faults.wan.loss = 0.05;
  const AppResult r = run_asp(c, golden_asp(orca::SequencerKind::Centralized));
  expect_golden(r,
                Golden{8326584250287241503ull, 4436ull, 228868366,
                       8836462817929870582ull},
                "ASP centralized, lossy WAN");
  EXPECT_GT(counter_of(r, "net/fault.timeouts.seq"), 0u) << "no sequencer retry ran";
  EXPECT_GT(counter_of(r, "net/fault.dup.seq_requests"), 0u) << "no regrant ran";
}

TEST(TraceGolden, Asp4ClusterAdapt) {
  AppConfig c = cfg4(false);
  c.adapt = true;
  const AppResult r = run_asp(c, golden_asp());
  expect_golden(r,
                Golden{12370609650071538023ull, 3559ull, 136612712,
                       8836462817929870582ull},
                "ASP adaptive");
  EXPECT_GE(counter_of(r, "orca/adapt.seq.arms"), 1u) << "the sequencer never armed";
}

TEST(TraceGolden, Tsp4ClusterOriginal) {
  TspParams p;
  p.cities = 10;
  p.job_depth = 3;
  expect_golden(run_tsp(cfg4(false), p),
                Golden{14821323580145850140ull, 731ull, 21621317,
                       9644552255054130231ull},
                "TSP original");
}

TEST(TraceGolden, Tsp4ClusterOptimized) {
  TspParams p;
  p.cities = 10;
  p.job_depth = 3;
  expect_golden(run_tsp(cfg4(true), p),
                Golden{1766433423914237749ull, 341ull, 8184521,
                       9644552255054130231ull},
                "TSP optimized");
}

TEST(TraceGolden, Tsp4ClusterAdapt) {
  // 12 cities is the smallest problem whose central queue splits.
  AppConfig c = cfg4(false);
  c.adapt = true;
  TspParams p;
  p.cities = 12;
  p.job_depth = 3;
  const AppResult r = run_tsp(c, p);
  expect_golden(r,
                Golden{9617460945575344713ull, 2636ull, 748641018,
                       14704963054664602638ull},
                "TSP adaptive");
  EXPECT_GE(counter_of(r, "orca/adapt.queue.splits"), 1u) << "the queue never split";
}

TEST(TraceGolden, Atpg4ClusterOriginal) {
  AtpgParams p;
  p.gates = 200;
  expect_golden(run_atpg(cfg4(false), p),
                Golden{5207815439962374537ull, 4924ull, 299471200,
                       8110314204612092614ull},
                "ATPG original");
}

TEST(TraceGolden, Atpg4ClusterOptimized) {
  AtpgParams p;
  p.gates = 200;
  expect_golden(run_atpg(cfg4(true), p),
                Golden{979770152505493290ull, 446ull, 162566222,
                       8110314204612092614ull},
                "ATPG optimized");
}

RaParams golden_ra() {
  RaParams p;
  p.stones = 6;
  return p;
}

TEST(TraceGolden, Ra4ClusterOriginal) {
  expect_golden(run_ra(cfg4(false, 3), golden_ra()),
                Golden{11153293645915711792ull, 32778ull, 183542821,
                       12580739881790597950ull},
                "RA original");
}

TEST(TraceGolden, Ra4ClusterOptimized) {
  expect_golden(run_ra(cfg4(true, 3), golden_ra()),
                Golden{8398715059108680972ull, 34257ull, 209580730,
                       12580739881790597950ull},
                "RA optimized");
}

IdaParams golden_ida() {
  IdaParams p;
  p.scramble_moves = 30;
  p.job_pool = 400;
  return p;
}

TEST(TraceGolden, Ida4ClusterOriginal) {
  expect_golden(run_ida(cfg4(false, 3), golden_ida()),
                Golden{10703370141843821051ull, 18798ull, 289613516,
                       907587028073409787ull},
                "IDA* original");
}

TEST(TraceGolden, Ida4ClusterOptimized) {
  expect_golden(run_ida(cfg4(true, 3), golden_ida()),
                Golden{4925849120101023366ull, 17621ull, 233173001,
                       907587028073409787ull},
                "IDA* optimized");
}

AppConfig water_cfg(int clusters, int per, bool optimized) {
  AppConfig c = cfg4(optimized, per);
  c.clusters = clusters;
  c.net_cfg = net::das_config(clusters, per);
  return c;
}

TEST(TraceGolden, Water4ClusterOriginal) {
  expect_golden(run_water(water_cfg(4, 3, false), WaterParams{}),
                Golden{14429889416364261881ull, 3731ull, 3418752532,
                       14609096275026038123ull},
                "Water 4x3 original");
}

TEST(TraceGolden, Water4ClusterOptimized) {
  expect_golden(run_water(water_cfg(4, 3, true), WaterParams{}),
                Golden{9164753006089626481ull, 3053ull, 3218151596,
                       14609096275026038123ull},
                "Water 4x3 optimized");
}

TEST(TraceGolden, Water3ClusterOriginal) {
  expect_golden(run_water(water_cfg(3, 5, false), WaterParams{}),
                Golden{2296853021688224725ull, 5465ull, 2757270728,
                       14609096275026038123ull},
                "Water 3x5 original");
}

TEST(TraceGolden, Water3ClusterOptimized) {
  expect_golden(run_water(water_cfg(3, 5, true), WaterParams{}),
                Golden{5213897570962960891ull, 4274ull, 2441711482,
                       14609096275026038123ull},
                "Water 3x5 optimized");
}

// FNV-1a over a string's bytes.
std::uint64_t fnv(const std::string& s) {
  std::uint64_t h = kHashSeed;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

// FNV-1a over the bytes of the snapshot's CSV dump.
std::uint64_t metrics_hash(const trace::MetricsSnapshot& m) {
  std::ostringstream os;
  m.write_csv(os);
  return fnv(os.str());
}

TEST(MetricsGolden, Water4ClusterOptimizedLossy) {
  AppConfig c = cfg4(true, 3);
  c.faults.enabled = true;
  c.faults.wan.loss = 0.05;
  WaterParams p;
  p.molecules = 96;
  const AppResult r = run_water(c, p);
  ASSERT_EQ(r.status, AppResult::RunStatus::Ok) << r.error;
  expect_golden(r,
                Golden{8525998680662062708ull, 3385ull, 74683360,
                       4666641810641308992ull},
                "Water 4x3 optimized, lossy WAN");
  EXPECT_GT(counter_of(r, "net/fault.drops.wan"), 0u) << "no WAN drop was accounted";
  EXPECT_GT(counter_of(r, "net/fault.timeouts.rpc"), 0u) << "no RPC retry ran";
  EXPECT_GT(counter_of(r, "net/fault.dup.rpc_requests"), 0u) << "no duplicate request arrived";
  EXPECT_EQ(metrics_hash(r.stats), 7839599965458683989ull) << "published metrics changed";
}

TEST(MetricsGolden, Ra4ClusterTree) {
  AppConfig c = cfg4(false, 3);
  c.coll = orca::coll::Mode::Tree;
  const AppResult r = run_ra(c, golden_ra());
  EXPECT_GT(counter_of(r, "net/wan.combined.flushes"), 0u) << "no combined flush ran";
  EXPECT_EQ(metrics_hash(r.stats), 2344758185139349959ull) << "published metrics changed";
}

TEST(MetricsGolden, Water4ClusterOptimizedStreams) {
  AppConfig c = cfg4(true, 3);
  c.net_cfg.wan_transport.streams = 4;
  c.net_cfg.wan_transport.stream_chunk_bytes = 128;
  WaterParams p;
  p.molecules = 96;
  const AppResult r = run_water(c, p);
  expect_golden(r,
                Golden{17815790791220651145ull, 3057ull, 52530420,
                       4666641810641308992ull},
                "Water 4x3 optimized, 4 WAN streams");
  std::uint64_t wire_msgs = 0;
  for (int k = 0; k < net::TrafficStats::kNumKinds; ++k) {
    wire_msgs += r.traffic.kind(static_cast<net::MsgKind>(k)).inter_msgs;
  }
  EXPECT_GT(counter_of(r, "net/link.wan.msgs"), wire_msgs) << "no payload was split";
  EXPECT_EQ(counter_of(r, "net/link.wan.msgs"), 288u);
  EXPECT_EQ(counter_of(r, "net/link.wan.queue_ns"), 2899056u);
  EXPECT_EQ(metrics_hash(r.stats), 14112367954329667435ull) << "published metrics changed";
}

TEST(MetricsGolden, Asp1ClusterDefault) {
  // One cluster: nothing crosses a WAN, yet both WAN histograms are
  // published (empty) on every run.
  AppConfig c;
  c.clusters = 1;
  c.procs_per_cluster = 4;
  c.net_cfg = net::das_config(1, 4);
  c.seed = 42;
  const AppResult r = run_asp(c, golden_asp());
  for (const char* name : {"net/wan.msg_bytes", "net/wan.queue_ns"}) {
    const trace::Histogram* h = r.stats.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, 0u) << name;
  }
  EXPECT_EQ(r.stats.histogram("net/fault.drop_bytes.wan"), nullptr) << "no fault plan, no drops";
  EXPECT_EQ(metrics_hash(r.stats), 17398168910498893271ull) << "published metrics changed";
}

TEST(MetricsGolden, Ra4ClusterAdapt) {
  AppConfig c = cfg4(false, 4);
  c.adapt = true;
  const AppResult r = run_ra(c, golden_ra());
  EXPECT_GE(counter_of(r, "orca/adapt.combine.enabled"), 1u) << "combining never switched on";
  EXPECT_GT(counter_of(r, "orca/adapt.epochs"), 0u);
  EXPECT_EQ(metrics_hash(r.stats), 748872522630211555ull) << "published metrics changed";
}

std::map<std::string, std::size_t> name_counts(const trace::Trace& t) {
  std::map<std::string, std::size_t> counts;
  for (const trace::TraceEvent& e : t.events) ++counts[trace::to_string(e.name)];
  return counts;
}

// Pins a traced run's exported bytes and how many events of each name
// it recorded.
void expect_export_golden(const AppResult& r, std::uint64_t hash,
                          const std::map<std::string, std::size_t>& counts) {
  ASSERT_TRUE(r.trace);
  EXPECT_EQ(r.trace->dropped, 0u) << "the ring must not wrap";
  EXPECT_EQ(fnv(trace::chrome_trace_string(*r.trace)), hash) << "exported trace changed";
  EXPECT_EQ(name_counts(*r.trace), counts);
}

TEST(ExportGolden, Water4ClusterOptimizedLossy) {
  AppConfig c = cfg4(true, 3);
  c.faults.enabled = true;
  c.faults.wan.loss = 0.05;
  c.trace.enabled = true;
  WaterParams p;
  p.molecules = 96;
  expect_export_golden(
      run_water(c, p), 9523019611035935656ull,
      {{"app.compute", 48}, {"net.bcast.lan", 2}, {"net.deliver", 611}, {"net.fault.drop", 6},
       {"net.hop.gw_in", 209}, {"net.hop.gw_out", 203}, {"net.hop.wan", 203},
       {"net.send.lan", 392}, {"net.wan", 418}, {"net.wan.queue", 41},
       {"orca.barrier.arrive", 24}, {"orca.barrier.release", 2}, {"orca.proc.finish", 12},
       {"orca.proc.start", 12}, {"orca.rpc", 560}, {"orca.rpc.dup", 7}, {"orca.rpc.retry", 20},
       {"orca.rpc.serve", 280}, {"orca.rpc.timeout", 10}, {"task.finish", 268},
       {"task.spawn", 268}});
}

TEST(ExportGolden, Ra4ClusterAdapt) {
  AppConfig c = cfg4(false, 4);
  c.adapt = true;
  c.trace.enabled = true;
  expect_export_golden(
      run_ra(c, golden_ra()), 10426212503366476983ull,
      {{"app.compute", 1023}, {"net.bcast.lan", 55}, {"net.deliver", 27236},
       {"net.hop.gw_in", 2314}, {"net.hop.gw_out", 2314}, {"net.hop.wan", 2314},
       {"net.send.lan", 24262}, {"net.wan", 4628}, {"net.wan.queue", 1766},
       {"orca.adapt.combine.on", 4}, {"orca.barrier.arrive", 448}, {"orca.barrier.release", 28},
       {"orca.proc.finish", 16}, {"orca.proc.start", 16}, {"task.finish", 16},
       {"task.spawn", 16}});
}

TEST(ExportGolden, Tsp2ClusterEngineEvents) {
  AppConfig c = cfg4(false);
  c.clusters = 2;
  c.net_cfg = net::das_config(2, 2);
  c.trace.enabled = true;
  c.trace.engine_events = true;
  TspParams p;
  p.cities = 10;
  p.job_depth = 3;
  expect_export_golden(
      run_tsp(c, p), 16602712177414271964ull,
      {{"app.compute", 72}, {"engine.event", 209}, {"engine.resume", 257}, {"net.deliver", 89},
       {"net.hop.gw_in", 29}, {"net.hop.gw_out", 29}, {"net.hop.wan", 29}, {"net.send.lan", 60},
       {"net.wan", 58}, {"net.wan.queue", 2}, {"orca.proc.finish", 4}, {"orca.proc.start", 4},
       {"orca.rpc", 86}, {"orca.rpc.serve", 43}, {"task.finish", 4}, {"task.spawn", 4}});
}

// FNV-1a over the bytes of every field of every edge, in edge order.
std::uint64_t edge_hash(const trace::causal::Dag& dag) {
  std::uint64_t h = 1469598103934665603ull;
  auto fold = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  dag.for_each_edge([&fold](const trace::causal::Edge& e) {
    fold(e.from);
    fold(e.to);
    fold(static_cast<std::uint64_t>(e.kind));
    fold(static_cast<std::uint64_t>(e.cls));
    fold(static_cast<std::uint64_t>(e.proto));
    fold(static_cast<std::uint64_t>(e.dur));
    fold(static_cast<std::uint64_t>(e.work));
    fold(e.wake_bound ? 1 : 0);
    fold(e.bytes);
    fold(static_cast<std::uint64_t>(e.wan_queue));
    fold(static_cast<std::uint64_t>(e.wan_lat));
    fold(static_cast<std::uint64_t>(e.wan_ser));
  });
  return h;
}

TEST(CausalGolden, WrappedRa) {
  AppConfig cfg = cfg4(false, 4);
  cfg.trace.enabled = true;
  cfg.trace.capacity = 24000;  // under half the run's events: wraps
  const AppResult r = run_ra(cfg, golden_ra());
  ASSERT_TRUE(r.trace);
  ASSERT_GT(r.trace->dropped, 0u) << "the ring must wrap";

  const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, cfg.net_cfg);
  EXPECT_EQ(dag.events.size(), 23601u);
  EXPECT_EQ(dag.edge_count(), 21191u);
  EXPECT_EQ(dag.orphan_ends, 399u);
  EXPECT_EQ(edge_hash(dag), 3989045525543393397ull);

  const trace::causal::CriticalPath cp = trace::causal::critical_path(dag);
  const std::map<std::string, sim::SimTime> blame{
      {"app/compute", 2976000},       {"app/recv.wait", 22486731},
      {"net/access", 3184542},        {"net/gateway", 5000000},
      {"net/lan", 350455},            {"net/wan.bandwidth", 1799776},
      {"net/wan.latency", 60500000},  {"net/wan.queue", 6895431},
      {"orca/barrier.wait", 8789844}, {"sim/startup", 79092584}};
  EXPECT_EQ(cp.by_blame, blame);

  std::vector<sim::SimTime> projected;
  for (const auto& s : trace::causal::standard_scenarios(cfg.net_cfg)) {
    projected.push_back(trace::causal::what_if(dag, s).projected);
  }
  EXPECT_EQ(projected, (std::vector<sim::SimTime>{126968277, 183441839, 191075363}));
}

struct CausalGoldenValues {
  std::size_t events;
  std::size_t edges;
  std::uint64_t edge_hash;
  std::map<std::string, sim::SimTime> blame;
  std::vector<sim::SimTime> projected;
};

// Checks the order-independent causal results of an unwrapped trace.
void expect_causal_golden(const AppResult& r, const net::TopologyConfig& net,
                          const CausalGoldenValues& g) {
  ASSERT_TRUE(r.trace);
  ASSERT_EQ(r.trace->dropped, 0u) << "the ring must not wrap";
  const trace::causal::Dag dag = trace::causal::build_dag(*r.trace, net);
  EXPECT_EQ(dag.events.size(), g.events);
  EXPECT_EQ(dag.edge_count(), g.edges);
  EXPECT_EQ(dag.orphan_ends, 0u);
  EXPECT_EQ(edge_hash(dag), g.edge_hash);

  const trace::causal::CriticalPath cp = trace::causal::critical_path(dag);
  EXPECT_EQ(cp.length, r.elapsed);
  EXPECT_EQ(cp.by_blame, g.blame);

  std::vector<sim::SimTime> projected;
  for (const auto& s : trace::causal::standard_scenarios(net)) {
    projected.push_back(trace::causal::what_if(dag, s).projected);
  }
  EXPECT_EQ(projected, g.projected);
}

TEST(CausalGolden, UnwrappedRa) {
  AppConfig cfg = cfg4(false, 4);
  cfg.trace.enabled = true;
  expect_causal_golden(
      run_ra(cfg, golden_ra()), cfg.net_cfg,
      {51154,
       45879,
       4735021682625585074ull,
       {{"app/compute", 22236000},      {"app/recv.wait", 35685934},
        {"net/access", 4961208},        {"net/gateway", 7200000},
        {"net/lan", 515375},            {"net/wan.bandwidth", 2655536},
        {"net/wan.latency", 87120000},  {"net/wan.queue", 19010830},
        {"orca/barrier.wait", 11690480}},
       {98336277, 172134702, 191075363}});
}

TEST(CausalGolden, UnwrappedAsp4ClusterOptimized) {
  AppConfig cfg = cfg4(true);
  cfg.trace.enabled = true;
  expect_causal_golden(
      run_asp(cfg, golden_asp()), cfg.net_cfg,
      {3148,
       3369,
       6759826109453473250ull,
       {{"app/compute", 13107200},    {"app/recv.wait", 0},
        {"net/access", 304320},       {"net/gateway", 400000},
        {"net/lan", 266064},          {"net/wan.bandwidth", 1848388},
        {"net/wan.latency", 4840000}, {"net/wan.queue", 15122948},
        {"orca/seq.wait", 13026250}},
       {33406170, 33724140, 36379985}});
}

// Pure-engine golden: a synthetic schedule with same-time ties, nested
// scheduling and run_until boundaries. Isolates engine/event-queue
// regressions from the full-stack scenarios above.
TEST(TraceGolden, SyntheticEngineSchedule) {
  sim::Engine eng;
  for (int i = 0; i < 200; ++i) {
    eng.schedule_after(i * 13 % 29, [&eng] {
      eng.schedule_after(7, [] {});
    });
  }
  eng.run_until(20);
  eng.schedule_after(0, [] {});
  eng.run();
  EXPECT_EQ(eng.trace_hash(), 14985983881153370895ull);
  EXPECT_EQ(eng.events_processed(), 401ull);
}

}  // namespace
}  // namespace alb::apps
