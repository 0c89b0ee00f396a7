#pragma once
// libalb_causal — happens-before reconstruction, critical-path
// attribution and what-if retiming over a harvested flight-recorder
// Trace.
//
// The simulation is single-threaded, so the recorded event stream is a
// total order; causality is narrower than that order. All cross-node
// causality in this system flows through network messages, so the DAG
// is rebuilt from three edge families:
//
//   * Program edges — consecutive recorder events of the same compute
//     node chain in record order. Each edge splits into a leading work
//     portion (known from `app.compute` instants, whose arg is the
//     charged duration) and a trailing wait classed by the node's open
//     protocol state (seq.get span → sequencer wait, rpc span → RPC
//     wait, retry span / timeout instants → fault retry, pending
//     barrier arrival → barrier wait, ...).
//   * Message edges — events sharing a message id (`net.send.*` /
//     `net.wan` / `net.hop.*` / `net.deliver`) chain into the message's
//     journey; each hop is classed by the link it crossed. The WAN
//     circuit crossing is decomposed into queue wait (recorded by
//     `net.wan.queue`), propagation latency (from the topology config)
//     and serialization (the remainder). The protocol a message serves
//     is read from the endpoint tag carried in TraceEvent::aux.
//   * Wake edges — a `net.deliver` instant that ends a program wait
//     (matched by protocol) binds the waiter's next event to the
//     delivery, which is what lets the critical path leave a blocked
//     process and follow the message it waited on.
//
// Every edge weight is an observed time delta, so *all* paths are
// tight; the critical path is computed by walking binding predecessors
// backward from the last process event. The walk is contiguous in sim
// time, so the per-blame breakdown sums exactly to the elapsed time
// (pinned by tests/trace/causal_test.cpp).
//
// What-if retiming replaces edge weights under a Scenario (WAN latency
// override, bandwidth scaling, sequencer co-location) and replays the
// DAG forward; program waits collapse only when they were bound to a
// delivery — timer-driven gaps (compute, service time, retry timeouts)
// keep their duration. Projections are validated against actual
// re-simulation in tests (tolerance documented in
// docs/OBSERVABILITY.md).
//
// Determinism: analysis is a pure function of (Trace, TopologyConfig);
// byte-comparing reports across campaign `--jobs` values is a valid
// determinism check. Building the DAG never mutates the trace, and
// enabling analysis changes nothing about the run that produced it.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

namespace alb::trace::causal {

inline constexpr std::uint32_t kNone = 0xffffffffu;

/// Which protocol a message (or wait) belongs to, decoded from the
/// endpoint tag (orca/tags.hpp): app tags are >= 0, runtime control
/// tags are small negatives.
enum class Protocol : std::uint8_t { App, Rpc, Bcast, Seq, Barrier };

const char* to_string(Protocol p);
Protocol protocol_of_tag(int tag);

enum class EdgeKind : std::uint8_t { Program, Message, Wake };

enum class EdgeClass : std::uint8_t {
  // Program-edge classes. Compute and Serve are work (they keep their
  // duration under retiming); the *Wait classes label the trailing wait
  // of a program gap and collapse when the gap is message-bound.
  Compute,
  Serve,
  Idle,
  RpcWait,
  SeqWait,
  BarrierWait,
  BcastWait,
  RecvWait,
  FaultWait,
  // Message-edge classes, following the link inventory. WanTransfer is
  // decomposed into queue/latency/serialization for reporting.
  Lan,
  Access,
  Gateway,
  WanTransfer,
  /// Held in a gateway combine buffer waiting for the batch to flush
  /// (size threshold, epoch boundary) — the latency cost of
  /// transport-level message combining.
  CombineWait,
  FaultHold,
  Drop,
  // Virtual segment from t=0 to the first event the walk reaches.
  Startup,
};

const char* to_string(EdgeClass c);

struct Edge {
  std::uint32_t from = kNone;
  std::uint32_t to = kNone;
  EdgeKind kind = EdgeKind::Program;
  EdgeClass cls = EdgeClass::Idle;
  Protocol proto = Protocol::App;
  sim::SimTime dur = 0;        ///< observed t[to] - t[from], always >= 0
  sim::SimTime work = 0;       ///< Program: leading work portion
  bool wake_bound = false;     ///< Program: gap ends at a matching deliver
  std::uint64_t bytes = 0;     ///< Message: payload size
  sim::SimTime wan_queue = 0;  ///< WanTransfer: circuit queue wait
  sim::SimTime wan_lat = 0;    ///< WanTransfer: propagation latency
  sim::SimTime wan_ser = 0;    ///< WanTransfer: serialization + overhead
};

struct Dag {
  /// Normalized events: End events with no earlier matching Begin
  /// (truncated away by ring wraparound) are removed.
  std::vector<TraceEvent> events;
  std::vector<Edge> edges;
  /// Incoming-edge index per event (kNone when absent). By construction
  /// an event has at most one predecessor of each kind.
  std::vector<std::uint32_t> in_program, in_message, in_wake;
  /// The run's completion anchor: the last orca.proc.finish when one is
  /// present (post-completion control chatter, e.g. sequencer-token
  /// parking, never extends the path), else the latest process
  /// (non-deliver) event.
  std::uint32_t sink = kNone;
  sim::SimTime end = 0;        ///< time of `sink`
  std::uint64_t orphan_ends = 0;  ///< Ends dropped by normalization
  net::TopologyConfig net;
};

/// Reconstructs the happens-before DAG. `net` must be the topology the
/// traced run used (link latencies feed the WAN decomposition and the
/// what-if engine).
Dag build_dag(const Trace& trace, const net::TopologyConfig& net);

/// One contiguous interval of the critical path.
struct Segment {
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  EdgeClass cls = EdgeClass::Startup;
  Protocol proto = Protocol::App;
  std::uint32_t edge = kNone;  ///< index into Dag::edges (kNone: virtual)
  std::int32_t actor = -1;     ///< node the segment's sink event is at
  Ev what{};                   ///< event at the segment's sink end

  sim::SimTime dur() const { return end - begin; }
};

/// Blame bucket for a (class, protocol) pair, e.g. "app/compute",
/// "net/wan.latency", "orca/seq.wait". Control traffic of the
/// sequencer and barrier protocols is blamed on the protocol rather
/// than the wire: time a path spends moving sequence grants across the
/// WAN *is* sequencer wait. WanTransfer is split three ways by the
/// breakdown and never passed here directly for non-control protocols.
std::string blame(EdgeClass cls, Protocol proto);

struct CriticalPath {
  std::vector<Segment> segments;  ///< oldest → newest, contiguous
  sim::SimTime length = 0;        ///< == Dag::end == sum of segments
  std::map<std::string, sim::SimTime> by_blame;
  std::map<std::string, sim::SimTime> by_layer;  ///< app/net/orca/sim

  /// Critical-path time attributable to the WAN circuit itself
  /// (queue + latency + bandwidth buckets).
  sim::SimTime wan_total() const;
};

CriticalPath critical_path(const Dag& dag);

/// The `n` longest segments, most expensive first (ties: earliest
/// first — deterministic).
std::vector<Segment> top_segments(const CriticalPath& cp, std::size_t n);

/// A hypothetical network edit to re-time the DAG under.
struct Scenario {
  std::string name;
  /// Replacement one-way WAN latency (e.g. the LAN's).
  std::optional<sim::SimTime> wan_latency;
  /// Scale on WAN serialization time (1/k for "bandwidth ×k").
  double wan_ser_scale = 1.0;
  /// Scale on WAN circuit queueing (shrinks with bandwidth).
  double wan_queue_scale = 1.0;
  /// Sequencer control traffic never leaves the cluster.
  bool seq_local = false;
  /// Whether apply_scenario() can express this edit as a
  /// TopologyConfig change (seq-local cannot: sequencer placement is a
  /// runtime policy, not a link parameter).
  bool validatable = true;
};

/// Parses a scenario spec: "wan-lat-eq-lan", "wan-lat-x<k>",
/// "wan-bw-x<k>", "seq-local". Throws std::runtime_error on anything
/// else, naming the known specs.
Scenario parse_scenario(const std::string& spec, const net::TopologyConfig& net);

/// The standard set used by benches and check.sh: wan-lat-eq-lan,
/// wan-bw-x8, seq-local.
std::vector<Scenario> standard_scenarios(const net::TopologyConfig& net);

/// Applies a validatable scenario to a topology so the caller can
/// re-simulate reality for comparison.
net::TopologyConfig apply_scenario(const Scenario& s, net::TopologyConfig cfg);

struct Projection {
  Scenario scenario;
  sim::SimTime observed = 0;   ///< Dag::end
  sim::SimTime projected = 0;  ///< retimed finish of the last process
  double speedup = 1.0;        ///< observed / projected
};

/// Replays the DAG forward under `s` and reports the projected elapsed
/// time. Events with no predecessor keep their observed time, so a
/// wraparound-truncated prefix is never projected below reality.
Projection what_if(const Dag& dag, const Scenario& s);

/// Critical-path ribbon for write_chrome_trace's highlight track:
/// adjacent same-blame segments merged, zero-width segments dropped.
std::vector<HighlightSpan> highlight_track(const CriticalPath& cp);

}  // namespace alb::trace::causal
