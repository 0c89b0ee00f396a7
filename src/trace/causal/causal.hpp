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
// Storage: the Dag reads its events from the trace it was built from
// and keeps no copy of them: Dag::events is a view holding a pointer to
// the Trace and one 4-byte trace index per kept event. The trace must
// outlive the Dag (build_dag refuses a temporary). An event has at most
// one in-edge of each kind, so the DAG keeps no edge list either. Each
// kept event has a 24-byte Slot holding its predecessor event per kind,
// the edge classes and one time (program wait, or a WAN crossing's
// queue wait); Dag::edge() derives the rest of an Edge — duration,
// payload size, the WAN split — on read. That is 28 bytes per kept
// event beside the trace.
//
// Determinism: analysis is a pure function of (Trace, TopologyConfig);
// byte-comparing reports across campaign `--jobs` values is a valid
// determinism check. Building the DAG never mutates the trace, and
// enabling analysis changes nothing about the run that produced it.

#include <algorithm>
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

/// One edge of the DAG as a value: what critical_path, what_if and the
/// tests read. Dag stores none of these; Dag::edge() assembles one from
/// the sink event's slot, deriving `dur`, `bytes` and the WAN split.
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

/// Names one edge: an event has at most one in-edge of each kind, so
/// the sink event and the kind identify it.
struct EdgeRef {
  std::uint32_t to = kNone;
  EdgeKind kind = EdgeKind::Program;
};

struct Dag;

/// The kept events of a Dag, read in place: kept event i is the trace
/// event at trace_index(i). Indices strictly increase; the trace
/// positions they skip are the orphan Ends normalization dropped. The
/// view holds a pointer to the trace, which must outlive it.
class EventView {
 public:
  /// Range-for over the kept events, oldest first.
  class iterator {
   public:
    iterator(const TraceEvent* events, const std::uint32_t* pos) : events_(events), pos_(pos) {}
    const TraceEvent& operator*() const { return events_[*pos_]; }
    iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const iterator& o) const { return pos_ == o.pos_; }

   private:
    const TraceEvent* events_;
    const std::uint32_t* pos_;
  };

  const TraceEvent& operator[](std::size_t i) const { return trace_->events[index_[i]]; }
  std::size_t size() const { return index_.size(); }
  iterator begin() const { return {trace_events(), index_.data()}; }
  iterator end() const { return {trace_events(), index_.data() + index_.size()}; }
  /// The position in the trace of kept event `i`.
  std::uint32_t trace_index(std::size_t i) const { return index_[i]; }

 private:
  friend Dag build_dag(const Trace& trace, const net::TopologyConfig& net);
  const TraceEvent* trace_events() const { return trace_ ? trace_->events.data() : nullptr; }

  const Trace* trace_ = nullptr;
  std::vector<std::uint32_t> index_;
};

/// The in-edges of one event, as predecessor event indices (kNone when
/// absent). A wake edge exists only for a program edge whose wait a
/// delivery ended; it shares the program edge's class, and its
/// protocol is the one that wait was for.
struct Slot {
  std::uint32_t program = kNone;  ///< previous event of this node's program chain
  std::uint32_t message = kNone;  ///< previous event of this message's journey
  std::uint32_t wake = kNone;     ///< the delivery that ended the program wait
  EdgeClass program_cls = EdgeClass::Idle;
  EdgeClass message_cls = EdgeClass::Idle;
  Protocol message_proto = Protocol::App;
  /// The program edge's trailing wait (its duration minus the leading
  /// work), which what_if collapses without reading any event; at a
  /// WanTransfer sink, the circuit queue wait instead. That sink is a
  /// gateway event, so on the run's own topology it has no program
  /// edge; should it have one anyway, the program wait wins and the
  /// crossing reads as unqueued.
  sim::SimTime wait_or_queue = 0;
};
static_assert(sizeof(Slot) == 24, "an event's in-edges pack into three words");

struct Dag {
  /// Normalized events, read from the trace: End events with no earlier
  /// matching Begin (truncated away by ring wraparound) are skipped.
  EventView events;
  /// In-edges per event, parallel to `events`.
  std::vector<Slot> slots;
  /// The run's completion anchor: the last orca.proc.finish when one is
  /// present (post-completion control chatter, e.g. sequencer-token
  /// parking, never extends the path), else the latest process
  /// (non-deliver) event.
  std::uint32_t sink = kNone;
  sim::SimTime end = 0;        ///< time of `sink`
  /// Every kept orca.proc.finish event, oldest first: what_if projects
  /// the run's finish from these without reading the other events.
  std::vector<std::uint32_t> finishes;
  std::uint64_t orphan_ends = 0;  ///< Ends dropped by normalization
  net::TopologyConfig net;

  /// The predecessor event of edge `r`, kNone when there is no such edge.
  std::uint32_t pred(EdgeRef r) const;
  /// The edge `r`, which must exist (pred(r) != kNone).
  Edge edge(EdgeRef r) const;
  std::size_t edge_count() const;

  /// Calls f(Edge) for every edge in build order: by sink event, and
  /// at each event its message, wake, then program in-edge.
  template <class F>
  void for_each_edge(F&& f) const {
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
      for (const EdgeKind k : {EdgeKind::Message, EdgeKind::Wake, EdgeKind::Program}) {
        if (pred({i, k}) != kNone) f(edge({i, k}));
      }
    }
  }
};

/// The protocol a program wait of class `cls` waits on: its wake edge
/// prefers a delivery of that protocol.
inline Protocol wait_protocol(EdgeClass cls) {
  switch (cls) {
    case EdgeClass::FaultWait:
    case EdgeClass::RpcWait: return Protocol::Rpc;
    case EdgeClass::SeqWait: return Protocol::Seq;
    case EdgeClass::BarrierWait: return Protocol::Barrier;
    case EdgeClass::BcastWait: return Protocol::Bcast;
    default: return Protocol::App;
  }
}

inline std::uint32_t Dag::pred(EdgeRef r) const {
  const Slot& s = slots[r.to];
  switch (r.kind) {
    case EdgeKind::Program: return s.program;
    case EdgeKind::Message: return s.message;
    case EdgeKind::Wake: return s.wake;
  }
  return kNone;
}

inline Edge Dag::edge(EdgeRef r) const {
  const Slot& s = slots[r.to];
  Edge e;
  e.from = pred(r);
  e.to = r.to;
  e.kind = r.kind;
  e.dur = events[r.to].time - events[e.from].time;
  switch (r.kind) {
    case EdgeKind::Program:
      e.cls = s.program_cls;
      e.work = e.dur - s.wait_or_queue;
      e.wake_bound = s.wake != kNone;
      break;
    case EdgeKind::Wake:
      e.cls = s.program_cls;
      e.proto = wait_protocol(s.program_cls);
      break;
    case EdgeKind::Message:
      e.cls = s.message_cls;
      e.proto = s.message_proto;
      e.bytes = events[r.to].arg;
      if (e.cls == EdgeClass::WanTransfer) {
        // The circuit crossing splits into the recorded queue wait,
        // propagation latency from the topology (capped by what
        // actually elapsed) and serialization — which includes the
        // per-message overhead and any injected jitter — as the rest.
        if (s.program == kNone) e.wan_queue = s.wait_or_queue;
        const sim::SimTime rest = e.dur - e.wan_queue;
        e.wan_lat = std::min(net.wan.latency, rest);
        e.wan_ser = rest - e.wan_lat;
      }
      break;
  }
  return e;
}

/// Reconstructs the happens-before DAG. `net` must be the topology the
/// traced run used (link latencies feed the WAN decomposition and the
/// what-if engine). The Dag reads its events from `trace`, which must
/// outlive it; a temporary trace would leave it dangling, so that
/// overload is deleted.
Dag build_dag(const Trace& trace, const net::TopologyConfig& net);
Dag build_dag(Trace&& trace, const net::TopologyConfig& net) = delete;

/// One contiguous interval of the critical path.
struct Segment {
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  EdgeClass cls = EdgeClass::Startup;
  Protocol proto = Protocol::App;
  EdgeRef edge;                ///< the edge it lies on (edge.to == kNone: virtual)
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
