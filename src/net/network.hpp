#pragma once
// The multilevel network.
//
// Owns the topology's link inventory and implements routing:
//   * intracluster unicast  — one hop over the sender's Myrinet egress;
//   * intercluster unicast  — sender → local gateway (Fast Ethernet),
//     gateway → gateway (WAN PVC, store-and-forward with per-message
//     forwarding overhead), gateway → destination (Fast Ethernet), as on
//     DAS (§2 of the paper);
//   * lan_broadcast          — hardware-supported cluster broadcast: one
//     serialization at the sender, simultaneous delivery to all other
//     cluster members;
//   * wan_broadcast           — ships a broadcast payload to a remote
//     cluster's gateway, which re-broadcasts it locally.
//
// Every hop is a scheduled event, so queueing at gateways and on the WAN
// circuits emerges naturally from link busy-until times.
//
// Cluster contexts: every hop up to the WAN transfer runs in the
// *source* cluster's engine context; the remote-gateway hop onward runs
// in the *destination* cluster's. The WAN crossing is scheduled through
// Engine::schedule_on, because the owner an event runs under is part of
// the pinned schedule. Message ids come from one run-wide counter
// (they appear in exported traces). Traffic counters and WAN
// histograms are single instruments: the engine runs one sequential
// loop.

#include <memory>
#include <optional>
#include <vector>

#include "net/coll_tree.hpp"
#include "net/endpoint.hpp"
#include "net/fault.hpp"
#include "net/link.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"
#include "net/traffic_stats.hpp"
#include "sim/engine.hpp"

namespace alb::net {

class Network {
 public:
  /// `faults` + `fault_seed` arm deterministic fault injection (see
  /// src/net/fault.hpp). The defaults construct no injector at all, so
  /// existing call sites are byte-identical to the pre-fault network.
  /// Throws ConfigError on a malformed `cfg`. If the engine has fewer
  /// owners than clusters, the constructor gives it one owner per
  /// cluster so cluster contexts are meaningful in every run mode.
  Network(sim::Engine& eng, const TopologyConfig& cfg, const FaultPlan& faults = {},
          std::uint64_t fault_seed = 0);

  const Topology& topology() const { return topo_; }
  const TopologyConfig& config() const { return cfg_; }
  sim::Engine& engine() { return *eng_; }

  /// The fault injector, or nullptr when the plan is disabled.
  FaultInjector* faults() { return faults_.get(); }

  Endpoint& endpoint(NodeId n) { return *endpoints_[static_cast<std::size_t>(n)]; }

  /// Unicast. Returns the message id. src == dst delivers via loopback
  /// (through the event queue, no link charge).
  std::uint64_t send(Message m);

  /// Cluster-local hardware broadcast from `src` to every other compute
  /// node in src's cluster. `m.dst` is ignored.
  std::uint64_t lan_broadcast(NodeId src, Message m);

  /// Ships `m` to cluster `target` over the WAN and re-broadcasts it
  /// there to all compute nodes (used by the totally-ordered broadcast
  /// layer). `target` must differ from src's cluster.
  std::uint64_t wan_broadcast(NodeId src, ClusterId target, Message m);

  /// Tree-shaped wide-area dissemination: ships `m` once to the local
  /// gateway, which forwards copies to its children in the cluster tree
  /// rooted at src's cluster (see net/coll_tree.hpp); intermediate
  /// gateways relay to theirs. Every remote cluster re-broadcasts
  /// locally, every cluster pair on the tree is crossed exactly once,
  /// and each gateway serializes its forwards at the forwarding
  /// overhead. Returns the id of the first forwarded copy (0 with a
  /// single cluster).
  std::uint64_t tree_broadcast(NodeId src, CollShape shape, Message m);

  /// Whole-run traffic accounting (tests and the harness read it
  /// post-run).
  const TrafficStats& stats() const { return stats_; }

  /// Publishes the run's traffic accounting into `m` under the `net/`
  /// scope: per-kind LAN/WAN message+byte counters matching the paper's
  /// Table 4/5 taxonomy, plus per-link-class aggregates (busy and
  /// queueing time, message counts). Assignment semantics — call once
  /// per finished run. See docs/OBSERVABILITY.md for the name catalogue.
  void publish_metrics(trace::Metrics& m) const;

  // --- link inspection (tests, utilization reports) -----------------
  Link& lan_link(NodeId n) { return *lan_links_[static_cast<std::size_t>(n)]; }
  Link& access_link(NodeId n) { return *access_links_[static_cast<std::size_t>(n)]; }
  /// The (from, to) circuit's first sub-stream: the whole circuit with
  /// the default single stream.
  Link& wan_link(ClusterId from, ClusterId to);
  Link& delivery_link(ClusterId c) { return *delivery_links_[static_cast<std::size_t>(c)]; }
  Link& bcast_link(ClusterId c) { return *bcast_links_[static_cast<std::size_t>(c)]; }

 private:
  /// One stage of the intercluster store-and-forward path. The whole
  /// route is a flat plan advanced one hop per event, instead of nested
  /// capturing lambdas: the Message moves through a single HopPlan value
  /// that always fits the event queue's inline storage.
  enum class HopStage : std::uint8_t {
    kGatewayIngress,   // at the local gateway: account + forwarding overhead
    kCombineEnqueue,   // join (or bypass) the gateway combine buffer
    kWanTransfer,      // queue on the WAN circuit to the remote gateway
    kGatewayEgress,    // at the remote gateway: forwarding overhead
    kClusterDelivery,  // final FE delivery (or local re-broadcast)
  };
  struct HopPlan {
    Message msg;
    ClusterId from;
    ClusterId to;
    HopStage stage;
    bool broadcast;
    /// Tree dissemination: the shape + root cluster this leg belongs to
    /// (the egress gateway relays to its children). kNoCollShape for
    /// everything else. Packed into HopPlan's tail padding — the plan
    /// must keep fitting the event queue's inline storage.
    std::uint8_t coll_shape = kNoCollShape;
    ClusterId coll_root = 0;
  };

  /// Fresh message id, unique across the run.
  std::uint64_t next_id() { return ++last_id_; }

  void run_hop(HopPlan plan);
  void schedule_hop_at(sim::SimTime t, HopPlan plan);
  void schedule_hop_after(sim::SimTime delay, HopPlan plan);
  void deliver_at(sim::SimTime t, Message m);
  /// At the egress gateway of a tree-dissemination leg: forward fresh
  /// copies to this cluster's children in the tree (no-op for leaves).
  void relay_tree_children(const HopPlan& plan);

  /// Index in wan_links_ of the (from, to) circuit's first sub-stream;
  /// its other sub-streams follow it.
  std::size_t wan_circuit(ClusterId from, ClusterId to) const {
    return (static_cast<std::size_t>(from) * topo_.clusters() + to) *
           static_cast<std::size_t>(cfg_.wan_transport.streams);
  }
  /// The brown-out-adjusted forwarding overhead of cluster `at`'s
  /// gateway for `m`, or nullopt when the brown-out's extra loss
  /// discarded `m` (the drop is already accounted).
  std::optional<sim::SimTime> gateway_overhead(const Message& m, ClusterId at);

  // --- gateway message combining (wan_transport.combine_bytes > 0) ---
  bool combining_on() const { return !combine_.empty(); }
  /// Buffer index among one source cluster's buffers: one buffer per
  /// (destination cluster, message kind, fault service class) so a
  /// flush is homogeneous for accounting and fault handling.
  int combine_idx(ClusterId to, MsgKind kind, bool droppable) const {
    return (to * TrafficStats::kNumKinds + static_cast<int>(kind)) * 2 + (droppable ? 1 : 0);
  }
  std::size_t combine_per_source() const {
    return static_cast<std::size_t>(topo_.clusters()) * TrafficStats::kNumKinds * 2;
  }
  /// Ships buffer `idx` of cluster `from` as one wire message (no-op on
  /// an empty buffer). Runs in `from`'s context.
  void flush_combine(ClusterId from, int idx);
  /// Arms the pending flush for buffer `idx`: at the moment the circuit
  /// frees (re-armed if other traffic claimed it first), or at the next
  /// absolute epoch boundary, whichever comes first. The boundary flush
  /// fires even on a busy circuit — it is the backstop bounding how
  /// long a batch can keep growing under sustained load.
  void arm_combine_flush(ClusterId from, ClusterId to, int idx);

  /// True when the (from, to) circuit could start serializing now — the
  /// combine idle-bypass test (an uncontended message never waits for
  /// an epoch).
  bool wan_idle(ClusterId from, ClusterId to);
  /// Earliest time the (from, to) circuit can accept a new transfer
  /// (now, if it is already idle).
  sim::SimTime wan_free_at(ClusterId from, ClusterId to);
  /// Charges `wire_bytes` to the (from, to) circuit and returns the
  /// arrival time at the remote gateway; `queued_out` gets the queueing
  /// delay in ns. With more than one sub-stream the payload is split
  /// into stream_chunk_bytes pieces striped across the least-busy
  /// sub-streams (each chunk paying the per-message pacing overhead)
  /// and the arrival is the last chunk's; one stream carries it whole.
  sim::SimTime wan_transfer_time(ClusterId from, ClusterId to, std::size_t wire_bytes,
                                 std::uint64_t& queued_out);
  /// Discards a message: accounts the drop on the injector, emits the
  /// "net.fault.drop" instant, and closes the message's open "net.wan"
  /// span when it was on the intercluster path.
  void drop(const Message& m, LinkClass cls, FaultInjector::DropCause cause, NodeId where,
            bool close_wan_span);

  sim::Engine* eng_;
  TopologyConfig cfg_;
  Topology topo_;
  TrafficStats stats_;
  std::unique_ptr<FaultInjector> faults_;
  std::uint64_t last_id_ = 0;  // last message id minted

  // Observability (see src/trace/): records go through the engine's
  // tracer (eng_->tracer(), null = tracing off, one branch per site);
  // the WAN histograms are the registry's instruments, null without a
  // trace session.
  trace::Histogram* h_wan_bytes_ = nullptr;
  trace::Histogram* h_wan_queue_ = nullptr;

  std::vector<std::unique_ptr<Endpoint>> endpoints_;   // per node (incl. gateways)
  std::vector<std::unique_ptr<Link>> lan_links_;       // per compute node: Myrinet egress
  std::vector<std::unique_ptr<Link>> access_links_;    // per compute node: FE egress to gateway
  std::vector<std::unique_ptr<Link>> wan_links_;       // C*C*streams (diagonal unused)
  std::vector<std::unique_ptr<Link>> delivery_links_;  // per gateway: FE egress into cluster
  std::vector<std::unique_ptr<Link>> bcast_links_;     // per cluster: Myrinet broadcast

  /// One combine buffer per (source, destination, kind, service class);
  /// a source's buffers are enqueued and flushed in its cluster's
  /// engine context.
  struct CombineBuffer {
    std::vector<HopPlan> members;  // arrival order
    std::size_t bytes = 0;         // sum of member payload bytes
    sim::SimTime epoch_due = -1;   // pending epoch-flush time, -1 = none
  };
  CombineBuffer& combine_buffer(ClusterId from, int idx) {
    return combine_[static_cast<std::size_t>(from) * combine_per_source() +
                    static_cast<std::size_t>(idx)];
  }
  std::vector<CombineBuffer> combine_;  // empty = combining off
};

}  // namespace alb::net
