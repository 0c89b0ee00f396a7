#pragma once
// Multilevel-cluster topology description.
//
// Models the DAS structure from §2 of the paper: C homogeneous clusters
// of P compute nodes, a fast intracluster network (Myrinet), a dedicated
// gateway per cluster reached over an access network (Fast Ethernet),
// and point-to-point WAN circuits (ATM PVCs) between every pair of
// gateways.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "sim/time.hpp"

namespace alb::net {

/// A malformed network description. Thrown once, at Topology
/// construction — by the time links exist every parameter has been
/// range-checked, so the hot paths (serialize_time etc.) stay
/// assertion-free release builds can elide.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parameters of one (unidirectional) link class.
struct LinkParams {
  /// One-way propagation latency, charged after serialization completes.
  sim::SimTime latency = 0;
  /// Sustained application-level bandwidth.
  double bandwidth_bytes_per_sec = 1e9;
  /// Fixed per-message sender-side cost (protocol stack, interrupts).
  sim::SimTime per_message_overhead = 0;

  /// Range-checks the parameters; `what` names the link class in the
  /// error. A non-positive bandwidth would make every transfer take
  /// "forever" and silently wedge the simulation, so it is rejected
  /// here instead of asserted per-transfer.
  void validate(const char* what) const {
    if (!(bandwidth_bytes_per_sec > 0.0)) {
      throw ConfigError(std::string(what) + ": bandwidth must be positive (got " +
                        std::to_string(bandwidth_bytes_per_sec) + " bytes/s)");
    }
    if (latency < 0) {
      throw ConfigError(std::string(what) + ": latency must be non-negative (got " +
                        std::to_string(latency) + " ns)");
    }
    if (per_message_overhead < 0) {
      throw ConfigError(std::string(what) + ": per-message overhead must be non-negative (got " +
                        std::to_string(per_message_overhead) + " ns)");
    }
  }

  /// Time the link is occupied serializing `bytes`. Parameters are
  /// validated at Topology construction (see validate()).
  sim::SimTime serialize_time(std::size_t bytes) const {
    double ser = static_cast<double>(bytes) / bandwidth_bytes_per_sec * 1e9;
    return per_message_overhead + static_cast<sim::SimTime>(ser);
  }
};

/// Transport-level features of the WAN circuits. Every default is a
/// strict no-op: a config that never touches this struct produces a
/// byte-identical simulation to the pre-feature network.
struct WanTransportConfig {
  /// Parallel paced sub-streams per circuit (MPWide-style). The
  /// configured wan bandwidth is the *per-stream* achievable rate — a
  /// single wide-area stream cannot fill the path, and aggregate
  /// throughput scales with the stream count until the physical medium
  /// saturates — so payloads split into chunks striped across the
  /// least-busy streams, each chunk paying the per-message pacing
  /// overhead. The network builds this many links per circuit; with
  /// the default 1 that link carries each payload whole (the historical
  /// single-queue circuit).
  int streams = 1;
  /// Payload split granularity across sub-streams (unused with one).
  std::size_t stream_chunk_bytes = 64 * 1024;
  /// > 0 arms gateway message combining: a non-Control message arriving
  /// at its source gateway while the circuit is busy (or other traffic
  /// is already held) is buffered per (destination cluster, kind,
  /// service class) and flushed as one wire message when the buffered
  /// bytes reach this threshold or at the next combine_epoch boundary.
  /// 0 disables combining entirely.
  std::size_t combine_bytes = 0;
  /// Epoch-boundary flush period for sub-threshold combine buffers
  /// (bounds the latency a held message can accrue).
  sim::SimTime combine_epoch = sim::microseconds(200);
  /// Per-wire-message WAN framing bytes (headers the circuit charges in
  /// addition to payload). Combining amortizes this across the batch.
  std::size_t frame_bytes = 0;

  void validate() const {
    if (streams < 1 || streams > 1024) {
      throw ConfigError("wan transport: streams must be in [1, 1024] (got " +
                        std::to_string(streams) + ")");
    }
    if (stream_chunk_bytes == 0) {
      throw ConfigError("wan transport: stream_chunk_bytes must be positive");
    }
    if (combine_bytes > 0 && combine_epoch <= 0) {
      throw ConfigError(
          "wan transport: combine_epoch must be positive when combining is armed (got " +
          std::to_string(combine_epoch) + " ns) — a sub-threshold buffer would never flush");
    }
  }
};

/// Heterogeneous per-pair WAN circuit parameters (MPWide-style path
/// configuration): replaces the uniform `wan` params for the
/// (from, to) circuit and its reverse. An empty override list is a
/// strict no-op — the topology is byte-identical to the uniform one.
struct WanPairOverride {
  int from = 0;
  int to = 0;
  LinkParams params;
};

struct TopologyConfig {
  int clusters = 1;
  int nodes_per_cluster = 1;

  /// Intracluster point-to-point network (Myrinet).
  LinkParams lan;
  /// Node <-> gateway access network (Fast Ethernet).
  LinkParams access;
  /// Gateway <-> gateway wide-area circuit (one PVC per cluster pair).
  LinkParams wan;

  /// Per-message routing/forwarding cost at a gateway (store-and-forward).
  sim::SimTime gateway_forward_overhead = 0;

  /// Hardware-supported intracluster broadcast: one serialization at the
  /// sender, delivery to all cluster members after this latency.
  LinkParams lan_broadcast;

  /// Transport-level WAN features (parallel sub-streams, gateway
  /// message combining, framing). Defaults are a strict no-op.
  WanTransportConfig wan_transport;

  /// Heterogeneous per-pair WAN circuits. Each entry replaces `wan`
  /// for the named cluster pair (both directions); pairs not listed
  /// keep the uniform `wan` params. Later entries win on duplicates,
  /// matching last-wins CLI/scenario override semantics.
  std::vector<WanPairOverride> wan_overrides;

  /// Effective WAN circuit parameters for the (from, to) gateway pair.
  const LinkParams& wan_between(int from, int to) const {
    const LinkParams* params = &wan;
    for (const WanPairOverride& o : wan_overrides) {
      if ((o.from == from && o.to == to) || (o.from == to && o.to == from)) {
        params = &o.params;
      }
    }
    return *params;
  }

  /// Throws ConfigError on any out-of-range parameter. Called once by
  /// the Topology constructor; tools call it directly to reject bad
  /// command lines before building a network.
  void validate() const {
    if (clusters < 1) {
      throw ConfigError("topology: clusters must be >= 1 (got " + std::to_string(clusters) + ")");
    }
    if (nodes_per_cluster < 1) {
      throw ConfigError("topology: nodes_per_cluster must be >= 1 (got " +
                        std::to_string(nodes_per_cluster) + ")");
    }
    lan.validate("lan link");
    access.validate("access link");
    wan.validate("wan link");
    lan_broadcast.validate("lan broadcast link");
    wan_transport.validate();
    for (const WanPairOverride& o : wan_overrides) {
      if (o.from < 0 || o.from >= clusters || o.to < 0 || o.to >= clusters) {
        throw ConfigError("wan override: cluster pair (" + std::to_string(o.from) + ", " +
                          std::to_string(o.to) + ") out of range for " + std::to_string(clusters) +
                          " clusters");
      }
      if (o.from == o.to) {
        throw ConfigError("wan override: cluster pair (" + std::to_string(o.from) + ", " +
                          std::to_string(o.to) + ") is not intercluster");
      }
      o.params.validate("wan override link");
    }
    if (gateway_forward_overhead < 0) {
      throw ConfigError("topology: gateway_forward_overhead must be non-negative (got " +
                        std::to_string(gateway_forward_overhead) + " ns)");
    }
  }

  /// The smallest latency any cross-cluster effect can travel with:
  /// the minimum WAN propagation latency over all circuits (with
  /// heterogeneous overrides, the fastest pair bounds everyone). The
  /// runtime propagates a hard failure this far into the future. Zero
  /// on a single cluster (no WAN).
  sim::SimTime min_intercluster_latency() const {
    if (clusters <= 1) return 0;
    if (wan_overrides.empty()) return wan.latency;
    sim::SimTime lo = std::numeric_limits<sim::SimTime>::max();
    for (int a = 0; a < clusters; ++a) {
      for (int b = a + 1; b < clusters; ++b) {
        lo = std::min(lo, wan_between(a, b).latency);
      }
    }
    return lo;
  }
};

class Topology {
 public:
  /// Validates `cfg` (throws ConfigError) and freezes the node math.
  explicit Topology(const TopologyConfig& cfg)
      : clusters_(cfg.clusters), per_cluster_(cfg.nodes_per_cluster) {
    cfg.validate();
  }

  int clusters() const { return clusters_; }
  int nodes_per_cluster() const { return per_cluster_; }
  int num_compute() const { return clusters_ * per_cluster_; }
  /// Compute nodes plus one gateway per cluster.
  int num_nodes() const { return num_compute() + clusters_; }

  bool is_gateway(NodeId n) const { return n >= num_compute() && n < num_nodes(); }
  bool is_compute(NodeId n) const { return n >= 0 && n < num_compute(); }

  ClusterId cluster_of(NodeId n) const {
    return is_gateway(n) ? static_cast<ClusterId>(n - num_compute())
                         : static_cast<ClusterId>(n / per_cluster_);
  }
  bool same_cluster(NodeId a, NodeId b) const { return cluster_of(a) == cluster_of(b); }

  NodeId gateway_of(ClusterId c) const { return num_compute() + c; }
  NodeId compute_node(ClusterId c, int index_in_cluster) const {
    return c * per_cluster_ + index_in_cluster;
  }
  int index_in_cluster(NodeId n) const {
    return is_gateway(n) ? 0 : n % per_cluster_;
  }

 private:
  int clusters_;
  int per_cluster_;
};

}  // namespace alb::net
