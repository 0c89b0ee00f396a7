#pragma once
// Hierarchical (cluster-level) reductions.
//
// Two facilities from the paper:
//
//  * cluster_reduce / cluster_allreduce — the ATPG optimization (§4.4):
//    an associative all-to-one is performed in two stages, first within
//    each cluster to the cluster leader, then leader-to-root over the
//    WAN, "reducing intercluster communication to a single RPC per
//    cluster".
//
//  * ClusterReducer — the write-back half of the Water optimization
//    (§4.1): per-owner updates from all processes of a cluster are
//    combined at the owner's local coordinator, and only the combined
//    result crosses the WAN.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "orca/runtime.hpp"
#include "orca/shared_object.hpp"

namespace alb::wide {

/// Collective two-stage reduction to rank 0. Every process must call it
/// with the same `tag`. Non-root processes complete as soon as their
/// contribution is accepted (matching the ATPG pattern where only the
/// final totals matter); the root completes with the combined value.
/// `op` must be associative and commutative.
template <typename T, typename Op>
sim::Task<T> cluster_reduce(orca::Runtime& rt, const orca::Proc& p, int tag, T local,
                            std::size_t bytes, Op op) {
  const int leader = p.cluster_leader();
  if (p.rank != leader) {
    // Stage 1: contribute to the cluster leader (intracluster).
    rt.send_data(p, leader, tag, bytes, net::make_payload<T>(std::move(local)));
    co_return T{};
  }
  // Leader: combine own value with the cluster's contributions.
  T acc = std::move(local);
  for (int i = 1; i < p.procs_per_cluster(); ++i) {
    net::Message m = co_await rt.recv_data(p, tag);
    acc = op(std::move(acc), net::payload_as<T>(m));
  }
  if (p.rank != 0) {
    // Stage 2: one intercluster message per cluster.
    rt.send_data(p, 0, tag, bytes, net::make_payload<T>(std::move(acc)));
    co_return T{};
  }
  for (int c = 1; c < p.clusters(); ++c) {
    net::Message m = co_await rt.recv_data(p, tag);
    acc = op(std::move(acc), net::payload_as<T>(m));
  }
  co_return acc;
}

/// Allreduce: cluster_reduce to rank 0 followed by a result broadcast
/// (hardware broadcast locally, one WAN message per remote cluster).
/// Every process completes with the combined value.
template <typename T, typename Op>
sim::Task<T> cluster_allreduce(orca::Runtime& rt, const orca::Proc& p, int tag, T local,
                               std::size_t bytes, Op op) {
  const int leader = p.cluster_leader();
  // Upward phase (same as cluster_reduce, but everyone then waits).
  if (p.rank != leader) {
    rt.send_data(p, leader, tag, bytes, net::make_payload<T>(std::move(local)));
  } else {
    T acc = std::move(local);
    for (int i = 1; i < p.procs_per_cluster(); ++i) {
      net::Message m = co_await rt.recv_data(p, tag);
      acc = op(std::move(acc), net::payload_as<T>(m));
    }
    if (p.rank != 0) {
      rt.send_data(p, 0, tag, bytes, net::make_payload<T>(std::move(acc)));
    } else {
      for (int c = 1; c < p.clusters(); ++c) {
        net::Message m = co_await rt.recv_data(p, tag);
        acc = op(std::move(acc), net::payload_as<T>(m));
      }
      // Downward phase: disseminate the result (hardware broadcast at
      // home, collective-layer routing across the WAN).
      auto payload = net::make_payload<T>(acc);
      auto& topo = rt.network().topology();
      if (topo.nodes_per_cluster() > 1) {
        net::Message m;
        m.bytes = bytes;
        m.kind = net::MsgKind::Data;
        m.tag = tag + 1;
        m.payload = payload;
        rt.network().lan_broadcast(p.node, std::move(m));
      }
      {
        net::Message m;
        m.bytes = bytes;
        m.kind = net::MsgKind::Data;
        m.tag = tag + 1;
        m.payload = std::move(payload);
        rt.coll().disseminate(p.node, std::move(m));
      }
      co_return acc;
    }
  }
  net::Message m = co_await rt.recv_data(p, tag + 1);
  co_return net::payload_as<T>(m);
}

/// Write-back combining for owner-addressed updates (Water §4.1): a
/// process contributes an update destined for `owner_rank`; updates from
/// the same cluster are merged at the owner's local coordinator and
/// cross the WAN once per (cluster, owner, epoch).
///
/// `expected` is the number of contributors from the caller's cluster
/// for this (owner, epoch) — known in advance in regular exchanges
/// ("the local coordinator knows in advance which processors are going
/// to read and write the data", §4.1).
template <typename Update>
class ClusterReducer {
 public:
  using Combine = std::function<Update(Update&&, const Update&)>;
  using ApplyAtOwner = std::function<void(int owner_rank, Update&&)>;

  ClusterReducer(orca::Runtime& rt, std::size_t bytes_per_update, Combine combine,
                 ApplyAtOwner apply, bool enabled = true)
      : rt_(&rt), bytes_(bytes_per_update), combine_(std::move(combine)),
        apply_(std::move(apply)), enabled_(enabled),
        partial_(static_cast<std::size_t>(rt.network().topology().clusters())) {}

  /// Contributes `u` toward `owner_rank` for `epoch`. Completes when the
  /// update has been accepted (at the coordinator on the optimized path,
  /// at the owner otherwise).
  sim::Task<void> contribute(const orca::Proc& p, int owner_rank, std::uint64_t epoch,
                             Update u, int expected) {
    if (!enabled_ || p.same_cluster(owner_rank)) {
      co_return co_await send_to_owner(p.node, owner_rank, std::move(u));
    }
    const int coord = coordinator_for(p, owner_rank);
    if (p.rank == coord) {
      co_await accumulate(p.node, p.cluster(), owner_rank, epoch, std::move(u), expected);
      co_return;
    }
    ClusterReducer* self = this;
    const net::NodeId coord_node = static_cast<net::NodeId>(coord);
    auto boxed = std::make_shared<Update>(std::move(u));
    const net::ClusterId cluster = p.cluster();
    std::function<sim::Task<std::shared_ptr<const void>>()> op =
        [self, coord_node, cluster, owner_rank, epoch, boxed,
         expected]() -> sim::Task<std::shared_ptr<const void>> {
      co_await self->accumulate(coord_node, cluster, owner_rank, epoch,
                                std::move(*boxed), expected);
      co_return nullptr;
    };
    (void)co_await rt_->rpc_blocking(p.node, coord_node, bytes_, kAckBytes, std::move(op));
  }

 private:
  static constexpr std::size_t kAckBytes = 8;

  int coordinator_for(const orca::Proc& p, int owner_rank) const {
    const auto& topo = rt_->network().topology();
    int owner_index = topo.index_in_cluster(static_cast<net::NodeId>(owner_rank));
    return p.rank_in_cluster(p.cluster(), owner_index % p.procs_per_cluster());
  }

  sim::Task<void> send_to_owner(net::NodeId from, int owner_rank, Update u) {
    ClusterReducer* self = this;
    auto boxed = std::make_shared<Update>(std::move(u));
    std::function<std::shared_ptr<const void>()> op =
        [self, owner_rank, boxed]() -> std::shared_ptr<const void> {
      self->apply_(owner_rank, std::move(*boxed));
      return nullptr;
    };
    (void)co_await rt_->rpc(from, static_cast<net::NodeId>(owner_rank), bytes_, kAckBytes,
                            std::move(op));
  }

  /// Runs at the coordinator; contributors complete as soon as their
  /// update is merged (waiting for the combined WAN transfer would chain
  /// the whole cluster behind it). The final contribution triggers the
  /// WAN send, which proceeds detached; the *owner* knows completion
  /// through its own expected-contribution accounting.
  sim::Task<void> accumulate(net::NodeId coord_node, net::ClusterId cluster, int owner_rank,
                             std::uint64_t epoch, Update u, int expected) {
    // Per-cluster shard: accumulate only ever runs at `cluster`'s own
    // coordinator (contributors RPC into their local coordinator), so
    // each shard stays confined to one cluster.
    auto& shard = partial_[static_cast<std::size_t>(cluster)];
    const Key key{owner_rank, epoch};
    auto it = shard.find(key);
    if (it == shard.end()) {
      it = shard.emplace(key, Partial{std::move(u), 1}).first;
    } else {
      it->second.value = combine_(std::move(it->second.value), u);
      ++it->second.count;
    }
    if (it->second.count == expected) {
      Update combined = std::move(it->second.value);
      shard.erase(it);
      rt_->engine().spawn(send_to_owner(coord_node, owner_rank, std::move(combined)));
    }
    co_return;
  }

  struct Key {
    int owner;
    std::uint64_t epoch;
    bool operator<(const Key& o) const {
      if (owner != o.owner) return owner < o.owner;
      return epoch < o.epoch;
    }
  };
  struct Partial {
    Update value;
    int count;
  };

  orca::Runtime* rt_;
  std::size_t bytes_;
  Combine combine_;
  ApplyAtOwner apply_;
  bool enabled_;
  /// In-flight combines, sharded by the coordinator's cluster.
  std::vector<std::map<Key, Partial>> partial_;
};

}  // namespace alb::wide
