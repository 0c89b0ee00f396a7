#pragma once
// Cluster-level caching of remote data blocks (the Water optimization,
// §4.1 of the paper).
//
// In an all-to-all exchange, many processes in a cluster need the same
// block of data from the same remote owner, so the unoptimized program
// ships identical bytes over the same WAN link repeatedly. The cache
// designates, for every owner process O, one process in each cluster as
// O's *local coordinator*. A process needing O's block asks the
// coordinator (intracluster RPC); the coordinator fetches it over the
// WAN once per epoch, caches it, and serves all later local requests
// from the cache.
//
// The inverse direction (reductions of updates back to the owner) is in
// cluster_reduce.hpp's ClusterReducer.
//
// Blocks are published per epoch (e.g. per simulation timestep); a
// fetch for an epoch the owner has not published yet blocks until the
// owner publishes it.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "orca/runtime.hpp"
#include "sim/future.hpp"

namespace alb::wide {

template <typename Block>
class ClusterCache {
 public:
  /// `bytes_per_block` models the marshalled size of one block;
  /// `enabled` false degrades fetch() to the unoptimized direct-RPC
  /// behaviour (used by the original program variants and ablations).
  ClusterCache(orca::Runtime& rt, std::size_t bytes_per_block, bool enabled = true)
      : rt_(&rt), bytes_(bytes_per_block), enabled_(enabled),
        published_(static_cast<std::size_t>(rt.nprocs())),
        cache_(static_cast<std::size_t>(rt.nprocs()) *
               static_cast<std::size_t>(rt.network().topology().clusters())) {}

  /// The owner makes its block for `epoch` available (local, free).
  void publish(const orca::Proc& p, std::uint64_t epoch, std::shared_ptr<const Block> block) {
    slot(published_[static_cast<std::size_t>(p.rank)], epoch)
        .set_value(std::move(block));
    gc(published_[static_cast<std::size_t>(p.rank)], epoch);
  }

  /// Fetches owner's block for `epoch`. Optimized path: via the owner's
  /// local-cluster coordinator, one WAN transfer per (cluster, owner,
  /// epoch). Unoptimized path: direct RPC to the owner.
  sim::Task<std::shared_ptr<const Block>> fetch(const orca::Proc& p, int owner_rank,
                                                std::uint64_t epoch) {
    if (!enabled_ || p.same_cluster(owner_rank)) {
      co_return co_await fetch_from_owner(p.node, owner_rank, epoch);
    }
    const int coord = coordinator_for(p, owner_rank);
    if (p.rank == coord) {
      co_return co_await coordinator_get(p.node, owner_rank, epoch);
    }
    // Ask the coordinator; its handler may block on the WAN fetch.
    ++stats_.coordinator_requests;
    ClusterCache* self = this;
    const net::NodeId coord_node = static_cast<net::NodeId>(coord);
    const int owner = owner_rank;
    std::function<sim::Task<std::shared_ptr<const void>>()> op =
        [self, coord_node, owner, epoch]() -> sim::Task<std::shared_ptr<const void>> {
      auto block = co_await self->coordinator_get(coord_node, owner, epoch);
      co_return std::static_pointer_cast<const void>(block);
    };
    auto payload = co_await rt_->rpc_blocking(p.node, coord_node, kRequestBytes, bytes_,
                                              std::move(op));
    co_return std::static_pointer_cast<const Block>(payload);
  }

  struct Stats {
    std::uint64_t owner_fetches = 0;       // RPCs that hit the owner
    std::uint64_t coordinator_requests = 0;  // intracluster cache requests
    std::uint64_t cache_hits = 0;            // served without a WAN fetch
  };
  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kRequestBytes = 16;

  using Slot = sim::Future<std::shared_ptr<const Block>>;
  using EpochMap = std::map<std::uint64_t, Slot>;

  /// Coordinator in p's cluster for `owner_rank`: deterministic spread
  /// of owners over local processes, as the paper describes.
  int coordinator_for(const orca::Proc& p, int owner_rank) const {
    const auto& topo = rt_->network().topology();
    int owner_index = topo.index_in_cluster(static_cast<net::NodeId>(owner_rank));
    return p.rank_in_cluster(p.cluster(), owner_index % p.procs_per_cluster());
  }

  Slot& slot(EpochMap& m, std::uint64_t epoch) {
    auto it = m.find(epoch);
    if (it == m.end()) it = m.emplace(epoch, Slot(rt_->engine())).first;
    return it->second;
  }

  /// Keep a small window of epochs to bound memory on long runs.
  static void gc(EpochMap& m, std::uint64_t current_epoch) {
    while (!m.empty() && m.begin()->first + 4 < current_epoch) m.erase(m.begin());
  }

  sim::Task<std::shared_ptr<const Block>> fetch_from_owner(net::NodeId from, int owner_rank,
                                                           std::uint64_t epoch) {
    ++stats_.owner_fetches;
    ClusterCache* self = this;
    std::function<sim::Task<std::shared_ptr<const void>>()> op =
        [self, owner_rank, epoch]() -> sim::Task<std::shared_ptr<const void>> {
      auto& published = self->published_[static_cast<std::size_t>(owner_rank)];
      auto block = co_await self->slot(published, epoch);
      co_return std::static_pointer_cast<const void>(block);
    };
    auto payload = co_await rt_->rpc_blocking(from, static_cast<net::NodeId>(owner_rank),
                                              kRequestBytes, bytes_, std::move(op));
    co_return std::static_pointer_cast<const Block>(payload);
  }

  /// Runs at the coordinator: one WAN fetch per (owner, epoch); all
  /// later callers share the cached future.
  sim::Task<std::shared_ptr<const Block>> coordinator_get(net::NodeId coord_node,
                                                          int owner_rank,
                                                          std::uint64_t epoch) {
    // Each cluster's coordinator keeps its own cache: entries are keyed
    // by (coordinator's cluster, owner).
    const auto& topo = rt_->network().topology();
    const std::size_t key =
        static_cast<std::size_t>(topo.cluster_of(coord_node)) *
            static_cast<std::size_t>(rt_->nprocs()) +
        static_cast<std::size_t>(owner_rank);
    auto& epochs = cache_[key];
    auto it = epochs.find(epoch);
    if (it != epochs.end()) {
      ++stats_.cache_hits;
      co_return co_await it->second;
    }
    Slot& s = slot(epochs, epoch);
    gc(epochs, epoch);
    auto block = co_await fetch_from_owner(coord_node, owner_rank, epoch);
    s.set_value(block);
    co_return block;
  }

  orca::Runtime* rt_;
  std::size_t bytes_;
  bool enabled_;
  std::vector<EpochMap> published_;  // per owner rank
  std::vector<EpochMap> cache_;      // per (coordinator cluster, owner rank)
  Stats stats_;
};

}  // namespace alb::wide
