#pragma once
// Distributed job queues with work stealing (the IDA* pattern, §4.6).
//
// Every process owns a local deque. When a process runs dry it asks
// victims for work, one steal RPC at a time. Two victim orders:
//
//  * kOriginalOrder — the original program's fixed set: ranks
//    own + 1, 2, 4, ..., 2^n (mod P). For the highest-numbered process
//    of a cluster this order starts with *remote* clusters.
//  * kClusterFirst — the optimization: try every process in the own
//    cluster first, then fall back to the original order for remote
//    clusters.
//
// Independently, the "remember empty" heuristic skips victims currently
// known to be idle, fed by the idle/active status broadcasts the
// application already performs for termination detection. Both knobs
// are exactly the two optimizations of §4.6.

#include <deque>
#include <optional>
#include <vector>

#include "orca/runtime.hpp"
#include "orca/shared_object.hpp"

namespace alb::wide {

enum class StealOrder { kOriginalOrder, kClusterFirst };

struct IdleSet {
  std::vector<char> idle;  // indexed by rank; char to avoid vector<bool>
};

template <typename Job>
class StealScheduler {
 public:
  struct Options {
    StealOrder order = StealOrder::kOriginalOrder;
    bool remember_empty = false;
    std::size_t job_bytes = 64;
    /// Jobs handed over per successful steal request.
    int steal_chunk = 1;
  };

  StealScheduler(orca::Runtime& rt, Options opt)
      : rt_(&rt), opt_(opt),
        deques_(std::make_shared<std::vector<std::deque<Job>>>(
            static_cast<std::size_t>(rt.nprocs()))),
        idle_(orca::create_replicated<IdleSet>(
            rt, IdleSet{std::vector<char>(static_cast<std::size_t>(rt.nprocs()), 0)})),
        stats_shards_(static_cast<std::size_t>(rt.network().topology().clusters())) {}

  /// Local deque operations — no communication.
  void push_local(const orca::Proc& p, Job j) {
    deque_of(p.rank).push_back(std::move(j));
  }
  std::optional<Job> pop_local(const orca::Proc& p) {
    auto& d = deque_of(p.rank);
    if (d.empty()) return std::nullopt;
    // LIFO locally: depth-first order keeps the frontier small.
    Job j = std::move(d.back());
    d.pop_back();
    return j;
  }
  std::size_t local_size(const orca::Proc& p) { return deque_of(p.rank).size(); }

  /// Announces an idle/active transition (a totally-ordered broadcast,
  /// like the termination-detection messages in the paper's IDA*).
  sim::Task<void> announce_idle(const orca::Proc& p, bool is_idle) {
    const int rank = p.rank;
    return idle_.write(p, orca::kControlBytes, [rank, is_idle](IdleSet& s) {
      s.idle[static_cast<std::size_t>(rank)] = is_idle ? 1 : 0;
    });
  }

  /// True once every process has announced idle (termination check).
  bool all_idle(const orca::Proc& p) const {
    const IdleSet& s = idle_.local(p);
    for (char c : s.idle) {
      if (!c) return false;
    }
    return true;
  }
  sim::Task<void> wait_all_idle(const orca::Proc& p) {
    return idle_.wait_until(p, [](const IdleSet& s) {
      for (char c : s.idle) {
        if (!c) return false;
      }
      return true;
    });
  }

  /// One full round of steal attempts over the victim order. Returns the
  /// first batch obtained, or std::nullopt if every victim came up
  /// empty. Steal RPCs take jobs from the FIFO end (the victim's oldest,
  /// largest subtrees).
  sim::Task<std::optional<std::vector<Job>>> steal(const orca::Proc& p) {
    // The thief's own cluster shard — steal() runs in p's context.
    Stats& st = stats_shards_[static_cast<std::size_t>(p.cluster())];
    for (int victim : victim_order(p)) {
      if (opt_.remember_empty && idle_.local(p).idle[static_cast<std::size_t>(victim)]) {
        ++st.skipped_idle;
        continue;
      }
      ++st.attempts;
      if (!p.same_cluster(victim)) ++st.remote_attempts;
      const int chunk = opt_.steal_chunk;
      auto deques = deques_;
      // Steal RPC executed at the victim's node; reply carries the jobs.
      std::function<std::shared_ptr<const void>()> op =
          [deques, victim, chunk]() -> std::shared_ptr<const void> {
        auto& d = (*deques)[static_cast<std::size_t>(victim)];
        std::vector<Job> batch;
        for (int i = 0; i < chunk && !d.empty(); ++i) {
          batch.push_back(std::move(d.front()));
          d.pop_front();
        }
        return net::make_payload<std::vector<Job>>(std::move(batch));
      };
      auto payload = co_await rt_->rpc(p.node, static_cast<net::NodeId>(victim),
                                       kStealRequestBytes,
                                       opt_.job_bytes * static_cast<std::size_t>(chunk),
                                       std::move(op));
      const auto& got = *static_cast<const std::vector<Job>*>(payload.get());
      if (!got.empty()) {
        ++st.successes;
        co_return got;
      }
    }
    co_return std::nullopt;
  }

  struct Stats {
    std::uint64_t attempts = 0;
    std::uint64_t remote_attempts = 0;
    std::uint64_t successes = 0;
    std::uint64_t skipped_idle = 0;
  };
  /// Sum over the per-cluster shards (post-run view).
  Stats stats() const {
    Stats s;
    for (const Stats& sh : stats_shards_) {
      s.attempts += sh.attempts;
      s.remote_attempts += sh.remote_attempts;
      s.successes += sh.successes;
      s.skipped_idle += sh.skipped_idle;
    }
    return s;
  }

 private:
  static constexpr std::size_t kStealRequestBytes = 16;

  std::deque<Job>& deque_of(int rank) {
    return (*deques_)[static_cast<std::size_t>(rank)];
  }

  /// Victim ranks in the order this process should try them.
  std::vector<int> victim_order(const orca::Proc& p) const {
    std::vector<int> order;
    auto add_unique = [&order, &p](int r) {
      if (r == p.rank) return;
      for (int o : order) {
        if (o == r) return;
      }
      order.push_back(r);
    };
    if (opt_.order == StealOrder::kClusterFirst) {
      // Own cluster first, starting just after ourselves.
      for (int i = 1; i < p.procs_per_cluster(); ++i) {
        add_unique(p.rank_in_cluster(p.cluster(),
                                     (p.index_in_cluster() + i) % p.procs_per_cluster()));
      }
    }
    // The original fixed set: own + 1, 2, 4, ... (mod P).
    for (int step = 1; step < p.nprocs; step *= 2) {
      add_unique((p.rank + step) % p.nprocs);
    }
    return order;
  }

  orca::Runtime* rt_;
  Options opt_;
  /// Per-rank deques. Local push/pop are process-local and free (as in
  /// the real program); remote access happens only through steal RPCs
  /// addressed to the victim's node.
  std::shared_ptr<std::vector<std::deque<Job>>> deques_;
  orca::Replicated<IdleSet> idle_;
  /// Steal accounting, sharded by the thief's cluster.
  std::vector<Stats> stats_shards_;
};

}  // namespace alb::wide
