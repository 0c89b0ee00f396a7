#pragma once
// Job queues for master/worker parallelism (the TSP pattern, §4.2).
//
//  * CentralJobQueue — the original program's physically centralized
//    FIFO queue, stored on the master's node: every get() from a remote
//    cluster is an intercluster RPC (~75% of all jobs on 4 clusters).
//  * ClusterJobQueues — the optimization: work is statically partitioned
//    over one queue per cluster; get() is always an intracluster RPC.
//    Trades dynamic load balance for intercluster traffic, exactly the
//    trade-off the paper discusses.
//
// Both expose the same interface so applications switch by construction.
//
// Under the adaptive runtime (orca/adaptive.hpp) a CentralJobQueue also
// registers a *split* policy: each get() op counts toward the master
// cluster's contention signal, and when the policy trips, the master
// repartitions its remaining jobs round-robin into one batch per
// cluster (shipped to every leader, empty batches included). Workers
// learn about the split from a redirect bit in the get reply — or from
// their own leader's batch arrival — and switch to a local-phase get:
// own cluster's share first, then a work-stealing sweep over the other
// clusters in ring order. A probe to a cluster whose batch is still in
// flight parks on an arrival future (the batch is guaranteed to be on
// the wire once anything redirected), and stolen jobs are never
// re-queued, so post-arrival emptiness is authoritative: the sweep
// terminates without lost jobs. Without the adaptive engine the same
// central-phase get runs; nothing feeds a signal and nothing ever
// splits, so every get stays a plain pop at the master.

#include <deque>
#include <optional>
#include <vector>

#include "orca/adaptive.hpp"
#include "orca/runtime.hpp"
#include "orca/shared_object.hpp"

namespace alb::wide {

template <typename Job>
class CentralJobQueue {
 public:
  /// The queue object lives on `master_rank`'s node. `tag` carries the
  /// adaptive split batches (application tag space; override if it
  /// collides with the app's own tags).
  CentralJobQueue(orca::Runtime& rt, int master_rank, std::size_t job_bytes, int tag = 9500)
      : rt_(&rt),
        master_rank_(master_rank),
        job_bytes_(job_bytes),
        tag_(tag),
        queue_(orca::create_remote<std::deque<Job>>(rt, master_rank, {})) {
    const auto& topo = rt.network().topology();
    master_cluster_ = topo.cluster_of(static_cast<net::NodeId>(master_rank));
    const auto clusters = static_cast<std::size_t>(topo.clusters());
    split_.resize(clusters);
    split_here_.assign(clusters, 0);
    arrival_waiters_.resize(clusters);
    redirected_.assign(static_cast<std::size_t>(rt.nprocs()), 0);
    if (topo.clusters() > 1) adapt_ = rt.adaptive();
    if (adapt_ == nullptr) return;
    for (net::ClusterId c = 0; c < topo.clusters(); ++c) {
      rt.network().endpoint(topo.compute_node(c, 0)).set_handler(tag_, [this, c](net::Message m) {
        deliver_batch(c, net::payload_as<SplitBatch>(m).jobs);
      });
    }
    adapt_->register_queue_split(master_cluster_, [this]() { return split_now(); });
  }

  /// Fills the queue (setup time, before the run is timed).
  void seed(std::vector<Job> jobs) {
    auto& q = queue_.state();
    for (auto& j : jobs) q.push_back(std::move(j));
  }

  /// Takes the next job; std::nullopt once the queue is empty.
  sim::Task<std::optional<Job>> get(const orca::Proc& p) {
    // Local phase: this worker was redirected, or its own cluster's
    // share already arrived (both facts live in the worker's context;
    // neither is ever set without the adaptive engine).
    if (redirected_[static_cast<std::size_t>(p.rank)] ||
        split_here_[static_cast<std::size_t>(p.cluster())]) {
      co_return co_await local_get(p);
    }
    // Central phase: the op runs in the master's context — it feeds the
    // adaptive engine's contention signal there (when one exists) and
    // reports the split (redirect) to workers whose request was in
    // flight when the policy tripped.
    const bool remote = p.cluster() != master_cluster_;
    orca::adapt::Engine* ad = adapt_;
    const net::ClusterId mc = master_cluster_;
    const bool* done = &split_done_;
    GetReply rep = co_await queue_.template invoke<GetReply>(
        p, kRequestBytes, job_bytes_,
        [ad, mc, remote, done](std::deque<Job>& q) -> GetReply {
          if (ad != nullptr) ad->note_queue_get(mc, remote);
          if (*done) return GetReply{std::nullopt, true};
          if (q.empty()) return GetReply{std::nullopt, false};
          Job j = std::move(q.front());
          q.pop_front();
          return GetReply{std::move(j), false};
        });
    if (rep.redirect) {
      redirected_[static_cast<std::size_t>(p.rank)] = 1;
      co_return co_await local_get(p);
    }
    co_return rep.job;
  }

  std::size_t pending() { return queue_.state().size(); }

 private:
  static constexpr std::size_t kRequestBytes = 16;

  struct GetReply {
    std::optional<Job> job;
    bool redirect = false;
  };
  struct SplitBatch {
    std::vector<Job> jobs;
  };

  /// The split action (registered with the adaptive engine; runs in the
  /// master cluster's context, where the central deque lives).
  bool split_now() {
    auto& q = queue_.state();
    if (q.empty()) return false;  // nothing left to repartition
    split_done_ = true;
    const auto& topo = rt_->network().topology();
    const auto clusters = static_cast<std::size_t>(topo.clusters());
    std::vector<std::vector<Job>> batches(clusters);
    std::size_t c = 0;
    while (!q.empty()) {
      batches[c].push_back(std::move(q.front()));
      q.pop_front();
      c = (c + 1) % clusters;
    }
    // One batch per cluster, empty ones included — every leader's
    // arrival future must resolve so parked probes can conclude.
    for (net::ClusterId d = 0; d < topo.clusters(); ++d) {
      auto& batch = batches[static_cast<std::size_t>(d)];
      if (d == master_cluster_) {
        deliver_batch(d, batch);  // same context: no self-message needed
        continue;
      }
      net::Message m;
      m.src = static_cast<net::NodeId>(master_rank_);
      m.dst = topo.compute_node(d, 0);
      m.bytes = kRequestBytes + batch.size() * job_bytes_;
      m.kind = net::MsgKind::Data;
      m.tag = tag_;
      m.payload = net::make_payload<SplitBatch>(SplitBatch{std::move(batch)});
      rt_->network().send(std::move(m));
    }
    return true;
  }

  /// Runs at cluster `c`'s leader (batch handler / master-local call).
  void deliver_batch(net::ClusterId c, const std::vector<Job>& jobs) {
    const auto ci = static_cast<std::size_t>(c);
    for (const Job& j : jobs) split_[ci].push_back(j);
    split_here_[ci] = 1;
    for (auto& f : arrival_waiters_[ci]) {
      if (!f.ready()) f.set_value();
    }
    arrival_waiters_[ci].clear();
  }

  /// Own cluster's share first, then a stealing sweep in ring order.
  /// Stolen jobs are never re-queued, so one full sweep that finds
  /// every queue (post-arrival) empty is conclusive.
  sim::Task<std::optional<Job>> local_get(const orca::Proc& p) {
    const net::ClusterId clusters = p.net->topology().clusters();
    const net::ClusterId mine = p.cluster();
    for (net::ClusterId off = 0; off < clusters; ++off) {
      std::optional<Job> j = co_await take_from(p, (mine + off) % clusters);
      if (j.has_value()) co_return j;
    }
    co_return std::nullopt;
  }

  /// One pop (or steal) probe against cluster `c`'s share, served at
  /// its leader; blocks there until the batch has arrived.
  sim::Task<std::optional<Job>> take_from(const orca::Proc& p, net::ClusterId c) {
    const net::NodeId leader = p.net->topology().compute_node(c, 0);
    CentralJobQueue* self = this;
    std::function<sim::Task<std::shared_ptr<const void>>()> op =
        [self, c]() -> sim::Task<std::shared_ptr<const void>> {
      co_return net::make_payload<std::optional<Job>>(co_await self->pop_split(c));
    };
    auto payload =
        co_await p.rt->rpc_blocking(p.node, leader, kRequestBytes, job_bytes_, std::move(op));
    co_return *static_cast<const std::optional<Job>*>(payload.get());
  }

  sim::Task<std::optional<Job>> pop_split(net::ClusterId c) {
    const auto ci = static_cast<std::size_t>(c);
    if (!split_here_[ci]) {
      sim::Future<> arrived(rt_->engine());
      arrival_waiters_[ci].push_back(arrived);
      co_await arrived;
    }
    auto& q = split_[ci];
    if (q.empty()) co_return std::nullopt;
    Job j = std::move(q.front());
    q.pop_front();
    co_return j;
  }

  orca::Runtime* rt_;
  orca::adapt::Engine* adapt_ = nullptr;  // null => the queue never splits
  int master_rank_;
  net::ClusterId master_cluster_ = 0;
  std::size_t job_bytes_;
  int tag_;
  orca::Remote<std::deque<Job>> queue_;
  // Post-split state. Context confinement: split_done_ belongs to the
  // master's context (split action and get ops both run there);
  // split_/split_here_/arrival_waiters_ elements to their cluster's
  // leader context; redirected_ elements to their worker's context.
  bool split_done_ = false;
  std::vector<std::deque<Job>> split_;
  std::vector<char> split_here_;
  std::vector<std::vector<sim::Future<>>> arrival_waiters_;
  std::vector<char> redirected_;
};

template <typename Job>
class ClusterJobQueues {
 public:
  ClusterJobQueues(orca::Runtime& rt, std::size_t job_bytes) : job_bytes_(job_bytes) {
    const auto& topo = rt.network().topology();
    queues_.reserve(static_cast<std::size_t>(topo.clusters()));
    for (net::ClusterId c = 0; c < topo.clusters(); ++c) {
      // Each cluster's queue lives on its leader node.
      queues_.push_back(
          orca::create_remote<std::deque<Job>>(rt, topo.compute_node(c, 0), {}));
    }
  }

  /// Statically distributes jobs round-robin over the cluster queues.
  /// Round-robin (rather than block) spreads expensive early jobs, which
  /// is how a static distribution keeps imbalance tolerable.
  void seed(std::vector<Job> jobs) {
    std::size_t c = 0;
    for (auto& j : jobs) {
      queues_[c].state().push_back(std::move(j));
      c = (c + 1) % queues_.size();
    }
  }

  /// Takes the next job from the caller's own cluster queue.
  sim::Task<std::optional<Job>> get(const orca::Proc& p) {
    auto& q = queues_[static_cast<std::size_t>(p.cluster())];
    co_return co_await q.template invoke<std::optional<Job>>(
        p, kRequestBytes, job_bytes_, [](std::deque<Job>& jobs) -> std::optional<Job> {
          if (jobs.empty()) return std::nullopt;
          Job j = std::move(jobs.front());
          jobs.pop_front();
          return j;
        });
  }

 private:
  static constexpr std::size_t kRequestBytes = 16;
  std::size_t job_bytes_;
  std::vector<orca::Remote<std::deque<Job>>> queues_;
};

}  // namespace alb::wide
