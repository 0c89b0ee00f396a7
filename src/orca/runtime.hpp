#pragma once
// The Orca-style runtime system.
//
// Processes (one per compute node) communicate exclusively through
// shared objects (see shared_object.hpp) and — for the re-implemented
// lower-level programs of §4.8 — raw tagged messages. The runtime
// implements:
//   * RPC with function shipping for non-replicated objects,
//   * write-update replication over totally-ordered broadcast for
//     replicated objects (BroadcastEngine + pluggable Sequencer),
//   * a message-based global barrier (arrivals to rank 0, broadcast
//     release), used by apps that need phase synchronization,
//   * process lifecycle and completion-time bookkeeping for speedup
//     measurement.
//
// Bookkeeping: the engine runs one sequential loop, so call ids come
// from one run-wide counter. Pending RPCs stay indexed by the caller's
// cluster, because a hard failure errors one cluster's callers at a
// time; barrier and object waiters are kept per node. Finish
// bookkeeping is counted once, plus a per-cluster finished count for
// cluster_quiescent(). Hard failures are observed per cluster: the
// injector's on_fail callback fails the origin cluster's parked waiters
// at once and schedules a propagation event on every other cluster one
// WAN latency later (the earliest a real notification could arrive),
// which fails that cluster's waiters there.

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "orca/adaptive.hpp"
#include "orca/broadcast.hpp"
#include "orca/collective.hpp"
#include "orca/proc.hpp"
#include "orca/recovery.hpp"
#include "orca/sequencer.hpp"
#include "orca/tags.hpp"
#include "sim/future.hpp"
#include "sim/task.hpp"

namespace alb::orca {

class Runtime {
 public:
  struct Config {
    /// Broadcast ordering strategy. Default: centralized sequencer on a
    /// single cluster, per-cluster rotating sequencer on a multicluster
    /// (the DAS defaults described in §2).
    std::optional<SequencerKind> sequencer;
    /// Consecutive remote-cluster requests before a migrating sequencer
    /// moves (ignored for the other strategies).
    int migrate_threshold = 2;
    /// Wide-area collective routing for broadcasts and the cluster
    /// reduce/allreduce helpers. Flat (the default) is byte-identical
    /// to the historical per-pair dissemination.
    coll::Config coll;
    /// Adaptive policy engine (off by default — a byte-identical
    /// no-op). When enabled and no sequencer was chosen explicitly,
    /// the runtime starts the centralized sequencer, which the seq
    /// policy can arm for migration; on more than one cluster that
    /// replaces the rotating default. An explicit `sequencer` wins and
    /// suppresses that policy (orca/adapt.override.seq).
    adapt::Config adapt;
  };

  explicit Runtime(net::Network& net) : Runtime(net, Config{}) {}
  Runtime(net::Network& net, Config cfg);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  net::Network& network() { return *net_; }
  sim::Engine& engine() { return net_->engine(); }
  int nprocs() const { return net_->topology().num_compute(); }
  Sequencer& sequencer() { return *seq_; }
  BroadcastEngine& bcast() { return *bcast_; }
  coll::Engine& coll() { return *coll_; }
  /// Null unless Config::adapt.enabled (callers gate their adaptive
  /// paths on this so the default stays byte-identical).
  adapt::Engine* adaptive() { return adaptive_.get(); }

  /// True once every process hosted in `cluster` finished or unwound.
  /// The adaptive epoch chains read it mid-run to retire themselves.
  bool cluster_quiescent(net::ClusterId cluster) const {
    return cluster_finished_[static_cast<std::size_t>(cluster)] >=
           net_->topology().nodes_per_cluster();
  }

  // --- object registry (type-erased; typed wrappers in shared_object.hpp)
  struct HolderBase {
    virtual ~HolderBase() = default;
    /// The state a given node operates on (per-node copy when
    /// replicated, the single owner copy otherwise).
    virtual void* state(net::NodeId node) = 0;
  };
  int add_holder(std::unique_ptr<HolderBase> h) {
    holders_.push_back(std::move(h));
    waiters_.emplace_back(static_cast<std::size_t>(nprocs()));
    return static_cast<int>(holders_.size()) - 1;
  }
  HolderBase& holder(int id) { return *holders_[static_cast<std::size_t>(id)]; }

  /// Applies a shipped write to `node`'s copy and re-checks blocked
  /// wait_until() predicates. Called by the broadcast engine.
  void apply_bcast_op(net::NodeId node, const BcastOp& op);

  /// Registers a predicate waiter for (object, node); resolved after any
  /// write is applied there and the predicate holds.
  void add_object_waiter(int object_id, net::NodeId node, std::function<bool()> pred,
                         sim::Future<> fut);

  // --- RPC ---------------------------------------------------------
  /// Ships `op` to `target`, runs it there on arrival (after
  /// `service_time` of simulated server CPU), returns the reply payload.
  /// caller == target short-circuits without network traffic.
  sim::Task<std::shared_ptr<const void>> rpc(net::NodeId caller, net::NodeId target,
                                             std::size_t request_bytes,
                                             std::size_t reply_bytes,
                                             std::function<std::shared_ptr<const void>()> op,
                                             sim::SimTime service_time = 0);

  /// Like rpc(), but the server-side operation is a coroutine that may
  /// itself block (await other communication) before producing the
  /// reply — the building block for coordinator/relay services such as
  /// the cluster cache (§4.1 of the paper).
  sim::Task<std::shared_ptr<const void>> rpc_blocking(
      net::NodeId caller, net::NodeId target, std::size_t request_bytes,
      std::size_t reply_bytes, std::function<sim::Task<std::shared_ptr<const void>>()> op);

  // --- raw messaging (for the C-style re-implementations of §4.8) ---
  /// `combined_members` > 1 marks an application-level combined
  /// shipment carrying that many logical messages (WAN accounting).
  void send_data(const Proc& from, int dst_rank, int tag, std::size_t bytes,
                 std::shared_ptr<const void> payload = nullptr,
                 std::uint32_t combined_members = 1);
  auto recv_data(const Proc& p, int tag) { return net_->endpoint(p.node).receive(tag); }

  // --- global barrier ------------------------------------------------
  sim::Task<void> barrier(Proc& p);

  // --- process lifecycle ---------------------------------------------
  using ProcMain = std::function<sim::Task<void>(Proc&)>;
  /// Spawns one process per compute node; rank == node id.
  void spawn_all(ProcMain main);
  /// Runs the engine to completion; returns the time the last process
  /// finished (the parallel run time used for speedups).
  sim::SimTime run_all();

  Proc& proc(int rank) { return *procs_[static_cast<std::size_t>(rank)]; }
  /// Time the last process finished, and how many have finished.
  sim::SimTime last_finish() const { return last_finish_; }
  int finished_procs() const { return finished_; }

  /// Publishes runtime-layer counters (RPC calls, broadcasts applied,
  /// sequence numbers issued, barrier rounds) into `m` under the
  /// `orca/` scope. Assignment semantics — call once per finished run.
  void publish_metrics(trace::MetricsSnapshot& m) const;

 private:
  struct RpcRequest {
    std::uint64_t call_id = 0;
    net::NodeId caller = 0;
    std::size_t reply_bytes = 0;
    sim::SimTime service_time = 0;
    std::function<std::shared_ptr<const void>()> op;
    /// Set instead of `op` for blocking (coroutine) handlers.
    std::function<sim::Task<std::shared_ptr<const void>>()> op_blocking;
  };
  struct RpcReply {
    std::uint64_t call_id;
    std::shared_ptr<const void> result;
  };
  struct ObjectWaiter {
    std::function<bool()> pred;
    sim::Future<> fut;
  };
  /// What an rpc() caller resumes with (see orca/recovery.hpp).
  using RpcWait = Attempt<std::shared_ptr<const void>>;
  /// A served call's reply, kept to answer its retries.
  struct ServedReply {
    std::shared_ptr<const void> result;
    std::size_t reply_bytes = 0;
  };

  /// The one RPC path behind rpc() and rpc_blocking(): runs `req`
  /// locally when its caller is `target`, otherwise ships it and waits
  /// for the reply (retrying on timeout when recovery is armed). rpc()
  /// and rpc_blocking() are plain functions returning this task, so a
  /// call adds no coroutine layer of its own.
  sim::Task<std::shared_ptr<const void>> call(net::NodeId target, std::size_t request_bytes,
                                              RpcRequest req);
  void install_handlers();
  void handle_rpc_request(net::NodeId at, RpcRequest req);
  sim::Task<void> serve_blocking(net::NodeId at, RpcRequest req);
  void send_reply(net::NodeId at, net::NodeId caller, std::uint64_t call_id,
                  std::size_t reply_bytes, std::shared_ptr<const void> result);
  void release_barrier();
  sim::Task<void> run_proc(ProcMain main, Proc& p);

  void send_rpc_request(net::NodeId caller, net::NodeId target, std::size_t request_bytes,
                        std::shared_ptr<const void> payload);
  /// Hard-failure fan-out for one cluster (runs in that cluster's
  /// context): errors its parked futures (pending RPCs, barrier
  /// waiters, object waiters), poisons its mailboxes, and forwards to
  /// the sequencer and broadcast engine, so the cluster's suspended
  /// processes unwind cooperatively instead of leaking their frames.
  void fail_cluster_waiters(net::ClusterId cluster, std::exception_ptr e);
  /// The injector's on_fail callback: fails `cluster`'s waiters now and
  /// schedules the failure onto every other cluster one WAN latency later.
  void on_hard_failure(net::ClusterId cluster, const net::FailureInfo& info);

  net::ClusterId cluster_of(net::NodeId n) const { return net_->topology().cluster_of(n); }

  net::Network* net_;
  net::FaultInjector* faults_ = nullptr;
  bool recovery_on_ = false;
  std::unique_ptr<Sequencer> seq_;
  std::unique_ptr<coll::Engine> coll_;
  std::unique_ptr<BroadcastEngine> bcast_;
  std::unique_ptr<adapt::Engine> adaptive_;

  std::vector<std::unique_ptr<HolderBase>> holders_;
  // waiters_[object][node]: predicate waiters, touched only in the
  // node's cluster context (registered by the node's proc, re-checked
  // by the broadcast apply at that node).
  std::vector<std::vector<std::vector<ObjectWaiter>>> waiters_;

  // RPC tables. rpc_calls_ counts the remote calls made and is the last
  // call id minted. Pending futures are indexed by the caller's cluster,
  // the unit a hard failure errors. Call ids are unique across the run
  // and a retry goes to the same server, so one duplicate cache serves
  // every node.
  std::uint64_t rpc_calls_ = 0;
  std::vector<std::map<std::uint64_t, sim::Future<RpcWait>>> pending_rpcs_;
  ServedTable<ServedReply> served_rpcs_;

  // Barrier service state. The arrival counter and generation belong to
  // the root (rank 0) context; waiters are sharded per node, keyed by
  // the node's local generation.
  int barrier_arrivals_ = 0;
  std::uint64_t barrier_generation_ = 0;
  std::vector<std::map<std::uint64_t, sim::Future<>>> barrier_waiters_;  // per node
  std::vector<std::uint64_t> barrier_local_gen_;

  std::vector<std::unique_ptr<Proc>> procs_;
  sim::SimTime last_finish_ = 0;
  int finished_ = 0;
  int failed_ = 0;                      // processes unwound by a hard failure
  std::vector<int> cluster_finished_;  // finished processes per cluster
};

}  // namespace alb::orca
