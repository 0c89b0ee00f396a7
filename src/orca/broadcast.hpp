#pragma once
// Totally-ordered broadcast.
//
// Write operations on replicated objects are disseminated as function-
// shipping broadcasts: the sender obtains a global sequence number from
// the active Sequencer, broadcasts {seq, op} to every node (hardware
// broadcast within its cluster, gateway-forwarded broadcast to every
// remote cluster), and every node — including the sender — applies
// operations strictly in sequence order through a reorder buffer. The
// Orca write returns when the operation has been applied locally.
//
// broadcast_unordered() is the asynchronous-broadcast extension the
// paper proposes for ACP (§4.7): no sequencing, immediate local apply,
// fire-and-forget dissemination. Only safe for commutative operations.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "orca/collective.hpp"
#include "orca/sequencer.hpp"
#include "sim/future.hpp"
#include "sim/task.hpp"

namespace alb::orca {

namespace adapt {
class Engine;
}

/// A shipped write operation: the object it targets and the closure to
/// run against each node's local copy.
struct BcastOp {
  int object_id = -1;
  std::function<void(void* state)> apply;
};

class BroadcastEngine {
 public:
  /// `apply_op` is invoked once per (node, operation) in sequence order;
  /// the Runtime points it at the replicated-object registry.
  using ApplyFn = std::function<void(net::NodeId node, const BcastOp& op)>;

  /// `coll` decides how the wide-area half of each dissemination is
  /// routed (flat per-pair copies or a cluster tree).
  BroadcastEngine(net::Network& net, Sequencer& seq, coll::Engine& coll, ApplyFn apply_op);

  /// Ordered broadcast from `node`. Completes when the operation has
  /// been applied to node's own replica (which requires every earlier
  /// operation to have been applied there first).
  sim::Task<void> broadcast(net::NodeId node, std::size_t bytes, BcastOp op);

  /// Unordered broadcast: applies locally now, disseminates without
  /// sequencing, never blocks the caller.
  void broadcast_unordered(net::NodeId node, std::size_t bytes, BcastOp op);

  /// Total operations applied across every node (post-run view).
  std::uint64_t applied_total() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : applied_count_) n += c;
    return n;
  }

  /// Feeds per-cluster sequencer-wait signals to the adaptive policy
  /// engine (null = no instrumentation; the default, byte-identical).
  void set_adapt(adapt::Engine* a) { adapt_ = a; }

  /// Hard-failure fan-out for one cluster: errors every sender on
  /// `cluster`'s nodes waiting for its own op's in-order local apply so
  /// the caller unwinds (see src/net/fault.hpp). Called per cluster, in
  /// that cluster's engine context.
  void fail_pending(net::ClusterId cluster, std::exception_ptr e);

 private:
  struct Shipment {
    std::uint64_t seq;
    BcastOp op;
  };

  void disseminate(net::NodeId node, std::size_t bytes, int tag,
                   std::shared_ptr<const void> payload);
  void enqueue(net::NodeId node, std::uint64_t seq, BcastOp op);
  void drain(net::NodeId node);
  void apply_now(net::NodeId node, const BcastOp& op);

  net::Network* net_;
  Sequencer* seq_;
  coll::Engine* coll_;
  adapt::Engine* adapt_ = nullptr;
  ApplyFn apply_op_;

  // Per compute node: next sequence number to apply and the buffer of
  // early arrivals. Every element is only touched in its node's cluster
  // context (shipment handlers run at the receiving node).
  std::vector<std::uint64_t> next_to_apply_;
  std::vector<std::map<std::uint64_t, BcastOp>> reorder_;
  std::vector<std::uint64_t> applied_count_;
  // Per compute node: senders waiting for their own op's in-order local
  // apply, keyed by sequence number.
  std::vector<std::map<std::uint64_t, sim::Future<>>> local_apply_waiters_;
};

}  // namespace alb::orca
