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
// Sequence numbers are dense, so almost every shipment arrives as the
// next one its node must apply: it is applied straight from the shared
// shipment, with no copy. Only an early arrival is copied, into the
// node's reorder ring, and waits there until its predecessors land.
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
  /// Sequence number of an unordered shipment.
  static constexpr std::uint64_t kUnordered = ~std::uint64_t{0};

  /// Payload of a kTagBcastData message: the op and its global sequence
  /// number (kUnordered for broadcast_unordered()).
  struct Shipment {
    std::uint64_t seq;
    BcastOp op;
  };

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
  /// Early arrivals at one node. The op with sequence number s sits in
  /// slots[s & (slots.size() - 1)]; every buffered s lies in
  /// (next_to_apply, next_to_apply + slots.size()). An empty `apply`
  /// marks a free slot. The ring stays unallocated until the node's
  /// first early arrival and doubles whenever one lands too far ahead.
  struct ReorderRing {
    std::vector<BcastOp> slots;
    std::size_t buffered = 0;
  };
  static constexpr std::size_t kRingInitialSlots = 8;

  void disseminate(net::NodeId node, std::size_t bytes, int tag,
                   std::shared_ptr<const void> payload);
  /// Hands ordered op `seq` to `node`: applies it at once if it is the
  /// next in sequence (then every buffered successor), else copies it
  /// into the node's reorder ring.
  void deliver(net::NodeId node, std::uint64_t seq, const BcastOp& op);
  void buffer(std::size_t node, std::uint64_t seq, const BcastOp& op);
  /// Applies `op` as `node`'s next sequence number and wakes its sender.
  void apply_next(net::NodeId node, const BcastOp& op);
  void apply_now(net::NodeId node, const BcastOp& op);

  net::Network* net_;
  Sequencer* seq_;
  coll::Engine* coll_;
  adapt::Engine* adapt_ = nullptr;
  ApplyFn apply_op_;

  // Per compute node: next sequence number to apply and the ring of
  // early arrivals. Every element is only touched in its node's cluster
  // context (shipment handlers run at the receiving node).
  std::vector<std::uint64_t> next_to_apply_;
  std::vector<ReorderRing> reorder_;
  std::vector<std::uint64_t> applied_count_;
  // Per compute node: senders waiting for their own op's in-order local
  // apply, keyed by sequence number.
  std::vector<std::map<std::uint64_t, sim::Future<>>> local_apply_waiters_;
};

}  // namespace alb::orca
