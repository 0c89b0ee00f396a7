#pragma once
// Global sequence-number services for totally-ordered broadcast.
//
// The Orca system orders all replicated-object writes through a single
// global sequence. The paper discusses three strategies
// (SequencerKind), built from two protocols:
//
//  * Centralized — one sequencer machine; cheap on a single cluster, a
//    WAN roundtrip per broadcast for every remote cluster. Built as a
//    migrating sequencer whose demand threshold is never reached: it
//    moves only on hint_migrate(), or on demand once an adaptive arm
//    lowers its threshold. Only ASP's migrating variant calls the
//    former, and only --adapt sends the latter.
//  * RotatingSequencer — "a distributed sequencer (one per cluster),
//    allowing each cluster to broadcast in turn" (§2): a token carrying
//    the next sequence number moves between per-cluster sequencers on
//    demand. Better than centralized on a WAN, but a sender whose
//    cluster does not hold the token still stalls for WAN hops.
//  * MigratingSequencer — the ASP optimization (§4.3): a centralized
//    sequencer that migrates to the cluster currently producing
//    broadcasts, making the common get-sequence local and allowing the
//    sender to pipeline computation with WAN delivery.
//
// Protocol messages are charged to the network as Control traffic. As in
// any simulator, protocol *state* lives in one address space; every
// state transition that would require a message in the real system sends
// one here.
//
// State placement: sequencer state is either kept per cluster or per
// node (request queues, duplicate caches, location hints), or it
// travels between clusters with the right to issue (the rotating
// token's counter, the migrating sequencer's counter and grant cache).
// Every location decision travels by message: the migrating sequencer
// routes requests through per-cluster hints and per-node forwarding
// pointers instead of reading a global location, and those messages are
// part of the pinned schedule. Request ids come from one run-wide
// counter.

#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>

#include "net/network.hpp"
#include "sim/future.hpp"
#include "sim/task.hpp"

namespace alb::orca {

enum class SequencerKind { Centralized, Rotating, Migrating };

class Sequencer {
 public:
  virtual ~Sequencer() = default;

  /// Obtains the next global sequence number on behalf of `node`.
  virtual sim::Task<std::uint64_t> get_sequence(net::NodeId node) = 0;

  /// Application hint: broadcasts will come from `node` for a while
  /// (no-op for the rotating sequencer; the others route the hint as a
  /// control message to the active sequencer location).
  virtual void hint_migrate(net::NodeId node) { (void)node; }

  /// Adaptive-policy hook: lower the migrating sequencer's demand
  /// threshold to `threshold`, routed from `from` to the active
  /// location as a control message (kTagSeqArm). No-op for the rotating
  /// sequencer — the adaptive runtime only arms the centralized one it
  /// starts (see orca/adaptive.hpp).
  virtual void adapt_arm(net::NodeId from, int threshold) {
    (void)from;
    (void)threshold;
  }

  /// Hard-failure fan-out for one cluster: errors every get-sequence
  /// call from `cluster`'s nodes parked inside the sequencer (not in
  /// flight on the network) so its caller unwinds. Callers suspended on
  /// in-flight requests are woken by their own retry timers. Called per
  /// cluster, in that cluster's engine context, as the failure
  /// propagates (see src/net/fault.hpp). No-op for sequencers that park
  /// no requests.
  virtual void fail_pending(net::ClusterId cluster, std::exception_ptr e) {
    (void)cluster;
    (void)e;
  }

  /// Sequence numbers issued so far.
  virtual std::uint64_t issued() const = 0;
};

/// Factory. `seq_node` is the initial sequencer location (centralized /
/// migrating); `migrate_threshold` is the number of consecutive
/// same-cluster remote requests that trigger a migration (migrating
/// only; a centralized sequencer never migrates on demand).
std::unique_ptr<Sequencer> make_sequencer(SequencerKind kind, net::Network& net,
                                          net::NodeId seq_node, int migrate_threshold = 2);

}  // namespace alb::orca
