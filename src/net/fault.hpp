#pragma once
// Deterministic WAN fault injection.
//
// A FaultPlan describes everything that can go wrong on the simulated
// network: per-link-class latency/bandwidth jitter, probabilistic loss
// of *droppable* traffic, timed WAN link-flap windows, and gateway
// brown-out intervals. The plan is part of AppConfig, and every random
// decision is drawn from a dedicated xoshiro stream seeded from the
// run's seed, so a (seed, plan) pair reproduces the same drops and the
// same trace hash — including across campaign `--jobs` values. A
// disabled plan constructs no injector at all: the fault path then
// costs one null-pointer check and the run is byte-identical to a
// build without this subsystem.
//
// Per-cluster streams: every decision site executes in exactly one
// cluster's engine context, and the injector keeps one RNG stream, one
// force-drop index and one failure slot *per cluster*, indexed by that
// context. Each cluster consumes its streams in its own canonical event
// order; which draw a message gets is part of the pinned output.
// Drop-size histograms are three registry instruments, one per link
// class, added to as each drop happens.
//
// Traffic is split into two service classes. Messages whose sender can
// recover end-to-end (RPC requests/replies and sequencer
// request/grant, when the Orca recovery protocol is armed) are marked
// `Message::droppable` and are the only ones loss, flaps and brown-outs
// may discard. Everything else — ordered broadcast data, barrier
// control, the sequencer token, raw Data messages — is treated as
// stream traffic: it can be jittered, slowed and held until a flap
// window closes, but never dropped, so protocols without a retry path
// cannot wedge. docs/RESILIENCE.md specifies the full model.

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "trace/metrics.hpp"

namespace alb::net {

/// Link classes faults are keyed on (matches the link inventory:
/// Myrinet LAN + broadcast, Fast Ethernet access + delivery, WAN PVCs).
enum class LinkClass : std::uint8_t { Lan, Access, Wan };

constexpr const char* to_string(LinkClass c) {
  switch (c) {
    case LinkClass::Lan: return "lan";
    case LinkClass::Access: return "access";
    case LinkClass::Wan: return "wan";
  }
  return "?";
}

/// Fault knobs for one link class. Jitter is one-sided (a link is never
/// faster than its nominal parameters): the charged time becomes
/// `t * (1 + U[0, jitter))`.
struct LinkFaults {
  /// Probability a droppable message is discarded on this class.
  double loss = 0.0;
  /// Relative one-sided jitter on propagation latency.
  double latency_jitter = 0.0;
  /// Relative one-sided jitter on serialization (effective bandwidth).
  double bandwidth_jitter = 0.0;

  bool any() const { return loss > 0.0 || latency_jitter > 0.0 || bandwidth_jitter > 0.0; }
};

/// A WAN circuit outage: during [start, end) the matching gateway-pair
/// circuits carry nothing. Droppable traffic hitting the circuit is
/// discarded; stream traffic is held at the gateway and re-attempted
/// when the window closes.
struct FlapWindow {
  /// Source/destination cluster filter; -1 matches any cluster.
  ClusterId from = -1;
  ClusterId to = -1;
  sim::SimTime start = 0;
  sim::SimTime end = 0;

  bool covers(ClusterId f, ClusterId t, sim::SimTime now) const {
    return now >= start && now < end && (from < 0 || from == f) && (to < 0 || to == t);
  }
};

/// A gateway brown-out: during [start, end) the cluster's gateway
/// forwards each message `slow_factor` times slower and discards
/// droppable traffic with an extra probability.
struct Brownout {
  /// Affected cluster; -1 means every gateway.
  ClusterId cluster = -1;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  double slow_factor = 1.0;
  double extra_loss = 0.0;

  bool covers(ClusterId c, sim::SimTime now) const {
    return now >= start && now < end && (cluster < 0 || cluster == c);
  }
};

/// Orca recovery-protocol knobs (meaningful only when the plan can drop
/// traffic — jitter-only plans never arm timers).
struct RecoveryParams {
  /// First-attempt RPC reply timeout; grows by `backoff` per retry.
  sim::SimTime rpc_timeout = sim::milliseconds(10);
  /// First-attempt sequencer-grant timeout.
  sim::SimTime seq_timeout = sim::milliseconds(10);
  /// Exponential backoff multiplier applied after each timeout.
  double backoff = 2.0;
  /// Total send attempts before the run hard-fails.
  int max_attempts = 8;
};

struct FaultPlan {
  /// Master switch. False means no injector is constructed at all and
  /// the run is byte-identical to a plan-free run.
  bool enabled = false;

  LinkFaults lan;
  LinkFaults access;
  LinkFaults wan;
  std::vector<FlapWindow> flaps;
  std::vector<Brownout> brownouts;
  RecoveryParams recovery;

  /// Deterministic targeted drops for tests: the i-th droppable message
  /// (0-based, counted per *source cluster*) reaching the WAN loss
  /// checkpoint is discarded iff i is listed here — independent of the
  /// probabilistic `loss` draw. `force_drop_from` restricts the rule to messages
  /// sourced from one cluster (-1 applies it to every cluster's index).
  std::vector<std::uint64_t> force_drop;
  ClusterId force_drop_from = -1;

  /// True when the plan can discard traffic, i.e. the Orca runtime must
  /// arm its timeout/retry protocol. Jitter-only plans return false and
  /// keep the event stream timer-free.
  bool can_drop() const {
    if (!enabled) return false;
    if (lan.loss > 0 || access.loss > 0 || wan.loss > 0) return true;
    if (!flaps.empty() || !force_drop.empty()) return true;
    for (const Brownout& b : brownouts) {
      if (b.extra_loss > 0) return true;
    }
    return false;
  }
};

/// Why and where a run gave up.
struct FailureInfo {
  enum class Kind : std::uint8_t { RpcTimeout, SeqTimeout };
  Kind kind = Kind::RpcTimeout;
  /// Node whose retry budget was exhausted.
  NodeId node = kNoNode;
  /// The RPC call id / sequencer request id that kept timing out.
  std::uint64_t op_id = 0;
  int attempts = 0;

  std::string describe() const;
};

/// Thrown into simulated processes when recovery gives up; the harness
/// converts it into AppResult::RunStatus::HardFailure instead of a hang.
class HardFailure : public std::runtime_error {
 public:
  explicit HardFailure(const FailureInfo& info)
      : std::runtime_error(info.describe()), info_(info) {}
  const FailureInfo& info() const { return info_; }

 private:
  FailureInfo info_;
};

/// One per Network (and therefore per run). Engine-free: callers pass
/// the current simulated time (and the deciding cluster) where a
/// decision depends on it, so the injector can be unit-tested without
/// an event loop.
class FaultInjector {
 public:
  enum class DropCause : std::uint8_t { Loss, Flap, Brownout };

  /// `metrics` (nullable) registers the per-class dropped-bytes
  /// histograms; counters are published later via publish_metrics().
  /// `clusters` sizes the per-cluster RNG/failure shards (1 for
  /// standalone unit tests — every decision then draws stream 0).
  FaultInjector(FaultPlan plan, std::uint64_t seed, trace::Metrics* metrics, int clusters = 1);

  const FaultPlan& plan() const { return plan_; }
  /// True when the Orca runtime must arm timeouts/retries (see
  /// FaultPlan::can_drop).
  bool recovery_active() const { return recovery_active_; }

  const LinkFaults& faults_for(LinkClass c) const;

  // --- per-message decisions (called by Network/Link in the context of
  // cluster `stream`; each cluster consumes its own RNG stream in its
  // canonical event order) ------------------------------------------
  sim::SimTime jitter_latency(LinkClass c, sim::SimTime t, ClusterId stream = 0);
  sim::SimTime jitter_serialize(LinkClass c, sim::SimTime t, ClusterId stream = 0);
  /// Loss decision for one droppable message on class `c`, decided at
  /// cluster `stream` (the message's source cluster for WAN traffic).
  /// For the WAN class this also advances that cluster's force_drop
  /// index.
  bool lose(LinkClass c, ClusterId stream = 0);
  /// Extra brown-out loss decision with probability `p`, decided at
  /// cluster `stream`.
  bool lose_extra(double p, ClusterId stream = 0);
  /// If a flap window covers (from, to) at `now`, returns its end time.
  std::optional<sim::SimTime> flapped_until(ClusterId from, ClusterId to,
                                            sim::SimTime now) const;
  struct GatewayState {
    double slow_factor = 1.0;
    double extra_loss = 0.0;
  };
  GatewayState gateway_state(ClusterId c, sim::SimTime now) const;

  // --- accounting hooks ------------------------------------------------
  void count_drop(LinkClass c, std::size_t bytes, DropCause cause);
  void count_flap_hold(sim::SimTime delay);
  void count_brownout_slow() { ++brownout_slowed_; }
  void note_retry() { ++retries_; }
  void note_rpc_timeout() { ++rpc_timeouts_; }
  void note_seq_timeout() { ++seq_timeouts_; }
  void note_dup_rpc_request() { ++dup_rpc_requests_; }
  void note_dup_rpc_reply() { ++dup_rpc_replies_; }
  void note_dup_seq_request() { ++dup_seq_requests_; }
  void note_dup_seq_grant() { ++dup_seq_grants_; }

  std::uint64_t drops() const { return drops_loss_ + drops_flap_ + drops_brownout_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t rpc_timeouts() const { return rpc_timeouts_; }
  std::uint64_t seq_timeouts() const { return seq_timeouts_; }
  std::uint64_t dup_rpc_requests() const { return dup_rpc_requests_; }

  // --- hard failure --------------------------------------------------
  /// Records cluster `cluster`'s first failure (at simulated time
  /// `time`, in that cluster's context) and runs the registered fan-out
  /// callbacks for it, which error the cluster's parked waiters and
  /// propagate the failure to the other clusters one WAN latency later.
  /// Idempotent per cluster.
  void fail(ClusterId cluster, sim::SimTime time, FailureInfo info);
  /// Cluster-local failure flag (the form read mid-run, in that
  /// cluster's context).
  bool failed(ClusterId cluster) const {
    return fail_[static_cast<std::size_t>(cluster)].failed;
  }
  /// Whole-run view (any cluster failed). Post-run / sequential use.
  bool failed() const;
  /// The earliest-recorded origin failure, by (time, cluster).
  /// Post-run use.
  const std::optional<FailureInfo>& failure() const;
  /// The HardFailure for cluster `cluster`'s recorded failure, as an
  /// exception_ptr (same object identity for every waiter of that
  /// cluster).
  std::exception_ptr failure_eptr(ClusterId cluster = 0) const;
  /// Registers a callback run once per cluster, at that cluster's first
  /// fail(), in that cluster's context.
  void on_fail(std::function<void(ClusterId, const FailureInfo&)> cb) {
    on_fail_.push_back(std::move(cb));
  }

  /// Publishes the `net/fault.*` counters into `m`. Assignment
  /// semantics — call once per finished run.
  void publish_metrics(trace::Metrics& m) const;

 private:
  /// A cluster's failure slot. Written only in that cluster's engine
  /// context (origin failures locally, propagated ones through a
  /// WAN-latency-delayed event).
  struct ClusterFailure {
    bool failed = false;
    sim::SimTime time = 0;
    bool origin = false;  ///< failed here (vs propagated from elsewhere)
    std::optional<FailureInfo> info;
    std::exception_ptr eptr;
  };

  /// One cluster's decision state.
  struct ClusterStream {
    sim::Rng rng;
    /// Index of the next droppable message from this cluster to reach
    /// the WAN loss checkpoint (the force_drop coordinate system).
    std::uint64_t wan_drop_index = 0;
  };

  FaultPlan plan_;
  bool recovery_active_ = false;
  std::vector<ClusterStream> streams_;
  std::vector<ClusterFailure> fail_;

  std::uint64_t drops_loss_ = 0;
  std::uint64_t drops_flap_ = 0;
  std::uint64_t drops_brownout_ = 0;
  std::uint64_t drops_by_class_[3] = {0, 0, 0};
  std::uint64_t flap_holds_ = 0;
  std::uint64_t flap_hold_ns_ = 0;
  std::uint64_t brownout_slowed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t rpc_timeouts_ = 0;
  std::uint64_t seq_timeouts_ = 0;
  std::uint64_t dup_rpc_requests_ = 0;
  std::uint64_t dup_rpc_replies_ = 0;
  std::uint64_t dup_seq_requests_ = 0;
  std::uint64_t dup_seq_grants_ = 0;

  trace::Histogram* h_drop_bytes_[3] = {nullptr, nullptr, nullptr};

  mutable std::optional<FailureInfo> merged_failure_;  ///< lazy post-run view
  std::vector<std::function<void(ClusterId, const FailureInfo&)>> on_fail_;
};

}  // namespace alb::net
