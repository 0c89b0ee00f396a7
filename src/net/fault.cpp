#include "net/fault.hpp"

#include <algorithm>
#include <cassert>

namespace alb::net {

namespace {

/// SplitMix64 finalizer; decorrelates the per-cluster streams from one
/// another without consuming draws.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::string FailureInfo::describe() const {
  std::string what;
  switch (kind) {
    case Kind::RpcTimeout: what = "rpc to remote object"; break;
    case Kind::SeqTimeout: what = "sequencer get-sequence"; break;
  }
  return "hard failure: " + what + " from node " + std::to_string(node) + " (op " +
         std::to_string(op_id) + ") timed out after " + std::to_string(attempts) + " attempts";
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed, int clusters)
    : plan_(std::move(plan)), recovery_active_(plan_.can_drop()) {
  assert(plan_.enabled && "construct an injector only for enabled plans");
  assert(clusters >= 1);
  streams_.resize(static_cast<std::size_t>(clusters));
  fail_.resize(static_cast<std::size_t>(clusters));
  for (std::size_t c = 0; c < streams_.size(); ++c) {
    // Decorrelate from the workload streams (procs reseed at 0x5eed0000):
    // the fault streams must not replay an application's draws. Cluster
    // 0 keeps the legacy seed salt so single-stream unit tests pin the
    // historical draw sequence; higher clusters mix their index in.
    const std::uint64_t base = seed ^ 0xfa017'5eedull;
    streams_[c].rng.reseed(c == 0 ? base : base ^ mix64(static_cast<std::uint64_t>(c)));
  }
}

const LinkFaults& FaultInjector::faults_for(LinkClass c) const {
  switch (c) {
    case LinkClass::Lan: return plan_.lan;
    case LinkClass::Access: return plan_.access;
    case LinkClass::Wan: return plan_.wan;
  }
  return plan_.lan;
}

sim::SimTime FaultInjector::jitter_latency(LinkClass c, sim::SimTime t, ClusterId stream) {
  const double j = faults_for(c).latency_jitter;
  if (j <= 0.0 || t <= 0) return t;
  sim::Rng& rng = streams_[static_cast<std::size_t>(stream)].rng;
  return t + static_cast<sim::SimTime>(static_cast<double>(t) * j * rng.uniform());
}

sim::SimTime FaultInjector::jitter_serialize(LinkClass c, sim::SimTime t, ClusterId stream) {
  const double j = faults_for(c).bandwidth_jitter;
  if (j <= 0.0 || t <= 0) return t;
  sim::Rng& rng = streams_[static_cast<std::size_t>(stream)].rng;
  return t + static_cast<sim::SimTime>(static_cast<double>(t) * j * rng.uniform());
}

bool FaultInjector::lose(LinkClass c, ClusterId stream) {
  ClusterStream& s = streams_[static_cast<std::size_t>(stream)];
  if (c == LinkClass::Wan && !plan_.force_drop.empty()) {
    const std::uint64_t idx = s.wan_drop_index++;
    if ((plan_.force_drop_from < 0 || plan_.force_drop_from == stream) &&
        std::find(plan_.force_drop.begin(), plan_.force_drop.end(), idx) !=
            plan_.force_drop.end()) {
      return true;
    }
  } else if (c == LinkClass::Wan) {
    ++s.wan_drop_index;
  }
  const double p = faults_for(c).loss;
  if (p <= 0.0) return false;
  return s.rng.uniform() < p;
}

bool FaultInjector::lose_extra(double p, ClusterId stream) {
  if (p <= 0.0) return false;
  return streams_[static_cast<std::size_t>(stream)].rng.uniform() < p;
}

std::optional<sim::SimTime> FaultInjector::flapped_until(ClusterId from, ClusterId to,
                                                         sim::SimTime now) const {
  std::optional<sim::SimTime> until;
  for (const FlapWindow& w : plan_.flaps) {
    // Overlapping windows extend the outage to the latest end.
    if (w.covers(from, to, now) && (!until || w.end > *until)) until = w.end;
  }
  return until;
}

FaultInjector::GatewayState FaultInjector::gateway_state(ClusterId c, sim::SimTime now) const {
  GatewayState gs;
  for (const Brownout& b : plan_.brownouts) {
    if (!b.covers(c, now)) continue;
    // Overlapping brown-outs compose to the worst of each effect.
    gs.slow_factor = std::max(gs.slow_factor, b.slow_factor);
    gs.extra_loss = std::max(gs.extra_loss, b.extra_loss);
  }
  return gs;
}

void FaultInjector::count_drop(LinkClass c, std::size_t bytes, DropCause cause) {
  switch (cause) {
    case DropCause::Loss: ++drops_loss_; break;
    case DropCause::Flap: ++drops_flap_; break;
    case DropCause::Brownout: ++drops_brownout_; break;
  }
  const auto ci = static_cast<std::size_t>(c);
  ++drops_by_class_[ci];
  drop_bytes_[ci].add(bytes);
}

void FaultInjector::count_flap_hold(sim::SimTime delay) {
  ++flap_holds_;
  flap_hold_ns_ += static_cast<std::uint64_t>(delay);
}

void FaultInjector::fail(ClusterId cluster, sim::SimTime time, FailureInfo info) {
  ClusterFailure& f = fail_[static_cast<std::size_t>(cluster)];
  if (f.failed) return;  // first failure per cluster wins; later give-ups just unwind
  f.failed = true;
  f.time = time;
  f.info = info;
  f.eptr = std::make_exception_ptr(HardFailure(info));
  // Fan out: error this cluster's parked waiters (and let the runtime
  // propagate to other clusters one WAN latency later). Copying the list
  // keeps a callback from re-entering the loop.
  const std::vector<std::function<void(ClusterId, const FailureInfo&)>> cbs = on_fail_;
  for (const auto& cb : cbs) cb(cluster, info);
}

bool FaultInjector::failed() const {
  for (const ClusterFailure& f : fail_) {
    if (f.failed) return true;
  }
  return false;
}

const std::optional<FailureInfo>& FaultInjector::failure() const {
  // Earliest (time, cluster) recorded failure. Propagated copies carry
  // the origin's info, so whichever slot wins describes a real origin.
  merged_failure_.reset();
  sim::SimTime best = 0;
  for (const ClusterFailure& f : fail_) {
    if (!f.failed) continue;
    if (!merged_failure_ || f.time < best) {
      merged_failure_ = f.info;
      best = f.time;
    }
  }
  return merged_failure_;
}

std::exception_ptr FaultInjector::failure_eptr(ClusterId cluster) const {
  const ClusterFailure& f = fail_[static_cast<std::size_t>(cluster)];
  assert(f.eptr && "failure_eptr() before fail() for this cluster");
  return f.eptr;
}

void FaultInjector::publish_metrics(trace::MetricsSnapshot& m) const {
  m.set_counter("net/fault.drops", drops());
  m.set_counter("net/fault.drops.loss", drops_loss_);
  m.set_counter("net/fault.drops.flap", drops_flap_);
  m.set_counter("net/fault.drops.brownout", drops_brownout_);
  m.set_counter("net/fault.drops.lan", drops_by_class_[0]);
  m.set_counter("net/fault.drops.access", drops_by_class_[1]);
  m.set_counter("net/fault.drops.wan", drops_by_class_[2]);
  m.set_counter("net/fault.holds.flap", flap_holds_);
  m.set_counter("net/fault.hold_ns.flap", flap_hold_ns_);
  m.set_counter("net/fault.brownout.slowed", brownout_slowed_);
  m.set_counter("net/fault.retries", retries_);
  m.set_counter("net/fault.timeouts.rpc", rpc_timeouts_);
  m.set_counter("net/fault.timeouts.seq", seq_timeouts_);
  m.set_counter("net/fault.dup.rpc_requests", dup_rpc_requests_);
  m.set_counter("net/fault.dup.rpc_replies", dup_rpc_replies_);
  m.set_counter("net/fault.dup.seq_requests", dup_seq_requests_);
  m.set_counter("net/fault.dup.seq_grants", dup_seq_grants_);
  m.set_counter("net/fault.hard_failures", failed() ? 1 : 0);
  m.set_histogram("net/fault.drop_bytes.lan", drop_bytes_[0]);
  m.set_histogram("net/fault.drop_bytes.access", drop_bytes_[1]);
  m.set_histogram("net/fault.drop_bytes.wan", drop_bytes_[2]);
}

}  // namespace alb::net
