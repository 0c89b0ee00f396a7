#pragma once
// FIFO serialization link.
//
// A Link models one unidirectional transmission resource (a NIC's egress
// path, or a WAN circuit). Messages occupy it back-to-back: transfer()
// queues behind whatever the link is already committed to, holds the link
// for overhead + bytes/bandwidth, then the message propagates for the
// link latency. This "busy-until" treatment gives correct bandwidth
// contention and queueing delay without per-packet events.

#include <cstdint>

#include "net/fault.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace alb::net {

class Link {
 public:
  /// `faults` (nullable) applies the plan's per-class jitter to every
  /// transfer; `cls` selects which class's knobs govern this link.
  /// `stream` is the cluster whose engine context charges this link —
  /// its jitter draws come from that cluster's fault RNG stream, in
  /// that cluster's canonical event order.
  Link(sim::Engine& eng, LinkParams params, FaultInjector* faults = nullptr,
       LinkClass cls = LinkClass::Lan, ClusterId stream = 0)
      : eng_(&eng), params_(params), faults_(faults), cls_(cls), stream_(stream) {}

  const LinkParams& params() const { return params_; }

  /// Charges a transfer starting no earlier than now; returns the
  /// simulated time the message arrives at the far end.
  sim::SimTime transfer(std::size_t bytes) {
    sim::SimTime start = std::max(eng_->now(), next_free_);
    sim::SimTime ser = params_.serialize_time(bytes);
    sim::SimTime lat = params_.latency;
    if (faults_) {
      ser = faults_->jitter_serialize(cls_, ser, stream_);
      lat = faults_->jitter_latency(cls_, lat, stream_);
    }
    queueing_time_ += start - eng_->now();
    busy_time_ += ser;
    next_free_ = start + ser;
    ++messages_;
    bytes_ += bytes;
    return next_free_ + lat;
  }

  /// Earliest time a new transfer could begin serialization.
  sim::SimTime busy_until() const { return next_free_; }

  std::uint64_t messages() const { return messages_; }
  std::uint64_t bytes() const { return bytes_; }
  /// Total serialization time charged (for utilization computation).
  sim::SimTime busy_time() const { return busy_time_; }
  /// Total time messages spent queued waiting for the link.
  sim::SimTime queueing_time() const { return queueing_time_; }

 private:
  sim::Engine* eng_;
  LinkParams params_;
  FaultInjector* faults_;
  LinkClass cls_;
  ClusterId stream_;
  sim::SimTime next_free_ = 0;
  sim::SimTime busy_time_ = 0;
  sim::SimTime queueing_time_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace alb::net
