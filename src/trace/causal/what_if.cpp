#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "trace/causal/causal.hpp"

namespace alb::trace::causal {

namespace {

/// Strict positive-double parse of a scenario suffix.
double parse_factor(const std::string& spec, std::size_t prefix_len) {
  const std::string tail = spec.substr(prefix_len);
  errno = 0;
  char* end = nullptr;
  const double k = std::strtod(tail.c_str(), &end);
  if (errno != 0 || end == tail.c_str() || *end != '\0' || !(k > 0.0)) {
    throw std::runtime_error("what-if scenario '" + spec + "': bad factor '" + tail + "'");
  }
  return k;
}

/// How much longer the message edge into event `to` would take under
/// a scenario: its hypothetical minus its observed duration. Only a WAN
/// crossing and, under seq-local, a sequencer message's access and
/// gateway hops change; no other message edge reads its events.
sim::SimTime message_delta(const Dag& dag, std::uint32_t to, const Scenario& s) {
  const Slot& sl = dag.slots[to];
  const bool seq_local = s.seq_local && sl.message_proto == Protocol::Seq;
  const bool leaves_cluster =
      sl.message_cls == EdgeClass::Access || sl.message_cls == EdgeClass::Gateway;
  if (sl.message_cls != EdgeClass::WanTransfer && !(seq_local && leaves_cluster)) return 0;
  const Edge e = dag.edge({to, EdgeKind::Message});
  const net::TopologyConfig& cfg = dag.net;
  if (seq_local) {
    // Sequencer co-located with the writer's cluster: control traffic
    // never crosses the access link or the WAN; the circuit crossing
    // becomes one LAN hop.
    if (e.cls != EdgeClass::WanTransfer) return -e.dur;
    return cfg.lan.latency + cfg.lan.serialize_time(static_cast<std::size_t>(e.bytes)) - e.dur;
  }
  const sim::SimTime lat = s.wan_latency ? std::min(*s.wan_latency, e.wan_lat) : e.wan_lat;
  // The per-message overhead is CPU cost, not bandwidth: it survives a
  // faster circuit (mirrors apply_scenario, which scales only
  // bandwidth_bytes_per_sec).
  const sim::SimTime overhead = std::min(cfg.wan.per_message_overhead, e.wan_ser);
  const sim::SimTime ser =
      overhead +
      static_cast<sim::SimTime>(static_cast<double>(e.wan_ser - overhead) * s.wan_ser_scale);
  const sim::SimTime q =
      static_cast<sim::SimTime>(static_cast<double>(e.wan_queue) * s.wan_queue_scale);
  return q + lat + ser - e.dur;
}

}  // namespace

Scenario parse_scenario(const std::string& spec, const net::TopologyConfig& net) {
  Scenario s;
  s.name = spec;
  if (spec == "wan-lat-eq-lan") {
    s.wan_latency = net.lan.latency;
    return s;
  }
  if (spec == "seq-local") {
    s.seq_local = true;
    s.validatable = false;
    return s;
  }
  if (spec.rfind("wan-bw-x", 0) == 0) {
    const double k = parse_factor(spec, 8);
    s.wan_ser_scale = 1.0 / k;
    s.wan_queue_scale = 1.0 / k;
    return s;
  }
  if (spec.rfind("wan-lat-x", 0) == 0) {
    const double k = parse_factor(spec, 9);
    s.wan_latency = static_cast<sim::SimTime>(static_cast<double>(net.wan.latency) / k);
    return s;
  }
  throw std::runtime_error("unknown what-if scenario '" + spec +
                           "' (known: wan-lat-eq-lan, wan-lat-x<k>, wan-bw-x<k>, seq-local)");
}

std::vector<Scenario> standard_scenarios(const net::TopologyConfig& net) {
  return {parse_scenario("wan-lat-eq-lan", net), parse_scenario("wan-bw-x8", net),
          parse_scenario("seq-local", net)};
}

net::TopologyConfig apply_scenario(const Scenario& s, net::TopologyConfig cfg) {
  if (s.wan_latency) cfg.wan.latency = std::min(*s.wan_latency, cfg.wan.latency);
  if (s.wan_ser_scale != 1.0) {
    cfg.wan.bandwidth_bytes_per_sec /= s.wan_ser_scale;  // ser × 1/k ⇔ bandwidth × k
  }
  return cfg;
}

Projection what_if(const Dag& dag, const Scenario& s) {
  Projection p;
  p.scenario = s;
  p.observed = dag.end;
  const std::uint32_t n = static_cast<std::uint32_t>(dag.events.size());
  // The replay keeps each event's shift, its retimed minus its observed
  // time: an edge that keeps its duration hands its source's shift on
  // unchanged. Events with no predecessor keep their observed time
  // (shift 0): chain heads start at their real start, and a
  // wraparound-truncated prefix is never projected below what actually
  // happened.
  std::vector<sim::SimTime> shift(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Slot& sl = dag.slots[i];
    sim::SimTime v = 0;
    if (sl.program != kNone) {
      // Program waits collapse to their work portion only when a
      // delivery ended them, and the event then follows the delivery
      // (the wake edge's scheduling slack is kept as observed). Timer-
      // driven gaps (compute, service time, retry timeouts) are not
      // message-limited and keep their duration, which makes the
      // retimer exact on communication-free runs.
      v = sl.wake != kNone ? std::max(shift[sl.program] - sl.wait_or_queue, shift[sl.wake])
                           : shift[sl.program];
      if (sl.message != kNone) v = std::max(v, shift[sl.message] + message_delta(dag, i, s));
    } else if (sl.message != kNone) {
      v = shift[sl.message] + message_delta(dag, i, s);
    }
    // Edge weights are never negative, so neither is a retimed time.
    assert(dag.events[i].time + v >= 0);
    shift[i] = v;
  }
  const auto retimed = [&](std::uint32_t i) { return dag.events[i].time + shift[i]; };

  sim::SimTime finish = -1;  // max over proc-finish events
  for (const std::uint32_t i : dag.finishes) finish = std::max(finish, retimed(i));
  if (finish >= 0) {
    p.projected = finish;
  } else {
    sim::SimTime any_chain = -1;  // fallback: max over program-chained events
    for (std::uint32_t i = 0; i < n; ++i) {
      if (dag.slots[i].program != kNone) any_chain = std::max(any_chain, retimed(i));
    }
    p.projected = any_chain >= 0 ? any_chain : dag.end;
  }
  p.speedup = p.projected > 0 ? static_cast<double>(p.observed) / static_cast<double>(p.projected)
                              : 1.0;
  return p;
}

std::vector<HighlightSpan> highlight_track(const CriticalPath& cp) {
  std::vector<HighlightSpan> out;
  for (const Segment& s : cp.segments) {
    if (s.dur() <= 0) continue;
    const std::string label = blame(s.cls, s.proto);
    if (!out.empty() && out.back().label == label && out.back().end == s.begin) {
      out.back().end = s.end;
    } else {
      out.push_back({label, s.begin, s.end});
    }
  }
  return out;
}

}  // namespace alb::trace::causal
