#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

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

/// The hypothetical duration of one edge under a scenario. Program
/// waits collapse to their work portion only when a delivery ended
/// them — timer-driven gaps (compute, service time, retry timeouts)
/// are not message-limited and keep their duration, which makes the
/// retimer exact on communication-free runs.
sim::SimTime scenario_weight(const Edge& e, const Scenario& s, const net::TopologyConfig& cfg) {
  switch (e.kind) {
    case EdgeKind::Program:
      if (e.cls == EdgeClass::Compute) return e.dur;
      return e.wake_bound ? e.work : e.dur;
    case EdgeKind::Wake:
      return e.dur;  // scheduling slack, observed (normally zero)
    case EdgeKind::Message: break;
  }
  if (s.seq_local && e.proto == Protocol::Seq) {
    // Sequencer co-located with the writer's cluster: control traffic
    // never crosses the access link or the WAN; the circuit crossing
    // becomes one LAN hop.
    switch (e.cls) {
      case EdgeClass::Access:
      case EdgeClass::Gateway: return 0;
      case EdgeClass::WanTransfer:
        return cfg.lan.latency + cfg.lan.serialize_time(static_cast<std::size_t>(e.bytes));
      default: return e.dur;
    }
  }
  if (e.cls == EdgeClass::WanTransfer) {
    const sim::SimTime lat = s.wan_latency ? std::min(*s.wan_latency, e.wan_lat) : e.wan_lat;
    // The per-message overhead is CPU cost, not bandwidth: it survives
    // a faster circuit (mirrors apply_scenario, which scales only
    // bandwidth_bytes_per_sec).
    const sim::SimTime overhead = std::min(cfg.wan.per_message_overhead, e.wan_ser);
    const sim::SimTime ser =
        overhead + static_cast<sim::SimTime>(static_cast<double>(e.wan_ser - overhead) *
                                             s.wan_ser_scale);
    const sim::SimTime q =
        static_cast<sim::SimTime>(static_cast<double>(e.wan_queue) * s.wan_queue_scale);
    return q + lat + ser;
  }
  return e.dur;
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
  std::vector<sim::SimTime> nt(n, 0);

  sim::SimTime finish = -1;     // max over proc-finish events
  sim::SimTime any_chain = -1;  // fallback: max over program-chained events
  for (std::uint32_t i = 0; i < n; ++i) {
    bool bound = false;
    sim::SimTime v = 0;
    for (const EdgeKind k : {EdgeKind::Program, EdgeKind::Message, EdgeKind::Wake}) {
      if (dag.pred({i, k}) == kNone) continue;
      const Edge e = dag.edge({i, k});
      v = std::max(v, nt[e.from] + scenario_weight(e, s, dag.net));
      bound = true;
    }
    // Events with no predecessor keep their observed time: chain heads
    // start at their real start, and a wraparound-truncated prefix is
    // never projected below what actually happened.
    nt[i] = bound ? v : dag.events[i].time;
    if (dag.events[i].name == Ev::ProcFinish) finish = std::max(finish, nt[i]);
    if (dag.pred({i, EdgeKind::Program}) != kNone) any_chain = std::max(any_chain, nt[i]);
  }

  if (finish >= 0) {
    p.projected = finish;
  } else if (any_chain >= 0) {
    p.projected = any_chain;
  } else {
    p.projected = dag.end;
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
