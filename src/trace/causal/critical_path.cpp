#include <algorithm>
#include <cassert>

#include "trace/causal/causal.hpp"

namespace alb::trace::causal {

std::string blame(EdgeClass cls, Protocol proto) {
  // Control traffic of the ordering protocols is blamed on the
  // protocol, not the wire: a sequence grant crossing the WAN *is*
  // sequencer wait (and co-locating the sequencer removes it, which is
  // exactly what the seq-local scenario models).
  switch (cls) {
    case EdgeClass::Lan:
    case EdgeClass::Access:
    case EdgeClass::Gateway:
    case EdgeClass::WanTransfer:
      if (proto == Protocol::Seq) return "orca/seq.wait";
      if (proto == Protocol::Barrier) return "orca/barrier.wait";
      switch (cls) {
        case EdgeClass::Lan: return "net/lan";
        case EdgeClass::Access: return "net/access";
        case EdgeClass::Gateway: return "net/gateway";
        default: return "net/wan";
      }
    case EdgeClass::CombineWait: return "net/wan.combine.wait";
    case EdgeClass::FaultHold: return "net/fault.hold";
    case EdgeClass::Drop: return "net/fault.drop";
    case EdgeClass::Compute: return "app/compute";
    case EdgeClass::Serve: return "orca/rpc.serve";
    case EdgeClass::Idle: return "app/idle";
    case EdgeClass::RecvWait: return "app/recv.wait";
    case EdgeClass::RpcWait: return "orca/rpc.wait";
    case EdgeClass::SeqWait: return "orca/seq.wait";
    case EdgeClass::BarrierWait: return "orca/barrier.wait";
    case EdgeClass::BcastWait: return "orca/bcast.wait";
    case EdgeClass::FaultWait: return "net/fault.retry";
    case EdgeClass::Startup: return "sim/startup";
  }
  return "?";
}

sim::SimTime CriticalPath::wan_total() const {
  sim::SimTime t = 0;
  for (const auto& [k, v] : by_blame) {
    if (k.rfind("net/wan", 0) == 0) t += v;
  }
  return t;
}

CriticalPath critical_path(const Dag& dag) {
  CriticalPath cp;
  if (dag.sink == kNone) return cp;
  cp.length = dag.end;

  std::vector<Segment> segs;  // collected newest → oldest
  std::uint32_t cur = dag.sink;
  for (;;) {
    const Event& e = dag.events[cur];
    const EdgeRef pe{cur, EdgeKind::Program};

    if (dag.pred(pe) == kNone) {
      const EdgeRef me{cur, EdgeKind::Message};
      if (dag.pred(me) == kNone) break;  // truncated chain / journey head
      // Journey-only event (gateway hop or delivery): follow the
      // message backward.
      const Edge m = dag.edge(me);
      segs.push_back({dag.events[m.from].time, e.time, m.cls, m.proto, me, e.actor, e.name});
      cur = m.from;
      continue;
    }

    const Edge p = dag.edge(pe);
    const Event& u = dag.events[p.from];
    if (p.cls == EdgeClass::Compute || !p.wake_bound) {
      // The whole gap binds to this node's own program: leading work,
      // then a timer/state-driven wait (service time, retry timeout,
      // pure idling) that no delivery ended.
      const sim::SimTime work_end = u.time + p.work;
      if (work_end < e.time) {
        segs.push_back({work_end, e.time, p.cls, p.proto, pe, e.actor, e.name});
      }
      if (p.work > 0) {
        segs.push_back({u.time, work_end, EdgeClass::Compute, p.proto, pe, e.actor, e.name});
      }
      cur = p.from;
      continue;
    }

    // Wake-bound wait: the gap ended when a message arrived. The slice
    // from the delivery to this event keeps the wait's class (it is
    // normally zero-width); the path then detours onto the message.
    const EdgeRef we{cur, EdgeKind::Wake};
    const Edge w = dag.edge(we);
    segs.push_back({dag.events[w.from].time, e.time, p.cls, w.proto, we, e.actor, e.name});
    cur = w.from;
  }

  if (dag.events[cur].time > 0) {
    segs.push_back({0, dag.events[cur].time, EdgeClass::Startup, Protocol::App, EdgeRef{},
                    dag.events[cur].actor, dag.events[cur].name});
  }
  std::reverse(segs.begin(), segs.end());
  cp.segments = std::move(segs);

  for (const Segment& s : cp.segments) {
    if (s.cls == EdgeClass::WanTransfer && s.proto != Protocol::Seq &&
        s.proto != Protocol::Barrier && s.edge.to != kNone) {
      const Edge e = dag.edge(s.edge);
      cp.by_blame["net/wan.queue"] += e.wan_queue;
      cp.by_blame["net/wan.latency"] += e.wan_lat;
      cp.by_blame["net/wan.bandwidth"] += e.wan_ser;
    } else {
      cp.by_blame[blame(s.cls, s.proto)] += s.dur();
    }
  }
  for (const auto& [k, v] : cp.by_blame) {
    cp.by_layer[k.substr(0, k.find('/'))] += v;
  }
  return cp;
}

std::vector<Segment> top_segments(const CriticalPath& cp, std::size_t n) {
  std::vector<Segment> out = cp.segments;
  std::sort(out.begin(), out.end(), [](const Segment& a, const Segment& b) {
    if (a.dur() != b.dur()) return a.dur() > b.dur();
    return a.begin < b.begin;  // deterministic tie-break: earliest first
  });
  if (out.size() > n) out.resize(n);
  return out;
}

}  // namespace alb::trace::causal
