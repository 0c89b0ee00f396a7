#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "orca/tags.hpp"
#include "trace/causal/causal.hpp"

namespace alb::trace::causal {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::App: return "app";
    case Protocol::Rpc: return "rpc";
    case Protocol::Bcast: return "bcast";
    case Protocol::Seq: return "seq";
    case Protocol::Barrier: return "barrier";
  }
  return "?";
}

Protocol protocol_of_tag(int tag) {
  if (tag >= 0) return Protocol::App;
  switch (tag) {
    case orca::kTagRpcRequest:
    case orca::kTagRpcReply: return Protocol::Rpc;
    case orca::kTagBcastData: return Protocol::Bcast;
    case orca::kTagSeqRequest:
    case orca::kTagSeqReply:
    case orca::kTagSeqToken:
    case orca::kTagSeqMigrate:
    case orca::kTagSeqHint:
    case orca::kTagSeqArm: return Protocol::Seq;
    case orca::kTagBarrierArrive:
    case orca::kTagBarrierRelease: return Protocol::Barrier;
    default: return Protocol::App;
  }
}

const char* to_string(EdgeClass c) {
  switch (c) {
    case EdgeClass::Compute: return "compute";
    case EdgeClass::Serve: return "serve";
    case EdgeClass::Idle: return "idle";
    case EdgeClass::RpcWait: return "rpc.wait";
    case EdgeClass::SeqWait: return "seq.wait";
    case EdgeClass::BarrierWait: return "barrier.wait";
    case EdgeClass::BcastWait: return "bcast.wait";
    case EdgeClass::RecvWait: return "recv.wait";
    case EdgeClass::FaultWait: return "fault.retry";
    case EdgeClass::Lan: return "lan";
    case EdgeClass::Access: return "access";
    case EdgeClass::Gateway: return "gateway";
    case EdgeClass::WanTransfer: return "wan";
    case EdgeClass::CombineWait: return "combine.wait";
    case EdgeClass::FaultHold: return "fault.hold";
    case EdgeClass::Drop: return "fault.drop";
    case EdgeClass::Startup: return "startup";
  }
  return "?";
}

namespace {

using std::string_view;

/// Per-compute-node program-order sweep state.
struct ActorState {
  std::uint32_t last_chain = kNone;
  sim::SimTime compute_until = 0;  ///< absolute end of the last charge
  int seq_open = 0;
  int rpc_open = 0;
  int retry_open = 0;
  int bcast_open = 0;
  bool barrier_wait = false;
  std::uint32_t last_deliver = kNone;
  std::array<std::uint32_t, 5> last_deliver_by_proto{kNone, kNone, kNone, kNone, kNone};
};

/// Per-message-id journey state.
struct MsgState {
  std::uint32_t last = kNone;  ///< last non-deliver journey event
  Protocol proto = Protocol::App;
  bool proto_known = false;
  sim::SimTime queue_pending = 0;  ///< from net.wan.queue, consumed by the hop
};

/// The event names the DAG build reacts to; every other name is Other.
enum class Name : std::uint8_t {
  Other,
  // Message-journey events.
  SendLocal,
  SendLan,
  BcastLan,
  Wan,
  HopGwIn,
  HopWan,
  HopGwOut,
  FaultDrop,
  FaultFlapHold,
  CombineHold,
  Deliver,
  // Metadata and program-state events.
  WanQueue,
  AppCompute,
  SeqGet,
  Rpc,
  RpcRetry,
  RpcTimeout,
  RpcServe,
  Bcast,
  BarrierArrive,
  BarrierRelease,
  ProcFinish,
};

constexpr std::array<std::pair<string_view, Name>, 22> kNames{{
    {"net.send.local", Name::SendLocal},
    {"net.send.lan", Name::SendLan},
    {"net.bcast.lan", Name::BcastLan},
    {"net.wan", Name::Wan},
    {"net.hop.gw_in", Name::HopGwIn},
    {"net.hop.wan", Name::HopWan},
    {"net.hop.gw_out", Name::HopGwOut},
    {"net.fault.drop", Name::FaultDrop},
    {"net.fault.flap_hold", Name::FaultFlapHold},
    {"net.combine.hold", Name::CombineHold},
    {"net.deliver", Name::Deliver},
    {"net.wan.queue", Name::WanQueue},
    {"app.compute", Name::AppCompute},
    {"orca.seq.get", Name::SeqGet},
    {"orca.rpc", Name::Rpc},
    {"orca.rpc.retry", Name::RpcRetry},
    {"orca.rpc.timeout", Name::RpcTimeout},
    {"orca.rpc.serve", Name::RpcServe},
    {"orca.bcast", Name::Bcast},
    {"orca.barrier.arrive", Name::BarrierArrive},
    {"orca.barrier.release", Name::BarrierRelease},
    {"orca.proc.finish", Name::ProcFinish},
}};

bool is_journey(Name n) { return n >= Name::SendLocal && n <= Name::Deliver; }

/// Names whose aux field carries the endpoint tag.
bool carries_tag(Name n, EventPhase ph) {
  return n == Name::SendLocal || n == Name::SendLan || n == Name::BcastLan ||
         n == Name::Deliver || (n == Name::Wan && ph == EventPhase::Begin);
}

EdgeClass hop_class(Name from, Name to) {
  if (to == Name::FaultDrop) return EdgeClass::Drop;
  if (from == Name::FaultFlapHold) return EdgeClass::FaultHold;
  if (from == Name::CombineHold) return EdgeClass::CombineWait;
  if (from == Name::Wan) return EdgeClass::Access;  // source node → gateway
  if (from == Name::HopWan) return EdgeClass::WanTransfer;
  // gw_in → hop.wan / flap_hold, gw_out → wan End: forwarding overhead.
  return EdgeClass::Gateway;
}

/// Interns TraceEvent::name pointers. Each distinct pointer is looked
/// up by *content* once, because identical literals are not guaranteed
/// merged across TUs: pointers with equal content share one id and
/// kind. After that an event costs one probe of a small open-addressed
/// table keyed on the pointer.
class NameTable {
 public:
  struct Entry {
    const char* ptr = nullptr;
    std::uint32_t id = 0;  ///< dense per distinct content
    Name kind = Name::Other;
  };

  const Entry& operator()(const char* p) {
    std::size_t i = slot(p);
    while (slots_[i].ptr != p) {
      if (slots_[i].ptr == nullptr) return insert(i, p);
      i = (i + 1) & (slots_.size() - 1);
    }
    return slots_[i];
  }

 private:
  std::size_t slot(const char* p) const {
    const auto h = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p)) *
                   0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h >> 40) & (slots_.size() - 1);
  }

  const Entry& insert(std::size_t i, const char* p) {
    Entry e;
    e.ptr = p;
    const string_view text(p);
    e.id = ids_.try_emplace(text, static_cast<std::uint32_t>(ids_.size())).first->second;
    for (const auto& [literal, kind] : kNames) {
      if (literal == text) e.kind = kind;
    }
    slots_[i] = e;
    if (++used_ * 2 > slots_.size()) {
      std::vector<Entry> old(slots_.size() * 2);
      old.swap(slots_);
      for (const Entry& o : old) {
        if (o.ptr == nullptr) continue;
        std::size_t j = slot(o.ptr);
        while (slots_[j].ptr != nullptr) j = (j + 1) & (slots_.size() - 1);
        slots_[j] = o;
      }
      return (*this)(p);
    }
    return slots_[i];
  }

  std::vector<Entry> slots_ = std::vector<Entry>(64);  ///< size: a power of two
  std::size_t used_ = 0;
  std::unordered_map<string_view, std::uint32_t> ids_;
};

/// Open-span key of the normalization pass: (interned name, span id).
struct SpanKey {
  std::uint32_t name;
  std::uint64_t id;
  bool operator==(const SpanKey&) const = default;
};
struct SpanKeyHash {
  std::size_t operator()(const SpanKey& k) const {
    return static_cast<std::size_t>((k.id ^ (std::uint64_t{k.name} << 56)) *
                                    0x9e3779b97f4a7c15ull);
  }
};

}  // namespace

Dag build_dag(const Trace& trace, const net::TopologyConfig& net_cfg) {
  Dag dag;
  dag.net = net_cfg;
  const net::Topology topo(net_cfg);

  // --- normalization: drop End events whose Begin was truncated away
  // by ring wraparound, so every surviving End has a matching earlier
  // Begin (pinned by causal_test.cpp). Spans are keyed by interned name
  // content, so equal literals from different TUs match. The pass also
  // records each kept event's name kind and sizes the actor table.
  NameTable names;
  std::vector<Name> kinds;
  kinds.reserve(trace.events.size());
  dag.events.reserve(trace.events.size());
  std::int32_t max_actor = -1;
  {
    std::unordered_map<SpanKey, int, SpanKeyHash> open;
    for (const TraceEvent& e : trace.events) {
      const NameTable::Entry& name = names(e.name);
      if (e.phase == EventPhase::Begin) {
        ++open[SpanKey{name.id, e.id}];
      } else if (e.phase == EventPhase::End) {
        auto it = open.find(SpanKey{name.id, e.id});
        if (it == open.end()) {
          ++dag.orphan_ends;
          continue;
        }
        if (--it->second == 0) open.erase(it);
      }
      dag.events.push_back(e);
      kinds.push_back(name.kind);
      max_actor = std::max(max_actor, e.actor);
    }
  }

  const std::uint32_t n = static_cast<std::uint32_t>(dag.events.size());
  dag.in_program.assign(n, kNone);
  dag.in_message.assign(n, kNone);
  dag.in_wake.assign(n, kNone);
  // An event has at most one in-edge of each kind, so this never
  // reallocates.
  dag.edges.reserve(3 * static_cast<std::size_t>(n));

  // Actor states, dense by node id; slot 0 holds every actor-less (-1)
  // event, whose state no program chain reads.
  std::vector<ActorState> actors(static_cast<std::size_t>(max_actor) + 2);
  auto actor_state = [&actors](std::int32_t actor) -> ActorState& {
    return actors[actor < 0 ? 0 : static_cast<std::size_t>(actor) + 1];
  };
  std::unordered_map<std::uint64_t, MsgState> msgs;

  auto add_edge = [&](Edge e) -> std::uint32_t {
    assert(e.dur >= 0 && "dependency edges never go backward in sim time");
    const std::uint32_t idx = static_cast<std::uint32_t>(dag.edges.size());
    dag.edges.push_back(e);
    return idx;
  };

  std::uint32_t last_finish = kNone;
  for (std::uint32_t i = 0; i < n; ++i) {
    const TraceEvent& e = dag.events[i];
    const Name name = kinds[i];

    // WAN queue-wait metadata: attached to the message, not a DAG node.
    if (name == Name::WanQueue) {
      msgs[e.id].queue_pending = static_cast<sim::SimTime>(e.arg);
      continue;
    }

    const bool journey = is_journey(name);
    const bool deliver = name == Name::Deliver;

    if (journey) {
      MsgState& ms = msgs[e.id];
      if (!ms.proto_known && carries_tag(name, e.phase)) {
        ms.proto = protocol_of_tag(e.aux);
        ms.proto_known = true;
      }
      if (ms.last != kNone) {
        const TraceEvent& prev = dag.events[ms.last];
        Edge edge;
        edge.from = ms.last;
        edge.to = i;
        edge.kind = EdgeKind::Message;
        edge.proto = ms.proto;
        edge.dur = e.time - prev.time;
        edge.bytes = e.arg;
        const Name pname = kinds[ms.last];
        if (deliver) {
          // Fan-out point: several delivers can hang off one journey
          // event (LAN broadcast, WAN re-broadcast), so `last` is not
          // advanced. The final hop into the destination cluster is the
          // broadcast link for ordered-broadcast traffic, the delivery
          // (access) link otherwise.
          if (pname == Name::Wan) {
            edge.cls = ms.proto == Protocol::Bcast ? EdgeClass::Lan : EdgeClass::Access;
          } else {
            edge.cls = EdgeClass::Lan;
          }
          dag.in_message[i] = add_edge(edge);
        } else {
          edge.cls = hop_class(pname, name);
          if (edge.cls == EdgeClass::WanTransfer) {
            // Decompose the circuit crossing: queue wait was recorded
            // explicitly; propagation latency comes from the topology
            // (capped by what actually elapsed); serialization — which
            // includes the per-message overhead and any injected
            // jitter — is the remainder.
            edge.wan_queue = std::min(ms.queue_pending, edge.dur);
            const sim::SimTime rest = edge.dur - edge.wan_queue;
            edge.wan_lat = std::min(net_cfg.wan.latency, rest);
            edge.wan_ser = rest - edge.wan_lat;
            ms.queue_pending = 0;
          }
          dag.in_message[i] = add_edge(edge);
          ms.last = i;
        }
      } else if (!deliver) {
        ms.last = i;  // journey head (or truncated restart)
      }
    }

    if (deliver) {
      ActorState& as = actor_state(e.actor);
      as.last_deliver = i;
      as.last_deliver_by_proto[static_cast<std::size_t>(protocol_of_tag(e.aux))] = i;
      if (e.aux == Recorder::clamp_tag(orca::kTagBarrierRelease)) as.barrier_wait = false;
      continue;
    }

    // Program chains cover compute nodes only: gateway events belong to
    // message journeys (gateways are store-and-forward devices whose
    // unrelated messages must not order against each other), and
    // actor-less engine events carry no placement.
    if (e.actor < 0 || !topo.is_compute(e.actor)) continue;

    ActorState& as = actor_state(e.actor);
    if (as.last_chain != kNone) {
      const std::uint32_t u = as.last_chain;
      const TraceEvent& prev = dag.events[u];
      Edge edge;
      edge.from = u;
      edge.to = i;
      edge.kind = EdgeKind::Program;
      edge.dur = e.time - prev.time;
      edge.work = std::clamp<sim::SimTime>(as.compute_until - prev.time, 0, edge.dur);
      if (edge.work >= edge.dur) {
        edge.cls = EdgeClass::Compute;
        edge.work = edge.dur;
      } else {
        // Trailing wait: classed by the node's open protocol state,
        // innermost first. A gap that ends in a timeout instant is
        // retry cost regardless of what else is open.
        Protocol pref = Protocol::App;
        if (as.retry_open > 0 || name == Name::RpcTimeout) {
          edge.cls = EdgeClass::FaultWait;
          pref = Protocol::Rpc;
        } else if (as.seq_open > 0) {
          edge.cls = EdgeClass::SeqWait;
          pref = Protocol::Seq;
        } else if (as.barrier_wait) {
          edge.cls = EdgeClass::BarrierWait;
          pref = Protocol::Barrier;
        } else if (as.rpc_open > 0) {
          edge.cls = EdgeClass::RpcWait;
          pref = Protocol::Rpc;
        } else if (as.bcast_open > 0) {
          edge.cls = EdgeClass::BcastWait;
          pref = Protocol::Bcast;
        } else if (kinds[u] == Name::RpcServe) {
          edge.cls = EdgeClass::Serve;  // service time at the callee
        } else {
          edge.cls = as.last_deliver != kNone && as.last_deliver > u ? EdgeClass::RecvWait
                                                                     : EdgeClass::Idle;
        }
        // Bind the wait to the delivery that ended it, if one landed in
        // the gap: prefer the protocol being waited on, fall back to
        // the newest delivery of any kind.
        if (edge.cls != EdgeClass::Serve) {
          std::uint32_t d = as.last_deliver_by_proto[static_cast<std::size_t>(pref)];
          if (d == kNone || d <= u) d = as.last_deliver;
          if (d != kNone && d > u) {
            edge.wake_bound = true;
            Edge wake;
            wake.from = d;
            wake.to = i;
            wake.kind = EdgeKind::Wake;
            wake.cls = edge.cls;
            wake.proto = pref;
            wake.dur = e.time - dag.events[d].time;
            dag.in_wake[i] = add_edge(wake);
          }
        }
      }
      dag.in_program[i] = add_edge(edge);
    }
    as.last_chain = i;
    dag.sink = i;  // events are time-ordered: the last chain event wins
    dag.end = e.time;

    // State transitions take effect for the *next* gap at this node.
    const int step = e.phase == EventPhase::Begin ? 1 : -1;
    auto count = [step](int& open) {
      if (step > 0 || open > 0) open += step;
    };
    switch (name) {
      case Name::ProcFinish: last_finish = i; break;
      case Name::AppCompute:
        as.compute_until = e.time + static_cast<sim::SimTime>(e.arg);
        break;
      case Name::SeqGet: count(as.seq_open); break;
      case Name::Rpc: count(as.rpc_open); break;
      case Name::RpcRetry: count(as.retry_open); break;
      case Name::Bcast: count(as.bcast_open); break;
      case Name::BarrierArrive: as.barrier_wait = true; break;
      // Recorded at node 0 while releasing: rank 0's own wait ends here.
      case Name::BarrierRelease: as.barrier_wait = false; break;
      default: break;
    }
  }

  // Anchor the sink to run completion: control traffic that outlives
  // the last process — e.g. the rotating sequencer's token finishing
  // its grant-free revolution before parking — is cooldown, not part of
  // any cause chain to a finish, and must not stretch the path.
  if (last_finish != kNone) {
    dag.sink = last_finish;
    dag.end = dag.events[last_finish].time;
  }

  return dag;
}

}  // namespace alb::trace::causal
