#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
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

/// Per-message-id journey state, kept in a JourneyTable slot.
struct MsgState {
  std::uint64_t id = 0;            ///< the table's key
  sim::SimTime queue_pending = 0;  ///< from net.wan.queue, consumed by the hop
  std::uint32_t last = kNone;      ///< last non-deliver journey event
  Protocol proto = Protocol::App;
  bool proto_known = false;
  bool used = false;  ///< the table slot holds a journey
};
static_assert(sizeof(MsgState) == 24, "a journey slot packs into three words");

/// Journey states by message id, in one open-addressed table: linear
/// probing over a power-of-two array that doubles past 3/4 load. It
/// grows with the number of distinct ids, never with their span, and
/// allocates nothing per entry. States are never erased: a journey's
/// deliveries can fan out at any later point.
class JourneyTable {
 public:
  MsgState& operator[](std::uint64_t id) {
    std::size_t i = find(id);
    if (!slots_[i].used) {
      if (4 * (used_ + 1) > 3 * slots_.size()) {
        grow();
        i = find(id);
      }
      slots_[i].id = id;
      slots_[i].used = true;
      ++used_;
    }
    return slots_[i];
  }

 private:
  static constexpr unsigned kFirstBits = 10;

  /// The slot holding `id`, or the empty slot where it belongs.
  std::size_t find(std::uint64_t id) const {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of id * 2^64/phi spread dense
    // and sparse ids alike.
    std::size_t i = static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ull) >> shift_);
    while (slots_[i].used && slots_[i].id != id) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    const std::vector<MsgState> old =
        std::exchange(slots_, std::vector<MsgState>(slots_.size() * 2));
    --shift_;
    for (const MsgState& m : old) {
      if (m.used) slots_[find(m.id)] = m;
    }
  }

  std::vector<MsgState> slots_ = std::vector<MsgState>(std::size_t{1} << kFirstBits);
  unsigned shift_ = 64 - kFirstBits;  ///< keeps the hash's top log2(size) bits
  std::size_t used_ = 0;
};

/// The contiguous journey block of trace::Ev, SendLocal through Deliver.
bool is_journey(Ev n) { return n >= Ev::SendLocal && n <= Ev::Deliver; }

/// Names whose aux field carries the endpoint tag.
bool carries_tag(Ev n, EventPhase ph) {
  return n == Ev::SendLocal || n == Ev::SendLan || n == Ev::BcastLan || n == Ev::Deliver ||
         (n == Ev::Wan && ph == EventPhase::Begin);
}

EdgeClass hop_class(Ev from, Ev to) {
  if (to == Ev::FaultDrop) return EdgeClass::Drop;
  if (from == Ev::FaultFlapHold) return EdgeClass::FaultHold;
  if (from == Ev::CombineHold) return EdgeClass::CombineWait;
  if (from == Ev::Wan) return EdgeClass::Access;  // source node → gateway
  if (from == Ev::HopWan) return EdgeClass::WanTransfer;
  // gw_in → hop.wan / flap_hold, gw_out → wan End: forwarding overhead.
  return EdgeClass::Gateway;
}

/// Open-span key of the normalization pass: (name, span id).
struct SpanKey {
  Ev name;
  std::uint64_t id;
  bool operator==(const SpanKey&) const = default;
};
struct SpanKeyHash {
  std::size_t operator()(const SpanKey& k) const {
    return static_cast<std::size_t>((k.id ^ (static_cast<std::uint64_t>(k.name) << 56)) *
                                    0x9e3779b97f4a7c15ull);
  }
};

}  // namespace

std::size_t Dag::edge_count() const {
  std::size_t n = 0;
  for (const Slot& s : slots) {
    n += (s.program != kNone) + (s.message != kNone) + (s.wake != kNone);
  }
  return n;
}

Dag build_dag(const Trace& trace, const net::TopologyConfig& net_cfg) {
  Dag dag;
  dag.net = net_cfg;
  const net::Topology topo(net_cfg);
  if (trace.events.size() >= kNone) {
    throw std::length_error("build_dag: a trace of 2^32 events or more cannot be indexed");
  }
  dag.events.trace_ = &trace;
  dag.events.index_.reserve(trace.events.size());
  dag.slots.reserve(trace.events.size());

  // Actor states, dense by node id; entry 0 holds every actor-less (-1)
  // event, whose state no program chain reads.
  std::vector<ActorState> actors;
  auto actor_state = [&actors](std::int32_t actor) -> ActorState& {
    const std::size_t idx = actor < 0 ? 0 : static_cast<std::size_t>(actor) + 1;
    if (idx >= actors.size()) actors.resize(idx + 1);
    return actors[idx];
  };
  JourneyTable msgs;
  std::unordered_map<SpanKey, int, SpanKeyHash> open;

  auto link = [&dag](std::uint32_t from, [[maybe_unused]] std::uint32_t to) {
    assert(dag.events[from].time <= dag.events[to].time &&
           "dependency edges never go backward in sim time");
    return from;
  };

  std::uint32_t last_finish = kNone;
  for (std::uint32_t at = 0; at < trace.events.size(); ++at) {
    const TraceEvent& e = trace.events[at];
    // Normalization: drop End events whose Begin was truncated away by
    // ring wraparound, so every surviving End has a matching earlier
    // Begin (pinned by causal_test.cpp).
    if (e.phase == EventPhase::Begin) {
      ++open[SpanKey{e.name, e.id}];
    } else if (e.phase == EventPhase::End) {
      auto it = open.find(SpanKey{e.name, e.id});
      if (it == open.end()) {
        ++dag.orphan_ends;
        continue;
      }
      if (--it->second == 0) open.erase(it);
    }
    const std::uint32_t i = static_cast<std::uint32_t>(dag.events.size());
    dag.events.index_.push_back(at);
    Slot& slot = dag.slots.emplace_back();
    if (e.name == Ev::ProcFinish) dag.finishes.push_back(i);

    // WAN queue-wait metadata: attached to the message, not a DAG node.
    if (e.name == Ev::WanQueue) {
      msgs[e.id].queue_pending = static_cast<sim::SimTime>(e.arg);
      continue;
    }

    const bool journey = is_journey(e.name);
    const bool deliver = e.name == Ev::Deliver;

    if (journey) {
      MsgState& ms = msgs[e.id];
      if (!ms.proto_known && carries_tag(e.name, e.phase)) {
        ms.proto = protocol_of_tag(e.aux);
        ms.proto_known = true;
      }
      if (ms.last != kNone) {
        const TraceEvent& prev = dag.events[ms.last];
        slot.message = link(ms.last, i);
        slot.message_proto = ms.proto;
        if (deliver) {
          // Fan-out point: several delivers can hang off one journey
          // event (LAN broadcast, WAN re-broadcast), so `last` is not
          // advanced. The final hop into the destination cluster is the
          // broadcast link for ordered-broadcast traffic, the delivery
          // (access) link otherwise.
          if (prev.name == Ev::Wan) {
            slot.message_cls = ms.proto == Protocol::Bcast ? EdgeClass::Lan : EdgeClass::Access;
          } else {
            slot.message_cls = EdgeClass::Lan;
          }
        } else {
          slot.message_cls = hop_class(prev.name, e.name);
          if (slot.message_cls == EdgeClass::WanTransfer) {
            // Queue wait was recorded explicitly (capped by what
            // actually elapsed); Dag::edge derives the rest of the split.
            slot.wait_or_queue = std::min(ms.queue_pending, e.time - prev.time);
            ms.queue_pending = 0;
          }
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
      const sim::SimTime prev_time = dag.events[u].time;
      const sim::SimTime dur = e.time - prev_time;
      const sim::SimTime work = std::clamp<sim::SimTime>(as.compute_until - prev_time, 0, dur);
      // The program wait overwrites a WAN queue wait (see Slot).
      slot.wait_or_queue = dur - work;
      if (work == dur) {
        slot.program_cls = EdgeClass::Compute;
      } else {
        // Trailing wait: classed by the node's open protocol state,
        // innermost first. A gap that ends in a timeout instant is
        // retry cost regardless of what else is open.
        if (as.retry_open > 0 || e.name == Ev::RpcTimeout) {
          slot.program_cls = EdgeClass::FaultWait;
        } else if (as.seq_open > 0) {
          slot.program_cls = EdgeClass::SeqWait;
        } else if (as.barrier_wait) {
          slot.program_cls = EdgeClass::BarrierWait;
        } else if (as.rpc_open > 0) {
          slot.program_cls = EdgeClass::RpcWait;
        } else if (as.bcast_open > 0) {
          slot.program_cls = EdgeClass::BcastWait;
        } else if (dag.events[u].name == Ev::RpcServe) {
          slot.program_cls = EdgeClass::Serve;  // service time at the callee
        } else {
          slot.program_cls = as.last_deliver != kNone && as.last_deliver > u ? EdgeClass::RecvWait
                                                                             : EdgeClass::Idle;
        }
        // Bind the wait to the delivery that ended it, if one landed in
        // the gap: prefer the protocol being waited on, fall back to
        // the newest delivery of any kind.
        if (slot.program_cls != EdgeClass::Serve) {
          const Protocol pref = wait_protocol(slot.program_cls);
          std::uint32_t d = as.last_deliver_by_proto[static_cast<std::size_t>(pref)];
          if (d == kNone || d <= u) d = as.last_deliver;
          if (d != kNone && d > u) slot.wake = link(d, i);
        }
      }
      slot.program = link(u, i);
    }
    as.last_chain = i;
    dag.sink = i;  // events are time-ordered: the last chain event wins
    dag.end = e.time;

    // State transitions take effect for the *next* gap at this node.
    const int step = e.phase == EventPhase::Begin ? 1 : -1;
    auto count = [step](int& open_spans) {
      if (step > 0 || open_spans > 0) open_spans += step;
    };
    switch (e.name) {
      case Ev::ProcFinish: last_finish = i; break;
      case Ev::AppCompute:
        as.compute_until = e.time + static_cast<sim::SimTime>(e.arg);
        break;
      case Ev::SeqGet: count(as.seq_open); break;
      case Ev::Rpc: count(as.rpc_open); break;
      case Ev::RpcRetry: count(as.retry_open); break;
      case Ev::Bcast: count(as.bcast_open); break;
      case Ev::BarrierArrive: as.barrier_wait = true; break;
      // Recorded at node 0 while releasing: rank 0's own wait ends here.
      case Ev::BarrierRelease: as.barrier_wait = false; break;
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
