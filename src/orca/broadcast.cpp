#include "orca/broadcast.hpp"

#include <cassert>

#include "orca/adaptive.hpp"
#include "orca/tags.hpp"

namespace alb::orca {

BroadcastEngine::BroadcastEngine(net::Network& net, Sequencer& seq, coll::Engine& coll,
                                 ApplyFn apply_op)
    : net_(&net), seq_(&seq), coll_(&coll), apply_op_(std::move(apply_op)) {
  const int compute = net.topology().num_compute();
  next_to_apply_.assign(static_cast<std::size_t>(compute), 0);
  reorder_.resize(static_cast<std::size_t>(compute));
  applied_count_.assign(static_cast<std::size_t>(compute), 0);
  local_apply_waiters_.resize(static_cast<std::size_t>(compute));
  for (int n = 0; n < compute; ++n) {
    net.endpoint(n).set_handler(kTagBcastData, [this, n](const net::Message& m) {
      const auto& s = net::payload_as<Shipment>(m);
      if (s.seq == kUnordered) {
        apply_now(static_cast<net::NodeId>(n), s.op);
      } else {
        deliver(static_cast<net::NodeId>(n), s.seq, s.op);
      }
    });
  }
}

void BroadcastEngine::disseminate(net::NodeId node, std::size_t bytes, int tag,
                                  std::shared_ptr<const void> payload) {
  const auto& topo = net_->topology();
  if (topo.nodes_per_cluster() > 1) {
    net::Message m;
    m.bytes = bytes;
    m.kind = net::MsgKind::Bcast;
    m.tag = tag;
    m.payload = payload;
    net_->lan_broadcast(node, std::move(m));
  }
  net::Message m;
  m.bytes = bytes;
  m.kind = net::MsgKind::Bcast;
  m.tag = tag;
  m.payload = std::move(payload);
  coll_->disseminate(node, std::move(m));
}

sim::Task<void> BroadcastEngine::broadcast(net::NodeId node, std::size_t bytes, BcastOp op) {
  const net::ClusterId cluster = net_->topology().cluster_of(node);
  if (net::FaultInjector* f = net_->faults(); f != nullptr && f->failed(cluster)) {
    std::rethrow_exception(f->failure_eptr(cluster));
  }
  // Span 1: the get-sequence stall (a WAN roundtrip for a remote
  // sequencer — the cost the migrating sequencer optimizes away).
  trace::Recorder* rec = net_->engine().tracer();
  std::uint64_t span = 0;
  if (rec) {
    span = rec->next_span_id();
    rec->begin(trace::Ev::SeqGet, node, span);
  }
  const sim::SimTime seq_start = net_->engine().now();
  const std::uint64_t seq = co_await seq_->get_sequence(node);
  if (adapt_ != nullptr) {
    adapt_->note_seq_wait(cluster, net_->engine().now() - seq_start, bytes);
  }
  if (rec) {
    rec->end(trace::Ev::SeqGet, node, span, seq);
    // Span 2: dissemination until the sender's own in-order apply.
    rec->begin(trace::Ev::Bcast, node, seq, bytes);
  }
  const auto shipment = std::make_shared<const Shipment>(Shipment{seq, std::move(op)});
  disseminate(node, bytes, kTagBcastData, shipment);

  // Hand the sender's own op over from the same shipment and wait for
  // in-order local application.
  sim::Future<> applied(net_->engine());
  local_apply_waiters_[static_cast<std::size_t>(node)].emplace(seq, applied);
  deliver(node, seq, shipment->op);
  co_await applied;
  if (rec) rec->end(trace::Ev::Bcast, node, seq);
}

void BroadcastEngine::broadcast_unordered(net::NodeId node, std::size_t bytes, BcastOp op) {
  if (trace::Recorder* rec = net_->engine().tracer()) {
    rec->instant(trace::Ev::BcastUnordered, node, 0, bytes);
  }
  const auto shipment = std::make_shared<const Shipment>(Shipment{kUnordered, std::move(op)});
  disseminate(node, bytes, kTagBcastData, shipment);
  apply_now(node, shipment->op);
}

void BroadcastEngine::deliver(net::NodeId node, std::uint64_t seq, const BcastOp& op) {
  const auto n = static_cast<std::size_t>(node);
  if (seq != next_to_apply_[n]) {
    buffer(n, seq, op);
    return;
  }
  apply_next(node, op);
  ReorderRing& ring = reorder_[n];
  while (ring.buffered > 0) {
    BcastOp& slot = ring.slots[next_to_apply_[n] & (ring.slots.size() - 1)];
    if (!slot.apply) break;
    const BcastOp early = std::move(slot);
    slot.apply = nullptr;
    --ring.buffered;
    apply_next(node, early);
  }
}

void BroadcastEngine::buffer(std::size_t node, std::uint64_t seq, const BcastOp& op) {
  const std::uint64_t next = next_to_apply_[node];
  assert(seq > next && "duplicate broadcast sequence number");
  ReorderRing& ring = reorder_[node];
  if (const std::uint64_t ahead = seq - next; ahead >= ring.slots.size()) {
    std::size_t size = ring.slots.empty() ? kRingInitialSlots : ring.slots.size();
    while (size <= ahead) size *= 2;
    // Re-seat every buffered op: the one in old slot i has the unique
    // sequence number in (next, next + old size) congruent to i.
    std::vector<BcastOp> grown(size);
    const std::uint64_t old_mask = ring.slots.size() - 1;
    for (std::size_t i = 0; i < ring.slots.size(); ++i) {
      if (ring.slots[i].apply) {
        const std::uint64_t s = next + ((i - next) & old_mask);
        grown[s & (size - 1)] = std::move(ring.slots[i]);
      }
    }
    ring.slots = std::move(grown);
  }
  BcastOp& slot = ring.slots[seq & (ring.slots.size() - 1)];
  assert(!slot.apply && "duplicate broadcast sequence number");
  slot = op;
  ++ring.buffered;
}

void BroadcastEngine::apply_next(net::NodeId node, const BcastOp& op) {
  const auto n = static_cast<std::size_t>(node);
  std::uint64_t& next = next_to_apply_[n];
  if (trace::Recorder* rec = net_->engine().tracer()) {
    rec->instant(trace::Ev::BcastApply, node, next);
  }
  apply_now(node, op);
  if (auto& waiters = local_apply_waiters_[n]; !waiters.empty()) {
    if (auto w = waiters.find(next); w != waiters.end()) {
      w->second.set_value();
      waiters.erase(w);
    }
  }
  ++next;
}

void BroadcastEngine::apply_now(net::NodeId node, const BcastOp& op) {
  ++applied_count_[static_cast<std::size_t>(node)];
  apply_op_(node, op);
}

void BroadcastEngine::fail_pending(net::ClusterId cluster, std::exception_ptr e) {
  const auto& topo = net_->topology();
  for (int i = 0; i < topo.nodes_per_cluster(); ++i) {
    auto& waiters =
        local_apply_waiters_[static_cast<std::size_t>(topo.compute_node(cluster, i))];
    for (auto& [seq, fut] : waiters) {
      if (!fut.ready()) fut.set_error(e);
    }
    waiters.clear();
  }
}

}  // namespace alb::orca
