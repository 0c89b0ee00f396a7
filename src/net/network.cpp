#include "net/network.hpp"

#include <cassert>
#include <cmath>

namespace alb::net {

Network::Network(sim::Engine& eng, const TopologyConfig& cfg, const FaultPlan& faults,
                 std::uint64_t fault_seed)
    : eng_(&eng), cfg_(cfg), topo_(cfg) {
  const int nodes = topo_.num_nodes();
  const int compute = topo_.num_compute();
  const int clusters = topo_.clusters();

  // Give the engine cluster-grained owner contexts if the harness has
  // not already done so (direct-construction tests): one owner per
  // cluster.
  if (eng.owners() < clusters) eng.set_owners(clusters);

  trace::Session* session = eng.trace_session();
  if (session) {
    h_wan_bytes_ = session->metrics().histogram("net/wan.msg_bytes");
    h_wan_queue_ = session->metrics().histogram("net/wan.queue_ns");
  }
  // A disabled plan builds no injector: every fault check below is then
  // one null-pointer test and the run is byte-identical to a plan-free
  // network (pinned by tests/net/fault_test.cpp and the trace goldens).
  if (faults.enabled) {
    faults_ = std::make_unique<FaultInjector>(
        faults, fault_seed, session ? &session->metrics() : nullptr, clusters);
  }
  FaultInjector* fi = faults_.get();

  endpoints_.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) endpoints_.push_back(std::make_unique<Endpoint>(eng));

  lan_links_.reserve(static_cast<std::size_t>(compute));
  access_links_.reserve(static_cast<std::size_t>(compute));
  for (int n = 0; n < compute; ++n) {
    const ClusterId c = topo_.cluster_of(n);
    lan_links_.push_back(std::make_unique<Link>(eng, cfg.lan, fi, LinkClass::Lan, c));
    access_links_.push_back(std::make_unique<Link>(eng, cfg.access, fi, LinkClass::Access, c));
  }
  const WanTransportConfig& wt = cfg.wan_transport;
  wan_links_.resize(static_cast<std::size_t>(clusters) * clusters * wt.streams);
  for (int a = 0; a < clusters; ++a) {
    for (int b = 0; b < clusters; ++b) {
      if (a == b) continue;
      // Charged at the kWanTransfer stage, in the *source* gateway's
      // context — stream = a.
      for (int s = 0; s < wt.streams; ++s) {
        wan_links_[wan_circuit(a, b) + static_cast<std::size_t>(s)] =
            std::make_unique<Link>(eng, cfg.wan_between(a, b), fi, LinkClass::Wan, a);
      }
    }
  }
  for (int c = 0; c < clusters; ++c) {
    delivery_links_.push_back(std::make_unique<Link>(eng, cfg.access, fi, LinkClass::Access, c));
    bcast_links_.push_back(std::make_unique<Link>(eng, cfg.lan_broadcast, fi, LinkClass::Lan, c));
  }

  // Gateway combining is off by default; off, it allocates nothing and
  // adds one predictable branch per hop.
  if (wt.combine_bytes > 0) {
    combine_.resize(static_cast<std::size_t>(clusters) * combine_per_source());
  }
}

void Network::drop(const Message& m, LinkClass cls, FaultInjector::DropCause cause,
                   NodeId where, bool close_wan_span) {
  faults_->count_drop(cls, m.bytes, cause);
  if (trace::Recorder* rec = eng_->tracer()) {
    rec->instant(trace::Category::Net, "net.fault.drop", where, m.id, m.bytes);
    if (close_wan_span) rec->end(trace::Category::Net, "net.wan", where, m.id, m.bytes);
  }
}

Link& Network::wan_link(ClusterId from, ClusterId to) {
  assert(from != to);
  return *wan_links_[wan_circuit(from, to)];
}

std::optional<sim::SimTime> Network::gateway_overhead(const Message& m, ClusterId at) {
  sim::SimTime overhead = cfg_.gateway_forward_overhead;
  if (faults_) {
    const FaultInjector::GatewayState gs = faults_->gateway_state(at, eng_->now());
    if (m.droppable && gs.extra_loss > 0.0 && faults_->lose_extra(gs.extra_loss, at)) {
      drop(m, LinkClass::Wan, FaultInjector::DropCause::Brownout, topo_.gateway_of(at),
           /*close_wan_span=*/true);
      return std::nullopt;
    }
    if (gs.slow_factor > 1.0) {
      overhead = static_cast<sim::SimTime>(static_cast<double>(overhead) * gs.slow_factor);
      faults_->count_brownout_slow();
    }
  }
  return overhead;
}

void Network::deliver_at(sim::SimTime t, Message m) {
  auto ev = [this, m = std::move(m)]() mutable {
    // Recorded at dispatch so the instant carries the delivery time; the
    // causal DAG builder keys send→deliver edges on the message id and
    // reads the protocol from the tag in aux.
    if (trace::Recorder* rec = eng_->tracer()) {
      rec->instant(trace::Category::Net, "net.deliver", m.dst, m.id, m.bytes,
                   trace::Recorder::clamp_tag(m.tag));
    }
    // Postfix expression before argument initialization (C++17 sequencing):
    // m.dst is read before the move steals the message.
    endpoint(m.dst).deliver(std::move(m));
  };
  static_assert(sim::UniqueFunction::stores_inline<decltype(ev)>,
                "the delivery event must fit the event queue's inline storage");
  eng_->schedule_at(t, std::move(ev));
}

void Network::schedule_hop_at(sim::SimTime t, HopPlan plan) {
  auto ev = [this, plan = std::move(plan)]() mutable { run_hop(std::move(plan)); };
  static_assert(sim::UniqueFunction::stores_inline<decltype(ev)>,
                "a hop event must fit the event queue's inline storage");
  eng_->schedule_at(t, std::move(ev));
}

void Network::schedule_hop_after(sim::SimTime delay, HopPlan plan) {
  auto ev = [this, plan = std::move(plan)]() mutable { run_hop(std::move(plan)); };
  static_assert(sim::UniqueFunction::stores_inline<decltype(ev)>,
                "a hop event must fit the event queue's inline storage");
  eng_->schedule_after(delay, std::move(ev));
}

void Network::run_hop(HopPlan plan) {
  switch (plan.stage) {
    case HopStage::kGatewayIngress: {
      // With combining on, every message kind goes through the combine
      // buffer, blocking request/reply traffic included. That is safe
      // because a message is only ever held when the circuit is busy,
      // and the circuit-free flush ships the batch the moment the wire
      // could have accepted its first member — a hold never outlasts the
      // backlog the message would have queued behind anyway, so even a
      // stalled RPC requester waits no longer than flat wire queueing
      // would have cost it.
      const bool combine = combining_on();
      if (combine) {
        // Wire accounting is deferred to the flush (or the bypass) —
        // only the logical crossing is known here.
        stats_.record_inter_logical(plan.msg.kind, plan.msg.bytes,
                                          plan.msg.combined_members);
      } else {
        stats_.record_inter(plan.msg.kind, plan.msg.bytes + cfg_.wan_transport.frame_bytes,
                                  plan.msg.bytes, plan.msg.combined_members);
      }
      if (trace::Recorder* rec = eng_->tracer()) {
        rec->instant(trace::Category::Net, "net.hop.gw_in", topo_.gateway_of(plan.from),
                     plan.msg.id, plan.msg.bytes);
      }
      // Store-and-forward: the gateway spends its per-message forwarding
      // overhead, then the message queues on the WAN circuit (possibly
      // via the combine buffer).
      const std::optional<sim::SimTime> overhead = gateway_overhead(plan.msg, plan.from);
      if (!overhead) break;
      plan.stage = combine ? HopStage::kCombineEnqueue : HopStage::kWanTransfer;
      schedule_hop_after(*overhead, std::move(plan));
      break;
    }
    case HopStage::kCombineEnqueue: {
      const WanTransportConfig& wt = cfg_.wan_transport;
      const int idx = combine_idx(plan.to, plan.msg.kind, plan.msg.droppable);
      CombineBuffer& buf = combine_buffer(plan.from, idx);
      if (buf.members.empty() && wan_idle(plan.from, plan.to)) {
        // Idle bypass: nothing to combine with and the circuit could
        // start serializing right now — holding for an epoch would only
        // add latency. The bypass message's own serialization makes the
        // circuit busy, so a burst behind it combines naturally.
        stats_.record_inter_wire(plan.msg.kind, plan.msg.bytes + wt.frame_bytes);
        plan.stage = HopStage::kWanTransfer;
        run_hop(std::move(plan));
        break;
      }
      if (trace::Recorder* rec = eng_->tracer()) {
        rec->instant(trace::Category::Net, "net.combine.hold", topo_.gateway_of(plan.from),
                     plan.msg.id, plan.msg.bytes);
      }
      const ClusterId from = plan.from;
      const ClusterId to = plan.to;
      buf.bytes += plan.msg.bytes;
      buf.members.push_back(std::move(plan));
      if (buf.bytes >= wt.combine_bytes) {
        flush_combine(from, idx);
        break;
      }
      if (buf.epoch_due < 0) arm_combine_flush(from, to, idx);
      break;
    }
    case HopStage::kWanTransfer: {
      if (faults_) {
        if (const std::optional<sim::SimTime> until =
                faults_->flapped_until(plan.from, plan.to, eng_->now())) {
          if (plan.msg.droppable) {
            // A flapped circuit swallows datagram-class traffic.
            drop(plan.msg, LinkClass::Wan, FaultInjector::DropCause::Flap,
                 topo_.gateway_of(plan.from), /*close_wan_span=*/true);
            break;
          }
          // Stream traffic is held at the gateway and re-attempts the
          // circuit when the window closes (possibly hitting the next
          // window — the reschedule loops naturally).
          faults_->count_flap_hold(*until - eng_->now());
          if (trace::Recorder* rec = eng_->tracer()) {
            rec->instant(trace::Category::Net, "net.fault.flap_hold",
                         topo_.gateway_of(plan.from), plan.msg.id, plan.msg.bytes);
          }
          schedule_hop_at(*until, std::move(plan));
          break;
        }
        if (plan.msg.droppable && faults_->lose(LinkClass::Wan, plan.from)) {
          // The message got onto the circuit and vanished: the bandwidth
          // is consumed (and the link counters see the attempt), but
          // nothing arrives at the remote gateway.
          std::uint64_t lost_queued = 0;
          wan_transfer_time(plan.from, plan.to,
                            plan.msg.bytes + cfg_.wan_transport.frame_bytes, lost_queued);
          drop(plan.msg, LinkClass::Wan, FaultInjector::DropCause::Loss,
               topo_.gateway_of(plan.from), /*close_wan_span=*/true);
          break;
        }
      }
      const std::size_t wire = plan.msg.bytes + cfg_.wan_transport.frame_bytes;
      std::uint64_t queued = 0;
      const sim::SimTime at_remote_gw = wan_transfer_time(plan.from, plan.to, wire, queued);
      if (h_wan_bytes_) {
        h_wan_bytes_->add(wire);
        h_wan_queue_->add(queued);
      }
      if (trace::Recorder* rec = eng_->tracer()) {
        // Queue wait is recorded explicitly so the causal profiler can
        // split the circuit crossing into queue / latency / serialization.
        if (queued > 0) {
          rec->instant(trace::Category::Net, "net.wan.queue", topo_.gateway_of(plan.from),
                       plan.msg.id, queued);
        }
        rec->instant(trace::Category::Net, "net.hop.wan", topo_.gateway_of(plan.from),
                     plan.msg.id, plan.msg.bytes);
      }
      plan.stage = HopStage::kGatewayEgress;
      // The cross-cluster edge: from here on the message is the remote
      // cluster's business, so the continuation is scheduled in that
      // owner's context.
      {
        const sim::OwnerId dest = plan.to;
        auto ev = [this, plan = std::move(plan)]() mutable { run_hop(std::move(plan)); };
        static_assert(sim::UniqueFunction::stores_inline<decltype(ev)>,
                      "a hop event must fit the event queue's inline storage");
        eng_->schedule_on(dest, at_remote_gw, std::move(ev));
      }
      break;
    }
    case HopStage::kGatewayEgress: {
      if (plan.broadcast && plan.coll_shape != kNoCollShape) {
        // Tree dissemination: before delivering locally, this gateway
        // forwards fresh copies to its children in the cluster tree.
        relay_tree_children(plan);
      }
      if (trace::Recorder* rec = eng_->tracer()) {
        rec->instant(trace::Category::Net, "net.hop.gw_out", topo_.gateway_of(plan.to),
                     plan.msg.id, plan.msg.bytes);
      }
      const std::optional<sim::SimTime> overhead = gateway_overhead(plan.msg, plan.to);
      if (!overhead) break;
      plan.stage = HopStage::kClusterDelivery;
      schedule_hop_after(*overhead, std::move(plan));
      break;
    }
    case HopStage::kClusterDelivery: {
      if (faults_ && plan.msg.droppable && faults_->lose(LinkClass::Access, plan.to)) {
        // Models loss on the gateway -> destination access segment.
        drop(plan.msg, LinkClass::Access, FaultInjector::DropCause::Loss,
             topo_.gateway_of(plan.to), /*close_wan_span=*/true);
        break;
      }
      if (trace::Recorder* rec = eng_->tracer()) {
        rec->end(trace::Category::Net, "net.wan", topo_.gateway_of(plan.to), plan.msg.id,
                 plan.msg.bytes);
      }
      if (plan.broadcast) {
        // Remote gateway re-broadcasts into its cluster.
        const sim::SimTime t = bcast_link(plan.to).transfer(plan.msg.bytes);
        for (int i = 0; i < topo_.nodes_per_cluster(); ++i) {
          Message copy = plan.msg;
          copy.dst = topo_.compute_node(plan.to, i);
          deliver_at(t, std::move(copy));
        }
      } else {
        const sim::SimTime t = delivery_link(plan.to).transfer(plan.msg.bytes);
        deliver_at(t, std::move(plan.msg));
      }
      break;
    }
  }
}

std::uint64_t Network::send(Message m) {
  assert(m.src >= 0 && m.src < topo_.num_nodes());
  assert(m.dst >= 0 && m.dst < topo_.num_nodes());
  m.id = next_id();
  m.sent_at = eng_->now();
  const std::uint64_t id = m.id;

  if (m.src == m.dst) {
    // Loopback: no link charge, but still goes through the event queue so
    // a self-send never reorders ahead of already-scheduled work.
    if (trace::Recorder* rec = eng_->tracer()) {
      rec->instant(trace::Category::Net, "net.send.local", m.src, m.id, m.bytes,
                   trace::Recorder::clamp_tag(m.tag));
    }
    deliver_at(eng_->now(), std::move(m));
    return id;
  }

  const ClusterId sc = topo_.cluster_of(m.src);
  const ClusterId dc = topo_.cluster_of(m.dst);

  if (sc == dc) {
    if (trace::Recorder* rec = eng_->tracer()) {
      rec->instant(trace::Category::Net, "net.send.lan", m.src, m.id, m.bytes,
                   trace::Recorder::clamp_tag(m.tag));
    }
    stats_.record_intra(m.kind, m.bytes);
    // Gateways reach their own cluster over the delivery (FE) link;
    // compute nodes use their Myrinet egress.
    const bool gw = topo_.is_gateway(m.src);
    Link& l = gw ? delivery_link(sc) : lan_link(m.src);
    const sim::SimTime t = l.transfer(m.bytes);
    if (faults_ && m.droppable &&
        faults_->lose(gw ? LinkClass::Access : LinkClass::Lan, sc)) {
      drop(m, gw ? LinkClass::Access : LinkClass::Lan, FaultInjector::DropCause::Loss, m.src,
           /*close_wan_span=*/false);
      return id;
    }
    deliver_at(t, std::move(m));
    return id;
  }

  // Intercluster: first hop to the local gateway over Fast Ethernet.
  // (A gateway itself never originates application messages on DAS, but
  // relay code may run there in tests; it goes straight to the WAN.)
  if (trace::Recorder* rec = eng_->tracer()) {
    rec->begin(trace::Category::Net, "net.wan", m.src, m.id, m.bytes,
               trace::Recorder::clamp_tag(m.tag));
  }
  HopPlan plan{std::move(m), sc, dc, HopStage::kGatewayIngress, /*broadcast=*/false};
  if (topo_.is_gateway(plan.msg.src)) {
    run_hop(std::move(plan));
    return id;
  }
  const sim::SimTime at_gw = access_link(plan.msg.src).transfer(plan.msg.bytes);
  if (faults_ && plan.msg.droppable && faults_->lose(LinkClass::Access, sc)) {
    // Lost on the node -> gateway access segment.
    drop(plan.msg, LinkClass::Access, FaultInjector::DropCause::Loss, plan.msg.src,
         /*close_wan_span=*/true);
    return id;
  }
  schedule_hop_at(at_gw, std::move(plan));
  return id;
}

std::uint64_t Network::lan_broadcast(NodeId src, Message m) {
  assert(topo_.is_compute(src));
  m.id = next_id();
  m.sent_at = eng_->now();
  m.src = src;
  const ClusterId c = topo_.cluster_of(src);
  if (trace::Recorder* rec = eng_->tracer()) {
    rec->instant(trace::Category::Net, "net.bcast.lan", src, m.id, m.bytes,
                 trace::Recorder::clamp_tag(m.tag));
  }
  stats_.record_intra(m.kind, m.bytes);
  sim::SimTime t = bcast_link(c).transfer(m.bytes);
  for (int i = 0; i < topo_.nodes_per_cluster(); ++i) {
    NodeId dst = topo_.compute_node(c, i);
    if (dst == src) continue;  // the sender applies its own update locally
    Message copy = m;
    copy.dst = dst;
    deliver_at(t, std::move(copy));
  }
  return m.id;
}

std::uint64_t Network::wan_broadcast(NodeId src, ClusterId target, Message m) {
  assert(topo_.is_compute(src));
  assert(target != topo_.cluster_of(src));
  m.id = next_id();
  m.sent_at = eng_->now();
  m.src = src;
  m.dst = topo_.gateway_of(target);
  const ClusterId sc = topo_.cluster_of(src);
  const std::uint64_t id = m.id;
  if (trace::Recorder* rec = eng_->tracer()) {
    rec->begin(trace::Category::Net, "net.wan", src, id, m.bytes,
               trace::Recorder::clamp_tag(m.tag));
  }
  const sim::SimTime at_gw = access_link(src).transfer(m.bytes);
  schedule_hop_at(at_gw, HopPlan{std::move(m), sc, target, HopStage::kGatewayIngress,
                                 /*broadcast=*/true});
  return id;
}

std::uint64_t Network::tree_broadcast(NodeId src, CollShape shape, Message m) {
  assert(topo_.is_compute(src));
  if (topo_.clusters() <= 1) return 0;
  m.src = src;
  m.sent_at = eng_->now();
  const ClusterId mine = topo_.cluster_of(src);
  trace::Recorder* rec = eng_->tracer();
  // One copy up the access network regardless of fan-out — the gateway
  // replicates. (The flat path serializes one access transfer per
  // remote cluster; this is part of the tree's win.)
  const sim::SimTime at_gw = access_link(src).transfer(m.bytes);
  std::uint64_t first_id = 0;
  int i = 0;
  for_each_coll_child(shape, mine, topo_.clusters(), mine, [&](ClusterId child) {
    Message copy = m;
    copy.id = next_id();
    copy.dst = topo_.gateway_of(child);
    if (first_id == 0) first_id = copy.id;
    if (rec) {
      rec->begin(trace::Category::Net, "net.wan", src, copy.id, copy.bytes,
                 trace::Recorder::clamp_tag(copy.tag));
    }
    // The gateway's forwarding engine dispatches its copies serially:
    // child i enters ingress i forwarding slots after the payload
    // reaches the gateway (ingress then charges its own slot).
    schedule_hop_at(at_gw + static_cast<sim::SimTime>(i) * cfg_.gateway_forward_overhead,
                    HopPlan{std::move(copy), mine, child, HopStage::kGatewayIngress,
                            /*broadcast=*/true, static_cast<std::uint8_t>(shape), mine});
    ++i;
  });
  return first_id;
}

void Network::relay_tree_children(const HopPlan& plan) {
  // Runs in plan.to's engine context (the leg was scheduled there).
  const CollShape shape = static_cast<CollShape>(plan.coll_shape);
  const NodeId gw = topo_.gateway_of(plan.to);
  trace::Recorder* rec = eng_->tracer();
  int i = 0;
  for_each_coll_child(shape, plan.coll_root, topo_.clusters(), plan.to, [&](ClusterId child) {
    Message copy = plan.msg;
    copy.id = next_id();
    copy.src = gw;
    copy.dst = topo_.gateway_of(child);
    copy.sent_at = eng_->now();
    if (rec) {
      // Each relay leg is a fresh wide-area journey for the profiler.
      rec->begin(trace::Category::Net, "net.wan", gw, copy.id, copy.bytes,
                 trace::Recorder::clamp_tag(copy.tag));
    }
    schedule_hop_after(static_cast<sim::SimTime>(i) * cfg_.gateway_forward_overhead,
                       HopPlan{std::move(copy), plan.to, child, HopStage::kGatewayIngress,
                               /*broadcast=*/true, plan.coll_shape, plan.coll_root});
    ++i;
  });
}

sim::SimTime Network::wan_free_at(ClusterId from, ClusterId to) {
  const std::size_t base = wan_circuit(from, to);
  sim::SimTime free_at = wan_links_[base]->busy_until();
  for (int s = 1; s < cfg_.wan_transport.streams; ++s) {
    const sim::SimTime t = wan_links_[base + static_cast<std::size_t>(s)]->busy_until();
    if (t < free_at) free_at = t;
  }
  const sim::SimTime now = eng_->now();
  return free_at > now ? free_at : now;
}

void Network::arm_combine_flush(ClusterId from, ClusterId to, int idx) {
  const WanTransportConfig& wt = cfg_.wan_transport;
  CombineBuffer& buf = combine_buffer(from, idx);
  // Epoch boundaries are absolute multiples of combine_epoch, so the
  // backstop flush times (and therefore the whole schedule) are
  // independent of which message arrived first within the window.
  const sim::SimTime boundary = (eng_->now() / wt.combine_epoch + 1) * wt.combine_epoch;
  const sim::SimTime free_at = wan_free_at(from, to);
  const sim::SimTime due = free_at < boundary ? free_at : boundary;
  buf.epoch_due = due;
  auto ev = [this, from, to, idx, due] {
    CombineBuffer& b = combine_buffer(from, idx);
    if (b.epoch_due != due || b.members.empty()) return;
    // A boundary flush fires even on a busy circuit (the batch takes
    // its queue slot ahead of later wire traffic); a circuit-free
    // flush re-arms if other traffic claimed the circuit first.
    const bool backstop = due % cfg_.wan_transport.combine_epoch == 0;
    if (!backstop && !wan_idle(from, to)) {
      b.epoch_due = -1;
      arm_combine_flush(from, to, idx);
      return;
    }
    flush_combine(from, idx);
  };
  static_assert(sim::UniqueFunction::stores_inline<decltype(ev)>,
                "the combine-flush event must fit the event queue's inline storage");
  eng_->schedule_at(due, std::move(ev));
}

bool Network::wan_idle(ClusterId from, ClusterId to) {
  return wan_free_at(from, to) <= eng_->now();
}

sim::SimTime Network::wan_transfer_time(ClusterId from, ClusterId to, std::size_t wire_bytes,
                                        std::uint64_t& queued_out) {
  const WanTransportConfig& wt = cfg_.wan_transport;
  const std::size_t base = wan_circuit(from, to);
  // One stream carries a payload whole; more cut it into chunks.
  const std::size_t chunk_max = wt.streams > 1 ? wt.stream_chunk_bytes : wire_bytes;
  const sim::SimTime now = eng_->now();
  sim::SimTime arrival = 0;
  std::size_t remaining = wire_bytes;
  bool first = true;
  do {
    // Stripe each chunk onto the least-busy sub-stream; ties go to the
    // lowest index so the assignment is deterministic.
    std::size_t best = base;
    for (int s = 1; s < wt.streams; ++s) {
      const std::size_t cand = base + static_cast<std::size_t>(s);
      if (wan_links_[cand]->busy_until() < wan_links_[best]->busy_until()) best = cand;
    }
    Link& link = *wan_links_[best];
    if (first) {
      const sim::SimTime wait = link.busy_until() - now;
      queued_out = static_cast<std::uint64_t>(wait > 0 ? wait : 0);
      first = false;
    }
    const std::size_t chunk = remaining < chunk_max ? remaining : chunk_max;
    const sim::SimTime t = link.transfer(chunk);
    if (t > arrival) arrival = t;
    remaining -= chunk;
  } while (remaining > 0);
  return arrival;
}

void Network::flush_combine(ClusterId from, int idx) {
  CombineBuffer& buf = combine_buffer(from, idx);
  if (buf.members.empty()) return;
  const ClusterId to = static_cast<ClusterId>(idx / (2 * TrafficStats::kNumKinds));
  const MsgKind kind = static_cast<MsgKind>((idx / 2) % TrafficStats::kNumKinds);
  const bool droppable = (idx & 1) != 0;
  trace::Recorder* rec = eng_->tracer();

  if (faults_) {
    std::optional<FaultInjector::DropCause> lost;
    if (const std::optional<sim::SimTime> until =
            faults_->flapped_until(from, to, eng_->now())) {
      if (!droppable) {
        // Stream-class batch: hold at the gateway until the window
        // closes. New arrivals keep joining the held batch.
        faults_->count_flap_hold(*until - eng_->now());
        if (rec) {
          for (const HopPlan& m : buf.members) {
            rec->instant(trace::Category::Net, "net.fault.flap_hold", topo_.gateway_of(from),
                         m.msg.id, m.msg.bytes);
          }
        }
        const sim::SimTime due = *until;
        buf.epoch_due = due;
        auto ev = [this, from, idx, due] {
          CombineBuffer& b = combine_buffer(from, idx);
          if (b.epoch_due == due && !b.members.empty()) flush_combine(from, idx);
        };
        static_assert(sim::UniqueFunction::stores_inline<decltype(ev)>,
                      "the flap-retry event must fit the event queue's inline storage");
        eng_->schedule_at(due, std::move(ev));
        return;
      }
      // A flapped circuit swallows the whole datagram-class batch.
      lost = FaultInjector::DropCause::Flap;
    } else if (droppable && faults_->lose(LinkClass::Wan, from)) {
      // The combined wire message vanished on the circuit: bandwidth
      // consumed, every member lost.
      std::uint64_t lost_queued = 0;
      wan_transfer_time(from, to, cfg_.wan_transport.frame_bytes + buf.bytes, lost_queued);
      lost = FaultInjector::DropCause::Loss;
    }
    if (lost) {
      for (const HopPlan& m : buf.members) {
        drop(m.msg, LinkClass::Wan, *lost, topo_.gateway_of(from), /*close_wan_span=*/true);
      }
      buf.members.clear();
      buf.bytes = 0;
      buf.epoch_due = -1;
      return;
    }
  }

  std::vector<HopPlan> batch;
  batch.swap(buf.members);
  const std::size_t logical_bytes = buf.bytes;
  buf.bytes = 0;
  buf.epoch_due = -1;

  const std::size_t wire = cfg_.wan_transport.frame_bytes + logical_bytes;
  std::uint64_t logical_msgs = 0;
  for (const HopPlan& m : batch) logical_msgs += m.msg.combined_members;
  stats_.record_inter_wire(kind, wire);
  stats_.record_combined_flush(logical_msgs, wire, logical_bytes);

  std::uint64_t queued = 0;
  const sim::SimTime arrival = wan_transfer_time(from, to, wire, queued);
  if (h_wan_bytes_) {
    h_wan_bytes_->add(wire);
    h_wan_queue_->add(queued);
  }
  // Members of a single-stream train are delivered as their bytes
  // finish crossing, not held for the train's tail: the wire carries
  // the batch back to back, so member i's last byte lands
  // (logical_bytes - prefix_i) / bandwidth ahead of the train's
  // arrival. That keeps every held message's delivery no later than
  // flat per-message queueing would have managed — which is what makes
  // combining safe even for blocking RPC traffic. Striped multi-stream
  // trains interleave chunks across sub-circuits, so the prefix model
  // has no meaning there; their members deliver at the train's tail.
  const bool pipelined = cfg_.wan_transport.streams == 1;
  std::size_t prefix = 0;
  for (HopPlan& m : batch) {
    if (rec) {
      if (queued > 0) {
        rec->instant(trace::Category::Net, "net.wan.queue", topo_.gateway_of(from), m.msg.id,
                     queued);
      }
      rec->instant(trace::Category::Net, "net.hop.wan", topo_.gateway_of(from), m.msg.id,
                   m.msg.bytes);
    }
    prefix += m.msg.bytes;
    sim::SimTime at = arrival;
    if (pipelined && prefix < logical_bytes) {
      // Ceil: truncating the tail would push a member a nanosecond
      // past where flat queueing would have delivered it.
      const double tail_ns = static_cast<double>(logical_bytes - prefix) /
                             cfg_.wan_between(from, to).bandwidth_bytes_per_sec * 1e9;
      at = arrival - static_cast<sim::SimTime>(std::ceil(tail_ns));
    }
    m.stage = HopStage::kGatewayEgress;
    const sim::OwnerId dest = to;
    auto ev = [this, plan = std::move(m)]() mutable { run_hop(std::move(plan)); };
    static_assert(sim::UniqueFunction::stores_inline<decltype(ev)>,
                  "a hop event must fit the event queue's inline storage");
    eng_->schedule_on(dest, at, std::move(ev));
  }
}

namespace {

/// Sums one accessor across a set of links.
template <typename Fn>
std::uint64_t sum_links(const std::vector<std::unique_ptr<Link>>& links, Fn fn) {
  std::uint64_t n = 0;
  for (const auto& l : links) {
    if (l) n += static_cast<std::uint64_t>(fn(*l));
  }
  return n;
}

}  // namespace

void Network::publish_metrics(trace::Metrics& m) const {
  // Per-kind LAN/WAN breakdown straight from the traffic accounting.
  for (int k = 0; k < TrafficStats::kNumKinds; ++k) {
    const MsgKind kind = static_cast<MsgKind>(k);
    const KindCounters& c = stats_.kind(kind);
    const std::string base = to_string(kind);
    *m.counter("net/lan." + base + ".msgs") = c.intra_msgs;
    *m.counter("net/lan." + base + ".bytes") = c.intra_bytes;
    *m.counter("net/wan." + base + ".msgs") = c.inter_msgs;
    *m.counter("net/wan." + base + ".bytes") = c.inter_bytes;
  }

  // The paper's Table 4/5 columns: "# RPC" folds requests and raw data
  // messages, "RPC kbyte" adds replies; broadcast folds in ordering
  // control traffic. Published so benches/tools read the table numbers
  // by name instead of re-deriving them.
  *m.counter("net/wan.table.rpc.msgs") = stats_.inter_rpc_count() + stats_.inter_data_count();
  *m.counter("net/wan.table.rpc.bytes") = stats_.inter_rpc_bytes() + stats_.inter_data_bytes();
  *m.counter("net/wan.table.bcast.msgs") = stats_.inter_bcast_count();
  *m.counter("net/wan.table.bcast.bytes") = stats_.inter_bcast_bytes();

  // Per-link-class aggregates (utilization & queueing).
  *m.counter("net/link.lan.msgs") = sum_links(lan_links_, [](const Link& l) { return l.messages(); }) +
                                    sum_links(bcast_links_, [](const Link& l) { return l.messages(); });
  *m.counter("net/link.lan.busy_ns") =
      sum_links(lan_links_, [](const Link& l) { return l.busy_time(); }) +
      sum_links(bcast_links_, [](const Link& l) { return l.busy_time(); });
  *m.counter("net/link.access.msgs") =
      sum_links(access_links_, [](const Link& l) { return l.messages(); }) +
      sum_links(delivery_links_, [](const Link& l) { return l.messages(); });
  *m.counter("net/link.access.busy_ns") =
      sum_links(access_links_, [](const Link& l) { return l.busy_time(); }) +
      sum_links(delivery_links_, [](const Link& l) { return l.busy_time(); });
  *m.counter("net/link.wan.msgs") =
      sum_links(wan_links_, [](const Link& l) { return l.messages(); });
  *m.counter("net/link.wan.bytes") = sum_links(wan_links_, [](const Link& l) { return l.bytes(); });
  *m.counter("net/link.wan.busy_ns") =
      sum_links(wan_links_, [](const Link& l) { return l.busy_time(); });
  *m.counter("net/link.wan.queue_ns") =
      sum_links(wan_links_, [](const Link& l) { return l.queueing_time(); });

  // Logical-vs-wire split and the combining report. Published only when
  // they carry information (combining or framing actually diverged the
  // two views) so default runs keep their historical counter set.
  bool has_logical = stats_.combined().flushes > 0;
  for (int k = 0; k < TrafficStats::kNumKinds && !has_logical; ++k) {
    const KindCounters& c = stats_.kind(static_cast<MsgKind>(k));
    has_logical = c.inter_logical_msgs != c.inter_msgs || c.inter_logical_bytes != c.inter_bytes;
  }
  if (has_logical) {
    for (int k = 0; k < TrafficStats::kNumKinds; ++k) {
      const MsgKind kind = static_cast<MsgKind>(k);
      const KindCounters& c = stats_.kind(kind);
      const std::string base = to_string(kind);
      *m.counter("net/wan." + base + ".logical_msgs") = c.inter_logical_msgs;
      *m.counter("net/wan." + base + ".logical_bytes") = c.inter_logical_bytes;
    }
    const CombinedCounters& cc = stats_.combined();
    *m.counter("net/wan.combined.flushes") = cc.flushes;
    *m.counter("net/wan.combined.members") = cc.members;
    *m.counter("net/wan.combined.wire_bytes") = cc.wire_bytes;
    *m.counter("net/wan.combined.logical_bytes") = cc.logical_bytes;
  }

  if (faults_) faults_->publish_metrics(m);
}

}  // namespace alb::net
