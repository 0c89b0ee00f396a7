#include "orca/runtime.hpp"

#include <algorithm>

namespace alb::orca {

Runtime::Runtime(net::Network& net, Config cfg) : net_(&net) {
  faults_ = net.faults();
  recovery_on_ = faults_ != nullptr && faults_->recovery_active();
  const bool multicluster = net.topology().clusters() > 1;
  // Under --adapt the default is the centralized sequencer, which the
  // seq policy can arm for migration; otherwise the DAS default.
  const SequencerKind kind = cfg.sequencer.value_or(
      multicluster && !cfg.adapt.enabled ? SequencerKind::Rotating : SequencerKind::Centralized);
  if (cfg.adapt.enabled && multicluster && cfg.sequencer.has_value()) {
    // Explicit choice wins over policy (reported as a typed warning
    // counter by the adaptive engine's publish_metrics).
    cfg.adapt.seq_overridden = true;
  }
  seq_ = make_sequencer(kind, net, /*seq_node=*/0, cfg.migrate_threshold);
  coll_ = std::make_unique<coll::Engine>(net, cfg.coll);
  bcast_ = std::make_unique<BroadcastEngine>(
      net, *seq_, *coll_,
      [this](net::NodeId node, const BcastOp& op) { apply_bcast_op(node, op); });
  const auto clusters = static_cast<std::size_t>(net.topology().clusters());
  pending_rpcs_.resize(clusters);
  cluster_finished_.assign(clusters, 0);
  barrier_waiters_.resize(static_cast<std::size_t>(nprocs()));
  barrier_local_gen_.assign(static_cast<std::size_t>(nprocs()), 0);
  install_handlers();
  if (recovery_on_) {
    faults_->on_fail(
        [this](net::ClusterId c, const net::FailureInfo& info) { on_hard_failure(c, info); });
  }
  if (cfg.adapt.enabled) {
    adaptive_ = std::make_unique<adapt::Engine>(*this, cfg.adapt);
    bcast_->set_adapt(adaptive_.get());
    adaptive_->start();
  }
}

// kTagSeqArm is the lowest runtime tag.
static_assert(-kTagSeqArm <= net::Endpoint::kReservedTags,
              "every runtime tag must dispatch through the endpoint's reserved array");

void Runtime::install_handlers() {
  const int nodes = net_->topology().num_nodes();
  for (int n = 0; n < nodes; ++n) {
    const net::ClusterId nc = cluster_of(static_cast<net::NodeId>(n));
    net_->endpoint(n).set_handler(kTagRpcRequest, [this, n](net::Message m) {
      handle_rpc_request(static_cast<net::NodeId>(n), net::payload_as<RpcRequest>(m));
    });
    // The reply handler runs at the caller's node, so it resolves
    // against the caller cluster's pending table.
    net_->endpoint(n).set_handler(kTagRpcReply, [this, nc](net::Message m) {
      const auto& rep = net::payload_as<RpcReply>(m);
      auto& pending = pending_rpcs_[static_cast<std::size_t>(nc)];
      auto it = pending.find(rep.call_id);
      if (it == pending.end() || it->second.ready()) {
        // Only under recovery: a reply for a call no longer pending
        // (already answered, or retired by the failure fan-out), or one
        // whose current attempt timed out before this — late — reply
        // arrived. Either way the caller has moved on: suppress the
        // duplicate.
        assert(recovery_on_);
        faults_->note_dup_rpc_reply();
        return;
      }
      it->second.set_value(RpcWait{rep.result, false});
      pending.erase(it);
    });
    net_->endpoint(n).set_handler(kTagBarrierRelease, [this, n](net::Message m) {
      auto gen = net::payload_as<std::uint64_t>(m);
      auto& waiters = barrier_waiters_[static_cast<std::size_t>(n)];
      auto it = waiters.find(gen);
      if (it != waiters.end()) {
        it->second.set_value();
        waiters.erase(it);
      }
    });
  }
  net_->endpoint(0).set_handler(kTagBarrierArrive, [this](net::Message) {
    ++barrier_arrivals_;
    if (barrier_arrivals_ == nprocs()) release_barrier();
  });
}

void Runtime::apply_bcast_op(net::NodeId node, const BcastOp& op) {
  op.apply(holder(op.object_id).state(node));
  // Waiters are node-specific (the predicate closure captured the
  // node's copy), so only this node's shard is re-checked — which also
  // keeps the scan confined to the executing cluster context.
  auto& ws = waiters_[static_cast<std::size_t>(op.object_id)][static_cast<std::size_t>(node)];
  for (auto it = ws.begin(); it != ws.end();) {
    if (it->pred()) {
      it->fut.set_value();
      it = ws.erase(it);
    } else {
      ++it;
    }
  }
}

void Runtime::add_object_waiter(int object_id, net::NodeId node, std::function<bool()> pred,
                                sim::Future<> fut) {
  waiters_[static_cast<std::size_t>(object_id)][static_cast<std::size_t>(node)].push_back(
      ObjectWaiter{std::move(pred), std::move(fut)});
}

sim::Task<std::shared_ptr<const void>> Runtime::rpc(
    net::NodeId caller, net::NodeId target, std::size_t request_bytes, std::size_t reply_bytes,
    std::function<std::shared_ptr<const void>()> op, sim::SimTime service_time) {
  RpcRequest req;
  req.caller = caller;
  req.reply_bytes = reply_bytes;
  req.service_time = service_time;
  req.op = std::move(op);
  return call(target, request_bytes, std::move(req));
}

sim::Task<std::shared_ptr<const void>> Runtime::rpc_blocking(
    net::NodeId caller, net::NodeId target, std::size_t request_bytes,
    std::size_t reply_bytes, std::function<sim::Task<std::shared_ptr<const void>>()> op) {
  RpcRequest req;
  req.caller = caller;
  req.reply_bytes = reply_bytes;
  req.op_blocking = std::move(op);
  return call(target, request_bytes, std::move(req));
}

sim::Task<std::shared_ptr<const void>> Runtime::call(net::NodeId target,
                                                     std::size_t request_bytes,
                                                     RpcRequest req) {
  const net::NodeId caller = req.caller;
  if (caller == target) {
    // Local invocation: no traffic; service time is still CPU work.
    if (req.op_blocking) co_return co_await req.op_blocking();
    if (req.service_time > 0) co_await engine().delay(req.service_time);
    co_return req.op();
  }
  const net::ClusterId cc = cluster_of(caller);
  guard_failed(faults_, cc);
  const std::uint64_t id = ++rpc_calls_;
  auto& pending = pending_rpcs_[static_cast<std::size_t>(cc)];

  trace::Recorder* rec = engine().tracer();
  if (rec) rec->begin(trace::Ev::Rpc, caller, id, request_bytes);

  const std::size_t reply_bytes = req.reply_bytes;
  req.call_id = id;
  auto payload = net::make_payload<RpcRequest>(std::move(req));

  // The recovery loop of orca/recovery.hpp: resend the *same* payload
  // (same call_id, the server's at-most-once key) until a reply lands or
  // the injector gives up. Without recovery no timer is armed, so the
  // first attempt is the only one. Inlined rather than factored into a
  // helper coroutine: an extra Task would add event-queue traffic and
  // perturb the trace goldens.
  sim::SimTime timeout = recovery_on_ ? faults_->plan().recovery.rpc_timeout : 0;
  bool retry_span = false;
  std::shared_ptr<const void> result;
  for (int attempt = 1;; ++attempt) {
    sim::Future<RpcWait> fut(engine());
    pending.insert_or_assign(id, fut);
    send_rpc_request(caller, target, request_bytes, payload);
    if (recovery_on_) arm_timeout(engine(), fut, timeout);
    RpcWait w = co_await fut;
    if (!w.timed_out) {
      result = std::move(w.reply);
      break;
    }
    if (rec) {
      rec->instant(trace::Ev::RpcTimeout, caller, id, static_cast<std::uint64_t>(attempt));
      if (!retry_span) {
        retry_span = true;
        rec->begin(trace::Ev::RpcRetry, caller, id);
      }
    }
    const std::optional<sim::SimTime> next = faults_->after_timeout(
        cc, net::FailureInfo{net::FailureInfo::Kind::RpcTimeout, caller, id, attempt}, timeout,
        engine().now());
    if (!next) {
      pending.erase(id);
      if (rec) {
        if (retry_span) rec->end(trace::Ev::RpcRetry, caller, id);
        rec->end(trace::Ev::Rpc, caller, id, 0);
      }
      std::rethrow_exception(faults_->failure_eptr(cc));
    }
    timeout = *next;
  }
  if (rec && retry_span) rec->end(trace::Ev::RpcRetry, caller, id);
  if (rec) rec->end(trace::Ev::Rpc, caller, id, reply_bytes);
  co_return result;
}

void Runtime::send_rpc_request(net::NodeId caller, net::NodeId target,
                               std::size_t request_bytes,
                               std::shared_ptr<const void> payload) {
  net::Message m;
  m.src = caller;
  m.dst = target;
  m.bytes = request_bytes;
  m.kind = net::MsgKind::Rpc;
  m.tag = kTagRpcRequest;
  m.droppable = recovery_on_;
  m.payload = std::move(payload);
  net_->send(std::move(m));
}

void Runtime::fail_cluster_waiters(net::ClusterId cluster, std::exception_ptr e) {
  const auto ci = static_cast<std::size_t>(cluster);
  for (auto& [id, fut] : pending_rpcs_[ci]) {
    if (!fut.ready()) fut.set_error(e);
  }
  pending_rpcs_[ci].clear();
  const auto& topo = net_->topology();
  for (int i = 0; i < topo.nodes_per_cluster(); ++i) {
    const net::NodeId n = topo.compute_node(cluster, i);
    for (auto& [gen, fut] : barrier_waiters_[static_cast<std::size_t>(n)]) {
      if (!fut.ready()) fut.set_error(e);
    }
    barrier_waiters_[static_cast<std::size_t>(n)].clear();
    for (auto& per_object : waiters_) {
      auto& ws = per_object[static_cast<std::size_t>(n)];
      for (ObjectWaiter& w : ws) {
        if (!w.fut.ready()) w.fut.set_error(e);
      }
      ws.clear();
    }
    net_->endpoint(n).fail_pending(e);
  }
  net_->endpoint(topo.gateway_of(cluster)).fail_pending(e);
  seq_->fail_pending(cluster, e);
  bcast_->fail_pending(cluster, e);
}

void Runtime::on_hard_failure(net::ClusterId cluster, const net::FailureInfo& info) {
  fail_cluster_waiters(cluster, faults_->failure_eptr(cluster));
  // Propagate: the earliest a real failure notification could reach
  // another cluster is one (minimum) WAN latency away. fail() is
  // idempotent per cluster, so the second-order fan-out (each newly
  // failed cluster re-propagating) quiesces after one round.
  sim::Engine& eng = engine();
  const sim::SimTime at = eng.now() + net_->config().min_intercluster_latency();
  const sim::SimTime time = eng.now();
  for (net::ClusterId d = 0; d < net_->topology().clusters(); ++d) {
    if (d == cluster) continue;
    auto ev = [this, d, time, info]() { faults_->fail(d, time, info); };
    static_assert(sim::UniqueFunction::stores_inline<decltype(ev)>,
                  "failure propagation event must fit the event queue's inline storage");
    eng.schedule_on(d, at, std::move(ev));
  }
}

void Runtime::send_reply(net::NodeId at, net::NodeId caller, std::uint64_t call_id,
                         std::size_t reply_bytes, std::shared_ptr<const void> result) {
  // Keep the reply so a retried request re-receives it instead of
  // re-executing the operation.
  if (recovery_on_) served_rpcs_.record(call_id, ServedReply{result, reply_bytes});
  net::Message m;
  m.src = at;
  m.dst = caller;
  m.bytes = reply_bytes;
  m.kind = net::MsgKind::RpcReply;
  m.tag = kTagRpcReply;
  m.droppable = recovery_on_;
  m.payload = net::make_payload<RpcReply>(RpcReply{call_id, std::move(result)});
  net_->send(std::move(m));
}

sim::Task<void> Runtime::serve_blocking(net::NodeId at, RpcRequest req) {
  std::shared_ptr<const void> result;
  try {
    result = co_await req.op_blocking();
  } catch (const net::HardFailure&) {
    // The run hard-failed while this handler was blocked: the caller has
    // already been errored by the fan-out, so there is nothing to reply
    // to — and letting the exception escape a detached coroutine would
    // abort. Unwind quietly.
    co_return;
  }
  send_reply(at, req.caller, req.call_id, req.reply_bytes, std::move(result));
}

void Runtime::handle_rpc_request(net::NodeId at, RpcRequest req) {
  if (recovery_on_) {
    if (const std::optional<ServedReply>* served = served_rpcs_.find(req.call_id)) {
      // Duplicate of a request already accepted (its reply was lost, or
      // the original is still executing). Never re-run the operation —
      // RPC handlers have side effects (job-queue pops, cache fills).
      // Resend the kept reply if one exists; otherwise the running
      // execution will reply when it completes.
      faults_->note_dup_rpc_request();
      if (trace::Recorder* rec = engine().tracer()) {
        rec->instant(trace::Ev::RpcDup, at, req.call_id);
      }
      if (*served) {
        send_reply(at, req.caller, req.call_id, (*served)->reply_bytes, (*served)->result);
      }
      return;
    }
    served_rpcs_.accept(req.call_id);
  }
  if (trace::Recorder* rec = engine().tracer()) {
    rec->instant(trace::Ev::RpcServe, at, req.call_id);
  }
  if (req.op_blocking) {
    engine().spawn(serve_blocking(at, std::move(req)));
    return;
  }
  auto reply = [this, at, req = std::move(req)]() {
    std::shared_ptr<const void> result = req.op();
    send_reply(at, req.caller, req.call_id, req.reply_bytes, result);
  };
  if (req.service_time > 0) {
    engine().schedule_after(req.service_time, std::move(reply));
  } else {
    reply();
  }
}

void Runtime::send_data(const Proc& from, int dst_rank, int tag, std::size_t bytes,
                        std::shared_ptr<const void> payload, std::uint32_t combined_members) {
  assert(tag >= 0 && "application tags must be non-negative");
  net::Message m;
  m.src = from.node;
  m.dst = static_cast<net::NodeId>(dst_rank);
  m.bytes = bytes;
  m.kind = net::MsgKind::Data;
  m.tag = tag;
  m.combined_members = combined_members;
  m.payload = std::move(payload);
  net_->send(std::move(m));
}

sim::Task<void> Runtime::barrier(Proc& p) {
  if (nprocs() == 1) co_return;
  guard_failed(faults_, cluster_of(p.node));
  const std::uint64_t gen = barrier_local_gen_[static_cast<std::size_t>(p.rank)]++;
  if (trace::Recorder* rec = engine().tracer()) {
    rec->instant(trace::Ev::BarrierArrive, p.node, gen);
  }
  sim::Future<> released(engine());
  barrier_waiters_[static_cast<std::size_t>(p.node)].emplace(gen, released);
  if (p.rank == 0) {
    ++barrier_arrivals_;
    if (barrier_arrivals_ == nprocs()) release_barrier();
  } else {
    net::Message m;
    m.src = p.node;
    m.dst = 0;
    m.bytes = kControlBytes;
    m.kind = net::MsgKind::Control;
    m.tag = kTagBarrierArrive;
    net_->send(std::move(m));
  }
  co_await released;
}

void Runtime::release_barrier() {
  barrier_arrivals_ = 0;
  const std::uint64_t gen = barrier_generation_++;
  // Phase boundary marker: tools segment a run into barrier-delimited
  // phases by these instants (see tools/alb_trace.cpp).
  if (trace::Recorder* rec = engine().tracer()) {
    rec->instant(trace::Ev::BarrierRelease, 0, gen);
  }
  const auto& topo = net_->topology();
  auto payload = net::make_payload<std::uint64_t>(gen);
  // Release rank 0 directly (it is the broadcaster).
  auto& root_waiters = barrier_waiters_[0];
  if (auto it = root_waiters.find(gen); it != root_waiters.end()) {
    it->second.set_value();
    root_waiters.erase(it);
  }
  if (topo.nodes_per_cluster() > 1) {
    net::Message m;
    m.bytes = kControlBytes;
    m.kind = net::MsgKind::Control;
    m.tag = kTagBarrierRelease;
    m.payload = payload;
    net_->lan_broadcast(0, std::move(m));
  }
  for (net::ClusterId c = 1; c < topo.clusters(); ++c) {
    net::Message m;
    m.bytes = kControlBytes;
    m.kind = net::MsgKind::Control;
    m.tag = kTagBarrierRelease;
    m.payload = payload;
    net_->wan_broadcast(0, c, std::move(m));
  }
}

void Runtime::spawn_all(ProcMain main) {
  const int p = nprocs();
  procs_.clear();
  procs_.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto proc = std::make_unique<Proc>();
    proc->rt = this;
    proc->net = net_;
    proc->rank = r;
    proc->nprocs = p;
    proc->node = static_cast<net::NodeId>(r);
    proc->rng.reseed(0x5eed0000u + static_cast<std::uint64_t>(r));
    procs_.push_back(std::move(proc));
  }
  // Each process is rooted in its own cluster's owner context.
  for (int r = 0; r < p; ++r) {
    Proc& proc = *procs_[static_cast<std::size_t>(r)];
    engine().spawn_on(cluster_of(proc.node), run_proc(main, proc));
  }
}

sim::Task<void> Runtime::run_proc(ProcMain main, Proc& p) {
  if (trace::Recorder* rec = engine().tracer()) {
    rec->instant(trace::Ev::ProcStart, p.node, static_cast<std::uint64_t>(p.rank));
  }
  try {
    co_await main(p);
  } catch (const net::HardFailure&) {
    // Recovery gave up (retry budget exhausted somewhere). The failure
    // is recorded on the injector — the app harness surfaces it as a
    // typed AppResult error — and the process unwinds cooperatively so
    // its coroutine frame is reclaimed instead of leaking. Letting the
    // exception escape this detached coroutine would abort the run.
    ++failed_;
  }
  if (trace::Recorder* rec = engine().tracer()) {
    rec->instant(trace::Ev::ProcFinish, p.node, static_cast<std::uint64_t>(p.rank));
  }
  last_finish_ = std::max(last_finish_, engine().now());
  ++finished_;
  ++cluster_finished_[static_cast<std::size_t>(cluster_of(p.node))];
}

sim::SimTime Runtime::run_all() {
  engine().run();
  assert((finished_procs() == nprocs() || (faults_ != nullptr && faults_->failed())) &&
         "some processes never finished (deadlock?)");
  return last_finish();
}

void Runtime::publish_metrics(trace::MetricsSnapshot& m) const {
  m.set_counter("orca/rpc.calls", rpc_calls_);
  m.set_counter("orca/bcast.applied", bcast_->applied_total());
  m.set_counter("orca/seq.issued", seq_->issued());
  m.set_counter("orca/barrier.rounds", barrier_generation_);
  m.set_counter("orca/fault.failed_procs", static_cast<std::uint64_t>(failed_));
  if (adaptive_) adaptive_->publish_metrics(m);
}

}  // namespace alb::orca
