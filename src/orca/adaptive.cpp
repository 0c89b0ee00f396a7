#include "orca/adaptive.hpp"

#include "orca/runtime.hpp"

namespace alb::orca::adapt {

namespace {

/// Monitor window. Epoch evaluators are pure state inspections at
/// sim-time boundaries; they cost no simulated time themselves.
constexpr sim::SimTime kEpochNs = 2'000'000;
/// Consecutive hot epochs before a policy trips (the hysteresis).
constexpr int kHysteresisEpochs = 2;
/// Migrate threshold installed by the arm message. Not 1 (the hand-
/// optimized ASP's choice): the policy arms on any WAN-scale grant
/// stalls, so the threshold itself must still distinguish a dominant
/// writer block (ASP: hundreds of same-cluster requests) from
/// interleaved writers (ACP, IDA*), where eager migration thrashes.
constexpr int kArmThreshold = 8;

// Detection thresholds, per window and per cluster. Each `k*Min*` value
// is an evidence floor: a policy's window keeps accumulating across
// epoch boundaries until it holds that many samples (low-rate patterns
// — ASP completes one multi-ms broadcast every few epochs — must not be
// judged on empty windows). Once the floor is met the window is judged
// hot or cold, the streak updated, and that policy's window reset.

/// Arm migration when the cluster's mean get-sequence wait per
/// broadcast reaches this multiple of the minimum intercluster latency
/// — i.e. grants are clearly crossing the WAN.
constexpr double kSeqWaitLatFactor = 1.0;
constexpr std::uint64_t kSeqMinBcasts = 2;
/// Split the central queue when at least this share of the master's
/// served gets came from remote clusters.
constexpr double kQueueRemoteShare = 0.5;
constexpr std::uint64_t kQueueMinGets = 8;
/// Enable a cluster's relay combining when at least this share of its
/// combiner items crossed clusters.
constexpr double kCombineRemoteShare = 0.25;
constexpr std::uint64_t kCombineMinItems = 64;
/// Switch a cluster to tree dissemination when its average broadcast
/// payload clears the PR 7 shape rule for this many epochs.
constexpr std::uint64_t kTreeMinBcasts = 2;

}  // namespace

Engine::Engine(Runtime& rt, const Config& cfg)
    : rt_(&rt),
      net_(&rt.network()),
      cfg_(cfg),
      coll_overridden_(rt.coll().mode() != coll::Mode::Flat) {
  shards_.resize(static_cast<std::size_t>(net_->topology().clusters()));
}

void Engine::start() {
  if (!cfg_.enabled || net_->topology().clusters() <= 1) return;
  // One evaluator chain per cluster. The first event is a setup-time
  // cross-owner schedule (allowed); every later one is rescheduled
  // owner-locally from inside the chain, so the whole chain runs in its
  // cluster's context.
  for (net::ClusterId c = 0; c < net_->topology().clusters(); ++c) {
    net_->engine().schedule_on(static_cast<sim::OwnerId>(c), kEpochNs,
                               [this, c]() { schedule_next(c); });
  }
}

void Engine::schedule_next(net::ClusterId c) {
  // Retire the chain once the cluster's processes are done (or its
  // failure was observed here) — otherwise Engine::run() never drains.
  if (rt_->cluster_quiescent(c)) return;
  if (net::FaultInjector* f = net_->faults(); f != nullptr && f->failed(c)) return;
  on_epoch(c);
  net_->engine().schedule_after(kEpochNs, [this, c]() { schedule_next(c); });
}

void Engine::on_epoch(net::ClusterId c) {
  Shard& s = shard(c);
  ++epochs_;
  trace::Recorder* rec = net_->engine().tracer();
  const auto leader = static_cast<std::int32_t>(net_->topology().compute_node(c, 0));
  const auto cid = static_cast<std::uint64_t>(c);

  // A policy's window keeps accumulating until it holds the evidence
  // floor; only then is it judged hot/cold, the streak updated, and the
  // window reset. Low-rate patterns (ASP completes one multi-ms
  // broadcast every few epochs) are judged on real evidence instead of
  // being reset by the empty epochs in between.

  // Sequencer migration: the cluster's broadcasts stall WAN-scale on
  // sequence grants — arm demand-driven migration at the active
  // location (a routed control message; see MigratingSequencer).
  if (!cfg_.seq_overridden && !s.seq_armed && s.seq_bcasts >= kSeqMinBcasts) {
    const double mean_wait =
        static_cast<double>(s.seq_wait_ns) / static_cast<double>(s.seq_bcasts);
    const bool hot =
        mean_wait >=
        kSeqWaitLatFactor * static_cast<double>(net_->config().min_intercluster_latency());
    s.seq_hot = hot ? s.seq_hot + 1 : 0;
    s.seq_wait_ns = 0;
    s.seq_bcasts = 0;
    if (s.seq_hot >= kHysteresisEpochs) {
      s.seq_armed = true;
      if (rec) {
        rec->instant(trace::Ev::AdaptSeqArm, leader, cid,
                     static_cast<std::uint64_t>(kArmThreshold));
      }
      rt_->sequencer().adapt_arm(net_->topology().compute_node(c, 0), kArmThreshold);
    }
  }

  // Cluster-level combining: the cluster's combiner traffic is
  // remote-dominated — route it through the relay from now on.
  if (!cfg_.combine_overridden && !s.combine_on && s.items >= kCombineMinItems) {
    const bool hot = static_cast<double>(s.items_remote) >=
                     kCombineRemoteShare * static_cast<double>(s.items);
    s.combine_hot = hot ? s.combine_hot + 1 : 0;
    s.items = 0;
    s.items_remote = 0;
    if (s.combine_hot >= kHysteresisEpochs) {
      s.combine_on = true;
      if (rec) {
        rec->instant(trace::Ev::AdaptCombineOn, leader, cid, 0);
      }
    }
  }

  // Tree collectives: the cluster's ordered broadcasts are large enough
  // that gateway replication beats per-pair serialization (the same
  // rule coll::Engine applies per payload, evaluated on the window's
  // average payload so the switch is worth a policy change).
  if (!coll_overridden_ && !s.tree_on && s.tree_bcasts >= kTreeMinBcasts) {
    const net::TopologyConfig& tc = net_->config();
    const std::uint64_t avg = s.tree_bytes / s.tree_bcasts;
    const bool hot = tc.access.serialize_time(avg) > tc.gateway_forward_overhead;
    s.tree_hot = hot ? s.tree_hot + 1 : 0;
    s.tree_bytes = 0;
    s.tree_bcasts = 0;
    if (s.tree_hot >= kHysteresisEpochs) {
      s.tree_on = true;
      rt_->coll().set_mode(c, coll::Mode::Tree);
      if (rec) {
        rec->instant(trace::Ev::AdaptTreeOn, leader, cid, avg);
      }
    }
  }

  // Central-queue split: masters hosted in this cluster whose get
  // stream is remote-dominated repartition their remaining jobs.
  if (s.gets >= kQueueMinGets) {
    const bool hot = static_cast<double>(s.gets_remote) >=
                     kQueueRemoteShare * static_cast<double>(s.gets);
    s.queue_hot = hot ? s.queue_hot + 1 : 0;
    const std::uint64_t gets_remote = s.gets_remote;
    s.gets = 0;
    s.gets_remote = 0;
    if (s.queue_hot >= kHysteresisEpochs) {
      for (QueuePolicy& q : queues_) {
        if (q.cluster != c || q.done) continue;
        q.done = true;  // one-shot whether or not jobs remained
        if (q.fn()) {
          ++splits_;
          if (rec) {
            rec->instant(trace::Ev::AdaptQueueSplit, leader, cid, gets_remote);
          }
        }
      }
    }
  }
}

void Engine::publish_metrics(trace::MetricsSnapshot& m) const {
  std::uint64_t arms = 0, combine = 0, tree = 0;
  for (const Shard& s : shards_) {
    arms += s.seq_armed ? 1 : 0;
    combine += s.combine_on ? 1 : 0;
    tree += s.tree_on ? 1 : 0;
  }
  m.set_counter("orca/adapt.epochs", epochs_);
  m.set_counter("orca/adapt.sig.seq_wait_ns", t_seq_wait_ns_);
  m.set_counter("orca/adapt.sig.bcasts", t_bcasts_);
  m.set_counter("orca/adapt.sig.gets", t_gets_);
  m.set_counter("orca/adapt.sig.gets_remote", t_gets_remote_);
  m.set_counter("orca/adapt.sig.items", t_items_);
  m.set_counter("orca/adapt.sig.items_remote", t_items_remote_);
  m.set_counter("orca/adapt.seq.arms", arms);
  m.set_counter("orca/adapt.combine.enabled", combine);
  m.set_counter("orca/adapt.tree.enabled", tree);
  m.set_counter("orca/adapt.queue.splits", splits_);
  // Typed precedence warnings: an explicit flag suppressed a policy.
  m.set_counter("orca/adapt.override.seq", cfg_.seq_overridden ? 1 : 0);
  m.set_counter("orca/adapt.override.coll", coll_overridden_ ? 1 : 0);
  m.set_counter("orca/adapt.override.combine", cfg_.combine_overridden ? 1 : 0);
}

}  // namespace alb::orca::adapt
