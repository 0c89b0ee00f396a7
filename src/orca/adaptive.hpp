#pragma once
// Adaptive policy engine: the paper's §4 optimizations, applied mid-run.
//
// The causal profiler (src/trace/causal/) *diagnoses* the wide-area
// bottleneck patterns — sequencer-wait domination (ASP), central-queue
// contention (TSP), fine-grained intercluster traffic (RA) — and PR 7
// shipped the machinery that fixes each one. This engine closes the
// loop: a per-cluster access-pattern monitor feeds a per-cluster policy
// controller that applies the matching optimization while the run is in
// progress, as a generic shared-object policy rather than a hand
// annotation:
//
//   * sequencer migration — under --adapt the runtime starts the
//     centralized sequencer (a migrating one that never moves on
//     demand). On more than one cluster that replaces the rotating
//     default, so --adapt changes the ordering protocol even when this
//     policy never trips. When a cluster's mean get-sequence stall per
//     broadcast reaches WAN scale (kSeqWaitLatFactor x the minimum
//     intercluster latency), the controller arms demand-driven
//     migration by routing a control message to the active location
//     (kTagSeqArm) that lowers the threshold to kArmThreshold.
//   * per-cluster queue split — a CentralJobQueue registers a split
//     callback; when the master observes a remote-dominated get stream,
//     the controller has it repartition the remaining jobs round-robin
//     over per-cluster queues (work-stealing fallback once a local
//     queue drains).
//   * cluster-level combining — a ClusterCombiner consults the per-
//     cluster `combine_on` flag; when a cluster's senders emit a
//     remote-dominated item stream, its relay combining is enabled.
//   * tree collectives — when a cluster's ordered broadcasts are large
//     enough that gateway replication beats per-pair serialization (the
//     PR 7 shape rule), its wide-area dissemination switches to the
//     cluster tree (coll::Engine::set_mode).
//
// Determinism contract. Every input is simulated-clock state confined
// to one cluster's engine context: signal shards are written at the
// instrumentation site's own cluster, epoch evaluators are sim-time
// events scheduled in the cluster they evaluate, and cross-cluster
// actions travel as ordinary control messages. Nothing reads wall
// clock, the metrics registry, or another cluster's shard — so adaptive
// runs stay byte-identical across runs and --jobs values and under
// fault plans, like everything else.
//
// Hysteresis. A policy trips only after kHysteresisEpochs consecutive
// hot epochs, and every policy is a one-way ratchet (the paper's §4
// optimizations are static program properties, so there is nothing to
// gain from disabling one again). Together these bound the number of
// policy transitions per run to one per (policy, cluster): policies
// never flap, which tests/integration/adaptive_test.cpp pins.
//
// Precedence. Explicit operator choices win over policy: an app-forced
// sequencer, an explicit --coll shape or an explicit --combine-bytes
// disable the corresponding action and are reported through the typed
// `orca/adapt.override.*` warning counters.

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "trace/metrics.hpp"

namespace alb::orca {

class Runtime;

namespace adapt {

/// The epoch length, hysteresis, evidence floors and detection
/// thresholds are constants in adaptive.cpp (docs/ADAPTIVE.md,
/// "Tuning"). Only the switch and the explicit choices that win over
/// policy are set here; an explicit --coll shape is read off the
/// runtime's collective engine instead.
struct Config {
  bool enabled = false;
  /// An explicit sequencer suppressed the migration policy
  /// (orca/adapt.override.seq).
  bool seq_overridden = false;
  /// An explicit combine threshold suppressed the combining policy
  /// (orca/adapt.override.combine).
  bool combine_overridden = false;
};

class Engine {
 public:
  /// Construct after the sequencer/collective engines exist; call
  /// start() at setup time (it seeds one epoch event per cluster).
  Engine(Runtime& rt, const Config& cfg);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  void start();

  // --- signal hooks: each must be called in cluster `c`'s context -----
  /// One ordered broadcast from cluster `c` waited `wait` ns for its
  /// sequence grant and shipped `bytes`.
  void note_seq_wait(net::ClusterId c, sim::SimTime wait, std::size_t bytes) {
    Shard& s = shard(c);
    s.seq_wait_ns += wait;
    ++s.seq_bcasts;
    s.tree_bytes += bytes;
    ++s.tree_bcasts;
    t_seq_wait_ns_ += static_cast<std::uint64_t>(wait);
    ++t_bcasts_;
  }
  /// One central-queue get served at a master hosted in cluster `c`.
  void note_queue_get(net::ClusterId c, bool remote) {
    Shard& s = shard(c);
    ++s.gets;
    ++t_gets_;
    if (remote) {
      ++s.gets_remote;
      ++t_gets_remote_;
    }
  }
  /// One combiner item sent by a process in cluster `c`.
  void note_combiner_item(net::ClusterId c, bool remote) {
    Shard& s = shard(c);
    ++s.items;
    ++t_items_;
    if (remote) {
      ++s.items_remote;
      ++t_items_remote_;
    }
  }

  /// Read by ClusterCombiner senders in their own cluster's context.
  bool combine_enabled(net::ClusterId c) const { return shards_[static_cast<std::size_t>(c)].combine_on; }

  /// Registers a central queue's split action (setup time only). The
  /// callback runs in the master's cluster context at the epoch that
  /// trips the policy; it returns true when it actually moved jobs.
  using QueueSplitFn = std::function<bool()>;
  void register_queue_split(net::ClusterId master_cluster, QueueSplitFn fn) {
    queues_.push_back(QueuePolicy{master_cluster, std::move(fn), false});
  }

  /// Publishes the `orca/adapt.*` counters.
  /// Post-run, assignment semantics — call once per finished run.
  void publish_metrics(trace::Metrics& m) const;

 private:
  /// Per-cluster monitor + controller state. Each shard is only touched
  /// in its cluster's engine context (instrumentation sites run there,
  /// and so does the cluster's epoch evaluator).
  struct Shard {
    // Per-policy window accumulators; each window is judged (and reset)
    // only once it holds its policy's evidence floor.
    sim::SimTime seq_wait_ns = 0;
    std::uint64_t seq_bcasts = 0;
    std::uint64_t tree_bytes = 0;
    std::uint64_t tree_bcasts = 0;
    std::uint64_t items = 0;
    std::uint64_t items_remote = 0;
    std::uint64_t gets = 0;
    std::uint64_t gets_remote = 0;
    // Hysteresis: consecutive hot epochs per policy.
    int seq_hot = 0;
    int combine_hot = 0;
    int tree_hot = 0;
    int queue_hot = 0;
    // Ratchets: set once, never cleared (policies do not flap).
    bool seq_armed = false;
    bool combine_on = false;
    bool tree_on = false;
  };
  struct QueuePolicy {
    net::ClusterId cluster;
    QueueSplitFn fn;
    bool done;  // touched only in `cluster`'s context
  };

  Shard& shard(net::ClusterId c) { return shards_[static_cast<std::size_t>(c)]; }
  void on_epoch(net::ClusterId c);
  void schedule_next(net::ClusterId c);

  Runtime* rt_;
  net::Network* net_;
  Config cfg_;
  bool coll_overridden_;  // an explicit --coll shape suppressed the tree policy
  std::vector<Shard> shards_;
  std::vector<QueuePolicy> queues_;  // registered at setup, stable during the run
  std::uint64_t epochs_ = 0;  // epoch evaluations, all clusters
  std::uint64_t splits_ = 0;  // queue-split actions that moved jobs
  // Lifetime signal totals over all clusters (never reset; published as
  // orca/adapt.sig.* so a run's raw evidence is inspectable next to its
  // decisions).
  std::uint64_t t_seq_wait_ns_ = 0;
  std::uint64_t t_bcasts_ = 0;
  std::uint64_t t_gets_ = 0;
  std::uint64_t t_gets_remote_ = 0;
  std::uint64_t t_items_ = 0;
  std::uint64_t t_items_remote_ = 0;
};

}  // namespace adapt
}  // namespace alb::orca
