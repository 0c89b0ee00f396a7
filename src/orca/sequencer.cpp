#include "orca/sequencer.hpp"

#include <cassert>
#include <deque>
#include <optional>
#include <vector>

#include "orca/recovery.hpp"
#include "orca/tags.hpp"

namespace alb::orca {

namespace {

/// What a get-sequence caller resumes with (see orca/recovery.hpp).
using SeqWait = Attempt<std::uint64_t>;

/// A pending get-sequence call: who asked, which attempt-independent
/// request id it carries (retries resend the same id so the sequencer
/// can deduplicate), and the future its caller is suspended on. The
/// future is shared simulation state; the *timing* of its resolution is
/// always driven by the arrival of a grant message.
struct SeqRequest {
  net::NodeId requester;
  std::uint64_t req_id;
  sim::Future<SeqWait> fut;
};

/// A grant on the wire: the number for the caller suspended on `fut`.
struct SeqGrant {
  sim::Future<SeqWait> fut;
  std::uint64_t seq;
};

/// Routed migrate hint: "move the sequencer to `target`".
struct SeqHint {
  net::NodeId target;
};

/// Routed adaptive arm: "install this migrate threshold" (see
/// orca/adaptive.hpp — sent by a cluster's epoch evaluator when its
/// processes are sequencer-wait dominated).
struct SeqArm {
  int threshold;
};

/// Granted sequence numbers by request id.
using GrantCache = ServedTable<std::uint64_t>;

class SequencerBase : public Sequencer {
 public:
  explicit SequencerBase(net::Network& net)
      : net_(&net),
        faults_(net.faults()),
        recovery_on_(faults_ != nullptr && faults_->recovery_active()) {}

  /// Post-run accessor (counter_ is handoff-owned during a run).
  std::uint64_t issued() const override { return counter_; }

  /// The one get-sequence loop: a number the caller's node can take
  /// without a message, else a request resent under one request id until
  /// a grant lands or the recovery protocol gives up (orca/recovery.hpp).
  sim::Task<std::uint64_t> get_sequence(net::NodeId node) final {
    const net::ClusterId cluster = topo().cluster_of(node);
    guard_failed(faults_, cluster);
    if (const std::optional<std::uint64_t> seq = take_local(node)) co_return *seq;
    // Unique across the run and never 0; every attempt resends it, so
    // the serving side can answer a retry at most once.
    const std::uint64_t rid = ++last_req_id_;
    sim::SimTime timeout = recovery_on_ ? faults_->plan().recovery.seq_timeout : 0;
    for (int attempt = 1;; ++attempt) {
      sim::Future<SeqWait> fut(eng());
      submit(SeqRequest{node, rid, fut});
      if (recovery_on_) arm_timeout(eng(), fut, timeout);
      const SeqWait w = co_await fut;
      if (!w.timed_out) co_return w.reply;
      if (trace::Recorder* rec = eng().tracer()) {
        rec->instant(trace::Ev::SeqTimeout, node, rid, static_cast<std::uint64_t>(attempt));
      }
      const std::optional<sim::SimTime> next = faults_->after_timeout(
          cluster, net::FailureInfo{net::FailureInfo::Kind::SeqTimeout, node, rid, attempt},
          timeout, eng().now());
      if (!next) std::rethrow_exception(faults_->failure_eptr(cluster));
      timeout = *next;
    }
  }

 protected:
  net::Network& net() { return *net_; }
  sim::Engine& eng() { return net_->engine(); }
  const net::Topology& topo() const { return net_->topology(); }
  net::FaultInjector* faults() { return faults_; }
  bool recovery_on() const { return recovery_on_; }

  /// Handoff-owned: only the context currently holding the issuing
  /// right (token holder / active location / fixed sequencer node)
  /// touches the counter, and that right only moves by message.
  std::uint64_t take_seq() { return counter_++; }

  /// A number `node` takes in place, with no request: the migrating
  /// sequencer's active node. Called before a request id is minted.
  virtual std::optional<std::uint64_t> take_local(net::NodeId node) {
    (void)node;
    return std::nullopt;
  }

  /// Sends one attempt of `req` toward the sequencer. A retry resends the
  /// same request id with a fresh future.
  virtual void submit(SeqRequest req) = 0;

  void send_control(net::NodeId from, net::NodeId to, int tag,
                    std::shared_ptr<const void> payload, std::size_t bytes = kControlBytes,
                    bool droppable = false) {
    net::Message m;
    m.src = from;
    m.dst = to;
    m.bytes = bytes;
    m.kind = net::MsgKind::Control;
    m.tag = tag;
    m.droppable = droppable;
    m.payload = std::move(payload);
    net_->send(std::move(m));
  }

  /// Grants `seq` to a request: resolves locally if the requester is
  /// `grantor` itself, otherwise ships a grant message whose arrival
  /// resolves the caller's future. In recovery mode the grant is
  /// remembered in `cache` so duplicate (retried) requests re-receive
  /// the same number, and grant messages are droppable. The cache
  /// belongs to the serving context (per-cluster for the rotating
  /// sequencer, handoff-owned for the migrating one).
  void grant(net::NodeId grantor, SeqRequest req, std::uint64_t seq, GrantCache& cache) {
    if (recovery_on_) cache.record(req.req_id, seq);
    if (trace::Recorder* rec = eng().tracer()) {
      // Ordering decision: `seq` assigned at `grantor` for `requester`.
      rec->instant(trace::Ev::SeqIssue, grantor, seq, static_cast<std::uint64_t>(req.requester));
    }
    deliver_grant(grantor, std::move(req), seq);
  }

  /// Ships (or locally resolves) a grant without issuing a new number.
  void deliver_grant(net::NodeId grantor, SeqRequest req, std::uint64_t seq) {
    if (req.requester == grantor) {
      // A local grant whose attempt already timed out is dropped on the
      // floor; the retry hits the grant cache and re-receives `seq`.
      if (!req.fut.ready()) req.fut.set_value(SeqWait{seq, false});
      return;
    }
    send_control(grantor, req.requester, kTagSeqReply,
                 net::make_payload<SeqGrant>(SeqGrant{req.fut, seq}), kControlBytes,
                 /*droppable=*/recovery_on_);
  }

  /// Duplicate suppression at the serving side: a request id that was
  /// already granted gets the *same* sequence number re-sent instead of
  /// a fresh one (a second number would double-apply the broadcast).
  bool regrant_if_served(net::NodeId grantor, SeqRequest& req, const GrantCache& cache) {
    if (!recovery_on_) return false;
    const std::optional<std::uint64_t>* served = cache.find(req.req_id);
    if (served == nullptr) return false;
    const std::uint64_t seq = **served;  // a grant is recorded as it is issued
    faults_->note_dup_seq_request();
    if (trace::Recorder* rec = eng().tracer()) {
      rec->instant(trace::Ev::SeqRegrant, grantor, seq, static_cast<std::uint64_t>(req.requester));
    }
    deliver_grant(grantor, std::move(req), seq);
    return true;
  }

  /// Installs the universal grant-delivery handler on every node.
  void install_reply_handlers() {
    for (int n = 0; n < topo().num_nodes(); ++n) {
      net_->endpoint(n).set_handler(kTagSeqReply, [this](const net::Message& m) {
        on_grant_arrival(net::payload_as<SeqGrant>(m));
      });
    }
  }

  /// Runs in the requester's context.
  void on_grant_arrival(SeqGrant g) {
    if (g.fut.ready()) {
      // A late grant racing a regrant for the same retried request:
      // the caller already resumed (or timed out and re-resolved).
      if (faults_ != nullptr) faults_->note_dup_seq_grant();
      return;
    }
    g.fut.set_value(SeqWait{g.seq, false});
  }

 private:
  net::Network* net_;
  net::FaultInjector* faults_;
  bool recovery_on_;
  std::uint64_t counter_ = 0;      // handoff-owned (see take_seq)
  std::uint64_t last_req_id_ = 0;  // last request id minted
};

// --------------------------------------------------------------------
// Rotating: one sequencer per cluster; a token carrying the right to
// issue sequence numbers moves around the ring of clusters, so "each
// cluster broadcasts in turn". Each hop is a WAN control message — this
// is exactly the broadcast stall the paper measures for the original
// ASP.
//
// Idle behaviour: after its last grant the token moves one step and
// parks at the next cluster. A request at a cluster that does not hold
// the token sends a *kick* around the ring; each cluster the kick
// reaches either relaunches the token (if it is parked there) or
// forwards the kick one step. The relaunched token carries the kick's
// origin as its target and travels the rest of the ring to it, granting
// anything it passes. Kick travel plus token travel always add up to
// one full revolution, so every broadcast pays the full rotation — the
// cost the paper measures ("each cluster broadcasts in turn") — no
// matter where the token parked. No cluster ever reads another
// cluster's state to route a kick: the kick discovers the token by
// visiting, one hop at a time.
//
// Liveness: a parked token is stationary, and a kick is forwarded every
// hop, so a kick finds a parked token within one revolution; a moving
// token parks within one hop of serving its target. A kick that
// returns to its own origin after the demand was already granted (the
// moving token served it en route) dies there.
//
// Cluster-confined state: per-cluster pending queues, grant caches,
// has-token and kick-in-flight flags (requests from cluster c's nodes
// are always queued, and granted, in c's context — the token comes to
// the requests, never the reverse). Handoff-owned state: the target
// cluster travels with the token.
// --------------------------------------------------------------------
class RotatingSequencer final : public SequencerBase {
 public:
  explicit RotatingSequencer(net::Network& net) : SequencerBase(net) {
    slots_.resize(static_cast<std::size_t>(topo().clusters()));
    slots_[0].has_token = true;  // parked at cluster 0, idle
    install_reply_handlers();
    for (net::ClusterId c = 0; c < topo().clusters(); ++c) {
      // The per-cluster sequencer runs on the cluster's first node.
      net::NodeId sn = seq_node(c);
      this->net().endpoint(sn).set_handler(kTagSeqRequest, [this, c](const net::Message& m) {
        on_local_request(c, net::payload_as<SeqRequest>(m));
      });
      this->net().endpoint(sn).set_handler(kTagSeqToken, [this, c](const net::Message& m) {
        if (m.bytes >= kTokenBytes) {
          on_token_arrival(c, net::payload_as<TokenMsg>(m).target);
        } else {
          on_kick(c, net::payload_as<TokenKick>(m).requester);
        }
      });
    }
  }

  void fail_pending(net::ClusterId cluster, std::exception_ptr e) override {
    ClusterSlot& s = slots_[static_cast<std::size_t>(cluster)];
    for (SeqRequest& r : s.pending) {
      if (!r.fut.ready()) r.fut.set_error(e);
    }
    s.pending.clear();
  }

 private:
  static constexpr std::size_t kTokenBytes = 32;
  static constexpr int kNoTarget = -1;

  /// The token on the wire: where it is headed (kNoTarget when it is
  /// just taking its one post-grant step before parking).
  struct TokenMsg {
    int target;
  };

  /// A wakeup chasing the parked token around the ring.
  struct TokenKick {
    net::ClusterId requester;
  };

  struct ClusterSlot {
    std::deque<SeqRequest> pending;
    GrantCache granted;
    bool has_token = false;      // token parked at this cluster
    bool kick_inflight = false;  // this cluster already woke the token
  };

  net::NodeId seq_node(net::ClusterId c) const { return topo().compute_node(c, 0); }

  void submit(SeqRequest req) override {
    const net::ClusterId c = topo().cluster_of(req.requester);
    if (req.requester == seq_node(c)) {
      // The request reaches the per-cluster sequencer without touching
      // the network, but its *grant* may still need the token to ring-
      // hop over lossy WAN links — so the timeout is armed regardless.
      on_local_request(c, std::move(req));
    } else {
      send_control(req.requester, seq_node(c), kTagSeqRequest,
                   net::make_payload<SeqRequest>(req), kControlBytes,
                   /*droppable=*/recovery_on());
    }
  }

  void on_local_request(net::ClusterId c, SeqRequest req) {
    ClusterSlot& s = slots_[static_cast<std::size_t>(c)];
    if (recovery_on()) {
      if (regrant_if_served(seq_node(c), req, s.granted)) return;
      // A retry of a request still parked in this cluster's queue:
      // refresh the future (the old attempt timed out) instead of
      // queueing — and granting — the same request id twice.
      for (SeqRequest& queued : s.pending) {
        if (queued.req_id == req.req_id) {
          faults()->note_dup_seq_request();
          queued.fut = req.fut;
          return;
        }
      }
    }
    s.pending.push_back(std::move(req));
    if (s.has_token) {
      serve_and_move(c);
    } else if (!s.kick_inflight) {
      s.kick_inflight = true;
      send_kick((c + 1) % topo().clusters(), c);
    }
    // If a kick is already out it will find the token; nothing to do.
  }

  void on_kick(net::ClusterId at, net::ClusterId requester) {
    ClusterSlot& s = slots_[static_cast<std::size_t>(at)];
    if (s.has_token) {
      // Found the parked token: relaunch it toward the requester. It
      // grants everything it passes on the way there.
      token_target_ = static_cast<int>(requester);
      serve_and_move(at);
      return;
    }
    if (at == requester && s.pending.empty()) {
      return;  // full circle and the demand is gone (granted en route): die
    }
    send_kick((at + 1) % topo().clusters(), requester);  // keep chasing
  }

  void on_token_arrival(net::ClusterId c, int target) {
    slots_[static_cast<std::size_t>(c)].has_token = true;
    token_target_ = target;
    serve_and_move(c);
  }

  /// Grants everything queued at the token's cluster, then moves the
  /// token along. "Each cluster broadcasts in turn": after issuing any
  /// grants the token always moves one step around the ring and parks
  /// at the next idle cluster, so a cluster that broadcasts repeatedly
  /// pays the full rotation every time — kick travel to the parked
  /// token plus token travel back always total one revolution. This is
  /// the behaviour the paper measures for the original ASP.
  void serve_and_move(net::ClusterId c) {
    ClusterSlot& s = slots_[static_cast<std::size_t>(c)];
    std::size_t granted_here = 0;
    while (!s.pending.empty()) {
      SeqRequest req = std::move(s.pending.front());
      s.pending.pop_front();
      grant(seq_node(c), std::move(req), take_seq(), s.granted);
      ++granted_here;
    }
    if (granted_here > 0) s.kick_inflight = false;  // demand served
    if (token_target_ == static_cast<int>(c)) token_target_ = kNoTarget;
    if (topo().clusters() == 1) return;  // degenerate ring: token stays put
    if (granted_here == 0 && token_target_ == kNoTarget) {
      return;  // idle cluster, nowhere to be: park here
    }
    s.has_token = false;
    pass_token(c);
  }

  void pass_token(net::ClusterId from) {
    net::ClusterId next = (from + 1) % topo().clusters();
    if (trace::Recorder* rec = eng().tracer()) {
      rec->instant(trace::Ev::SeqToken, seq_node(from), static_cast<std::uint64_t>(next));
    }
    net::Message m;
    m.src = seq_node(from);
    m.dst = seq_node(next);
    m.bytes = kTokenBytes;
    m.kind = net::MsgKind::Control;
    m.tag = kTagSeqToken;
    m.payload = net::make_payload<TokenMsg>(TokenMsg{token_target_});
    net().send(std::move(m));
  }

  void send_kick(net::ClusterId to, net::ClusterId requester) {
    send_control(seq_node((to + topo().clusters() - 1) % topo().clusters()), seq_node(to),
                 kTagSeqToken, net::make_payload<TokenKick>(TokenKick{requester}),
                 kControlBytes);
  }

  std::vector<ClusterSlot> slots_;
  int token_target_ = kNoTarget;  // handoff-owned: travels with the token
};

// --------------------------------------------------------------------
// Migrating: a centralized sequencer whose location follows demand.
// After `threshold` consecutive remote requests from one cluster (or an
// explicit application hint), the counter migrates to the requesting
// node, making subsequent get-sequence calls local. With
// kNeverMigrate as the threshold this is the paper's fixed centralized
// sequencer: it stays at its start node unless hint_migrate() or an
// adaptive arm moves it.
//
// Nobody reads a global location. Each cluster keeps a location *hint*,
// updated only when the sequencer itself is in that cluster (a migrate
// arrives there, or a local node takes a number there); requests go to
// the hinted node and chase per-node forwarding pointers left behind at
// every ex-active node. Arriving grants do not update the hint. A
// request can even outrun the migrate message to the new location
// (jitter reordering) — it parks in the new location's early queue and
// is served when the migrate arrives. Counter, grant cache and the
// consecutive-requester tally are handoff-owned: they conceptually
// travel inside the kTagSeqMigrate message, and only the active
// location's context touches them.
// --------------------------------------------------------------------
class MigratingSequencer final : public SequencerBase {
 public:
  MigratingSequencer(net::Network& net, net::NodeId start, int threshold)
      : SequencerBase(net), threshold_(threshold) {
    const int nodes = topo().num_nodes();
    active_.assign(static_cast<std::size_t>(nodes), 0);
    forward_.assign(static_cast<std::size_t>(nodes), -1);
    early_.resize(static_cast<std::size_t>(nodes));
    loc_hint_.assign(static_cast<std::size_t>(topo().clusters()), start);
    active_[static_cast<std::size_t>(start)] = 1;
    install_reply_handlers();
    for (int n = 0; n < nodes; ++n) {
      this->net().endpoint(n).set_handler(kTagSeqRequest, [this, n](const net::Message& m) {
        on_request(static_cast<net::NodeId>(n), net::payload_as<SeqRequest>(m));
      });
      this->net().endpoint(n).set_handler(kTagSeqMigrate, [this, n](const net::Message&) {
        on_migrate_arrival(static_cast<net::NodeId>(n));
      });
      this->net().endpoint(n).set_handler(kTagSeqHint, [this, n](const net::Message& m) {
        on_hint(static_cast<net::NodeId>(n), net::payload_as<SeqHint>(m).target);
      });
      this->net().endpoint(n).set_handler(kTagSeqArm, [this, n](const net::Message& m) {
        on_arm(static_cast<net::NodeId>(n), net::payload_as<SeqArm>(m).threshold);
      });
    }
  }

  void hint_migrate(net::NodeId node) override {
    if (active_[static_cast<std::size_t>(node)]) return;  // already here
    const net::ClusterId cluster = topo().cluster_of(node);
    // The hint is itself a routed control message — in a real system
    // "please migrate to me" has to reach the current location somehow.
    send_control(node, loc_hint_[static_cast<std::size_t>(cluster)], kTagSeqHint,
                 net::make_payload<SeqHint>(SeqHint{node}));
  }

  void adapt_arm(net::NodeId from, int threshold) override {
    if (active_[static_cast<std::size_t>(from)]) {
      apply_arm(from, threshold);
      return;
    }
    // Route like a hint: toward the cluster's believed location,
    // chasing forwarding pointers from there (see on_arm).
    send_control(from, loc_hint_[static_cast<std::size_t>(topo().cluster_of(from))], kTagSeqArm,
                 net::make_payload<SeqArm>(SeqArm{threshold}));
  }

  void fail_pending(net::ClusterId cluster, std::exception_ptr e) override {
    for (int i = 0; i < topo().nodes_per_cluster(); ++i) {
      auto& q = early_[static_cast<std::size_t>(topo().compute_node(cluster, i))];
      for (SeqRequest& r : q) {
        if (!r.fut.ready()) r.fut.set_error(e);
      }
      q.clear();
    }
  }

 private:
  std::optional<std::uint64_t> take_local(net::NodeId node) override {
    if (!active_[static_cast<std::size_t>(node)]) return std::nullopt;
    note_request_from(node);
    loc_hint_[static_cast<std::size_t>(topo().cluster_of(node))] = node;
    return take_seq();
  }

  void submit(SeqRequest req) override {
    // The hint is read at every attempt, so a retry sent after the
    // sequencer visited this cluster starts from the node it last served
    // from here; forwarding pointers take it on from there.
    const net::NodeId from = req.requester;
    send_control(from, loc_hint_[static_cast<std::size_t>(topo().cluster_of(from))],
                 kTagSeqRequest, net::make_payload<SeqRequest>(std::move(req)), kControlBytes,
                 /*droppable=*/recovery_on());
  }

  void on_request(net::NodeId at, SeqRequest req) {
    if (active_[static_cast<std::size_t>(at)]) {
      serve(at, std::move(req));
      return;
    }
    if (forward_[static_cast<std::size_t>(at)] >= 0) {
      // The sequencer moved on: chase it (same droppable service class
      // as the request itself).
      send_control(at, forward_[static_cast<std::size_t>(at)], kTagSeqRequest,
                   net::make_payload<SeqRequest>(req), kControlBytes, recovery_on());
      return;
    }
    // Not active and never migrated away: the migrate message naming
    // this node the new location is still in flight (the request was
    // forwarded or hint-routed past it). Park until it lands.
    early_[static_cast<std::size_t>(at)].push_back(std::move(req));
  }

  void serve(net::NodeId at, SeqRequest req) {
    // Duplicate check before note_request_from: a retried request must
    // not double-count toward the migration threshold.
    if (regrant_if_served(at, req, granted_)) return;
    const net::NodeId requester = req.requester;
    note_request_from(requester);
    grant(at, std::move(req), take_seq(), granted_);
    maybe_migrate(at, requester);
  }

  void on_migrate_arrival(net::NodeId node) {
    active_[static_cast<std::size_t>(node)] = 1;
    forward_[static_cast<std::size_t>(node)] = -1;  // may be a returning ex-location
    loc_hint_[static_cast<std::size_t>(topo().cluster_of(node))] = node;
    // Serve requests that outran the migrate. Serving can itself trigger
    // a migration away again, so route the remainder through on_request
    // (which forwards once this node stops being active).
    auto& q = early_[static_cast<std::size_t>(node)];
    while (!q.empty()) {
      SeqRequest req = std::move(q.front());
      q.pop_front();
      on_request(node, std::move(req));
    }
  }

  void on_hint(net::NodeId at, net::NodeId target) {
    if (!active_[static_cast<std::size_t>(at)]) {
      if (forward_[static_cast<std::size_t>(at)] >= 0) {
        send_control(at, forward_[static_cast<std::size_t>(at)], kTagSeqHint,
                     net::make_payload<SeqHint>(SeqHint{target}));
      }
      // else: the migrate naming this node is in flight; the hint is
      // advisory, drop it.
      return;
    }
    if (target != at) migrate_to(at, target);
  }

  void on_arm(net::NodeId at, int threshold) {
    if (!active_[static_cast<std::size_t>(at)]) {
      if (forward_[static_cast<std::size_t>(at)] >= 0) {
        send_control(at, forward_[static_cast<std::size_t>(at)], kTagSeqArm,
                     net::make_payload<SeqArm>(SeqArm{threshold}));
      }
      // else: the migrate naming this node is in flight. Arming is
      // advisory and idempotent — another cluster's (or a later
      // epoch's) arm will land — so drop it like a lost hint.
      return;
    }
    apply_arm(at, threshold);
  }

  /// Runs at the active location's context; threshold_ is handoff-owned.
  void apply_arm(net::NodeId at, int threshold) {
    if (threshold_ <= threshold) return;  // already armed at least this hard
    threshold_ = threshold;
    if (trace::Recorder* rec = eng().tracer()) {
      rec->instant(trace::Ev::SeqArmed, at, static_cast<std::uint64_t>(threshold));
    }
    // An existing streak may already clear the new threshold; the next
    // served request will notice — no migration is forced here, demand
    // still drives the move.
  }

  void note_request_from(net::NodeId requester) {
    const net::ClusterId c = topo().cluster_of(requester);
    if (c == consec_cluster_) {
      ++consec_count_;
    } else {
      consec_cluster_ = c;
      consec_count_ = 1;
    }
  }

  void maybe_migrate(net::NodeId at, net::NodeId requester) {
    if (topo().cluster_of(requester) == topo().cluster_of(at)) return;
    if (consec_count_ < threshold_) return;
    migrate_to(at, requester);
  }

  void migrate_to(net::NodeId from, net::NodeId node) {
    // The counter and grant cache travel in this control message
    // (charged); from this event on, `from` only forwards.
    send_control(from, node, kTagSeqMigrate, nullptr, 2 * kControlBytes);
    if (trace::Recorder* rec = eng().tracer()) {
      rec->instant(trace::Ev::SeqMigrate, from, static_cast<std::uint64_t>(node));
    }
    active_[static_cast<std::size_t>(from)] = 0;
    forward_[static_cast<std::size_t>(from)] = node;
    consec_cluster_ = topo().cluster_of(node);
    consec_count_ = 0;
  }

  int threshold_;  // handoff-owned since adapt_arm can lower it mid-run
  // Per-node slots: each element is that node's own view of the
  // sequencer; other nodes learn it only by message.
  std::vector<char> active_;          // 1 = requests are served here
  std::vector<net::NodeId> forward_;  // where an ex-location forwards to
  std::vector<std::deque<SeqRequest>> early_;  // outran-the-migrate parking
  std::vector<net::NodeId> loc_hint_;          // per cluster: believed location
  // Handoff-owned (travel with the migrate message):
  GrantCache granted_;
  net::ClusterId consec_cluster_ = -1;
  int consec_count_ = 0;
};

/// Threshold that keeps demand-driven migration from ever triggering: a
/// fixed centralized sequencer, or an adaptive one before its arm
/// message lowers the threshold.
constexpr int kNeverMigrate = 1 << 28;

}  // namespace

std::unique_ptr<Sequencer> make_sequencer(SequencerKind kind, net::Network& net,
                                          net::NodeId seq_node, int migrate_threshold) {
  switch (kind) {
    case SequencerKind::Centralized:
      return std::make_unique<MigratingSequencer>(net, seq_node, kNeverMigrate);
    case SequencerKind::Rotating:
      return std::make_unique<RotatingSequencer>(net);
    case SequencerKind::Migrating:
      return std::make_unique<MigratingSequencer>(net, seq_node, migrate_threshold);
  }
  return nullptr;
}

}  // namespace alb::orca
