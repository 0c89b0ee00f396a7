// Orca retry/recovery protocol under injected WAN faults.
//
// Covers the whole recovery surface: timeout-driven RPC retries,
// duplicate suppression on both sides (requests re-executed never,
// grants re-issued never), sequencer grant recovery, the bounded-retry
// hard-failure path (typed AppResult error instead of a hang, every
// process unwound — no leaked coroutine frames under ASan), and the
// channel-poisoning fan-out that unblocks raw-message receivers.

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "apps/tsp.hpp"
#include "net/fault.hpp"
#include "net/presets.hpp"
#include "orca/runtime.hpp"
#include "orca/shared_object.hpp"

namespace alb::orca {
namespace {

struct Counter {
  long long value = 0;
};

/// Direct network+runtime stack with a fault plan (the app harness
/// equivalent, minus the app).
struct FaultedFixture {
  sim::Engine eng;
  net::Network net;
  Runtime rt;
  FaultedFixture(net::TopologyConfig cfg, const net::FaultPlan& plan,
                 Runtime::Config rc = {})
      : net(eng, cfg, plan, /*fault_seed=*/42), rt(net, rc) {}
};

net::FaultPlan fast_recovery_plan() {
  net::FaultPlan p;
  p.enabled = true;
  p.recovery.rpc_timeout = sim::milliseconds(10);
  p.recovery.seq_timeout = sim::milliseconds(10);
  p.recovery.max_attempts = 6;
  return p;
}

/// Rank 1 makes one RPC to an object on rank 0 and returns how often
/// the operation ran. `blocking` sends it through rpc_blocking with a
/// handler that awaits a delay before replying, instead of the plain
/// rpc() path that invoke_void takes.
int one_remote_increment(FaultedFixture& f, bool blocking) {
  auto obj = create_remote<Counter>(f.rt, 0, {});
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank != 1) co_return;
    if (!blocking) {
      co_await obj.invoke_void(p, 64, 16, [](Counter& c) { ++c.value; });
      co_return;
    }
    sim::Engine* eng = &f.eng;
    std::function<sim::Task<std::shared_ptr<const void>>()> op =
        [eng, &obj]() -> sim::Task<std::shared_ptr<const void>> {
      co_await eng->delay(sim::milliseconds(2));
      ++obj.state().value;
      co_return nullptr;
    };
    (void)co_await f.rt.rpc_blocking(p.node, 0, 64, 16, std::move(op));
  });
  f.rt.run_all();
  return static_cast<int>(obj.state().value);
}

TEST(Recovery, RpcRetriesAfterForcedRequestDrop) {
  // Drop the first droppable WAN message (the RPC request); the retry
  // must go through and the operation must execute exactly once.
  // force_drop ordinals count per source cluster; restrict the rule to
  // cluster 1 (the caller) so only the request drops, not the reply.
  for (const bool blocking : {false, true}) {
    SCOPED_TRACE(blocking ? "rpc_blocking" : "rpc");
    net::FaultPlan plan = fast_recovery_plan();
    plan.force_drop = {0};
    plan.force_drop_from = 1;
    FaultedFixture f(net::das_config(2, 1), plan);
    EXPECT_EQ(one_remote_increment(f, blocking), 1);
    ASSERT_NE(f.net.faults(), nullptr);
    EXPECT_EQ(f.net.faults()->drops(), 1u);
    EXPECT_EQ(f.net.faults()->retries(), 1u);
    EXPECT_EQ(f.net.faults()->rpc_timeouts(), 1u);
    EXPECT_EQ(f.net.faults()->dup_rpc_requests(), 0u);
    EXPECT_FALSE(f.net.faults()->failed());
  }
}

TEST(Recovery, LostReplyIsNotReExecuted) {
  // The request (cluster 1's WAN stream) goes through; its *reply* —
  // cluster 0's droppable index 0 — is dropped. The retried request
  // must hit the server's dedup cache: the operation runs once, the
  // cached reply is resent.
  for (const bool blocking : {false, true}) {
    SCOPED_TRACE(blocking ? "rpc_blocking" : "rpc");
    net::FaultPlan plan = fast_recovery_plan();
    plan.force_drop = {0};
    plan.force_drop_from = 0;
    FaultedFixture f(net::das_config(2, 1), plan);
    EXPECT_EQ(one_remote_increment(f, blocking), 1) << "a duplicate request re-executed the op";
    EXPECT_EQ(f.net.faults()->drops(), 1u);
    EXPECT_EQ(f.net.faults()->retries(), 1u);
    EXPECT_EQ(f.net.faults()->rpc_timeouts(), 1u);
    EXPECT_EQ(f.net.faults()->dup_rpc_requests(), 1u);
    EXPECT_FALSE(f.net.faults()->failed());
  }
}

TEST(Recovery, SequencerRegrantsLostGrant) {
  // Force the centralized sequencer onto cluster 0 and broadcast from
  // cluster 1: the get-sequence request rides cluster 1's WAN stream,
  // the grant is cluster 0's droppable index 0. Dropping the grant must
  // trigger a regrant of the SAME sequence number — issued() stays 1,
  // the broadcast applies exactly once everywhere.
  net::FaultPlan plan = fast_recovery_plan();
  plan.force_drop = {0};
  plan.force_drop_from = 0;
  Runtime::Config rc;
  rc.sequencer = SequencerKind::Centralized;
  FaultedFixture f(net::das_config(2, 1), plan, rc);
  auto obj = create_replicated<Counter>(f.rt, {});
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank != 1) co_return;
    co_await obj.write(p, 32, [](Counter& c) { ++c.value; });
  });
  f.rt.run_all();
  EXPECT_EQ(f.rt.sequencer().issued(), 1u);
  EXPECT_EQ(obj.local(f.rt.proc(0)).value, 1);
  EXPECT_EQ(obj.local(f.rt.proc(1)).value, 1);
  EXPECT_EQ(f.net.faults()->drops(), 1u);
  EXPECT_EQ(f.net.faults()->seq_timeouts(), 1u);
  EXPECT_FALSE(f.net.faults()->failed());
}

TEST(Recovery, TspCompletesUnderWanLoss) {
  // The acceptance workload shape: original (centralized-queue) TSP,
  // every job fetch an intercluster RPC, 5% WAN loss. The run must
  // complete through retries with the right answer.
  apps::TspParams prm;
  prm.cities = 11;
  prm.job_depth = 3;
  const apps::AppConfig clean = [] {
    apps::AppConfig c;
    c.clusters = 2;
    c.procs_per_cluster = 2;
    c.net_cfg = net::das_config(2, 2);
    c.seed = 42;
    return c;
  }();
  const apps::AppResult base = run_tsp(clean, prm);

  apps::AppConfig faulted = clean;
  faulted.faults.enabled = true;
  faulted.faults.wan.loss = 0.05;
  const apps::AppResult r = run_tsp(faulted, prm);

  EXPECT_EQ(r.status, apps::AppResult::RunStatus::Ok);
  EXPECT_TRUE(r.error.empty());
  EXPECT_EQ(r.checksum, base.checksum) << "retries changed the computed answer";
  EXPECT_GT(r.stats.value("net/fault.drops"), 0.0);
  EXPECT_GT(r.stats.value("net/fault.retries"), 0.0);
  // Recovery may slow the run down but never speeds it up.
  EXPECT_GE(r.elapsed, base.elapsed);
}

TEST(Recovery, BoundedRetriesSurfaceTypedHardFailure) {
  // Total WAN loss: every retry is futile. The run must terminate (no
  // hang), surface a typed error with a useful description, and unwind
  // every process (ASan would flag any leaked coroutine frame).
  apps::TspParams prm;
  prm.cities = 10;
  prm.job_depth = 3;
  apps::AppConfig cfg;
  cfg.clusters = 2;
  cfg.procs_per_cluster = 2;
  cfg.net_cfg = net::das_config(2, 2);
  cfg.seed = 42;
  cfg.faults.enabled = true;
  cfg.faults.wan.loss = 1.0;
  cfg.faults.recovery.rpc_timeout = sim::milliseconds(1);
  cfg.faults.recovery.seq_timeout = sim::milliseconds(1);
  cfg.faults.recovery.max_attempts = 3;

  const apps::AppResult r = run_tsp(cfg, prm);
  EXPECT_EQ(r.status, apps::AppResult::RunStatus::HardFailure);
  EXPECT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("timed out"), std::string::npos) << r.error;
  EXPECT_GT(r.stats.value("net/fault.hard_failures"), 0.0);
}

TEST(Recovery, HardFailureUnblocksRawMessageReceivers) {
  // Rank 0 blocks forever in a raw recv_data; rank 1 exhausts its RPC
  // retries. The failure fan-out must poison rank 0's mailbox so both
  // processes unwind — finished_procs() reaching nprocs() is the proof
  // the engine did not deadlock and no frame leaked.
  net::FaultPlan plan = fast_recovery_plan();
  plan.wan.loss = 1.0;
  plan.recovery.rpc_timeout = sim::milliseconds(1);
  plan.recovery.max_attempts = 3;
  auto f = std::make_unique<FaultedFixture>(net::das_config(2, 1), plan);
  auto obj = create_remote<Counter>(f->rt, 0, {});
  f->rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 0) {
      co_await f->rt.recv_data(p, /*tag=*/7);  // never sent
      ADD_FAILURE() << "rank 0 resumed with a message that does not exist";
    } else {
      co_await obj.invoke_void(p, 64, 16, [](Counter& c) { ++c.value; });
      ADD_FAILURE() << "rank 1's RPC succeeded over a 100%-loss WAN";
    }
  });
  f->rt.run_all();
  EXPECT_TRUE(f->net.faults()->failed());
  EXPECT_EQ(f->rt.finished_procs(), f->rt.nprocs());
  EXPECT_EQ(obj.state().value, 0);
}

TEST(Recovery, FaultedRunsAreDeterministic) {
  // Same (seed, plan) → same trace hash, twice in the same process.
  apps::TspParams prm;
  prm.cities = 10;
  prm.job_depth = 3;
  apps::AppConfig cfg;
  cfg.clusters = 2;
  cfg.procs_per_cluster = 2;
  cfg.net_cfg = net::das_config(2, 2);
  cfg.seed = 7;
  cfg.faults.enabled = true;
  cfg.faults.wan.loss = 0.1;
  cfg.faults.wan.latency_jitter = 0.25;
  const apps::AppResult a = run_tsp(cfg, prm);
  const apps::AppResult b = run_tsp(cfg, prm);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.stats.value("net/fault.retries"), b.stats.value("net/fault.retries"));
}

}  // namespace
}  // namespace alb::orca
