// RPC and Remote<T> object semantics.

#include <gtest/gtest.h>

#include "net/presets.hpp"
#include "orca/runtime.hpp"
#include "orca/shared_object.hpp"
#include "paper.hpp"

namespace alb::orca {
namespace {

struct Counter {
  long long value = 0;
};

struct Fixture {
  sim::Engine eng;
  net::Network net;
  Runtime rt;
  explicit Fixture(net::TopologyConfig cfg, Runtime::Config rc = {})
      : net(eng, cfg), rt(net, rc) {}
};

TEST(Rpc, LocalInvocationIsFree) {
  Fixture f(net::das_config(1, 4));
  auto obj = create_remote<Counter>(f.rt, 0, {});
  sim::SimTime elapsed = -1;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank != 0) co_return;
    sim::SimTime t0 = p.now();
    co_await obj.invoke_void(p, 64, 8, [](Counter& c) { c.value += 5; });
    elapsed = p.now() - t0;
  });
  f.rt.run_all();
  EXPECT_EQ(elapsed, 0);
  EXPECT_EQ(obj.state().value, 5);
  EXPECT_EQ(f.net.stats().total_messages(), 0u);
}

TEST(Rpc, IntraClusterNullRpcTakes40us) {
  Fixture f(net::das_config(1, 4));
  auto obj = create_remote<Counter>(f.rt, 0, {});
  sim::SimTime elapsed = -1;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank != 1) co_return;
    sim::SimTime t0 = p.now();
    co_await obj.invoke_void(p, 0, 0, [](Counter& c) { ++c.value; });
    elapsed = p.now() - t0;
  });
  f.rt.run_all();
  // Paper Table 1: Myrinet null RPC latency.
  EXPECT_EQ(elapsed, sim::microseconds(bench::paper::kRpc.lan_latency_us));
}

TEST(Rpc, InterClusterNullRpcTakes2700us) {
  Fixture f(net::das_config(2, 4));
  auto obj = create_remote<Counter>(f.rt, 0, {});
  sim::SimTime elapsed = -1;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank != 4) co_return;  // first node of cluster 1
    sim::SimTime t0 = p.now();
    co_await obj.invoke_void(p, 0, 0, [](Counter& c) { ++c.value; });
    elapsed = p.now() - t0;
  });
  f.rt.run_all();
  // Paper Table 1: WAN null RPC latency.
  EXPECT_NEAR(static_cast<double>(elapsed), bench::paper::kRpc.wan_latency_ms * 1e6, 0.1e6);
}

TEST(Rpc, ReturnsValues) {
  Fixture f(net::das_config(2, 2));
  auto obj = create_remote<Counter>(f.rt, 0, Counter{100});
  long long got = 0;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank != 3) co_return;
    got = co_await obj.invoke<long long>(p, 16, 16, [](Counter& c) {
      c.value += 11;
      return c.value;
    });
  });
  f.rt.run_all();
  EXPECT_EQ(got, 111);
}

TEST(Rpc, ConcurrentCallsSerializeAtOwnerButAllComplete) {
  Fixture f(net::das_config(1, 8));
  auto obj = create_remote<Counter>(f.rt, 0, {});
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await obj.invoke_void(p, 8, 8, [](Counter& c) { ++c.value; });
    }
  });
  f.rt.run_all();
  EXPECT_EQ(obj.state().value, 80);
}

TEST(Rpc, ServiceTimeDelaysReply) {
  Fixture f(net::das_config(1, 2));
  auto obj = create_remote<Counter>(f.rt, 0, {});
  sim::SimTime elapsed = -1;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank != 1) co_return;
    sim::SimTime t0 = p.now();
    co_await obj.invoke_void(p, 0, 0, [](Counter& c) { ++c.value; },
                             sim::microseconds(500));
    elapsed = p.now() - t0;
  });
  f.rt.run_all();
  EXPECT_EQ(elapsed, sim::microseconds(540));
}

TEST(Rpc, TrafficAccounted) {
  Fixture f(net::das_config(2, 2));
  auto obj = create_remote<Counter>(f.rt, 0, {});
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 1) {  // same cluster as owner
      co_await obj.invoke_void(p, 100, 20, [](Counter& c) { ++c.value; });
    } else if (p.rank == 2) {  // remote cluster
      co_await obj.invoke_void(p, 100, 20, [](Counter& c) { ++c.value; });
    }
  });
  f.rt.run_all();
  const auto& s = f.net.stats();
  EXPECT_EQ(s.intra_rpc_count(), 1u);
  EXPECT_EQ(s.inter_rpc_count(), 1u);
  EXPECT_EQ(s.inter_rpc_bytes(), 120u);
}

TEST(Messaging, SendRecvRoundtrip) {
  Fixture f(net::das_config(2, 2));
  std::vector<int> got;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 0) {
      f.rt.send_data(p, 3, /*tag=*/7, 128, net::make_payload<int>(42));
    } else if (p.rank == 3) {
      net::Message m = co_await f.rt.recv_data(p, 7);
      got.push_back(net::payload_as<int>(m));
    }
  });
  f.rt.run_all();
  EXPECT_EQ(got, (std::vector<int>{42}));
}

TEST(SplitPhase, PostReturnsImmediatelyReceiveBlocks) {
  // The split-phase pattern of SOR (§4.8): post the send, compute while
  // it crosses the WAN, then block on the receive.
  Fixture f(net::das_config(2, 2));
  sim::SimTime posted_at = -1;
  sim::SimTime received_at = -1;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 0) {
      f.rt.send_data(p, 2, /*tag=*/5, 4096);  // crosses the WAN
      posted_at = p.now();
      co_await p.compute(sim::milliseconds(1));
    } else if (p.rank == 2) {
      (void)co_await f.rt.recv_data(p, 5);
      received_at = p.now();
    }
  });
  f.rt.run_all();
  EXPECT_EQ(posted_at, 0);                       // fire-and-forget
  EXPECT_GT(received_at, sim::milliseconds(1));  // WAN transit
}

TEST(Barrier, SynchronizesAllProcesses) {
  Fixture f(net::das_config(2, 4));
  std::vector<sim::SimTime> after(8, -1);
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    co_await p.compute(p.rank * sim::microseconds(100));  // skewed arrival
    co_await f.rt.barrier(p);
    after[static_cast<std::size_t>(p.rank)] = p.now();
  });
  f.rt.run_all();
  // Nobody may pass the barrier before the last arrival at 700 us.
  for (auto t : after) EXPECT_GE(t, sim::microseconds(700));
  // Release costs at least one WAN traversal for the remote cluster.
  EXPECT_GT(*std::max_element(after.begin(), after.end()), sim::milliseconds(1));
}

TEST(Barrier, WorksRepeatedly) {
  Fixture f(net::das_config(2, 2));
  int laps = 0;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await f.rt.barrier(p);
      if (p.rank == 0) ++laps;
    }
  });
  f.rt.run_all();
  EXPECT_EQ(laps, 5);
}

TEST(Barrier, SingleProcessIsInstant) {
  Fixture f(net::das_config(1, 1));
  bool done = false;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    co_await f.rt.barrier(p);
    done = true;
  });
  f.rt.run_all();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.net.stats().total_messages(), 0u);
}

TEST(Runtime, TracksCompletionTimes) {
  Fixture f(net::das_config(1, 4));
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    co_await p.compute(sim::microseconds(10) * (p.rank + 1));
  });
  sim::SimTime t = f.rt.run_all();
  EXPECT_EQ(t, sim::microseconds(40));
  EXPECT_EQ(f.rt.finished_procs(), 4);
}

TEST(Proc, ClusterIntrospection) {
  Fixture f(net::das_config(4, 15));
  bool checked = false;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 33) {
      EXPECT_EQ(p.cluster(), 2);
      EXPECT_EQ(p.clusters(), 4);
      EXPECT_EQ(p.procs_per_cluster(), 15);
      EXPECT_EQ(p.index_in_cluster(), 3);
      EXPECT_EQ(p.cluster_leader(), 30);
      EXPECT_FALSE(p.is_cluster_leader());
      EXPECT_TRUE(p.same_cluster(44));
      EXPECT_FALSE(p.same_cluster(29));
      checked = true;
    }
    co_return;
  });
  f.rt.run_all();
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace alb::orca
