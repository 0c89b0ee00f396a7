// cluster_reduce / cluster_allreduce / ClusterReducer and
// the two job-queue flavours.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/cluster_reduce.hpp"
#include "core/job_queue.hpp"
#include "net/presets.hpp"

namespace alb::wide {
namespace {

struct Fixture {
  sim::Engine eng;
  net::Network net;
  orca::Runtime rt;
  explicit Fixture(net::TopologyConfig cfg) : net(eng, cfg), rt(net) {}
};

long long add(long long a, long long b) { return a + b; }

TEST(ClusterReduce, RootGetsSumOfAllRanks) {
  Fixture f(net::das_config(4, 4));
  long long result = -1;
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    long long v = co_await cluster_reduce<long long>(f.rt, p, 100, p.rank, 8, add);
    if (p.rank == 0) result = v;
  });
  f.rt.run_all();
  EXPECT_EQ(result, 15 * 16 / 2);  // sum 0..15
}

TEST(ClusterReduce, OneInterClusterMessagePerRemoteCluster) {
  Fixture f(net::das_config(4, 4));
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    (void)co_await cluster_reduce<long long>(f.rt, p, 100, 1, 8, add);
  });
  f.rt.run_all();
  EXPECT_EQ(f.net.stats().kind(net::MsgKind::Data).inter_msgs, 3u);
}

TEST(ClusterAllreduce, EveryoneGetsTheResult) {
  Fixture f(net::das_config(2, 3));
  std::vector<long long> results(6, -1);
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    results[static_cast<std::size_t>(p.rank)] =
        co_await cluster_allreduce<long long>(f.rt, p, 200, p.rank + 1, 8, add);
  });
  f.rt.run_all();
  for (auto r : results) EXPECT_EQ(r, 21);  // sum 1..6
}

TEST(ClusterAllreduce, WorksOnSingleProcess) {
  Fixture f(net::das_config(1, 1));
  long long result = -1;
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    result = co_await cluster_allreduce<long long>(f.rt, p, 200, 7, 8, add);
  });
  f.rt.run_all();
  EXPECT_EQ(result, 7);
}

TEST(ClusterReducer, CombinesBeforeCrossingWan) {
  Fixture f(net::das_config(2, 4));
  std::vector<long long> applied(8, 0);
  ClusterReducer<long long> red(
      f.rt, 64, [](long long&& a, const long long& b) { return a + b; },
      [&](int owner, long long&& v) { applied[static_cast<std::size_t>(owner)] += v; });
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    if (p.cluster() == 1) {
      // All of cluster 1 contributes 10*rank toward owner 0.
      co_await red.contribute(p, 0, 0, 10LL * p.rank, /*expected=*/4);
    }
  });
  f.rt.run_all();
  EXPECT_EQ(applied[0], 10 * (4 + 5 + 6 + 7));
  // One combined WAN RPC instead of four.
  EXPECT_EQ(f.net.stats().inter_rpc_count(), 1u);
}

TEST(ClusterReducer, DisabledSendsEachUpdateOverWan) {
  Fixture f(net::das_config(2, 4));
  std::vector<long long> applied(8, 0);
  ClusterReducer<long long> red(
      f.rt, 64, [](long long&& a, const long long& b) { return a + b; },
      [&](int owner, long long&& v) { applied[static_cast<std::size_t>(owner)] += v; },
      /*enabled=*/false);
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    if (p.cluster() == 1) {
      co_await red.contribute(p, 0, 0, 1, 4);
    }
  });
  f.rt.run_all();
  EXPECT_EQ(applied[0], 4);
  EXPECT_EQ(f.net.stats().inter_rpc_count(), 4u);
}

TEST(CentralJobQueue, DispensesEveryJobExactlyOnce) {
  Fixture f(net::das_config(2, 3));
  CentralJobQueue<int> q(f.rt, 0, 32);
  std::vector<int> jobs(20);
  std::iota(jobs.begin(), jobs.end(), 0);
  q.seed(jobs);
  std::set<int> taken;
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    while (auto j = co_await q.get(p)) {
      EXPECT_TRUE(taken.insert(*j).second) << "job dispensed twice";
    }
  });
  f.rt.run_all();
  EXPECT_EQ(taken.size(), 20u);
}

TEST(CentralJobQueue, RemoteWorkersPayWanPerJob) {
  Fixture f(net::das_config(2, 2));
  CentralJobQueue<int> q(f.rt, 0, 32);
  q.seed({1, 2, 3, 4, 5, 6});
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    if (p.cluster() != 1) co_return;  // only remote workers pull
    while (auto j = co_await q.get(p)) {
      co_await p.compute(sim::microseconds(10));
    }
  });
  f.rt.run_all();
  // 6 jobs + 2 empty polls, all across the WAN.
  EXPECT_EQ(f.net.stats().inter_rpc_count(), 8u);
}

TEST(ClusterJobQueues, KeepsJobFetchesLocal) {
  Fixture f(net::das_config(4, 2));
  ClusterJobQueues<int> q(f.rt, 32);
  std::vector<int> jobs(40);
  std::iota(jobs.begin(), jobs.end(), 0);
  q.seed(jobs);
  std::set<int> taken;
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    while (auto j = co_await q.get(p)) {
      EXPECT_TRUE(taken.insert(*j).second);
      co_await p.compute(sim::microseconds(5));
    }
  });
  f.rt.run_all();
  EXPECT_EQ(taken.size(), 40u);
  EXPECT_EQ(f.net.stats().inter_rpc_count(), 0u);  // the whole point
}

TEST(ClusterJobQueues, RoundRobinSeedBalancesClusters) {
  Fixture f(net::das_config(2, 1));
  ClusterJobQueues<int> q(f.rt, 16);
  q.seed({0, 1, 2, 3, 4});
  std::vector<std::vector<int>> per_proc(2);
  f.rt.spawn_all([&](orca::Proc& p) -> sim::Task<void> {
    while (auto j = co_await q.get(p)) {
      per_proc[static_cast<std::size_t>(p.rank)].push_back(*j);
    }
  });
  f.rt.run_all();
  EXPECT_EQ(per_proc[0], (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(per_proc[1], (std::vector<int>{1, 3}));
}

}  // namespace
}  // namespace alb::wide
