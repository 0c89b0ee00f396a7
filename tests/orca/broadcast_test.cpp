// Replicated objects, totally-ordered broadcast, and sequencer
// strategies. The central property: every replica applies the same
// write sequence in the same order, for every sequencer kind and
// topology (parameterized sweep below).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "net/presets.hpp"
#include "orca/broadcast.hpp"
#include "orca/runtime.hpp"
#include "orca/shared_object.hpp"
#include "orca/tags.hpp"
#include "paper.hpp"

namespace alb::orca {
namespace {

struct Log {
  std::vector<int> entries;
};

struct Fixture {
  sim::Engine eng;
  net::Network net;
  Runtime rt;
  Fixture(net::TopologyConfig cfg, Runtime::Config rc = {}) : net(eng, cfg), rt(net, rc) {}
};

// Names the two fields the sequencer sweeps care about (Runtime::Config
// has grown tail fields past them).
Runtime::Config seq_cfg(SequencerKind kind, int migrate_threshold) {
  Runtime::Config rc;
  rc.sequencer = kind;
  rc.migrate_threshold = migrate_threshold;
  return rc;
}

TEST(Replicated, ReadIsLocalAndFree) {
  Fixture f(net::das_config(2, 4));
  auto obj = create_replicated<Log>(f.rt, Log{{1, 2, 3}});
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    sim::SimTime t0 = p.now();
    int n = obj.read(p, [](const Log& l) { return static_cast<int>(l.entries.size()); });
    EXPECT_EQ(n, 3);
    EXPECT_EQ(p.now(), t0);
    co_return;
  });
  f.rt.run_all();
  EXPECT_EQ(f.net.stats().total_messages(), 0u);
}

TEST(Replicated, WriteReachesAllReplicas) {
  Fixture f(net::das_config(2, 4));
  auto obj = create_replicated<Log>(f.rt, Log{});
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 0) {
      co_await obj.write(p, 64, [](Log& l) { l.entries.push_back(99); });
    }
  });
  f.rt.run_all();
  for (int r = 0; r < f.rt.nprocs(); ++r) {
    EXPECT_EQ(obj.local(f.rt.proc(r)).entries, (std::vector<int>{99})) << "rank " << r;
  }
}

TEST(Replicated, SingleClusterNullBroadcastTakes65us) {
  // Paper Table 1: replicated-object update latency on Myrinet,
  // measured as the time until the update is applied at the other
  // replicas: get-sequence RPC to the sequencer (a null RPC, two
  // control hops) plus hardware broadcast delivery (25 us).
  const double lat_us = bench::paper::kBroadcast.lan_latency_us;
  Fixture f(net::das_config(1, 8));
  auto obj = create_replicated<Log>(f.rt, Log{});
  sim::SimTime delivered = -1;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 5) {
      co_await obj.wait_until(p, [](const Log& l) { return !l.entries.empty(); });
      delivered = p.now();
    } else if (p.rank == 3) {
      co_await obj.write(p, 0, [](Log& l) { l.entries.push_back(1); });
      // The writer itself returns after the get-sequence roundtrip plus
      // local application — it does not wait for remote delivery.
      EXPECT_LT(p.now(), sim::microseconds(lat_us));
      EXPECT_GE(p.now(), sim::microseconds(bench::paper::kRpc.lan_latency_us));
    }
  });
  f.rt.run_all();
  // 16-byte control framing adds ~1.2 us over the idealized latency.
  EXPECT_NEAR(static_cast<double>(delivered), lat_us * 1e3, 2e3);
}

using SweepParam = std::tuple<SequencerKind, int /*clusters*/, int /*per cluster*/>;

class TotalOrderSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TotalOrderSweep, AllReplicasApplyIdenticalSequences) {
  auto [kind, clusters, per] = GetParam();
  Fixture f(net::das_config(clusters, per), seq_cfg(kind, 2));
  auto obj = create_replicated<Log>(f.rt, Log{});
  const int writes_per_proc = 5;
  f.rt.spawn_all([&, kind = kind](Proc& p) -> sim::Task<void> {
    for (int i = 0; i < writes_per_proc; ++i) {
      int stamp = p.rank * 1000 + i;
      co_await p.compute(sim::microseconds((p.rank * 13 + i * 7) % 40));
      co_await obj.write(p, 32, [stamp](Log& l) { l.entries.push_back(stamp); });
    }
  });
  f.rt.run_all();

  const int n = f.rt.nprocs();
  const auto& reference = obj.local(f.rt.proc(0)).entries;
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(n * writes_per_proc));
  for (int r = 1; r < n; ++r) {
    EXPECT_EQ(obj.local(f.rt.proc(r)).entries, reference) << "rank " << r;
  }
  // Per-writer order must be preserved (FIFO per process).
  for (int r = 0; r < n; ++r) {
    int last = -1;
    for (int v : reference) {
      if (v / 1000 == r) {
        EXPECT_GT(v, last);
        last = v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SequencersAndTopologies, TotalOrderSweep,
    ::testing::Combine(::testing::Values(SequencerKind::Centralized, SequencerKind::Rotating,
                                         SequencerKind::Migrating),
                       ::testing::Values(1, 2, 4), ::testing::Values(1, 3, 4)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      SequencerKind kind = std::get<0>(info.param);
      const char* k = kind == SequencerKind::Centralized ? "Centralized"
                      : kind == SequencerKind::Rotating  ? "Rotating"
                                                          : "Migrating";
      return std::string(k) + "_" + std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Replicated, WaitUntilWakesOnWrite) {
  Fixture f(net::das_config(2, 2));
  auto obj = create_replicated<Log>(f.rt, Log{});
  sim::SimTime woke = -1;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 3) {
      co_await obj.wait_until(p, [](const Log& l) { return l.entries.size() >= 2; });
      woke = p.now();
      EXPECT_EQ(obj.local(p).entries.size(), 2u);
    } else if (p.rank == 0) {
      co_await p.compute(sim::milliseconds(1));
      co_await obj.write(p, 16, [](Log& l) { l.entries.push_back(1); });
      co_await p.compute(sim::milliseconds(1));
      co_await obj.write(p, 16, [](Log& l) { l.entries.push_back(2); });
    }
  });
  f.rt.run_all();
  EXPECT_GT(woke, sim::milliseconds(2));
}

TEST(Replicated, WaitUntilPassesImmediatelyWhenTrue) {
  Fixture f(net::das_config(1, 2));
  auto obj = create_replicated<Log>(f.rt, Log{{7}});
  bool done = false;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 1) {
      co_await obj.wait_until(p, [](const Log& l) { return !l.entries.empty(); });
      done = true;
    }
  });
  f.rt.run_all();
  EXPECT_TRUE(done);
}

TEST(Replicated, AsyncWriteDoesNotBlockSender) {
  Fixture f(net::das_config(2, 4));
  auto obj = create_replicated<Log>(f.rt, Log{});
  sim::SimTime sender_elapsed = -1;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 0) {
      sim::SimTime t0 = p.now();
      for (int i = 0; i < 10; ++i) {
        obj.write_async(p, 32, [i](Log& l) { l.entries.push_back(i); });
      }
      sender_elapsed = p.now() - t0;
    }
    co_return;
  });
  f.rt.run_all();
  EXPECT_EQ(sender_elapsed, 0);  // fire-and-forget
  // All replicas converge (commutative-enough here: same single writer).
  for (int r = 0; r < f.rt.nprocs(); ++r) {
    EXPECT_EQ(obj.local(f.rt.proc(r)).entries.size(), 10u) << "rank " << r;
  }
}

TEST(Sequencer, MigratingBecomesLocalAfterThreshold) {
  // A remote cluster that broadcasts repeatedly should see get-sequence
  // become cheap once the sequencer migrates to it.
  Fixture f(net::das_config(2, 4),
            seq_cfg(SequencerKind::Migrating, /*migrate_threshold=*/2));
  auto obj = create_replicated<Log>(f.rt, Log{});
  std::vector<sim::SimTime> costs;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank != 4) co_return;  // cluster 1; sequencer starts at node 0
    for (int i = 0; i < 6; ++i) {
      sim::SimTime t0 = p.now();
      co_await obj.write(p, 16, [i](Log& l) { l.entries.push_back(i); });
      costs.push_back(p.now() - t0);
    }
  });
  f.rt.run_all();
  ASSERT_EQ(costs.size(), 6u);
  EXPECT_GT(costs[0], sim::milliseconds(2));   // first write pays WAN get-seq
  EXPECT_LT(costs[5], sim::microseconds(100));  // after migration: local
}

TEST(Sequencer, RotatingKeepsSingleClusterFast) {
  Fixture f(net::das_config(1, 8), seq_cfg(SequencerKind::Rotating, 2));
  auto obj = create_replicated<Log>(f.rt, Log{});
  sim::SimTime elapsed = -1;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank != 3) co_return;
    sim::SimTime t0 = p.now();
    co_await obj.write(p, 0, [](Log& l) { l.entries.push_back(1); });
    elapsed = p.now() - t0;
  });
  f.rt.run_all();
  EXPECT_LE(elapsed, sim::microseconds(80));
}

TEST(Sequencer, RotatingRemoteClusterPaysWanHops) {
  Fixture f(net::das_config(4, 2), seq_cfg(SequencerKind::Rotating, 2));
  auto obj = create_replicated<Log>(f.rt, Log{});
  std::vector<sim::SimTime> costs;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank != 6) co_return;  // cluster 3; token starts parked at cluster 0
    for (int i = 0; i < 3; ++i) {
      sim::SimTime t0 = p.now();
      co_await obj.write(p, 16, [i](Log& l) { l.entries.push_back(i); });
      costs.push_back(p.now() - t0);
    }
  });
  f.rt.run_all();
  // Every write needs the token kicked and ring-forwarded over the WAN:
  // cluster 3 sends each broadcast "in turn".
  for (auto c : costs) EXPECT_GT(c, sim::milliseconds(2));
}

TEST(Sequencer, HintMigrateMovesSequencerForLaterWrites) {
  Fixture f(net::das_config(2, 4), seq_cfg(SequencerKind::Migrating, 100));
  auto obj = create_replicated<Log>(f.rt, Log{});
  std::vector<sim::SimTime> costs;
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank != 4) co_return;
    f.rt.sequencer().hint_migrate(p.node);
    for (int i = 0; i < 3; ++i) {
      sim::SimTime t0 = p.now();
      co_await obj.write(p, 16, [i](Log& l) { l.entries.push_back(i); });
      costs.push_back(p.now() - t0);
    }
  });
  f.rt.run_all();
  // The hint is a routed control message, not a teleport: the first
  // write overlaps the in-flight migration and still pays WAN latency.
  // Once the sequencer lands on the writer's node, sequencing is local.
  ASSERT_EQ(costs.size(), 3u);
  EXPECT_GT(costs[0], sim::milliseconds(2));
  EXPECT_LT(costs[1], sim::microseconds(100));
  EXPECT_LT(costs[2], sim::microseconds(100));
}

TEST(Broadcast, InterClusterTrafficCountsOnePerRemoteCluster) {
  Fixture f(net::das_config(4, 2));
  auto obj = create_replicated<Log>(f.rt, Log{});
  f.rt.spawn_all([&](Proc& p) -> sim::Task<void> {
    if (p.rank == 0) {
      co_await obj.write(p, 100, [](Log& l) { l.entries.push_back(1); });
    }
  });
  f.rt.run_all();
  // 3 remote clusters -> 3 WAN crossings of the data message.
  EXPECT_EQ(f.net.stats().kind(net::MsgKind::Bcast).inter_msgs, 3u);
}

// --- reorder buffer ------------------------------------------------
// The tests below drive a BroadcastEngine directly: a sequencer that
// grants a number the test picks, and shipments handed straight to a
// node's endpoint in an order the test picks.

class FixedSequencer : public Sequencer {
 public:
  std::uint64_t grant = 0;
  sim::Task<std::uint64_t> get_sequence(net::NodeId) override { co_return grant; }
  std::uint64_t issued() const override { return 0; }
};

struct ReorderFixture {
  sim::Engine eng;
  net::Network net{eng, net::das_config(1, 2)};
  FixedSequencer seq;
  coll::Engine coll{net, coll::Config{}};
  // object_id carries each op's sequence number; per node, in apply order.
  std::vector<std::vector<int>> applied{2};
  BroadcastEngine bcast{net, seq, coll, [this](net::NodeId node, const BcastOp& op) {
                          applied[static_cast<std::size_t>(node)].push_back(op.object_id);
                        }};

  static BcastOp op(std::uint64_t s) { return BcastOp{static_cast<int>(s), [](void*) {}}; }

  void ship(net::NodeId node, std::uint64_t s) {
    net::Message m;
    m.dst = node;
    m.tag = kTagBcastData;
    m.payload = net::make_payload(BroadcastEngine::Shipment{s, op(s)});
    net.endpoint(node).deliver(std::move(m));
  }
};

/// 0..n-1 scrambled, with `first` moved to the front and 0 to the back:
/// the first early arrival lands `first` ahead, and nothing applies
/// until the last shipment.
std::vector<std::uint64_t> scrambled(std::uint64_t n, std::uint64_t first, unsigned seed) {
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  std::shuffle(order.begin(), order.end(), std::mt19937(seed));
  std::iter_swap(order.begin(), std::find(order.begin(), order.end(), first));
  std::iter_swap(order.end() - 1, std::find(order.begin(), order.end(), std::uint64_t{0}));
  return order;
}

std::vector<int> iota_ints(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(Reorder, ScrambledShipmentsApplyOnceInSequenceOrder) {
  ReorderFixture f;
  // The first arrival lands 40 ahead, far past the ring's initial size,
  // so the ring grows while it holds ops, and grows again as later
  // shipments land further ahead.
  const auto order = scrambled(200, 40, 7);
  for (std::uint64_t s : order) {
    EXPECT_TRUE(f.applied[1].empty()) << "applied before seq 0 arrived";
    f.ship(1, s);
  }
  EXPECT_EQ(f.applied[1], iota_ints(200));
  EXPECT_TRUE(f.applied[0].empty());
  EXPECT_EQ(f.bcast.applied_total(), 200u);
}

TEST(Reorder, BurstsInterleaveInOrderAndEarlyArrivals) {
  ReorderFixture f;
  // Rounds of 64 shipments: each round scrambled, so in-order applies,
  // buffered runs and ring wrap-around mix at every offset.
  for (unsigned round = 0; round < 8; ++round) {
    std::vector<std::uint64_t> order(64);
    std::iota(order.begin(), order.end(), std::uint64_t{round} * 64);
    std::shuffle(order.begin(), order.end(), std::mt19937(round));
    for (std::uint64_t s : order) f.ship(1, s);
    EXPECT_EQ(f.applied[1], iota_ints(static_cast<int>((round + 1) * 64))) << "round " << round;
  }
}

TEST(Reorder, SenderWriteCompletesOnlyAfterItsOwnSeqApplies) {
  ReorderFixture f;
  f.seq.grant = 20;  // node 0's write is sequence number 20
  bool done = false;
  f.eng.spawn([](ReorderFixture& fx, bool& out) -> sim::Task<void> {
    co_await fx.bcast.broadcast(0, 16, ReorderFixture::op(20));
    out = true;
  }(f, done));
  f.eng.spawn([](ReorderFixture& fx, const bool& writer_done) -> sim::Task<void> {
    const auto order = scrambled(20, 13, 3);
    for (std::uint64_t s : order) {
      co_await fx.eng.delay(sim::microseconds(10));
      EXPECT_FALSE(writer_done) << "write returned before seq " << s << " was applied";
      fx.ship(0, s);
    }
  }(f, done));
  f.eng.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.applied[0], iota_ints(21));
  // Node 1 got seq 20 over the LAN only; it stays buffered there.
  EXPECT_TRUE(f.applied[1].empty());
}

}  // namespace
}  // namespace alb::orca
