// Network routing, delivery, broadcast, and traffic accounting tests.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/presets.hpp"
#include "paper.hpp"
#include "sim/task.hpp"

namespace alb::net {
namespace {

Message mk(NodeId src, NodeId dst, std::size_t bytes, MsgKind kind = MsgKind::Data,
           int tag = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.bytes = bytes;
  m.kind = kind;
  m.tag = tag;
  return m;
}

TEST(Network, IntraClusterDeliveryLatency) {
  sim::Engine eng;
  Network net(eng, das_config(1, 4));
  sim::SimTime arrival = -1;
  eng.spawn([](Network& n, sim::SimTime& out) -> sim::Task<void> {
    n.send(mk(0, 1, 0));
    Message m = co_await n.endpoint(1).receive(0);
    out = m.sent_at >= 0 ? n.engine().now() : -1;
  }(net, arrival));
  eng.run();
  // Null message over Myrinet: 3 us overhead + 17 us latency = 20 us.
  EXPECT_EQ(arrival, sim::microseconds(20));
}

TEST(Network, InterClusterNullMessageTakesOneWayWanPath) {
  sim::Engine eng;
  Network net(eng, das_config(2, 4));
  sim::SimTime arrival = -1;
  eng.spawn([](Network& n, sim::SimTime& out) -> sim::Task<void> {
    n.send(mk(0, 4, 0));  // node 0 in cluster 0 -> node 4 in cluster 1
    (void)co_await n.endpoint(4).receive(0);
    out = n.engine().now();
  }(net, arrival));
  eng.run();
  // 1.35 ms one-way from the preset calibration.
  EXPECT_NEAR(static_cast<double>(arrival), 1.35e6, 0.05e6);
}

TEST(Network, RoundtripMatchesPaperWanLatency) {
  sim::Engine eng;
  Network net(eng, das_config(2, 4));
  sim::SimTime rtt = -1;
  // Echo server on node 4.
  eng.spawn([](Network& n) -> sim::Task<void> {
    Message m = co_await n.endpoint(4).receive(7);
    n.send(mk(4, m.src, 0, MsgKind::Data, 8));
  }(net));
  eng.spawn([](Network& n, sim::SimTime& out) -> sim::Task<void> {
    sim::SimTime start = n.engine().now();
    n.send(mk(0, 4, 0, MsgKind::Data, 7));
    (void)co_await n.endpoint(0).receive(8);
    out = n.engine().now() - start;
  }(net, rtt));
  eng.run();
  EXPECT_NEAR(static_cast<double>(rtt), bench::paper::kRpc.wan_latency_ms * 1e6, 0.1e6);
}

TEST(Network, WanBandwidthLimitsLargeMessages) {
  sim::Engine eng;
  Network net(eng, das_config(2, 4));
  sim::SimTime arrival = -1;
  const std::size_t bytes = 100 * 1024;
  eng.spawn([](Network& n, sim::SimTime& out, std::size_t sz) -> sim::Task<void> {
    n.send(mk(0, 4, sz));
    (void)co_await n.endpoint(4).receive(0);
    out = n.engine().now();
  }(net, arrival, bytes));
  eng.run();
  // Full path: FE access serialization + WAN serialization (dominant,
  // 102400 B / 566250 B/s = 181 ms) + FE delivery serialization + fixed
  // latencies/overheads (~1.35 ms).
  auto cfg = das_config(2, 4);
  double expect_ms = (static_cast<double>(cfg.access.serialize_time(bytes)) * 2 +
                      static_cast<double>(cfg.wan.serialize_time(bytes)) +
                      1.35e6) / 1e6;
  EXPECT_NEAR(static_cast<double>(arrival) / 1e6, expect_ms, 1.0);
}

TEST(Network, SelfSendLoopsBackThroughQueue) {
  sim::Engine eng;
  Network net(eng, das_config(1, 2));
  bool got = false;
  eng.spawn([](Network& n, bool& out) -> sim::Task<void> {
    n.send(mk(1, 1, 64));
    Message m = co_await n.endpoint(1).receive(0);
    out = (m.src == 1 && m.bytes == 64);
  }(net, got));
  eng.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(net.stats().total_messages(), 0u);  // loopback is free
}

TEST(Network, PayloadSurvivesShipment) {
  sim::Engine eng;
  Network net(eng, das_config(2, 2));
  std::string got;
  eng.spawn([](Network& n, std::string& out) -> sim::Task<void> {
    Message m = mk(0, 3, 11);
    m.payload = make_payload<std::string>("hello world");
    n.send(std::move(m));
    Message r = co_await n.endpoint(3).receive(0);
    out = payload_as<std::string>(r);
  }(net, got));
  eng.run();
  EXPECT_EQ(got, "hello world");
}

TEST(Network, LanBroadcastReachesAllOthersSimultaneously) {
  sim::Engine eng;
  Network net(eng, das_config(1, 8));
  std::vector<sim::SimTime> arrivals;
  for (int i = 1; i < 8; ++i) {
    eng.spawn([](Network& n, int node, std::vector<sim::SimTime>& out) -> sim::Task<void> {
      (void)co_await n.endpoint(node).receive(0);
      out.push_back(n.engine().now());
    }(net, i, arrivals));
  }
  eng.schedule_after(0, [&] { net.lan_broadcast(0, mk(0, kNoNode, 0, MsgKind::Bcast)); });
  eng.run();
  ASSERT_EQ(arrivals.size(), 7u);
  for (auto t : arrivals) EXPECT_EQ(t, arrivals[0]);
  // 3 us overhead + 22 us broadcast latency = 25 us.
  EXPECT_EQ(arrivals[0], sim::microseconds(25));
  // The sender is not among the receivers.
  EXPECT_EQ(net.endpoint(0).pending(0), 0u);
}

TEST(Network, WanBroadcastFansOutInRemoteCluster) {
  sim::Engine eng;
  Network net(eng, das_config(2, 4));
  int received = 0;
  for (int i = 4; i < 8; ++i) {
    eng.spawn([](Network& n, int node, int& count) -> sim::Task<void> {
      (void)co_await n.endpoint(node).receive(0);
      ++count;
    }(net, i, received));
  }
  eng.schedule_after(0, [&] { net.wan_broadcast(0, 1, mk(0, kNoNode, 128, MsgKind::Bcast)); });
  eng.run();
  EXPECT_EQ(received, 4);
  EXPECT_EQ(net.stats().kind(MsgKind::Bcast).inter_msgs, 1u);
}

TEST(Network, TrafficStatsClassifyIntraVsInter) {
  sim::Engine eng;
  Network net(eng, das_config(2, 4));
  net.send(mk(0, 1, 100, MsgKind::Rpc));       // intra
  net.send(mk(0, 5, 200, MsgKind::Rpc));       // inter
  net.send(mk(5, 0, 50, MsgKind::RpcReply));   // inter
  net.send(mk(2, 3, 25, MsgKind::Data));       // intra
  eng.run();
  const auto& s = net.stats();
  EXPECT_EQ(s.kind(MsgKind::Rpc).intra_msgs, 1u);
  EXPECT_EQ(s.kind(MsgKind::Rpc).intra_bytes, 100u);
  EXPECT_EQ(s.kind(MsgKind::Rpc).inter_msgs, 1u);
  EXPECT_EQ(s.kind(MsgKind::Rpc).inter_bytes, 200u);
  EXPECT_EQ(s.inter_rpc_bytes(), 250u);  // request + reply
  EXPECT_EQ(s.kind(MsgKind::Data).intra_msgs, 1u);
  EXPECT_EQ(s.total_messages(), 4u);
}

TEST(Network, GatewayIsStoreAndForwardChokepoint) {
  sim::Engine eng;
  auto cfg = das_config(2, 8);
  Network net(eng, cfg);
  // All eight nodes of cluster 0 send 10 KB to cluster 1 at t=0; the WAN
  // circuit must serialize them one after another.
  std::vector<sim::SimTime> arrivals;
  for (int i = 8; i < 16; ++i) {
    eng.spawn([](Network& n, int node, std::vector<sim::SimTime>& out) -> sim::Task<void> {
      (void)co_await n.endpoint(node).receive(0);
      out.push_back(n.engine().now());
    }(net, i, arrivals));
  }
  for (int i = 0; i < 8; ++i) {
    net.send(mk(i, 8 + i, 10 * 1024, MsgKind::Data));
  }
  eng.run();
  ASSERT_EQ(arrivals.size(), 8u);
  std::sort(arrivals.begin(), arrivals.end());
  // Serialization of 10 KB at 566 KB/s is ~18 ms; arrivals must be spaced
  // by at least that (minus FE jitter), demonstrating WAN queueing.
  double ser_ns = 10240.0 / (4.53e6 / 8.0) * 1e9;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i] - arrivals[i - 1], static_cast<sim::SimTime>(ser_ns * 0.9));
  }
  EXPECT_GT(net.wan_link(0, 1).queueing_time(), 0);
}

TEST(Network, DistinctWanCircuitsDoNotContend) {
  sim::Engine eng;
  Network net(eng, das_config(3, 2));
  std::vector<sim::SimTime> arrivals(2, -1);
  eng.spawn([](Network& n, sim::SimTime& out) -> sim::Task<void> {
    (void)co_await n.endpoint(2).receive(0);
    out = n.engine().now();
  }(net, arrivals[0]));
  eng.spawn([](Network& n, sim::SimTime& out) -> sim::Task<void> {
    (void)co_await n.endpoint(4).receive(0);
    out = n.engine().now();
  }(net, arrivals[1]));
  // Two large messages from different nodes of cluster 0 to different
  // remote clusters use distinct PVCs -> near-identical arrival times.
  net.send(mk(0, 2, 50 * 1024, MsgKind::Data));
  net.send(mk(1, 4, 50 * 1024, MsgKind::Data));
  eng.run();
  EXPECT_NEAR(static_cast<double>(arrivals[0]), static_cast<double>(arrivals[1]), 1e5);
}

TEST(Network, MessageIdsAreUniqueAndMonotonic) {
  sim::Engine eng;
  Network net(eng, das_config(1, 2));
  auto id1 = net.send(mk(0, 1, 0));
  auto id2 = net.send(mk(1, 0, 0));
  EXPECT_LT(id1, id2);
  eng.run();
}

}  // namespace
}  // namespace alb::net
