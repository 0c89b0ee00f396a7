// Network routing, delivery, broadcast, and traffic accounting tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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

/// One receiver's copy of a broadcast: its arrival time and the fields a
/// shared fan-out delivery must hand each receiver.
struct Receipt {
  sim::SimTime at = -1;
  NodeId dst = kNoNode;
  std::uint64_t id = 0;
  std::size_t bytes = 0;
  const void* payload = nullptr;
};

Receipt receipt(sim::SimTime at, const Message& m) {
  return Receipt{at, m.dst, m.id, m.bytes, m.payload.get()};
}

/// Receives one tag-0 message at `node` through a handler.
void receive_by_handler(Network& net, NodeId node, std::vector<Receipt>& out) {
  net.endpoint(node).set_handler(0, [&net, &out](const Message& m) {
    out.push_back(receipt(net.engine().now(), m));
  });
}

/// Receives one tag-0 message at `node` from its mailbox.
void receive_by_mailbox(Network& net, NodeId node, std::vector<Receipt>& out) {
  net.engine().spawn([](Network& n, NodeId at, std::vector<Receipt>& o) -> sim::Task<void> {
    const Message m = co_await n.endpoint(at).receive(0);
    o.push_back(receipt(n.engine().now(), m));
  }(net, node, out));
}

/// One broadcast reached exactly the nodes `want`, all at the same time,
/// each seeing its own node as `dst` and the one message's id, bytes and
/// payload.
void expect_fan_out(const std::vector<Receipt>& got, std::vector<NodeId> want, std::uint64_t id,
                    std::size_t bytes, const void* payload) {
  ASSERT_EQ(got.size(), want.size());
  std::vector<NodeId> dsts;
  for (const Receipt& r : got) {
    dsts.push_back(r.dst);
    EXPECT_EQ(r.at, got[0].at);
    EXPECT_EQ(r.id, id);
    EXPECT_EQ(r.bytes, bytes);
    EXPECT_EQ(r.payload, payload);
  }
  std::sort(dsts.begin(), dsts.end());
  EXPECT_EQ(dsts, want);
}

TEST(Network, LanBroadcastReachesAllOthersSimultaneously) {
  sim::Engine eng;
  Network net(eng, das_config(1, 8));
  // Node 1 takes the broadcast in a handler, the rest from mailboxes:
  // both must see the same message, addressed to themselves.
  std::vector<Receipt> got;
  receive_by_handler(net, 1, got);
  for (NodeId i = 2; i < 8; ++i) receive_by_mailbox(net, i, got);
  Message sent = mk(0, kNoNode, 0, MsgKind::Bcast);
  sent.payload = make_payload<int>(7);
  const std::shared_ptr<const void> payload = sent.payload;
  std::uint64_t id = 0;
  eng.schedule_after(0, [&] { id = net.lan_broadcast(0, std::move(sent)); });
  eng.run();
  expect_fan_out(got, {1, 2, 3, 4, 5, 6, 7}, id, 0, payload.get());
  ASSERT_FALSE(got.empty());
  // 3 us overhead + 22 us broadcast latency = 25 us.
  EXPECT_EQ(got[0].at, sim::microseconds(25));
  // The sender is not among the receivers, and the last receiver
  // released the shared message.
  EXPECT_EQ(net.endpoint(0).pending(0), 0u);
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(Network, LanBroadcastInOneNodeClusterDeliversNothing) {
  sim::Engine eng;
  Network net(eng, das_config(1, 1));
  Message m = mk(0, kNoNode, 32, MsgKind::Bcast);
  m.payload = make_payload<int>(3);
  const std::shared_ptr<const void> payload = m.payload;
  net.lan_broadcast(0, std::move(m));
  EXPECT_EQ(eng.pending_events(), 0u);
  EXPECT_EQ(eng.run(), 0u);
  EXPECT_EQ(net.endpoint(0).pending(0), 0u);
  // No fan-out record holds the message.
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(Network, WanBroadcastFansOutInRemoteCluster) {
  sim::Engine eng;
  Network net(eng, das_config(2, 4));
  std::vector<Receipt> got;
  receive_by_handler(net, 4, got);
  for (NodeId i = 5; i < 8; ++i) receive_by_mailbox(net, i, got);
  Message sent = mk(0, kNoNode, 128, MsgKind::Bcast);
  sent.payload = make_payload<int>(11);
  const std::shared_ptr<const void> payload = sent.payload;
  std::uint64_t id = 0;
  eng.schedule_after(0, [&] { id = net.wan_broadcast(0, 1, std::move(sent)); });
  eng.run();
  expect_fan_out(got, {4, 5, 6, 7}, id, 128, payload.get());
  EXPECT_EQ(net.stats().kind(MsgKind::Bcast).inter_msgs, 1u);
  EXPECT_EQ(payload.use_count(), 1);
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
