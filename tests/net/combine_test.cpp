// Transport-level WAN features: gateway message combining (size and
// epoch flushes, idle bypass, exclusions), per-wire framing, parallel
// sub-streams, and the WanTransportConfig validation surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/network.hpp"
#include "net/presets.hpp"

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

/// Arrival-time probe: remembers when tag-0 messages reach `node`.
void watch(Network& net, NodeId node, std::vector<sim::SimTime>& out) {
  net.endpoint(node).set_handler(0, [&net, &out](const Message&) { out.push_back(net.engine().now()); });
}

TEST(Combine, SizeThresholdFlushShipsOneWireMessage) {
  auto cfg = das_config(2, 8);
  cfg.wan_transport.combine_bytes = 2048;
  cfg.wan_transport.combine_epoch = sim::milliseconds(100);
  sim::Engine eng;
  Network net(eng, cfg);
  std::vector<sim::SimTime> control_at, data_at;
  watch(net, 8, control_at);
  for (NodeId n = 9; n <= 12; ++n) watch(net, n, data_at);
  // Prime the circuit: a 12 KB control message keeps it serializing
  // until ~22 ms, so the data burst at 20 ms is held, not bypassed.
  net.send(mk(0, 8, 12 * 1024, MsgKind::Control));
  eng.schedule_after(sim::milliseconds(20), [&net] {
    for (int i = 1; i <= 4; ++i) net.send(mk(i, 8 + i, 512));
  });
  eng.run();

  // Four held 512 B messages reach the 2048 B threshold and ship as one
  // wire message behind the control transfer.
  const auto& c = net.stats().combined();
  EXPECT_EQ(c.flushes, 1u);
  EXPECT_EQ(c.members, 4u);
  EXPECT_EQ(c.logical_bytes, 2048u);
  EXPECT_EQ(c.wire_bytes, 2048u);  // frame_bytes = 0
  EXPECT_EQ(net.wan_link(0, 1).messages(), 2u);  // control + combined batch

  const auto& d = net.stats().kind(MsgKind::Data);
  EXPECT_EQ(d.inter_msgs, 1u);
  EXPECT_EQ(d.inter_bytes, 2048u);
  EXPECT_EQ(d.inter_logical_msgs, 4u);
  EXPECT_EQ(d.inter_logical_bytes, 2048u);

  // Every member was delivered, after the control message, streaming
  // off the train as its bytes cross: consecutive arrivals are spaced
  // by pure bandwidth time (~0.9 ms for 512 B), with no per-message
  // overhead between them.
  ASSERT_EQ(control_at.size(), 1u);
  ASSERT_EQ(data_at.size(), 4u);
  for (sim::SimTime t : data_at) EXPECT_GT(t, control_at[0]);
  const auto [lo, hi] = std::minmax_element(data_at.begin(), data_at.end());
  EXPECT_LT(*hi - *lo, sim::milliseconds(3));
  EXPECT_GT(*hi - *lo, sim::milliseconds(2));
}

TEST(Combine, CircuitFreeFlushShipsAsSoonAsTheWireCanTakeIt) {
  auto cfg = das_config(2, 8);
  cfg.wan_transport.combine_bytes = 1 << 20;                 // never size-flush
  cfg.wan_transport.combine_epoch = sim::milliseconds(100);  // backstop far away
  sim::Engine eng;
  Network net(eng, cfg);
  std::vector<sim::SimTime> control_at, data_at;
  watch(net, 8, control_at);
  watch(net, 9, data_at);
  // Prime keeps the circuit serializing until ~20.9 ms; the 512 B data
  // message held at ~20.1 ms must ship the moment the circuit frees —
  // not at the distant epoch backstop.
  net.send(mk(0, 8, 11 * 1024, MsgKind::Control));
  eng.schedule_after(sim::milliseconds(20), [&net] { net.send(mk(1, 9, 512)); });
  eng.run();

  EXPECT_EQ(net.stats().combined().flushes, 1u);
  EXPECT_EQ(net.stats().combined().members, 1u);
  ASSERT_EQ(control_at.size(), 1u);
  ASSERT_EQ(data_at.size(), 1u);
  // Shipped at the circuit-free moment: delivered one serialization +
  // propagation behind the control transfer, with no wire queueing (a
  // circuit-free flush never waits behind anything).
  EXPECT_GT(data_at[0], control_at[0]);
  EXPECT_LT(data_at[0], sim::milliseconds(25));
  EXPECT_EQ(net.wan_link(0, 1).queueing_time(), 0);
}

TEST(Combine, EpochBoundaryIsTheBackstopOnABusyCircuit) {
  auto cfg = das_config(2, 8);
  cfg.wan_transport.combine_bytes = 1 << 20;  // never size-flush
  cfg.wan_transport.combine_epoch = sim::milliseconds(5);
  sim::Engine eng;
  Network net(eng, cfg);
  std::vector<sim::SimTime> data_at;
  watch(net, 9, data_at);
  // The prime keeps the circuit serializing until ~29 ms — beyond the
  // held message's 25 ms epoch boundary — so the boundary flush fires
  // on the busy circuit and the batch takes its queue slot there.
  net.send(mk(0, 8, 16 * 1024, MsgKind::Control));
  eng.schedule_after(sim::milliseconds(20), [&net] { net.send(mk(1, 9, 512)); });
  eng.run();

  EXPECT_EQ(net.stats().combined().flushes, 1u);
  EXPECT_EQ(net.stats().combined().members, 1u);
  ASSERT_EQ(data_at.size(), 1u);
  // The wire saw a real wait (a circuit-free flush never queues), and
  // delivery lands one serialization + propagation after the circuit
  // frees at ~29 ms.
  EXPECT_GT(net.wan_link(0, 1).queueing_time(), 0);
  EXPECT_GT(data_at[0], sim::milliseconds(29));
  EXPECT_LT(data_at[0], sim::milliseconds(33));
}

TEST(Combine, IdleCircuitBypassesCombining) {
  auto combining = das_config(2, 2);
  combining.wan_transport.combine_bytes = 4096;
  sim::SimTime arrival[2] = {-1, -1};
  for (int i = 0; i < 2; ++i) {
    sim::Engine eng;
    Network net(eng, i == 0 ? das_config(2, 2) : combining);
    net.endpoint(2).set_handler(0, [&net, &t = arrival[i]](const Message&) { t = net.engine().now(); });
    net.send(mk(0, 2, 512));
    eng.run();
    if (i == 1) {
      EXPECT_EQ(net.stats().combined().flushes, 0u);
    }
  }
  // An uncontended message never waits for an epoch: byte-identical
  // timing with combining armed or absent.
  EXPECT_GT(arrival[0], 0);
  EXPECT_EQ(arrival[0], arrival[1]);
}

TEST(Combine, HeldControlShipsExactlyWhenFlatQueueingWould) {
  // Ordering control combines like any asynchronous traffic, but its
  // latency is protocol-critical: the circuit-free flush must deliver a
  // held sequencer message at the exact time per-message wire queueing
  // would have.
  sim::SimTime arrival[2] = {-1, -1};
  std::uint64_t flushes = 0;
  for (int i = 0; i < 2; ++i) {
    auto cfg = das_config(2, 2);
    if (i == 1) {
      cfg.wan_transport.combine_bytes = 1 << 20;
      cfg.wan_transport.combine_epoch = sim::seconds(1);
    }
    sim::Engine eng;
    Network net(eng, cfg);
    std::vector<sim::SimTime> at;
    watch(net, 2, at);
    // The 8 KB control keeps the circuit serializing until ~15 ms; the
    // small sequencer message reaches the gateway mid-transfer and is
    // held (combining run) or queued on the link (flat run).
    net.send(mk(0, 2, 8 * 1024, MsgKind::Control));
    eng.schedule_after(sim::milliseconds(5), [&net] { net.send(mk(1, 2, 64, MsgKind::Control)); });
    eng.run();
    ASSERT_EQ(at.size(), 2u);
    arrival[i] = at[1];
    if (i == 1) flushes = net.stats().combined().flushes;
  }
  EXPECT_EQ(flushes, 1u);  // the second control was held, then flushed
  EXPECT_EQ(arrival[0], arrival[1]);
}

TEST(Combine, FrameBytesChargedPerWireMessageAndAmortizedByCombining) {
  // Flat: every 512 B message pays the 64 B frame on the wire.
  auto flat = das_config(2, 8);
  flat.wan_transport.frame_bytes = 64;
  {
    sim::Engine eng;
    Network net(eng, flat);
    for (NodeId n = 9; n <= 12; ++n) net.endpoint(n).set_handler(0, [](const Message&) {});
    for (int i = 1; i <= 4; ++i) net.send(mk(i, 8 + i, 512));
    eng.run();
    EXPECT_EQ(net.stats().kind(MsgKind::Data).inter_bytes, 4u * (512u + 64u));
    EXPECT_EQ(net.stats().kind(MsgKind::Data).inter_logical_bytes, 4u * 512u);
  }
  // Combined: the batch of four shares a single frame.
  auto combined = flat;
  combined.wan_transport.combine_bytes = 2048;
  combined.wan_transport.combine_epoch = sim::milliseconds(100);
  {
    sim::Engine eng;
    Network net(eng, combined);
    for (NodeId n = 8; n <= 12; ++n) net.endpoint(n).set_handler(0, [](const Message&) {});
    net.send(mk(0, 8, 12 * 1024, MsgKind::Control));
    eng.schedule_after(sim::milliseconds(20), [&net] {
      for (int i = 1; i <= 4; ++i) net.send(mk(i, 8 + i, 512));
    });
    eng.run();
    EXPECT_EQ(net.stats().kind(MsgKind::Data).inter_bytes, 2048u + 64u);
    EXPECT_EQ(net.stats().combined().wire_bytes, 2048u + 64u);
    EXPECT_EQ(net.stats().combined().logical_bytes, 2048u);
  }
}

TEST(Combine, ParallelStreamsSpeedLargeTransfersAndSingleStreamIsIdentical) {
  const std::size_t bytes = 256 * 1024;  // 4 chunks at the default 64 KB
  sim::SimTime arrival[3] = {-1, -1, -1};
  for (int i = 0; i < 3; ++i) {
    auto cfg = das_config(2, 2);
    if (i == 1) cfg.wan_transport.streams = 1;  // explicit == default
    if (i == 2) cfg.wan_transport.streams = 4;
    sim::Engine eng;
    Network net(eng, cfg);
    net.endpoint(2).set_handler(0, [&net, &t = arrival[i]](const Message&) { t = net.engine().now(); });
    net.send(mk(0, 2, bytes));
    eng.run();
  }
  EXPECT_GT(arrival[0], 0);
  // streams = 1 is the historical circuit, bit for bit.
  EXPECT_EQ(arrival[0], arrival[1]);
  // The configured WAN bandwidth is per-stream: striping 4 chunks over
  // 4 paced sub-streams roughly quarters the serialization time
  // (~463 ms -> ~116 ms on the DAS figures).
  EXPECT_LT(arrival[2], arrival[0] / 2);
  EXPECT_GT(arrival[2], sim::milliseconds(100));
}

TEST(Combine, TransportConfigValidation) {
  auto reject = [](auto mutate) {
    TopologyConfig cfg = das_config(2, 2);
    mutate(cfg.wan_transport);
    EXPECT_THROW(cfg.validate(), ConfigError);
  };
  reject([](WanTransportConfig& wt) { wt.streams = 0; });
  reject([](WanTransportConfig& wt) { wt.streams = 2000; });
  reject([](WanTransportConfig& wt) { wt.stream_chunk_bytes = 0; });
  reject([](WanTransportConfig& wt) {
    wt.combine_bytes = 1024;
    wt.combine_epoch = 0;
  });
  // The in-range corners construct.
  TopologyConfig ok = das_config(2, 2);
  ok.wan_transport.streams = 1024;
  ok.wan_transport.combine_bytes = 1;
  ok.wan_transport.combine_epoch = 1;
  EXPECT_NO_THROW(ok.validate());
}

}  // namespace
}  // namespace alb::net
