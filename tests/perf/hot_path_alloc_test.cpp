// Steady-state allocation tests for the hot path.
//
// This binary replaces global operator new/delete with counting hooks.
// Each test drives a scenario to steady state (so pools, mailboxes and
// the event-queue storage reach their high-water marks), then asserts
// that a long steady-state stretch performs ZERO heap allocations:
//
//   * delay()          — the coroutine timer fast path
//   * yield()          — requeue-at-now
//   * LAN unicast      — send -> link -> deliver -> mailbox -> resume
//   * channel ping-pong
//
// These are the operations the paper's cost model says dominate
// medium-grain applications (per-message overhead, §2-§3); a heap
// allocation per simulated hop is exactly the overhead class the
// zero-allocation refactor removed, and this test keeps it removed.
//
// The same hooks bound the footprint of a metrics snapshot, which every
// run's AppResult carries and whole sweeps retain: at most four heap
// blocks whatever the instrument count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/network.hpp"
#include "net/presets.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "trace/metrics.hpp"

namespace {
std::uint64_t g_allocations = 0;
}

// Counting global allocator. Replacing the throwing forms is enough: the
// nothrow/aligned forms forward here in libstdc++, and the hot path uses
// plain new anyway. The hooks are out of line because, inlined into one
// caller, the malloc() behind new and the free() behind delete trip
// GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace alb::sim {
namespace {

struct Window {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t count() const { return end - begin; }
};

TEST(HotPathAlloc, DelayLoopIsAllocationFree) {
  Engine eng;
  Window w;
  eng.spawn([](Engine& e, Window& win) -> Task<void> {
    for (int i = 0; i < 256; ++i) co_await e.delay(5);  // warm-up
    win.begin = g_allocations;
    for (int i = 0; i < 20000; ++i) co_await e.delay(5);
    win.end = g_allocations;
  }(eng, w));
  eng.run();
  EXPECT_EQ(w.count(), 0u) << "delay() allocated in steady state";
}

TEST(HotPathAlloc, YieldLoopIsAllocationFree) {
  Engine eng;
  Window w;
  eng.spawn([](Engine& e, Window& win) -> Task<void> {
    for (int i = 0; i < 256; ++i) co_await e.yield();
    win.begin = g_allocations;
    for (int i = 0; i < 20000; ++i) co_await e.yield();
    win.end = g_allocations;
  }(eng, w));
  eng.run();
  EXPECT_EQ(w.count(), 0u) << "yield() allocated in steady state";
}

TEST(HotPathAlloc, ChannelPingPongIsAllocationFree) {
  Engine eng;
  Channel<int> a(eng);
  Channel<int> b(eng);
  Window w;
  eng.spawn([](Engine&, Channel<int>& tx, Channel<int>& rx, Window& win) -> Task<void> {
    for (int i = 0; i < 256; ++i) {
      tx.send(i);
      (void)co_await rx.receive();
    }
    win.begin = g_allocations;
    for (int i = 0; i < 20000; ++i) {
      tx.send(i);
      (void)co_await rx.receive();
    }
    win.end = g_allocations;
  }(eng, a, b, w));
  eng.spawn([](Channel<int>& rx, Channel<int>& tx) -> Task<void> {
    for (int i = 0; i < 256 + 20000; ++i) {
      int v = co_await rx.receive();
      tx.send(v);
    }
  }(a, b));
  eng.run();
  EXPECT_EQ(w.count(), 0u) << "channel round-trip allocated in steady state";
}

TEST(HotPathAlloc, LanUnicastIsAllocationFree) {
  Engine eng;
  net::Network net(eng, net::das_config(1, 4));
  Window w;
  // Payload-free data messages node 0 -> node 1: the network charges the
  // link, schedules the delivery event, the mailbox hands the message to
  // the blocked receiver. None of it may allocate once warm.
  eng.spawn([](net::Network& nw, Window& win) -> Task<void> {
    auto send_one = [&nw] {
      net::Message m;
      m.src = 0;
      m.dst = 1;
      m.bytes = 64;
      m.tag = 5;
      nw.send(std::move(m));
    };
    for (int i = 0; i < 256; ++i) {
      send_one();
      (void)co_await nw.endpoint(0).receive(6);
    }
    win.begin = g_allocations;
    for (int i = 0; i < 10000; ++i) {
      send_one();
      (void)co_await nw.endpoint(0).receive(6);
    }
    win.end = g_allocations;
  }(net, w));
  eng.spawn([](net::Network& nw) -> Task<void> {
    for (int i = 0; i < 256 + 10000; ++i) {
      net::Message m = co_await nw.endpoint(1).receive(5);
      m.src = 1;
      m.dst = 0;
      m.tag = 6;
      nw.send(std::move(m));
    }
  }(net));
  eng.run();
  EXPECT_EQ(w.count(), 0u) << "LAN unicast round-trip allocated in steady state";
}

// The WAN multi-hop path threads one moved Message through the explicit
// hop plan; after warm-up (event-queue slots, link state) the per-hop
// continuations must be allocation-free too.
TEST(HotPathAlloc, WanMultiHopIsAllocationFree) {
  Engine eng;
  net::Network net(eng, net::das_config(2, 2));
  Window w;
  eng.spawn([](net::Network& nw, Window& win) -> Task<void> {
    auto send_one = [&nw] {
      net::Message m;
      m.src = 0;
      m.dst = 2;  // other cluster: access link + 2 gateways + WAN
      m.bytes = 64;
      m.tag = 5;
      nw.send(std::move(m));
    };
    for (int i = 0; i < 256; ++i) {
      send_one();
      (void)co_await nw.endpoint(0).receive(6);
    }
    win.begin = g_allocations;
    for (int i = 0; i < 4000; ++i) {
      send_one();
      (void)co_await nw.endpoint(0).receive(6);
    }
    win.end = g_allocations;
  }(net, w));
  eng.spawn([](net::Network& nw) -> Task<void> {
    for (int i = 0; i < 256 + 4000; ++i) {
      net::Message m = co_await nw.endpoint(2).receive(5);
      m.src = 2;
      m.dst = 0;
      m.tag = 6;
      nw.send(std::move(m));
    }
  }(net));
  eng.run();
  EXPECT_EQ(w.count(), 0u) << "WAN multi-hop round-trip allocated in steady state";
}

TEST(HotPathAlloc, MetricsSnapshotIsAtMostFourHeapBlocks) {
  // Names longer than the small-string buffer, as the real catalogue's are.
  trace::MetricsSnapshot snap;
  for (int i = 0; i < 48; ++i) {
    snap.set_counter("net/wan.table.kind" + std::to_string(i) + ".msgs", 1);
  }
  for (int i = 0; i < 16; ++i) {
    snap.set_gauge("orca/adapt.signal" + std::to_string(i) + ".ratio", 0.5);
  }
  snap.set_histogram("net/wan.msg_bytes", trace::Histogram{});
  snap.set_histogram("net/wan.queue_ns", trace::Histogram{});

  const std::uint64_t begin = g_allocations;
  const trace::MetricsSnapshot copy = snap;
  EXPECT_LE(g_allocations - begin, 4u) << "a snapshot copy allocated per instrument";
  EXPECT_TRUE(copy == snap);
}

}  // namespace
}  // namespace alb::sim
